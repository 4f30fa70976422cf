"""Virtual-path statistics of pre- and post-selected quantum systems.

The package decomposes a transition |psi> -> |phi> into interfering paths,
computes exact Gaussian-pointer readouts at any accuracy between the strong
and weak limits, reconstructs relative path amplitudes from weak-meter
data, designs post-selections realizing prescribed amplitudes, and treats
wave-packet tunneling as the same measurement pattern with a continuous
shift variable.
"""

from .errors import (
    AllZeroAmplitudes,
    ConfigError,
    ConvergenceError,
    GridError,
    InconsistentReadout,
    MomentumUnderflow,
    OrthogonalPostselection,
    SingularFamily,
    TargetSumViolation,
    UnreachableTarget,
    WmpathError,
    ZeroNorm,
    ZeroTransmission,
)
from .hilbert import (
    HermitianMatrix,
    Observable,
    StateVector,
    evolve,
    inner_product,
    spectral_decompose,
)
from .meter import (
    GaussianPointer,
    MeterReadout,
    QuadratureGrid,
    exact_mean_position,
    pointer_momentum_amplitude,
    pointer_position_amplitude,
    quadrature_moments,
    weak_asymptotics,
)
from .paths import (
    EigenvaluePartition,
    PathAmplitudeSet,
    RelativeAmplitudeSet,
    StrongStatistics,
    TransitionSpec,
    group,
    path_amplitudes,
    relative_amplitudes,
    strong_mean,
    strong_probabilities,
    weak_value,
    weak_value_from_matrix,
)
from .tomography import (
    JointReadout,
    MeterBattery,
    ReconstructionResult,
    design_postselection,
    joint_weak_means,
    predict_strong,
    projector_battery,
    reconstruct_alphas,
    reconstruct_from_operator_family,
)
from .tunneling import (
    BarrierSpec,
    PacketSpec,
    ShiftDistribution,
    ShiftGrid,
    TransmissionResult,
    log_modulus_derivative,
    momentum_shift,
    phase_derivative,
    reflection_amplitude,
    shift_amplitudes,
    simulate_transmission,
    transmission_amplitude,
    weak_shift,
)

__version__ = "0.1.0"
