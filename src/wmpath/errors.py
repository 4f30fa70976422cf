"""Exception types raised across the library.

The CLI maps these onto exit codes: configuration and target-validation
problems exit with 2, numeric/domain failures with 3.  The class name is
what gets printed on stderr, so names are part of the public contract.
"""


class WmpathError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(WmpathError):
    """A scenario/config file or CLI argument failed validation."""


class ConvergenceError(WmpathError):
    """LAPACK's Hermitian eigensolver (``numpy.linalg.eigh``) did not converge."""


class OrthogonalPostselection(WmpathError):
    """The total transition amplitude is (numerically) zero.

    Relative amplitudes and weak values diverge for an orthogonal
    post-selection, so the library refuses to return them.
    """


class ZeroTransmission(WmpathError):
    """All path amplitudes vanish; the final state is unreachable."""


class ZeroNorm(WmpathError):
    """Post-selection success weight underflowed; no meter statistics."""


class MomentumUnderflow(WmpathError):
    """Momentum readings 2 Im(w) / delta_f^2 underflow at this pointer
    width, so weak values cannot be read back from them."""


class SingularFamily(WmpathError):
    """The operator family's eigenvalue matrix is rank deficient."""


class InconsistentReadout(WmpathError):
    """Projector readouts violate the sum rule; input data is corrupted."""


class AllZeroAmplitudes(WmpathError):
    """Strong statistics requested for an identically-zero amplitude set."""


class TargetSumViolation(WmpathError):
    """Requested relative amplitudes do not sum to one."""


class UnreachableTarget(WmpathError):
    """A nonzero relative amplitude was requested on a path the initial
    state does not populate."""


class GridError(WmpathError):
    """A numerical grid fails its span or resolution requirements."""
