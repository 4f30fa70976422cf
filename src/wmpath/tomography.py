"""Transition tomography: simultaneous weak meters and inversion.

A battery of weak meters coupled at the same instant reads out, to first
order in the coupling, exactly what each meter would read alone: the
weighted relative amplitudes of the transition in that meter's eigenbasis.
Measuring the N projectors of one basis therefore recovers every alpha_i,
from which the outcome statistics of any strong measurement in that basis
can be predicted without performing it.  The inverse problem is also
solvable: for any initial state and any target amplitudes summing to one
there is a post-selection state realizing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroAmplitudes,
    InconsistentReadout,
    SingularFamily,
    TargetSumViolation,
    UnreachableTarget,
)
from .hilbert import Observable, StateVector, _fix_phase
from .meter import GaussianPointer, weak_asymptotics
from .paths import (
    RelativeAmplitudeSet,
    StrongStatistics,
    TransitionSpec,
    _half_steps,
    _normalized_weights,
    _project,
    relative_amplitudes,
)

__all__ = [
    "MeterBattery",
    "JointReadout",
    "ReconstructionResult",
    "joint_weak_means",
    "reconstruct_alphas",
    "reconstruct_from_operator_family",
    "predict_strong",
    "design_postselection",
    "projector_battery",
]

CONDITION_LIMIT = 1e12
READOUT_SUM_TOL = 1e-6
TARGET_SUM_TOL = 1e-10


@dataclass(frozen=True)
class MeterBattery:
    """J observables measured simultaneously, sharing one pointer state."""

    operators: tuple[Observable, ...]
    pointer: GaussianPointer

    def __init__(self, operators, pointer):
        operators = tuple(operators)
        if not operators:
            raise ValueError("battery needs at least one operator")
        dim = operators[0].dimension
        if any(op.dimension != dim for op in operators):
            raise ValueError("all battery operators must share one dimension")
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "pointer", pointer)

    @property
    def size(self) -> int:
        return len(self.operators)

    @property
    def dimension(self) -> int:
        return self.operators[0].dimension


@dataclass(frozen=True)
class JointReadout:
    """Per-meter mean positions and momenta, first order in the coupling."""

    mean_f: np.ndarray
    mean_lambda: np.ndarray

    def __init__(self, mean_f, mean_lambda):
        mf = np.asarray(mean_f, dtype=float).reshape(-1)
        ml = np.asarray(mean_lambda, dtype=float).reshape(-1)
        if mf.size != ml.size:
            raise ValueError("position and momentum readout lengths differ")
        if not (np.all(np.isfinite(mf)) and np.all(np.isfinite(ml))):
            raise ValueError("readout contains non-finite entries")
        mf.setflags(write=False)
        ml.setflags(write=False)
        object.__setattr__(self, "mean_f", mf)
        object.__setattr__(self, "mean_lambda", ml)

    @property
    def size(self) -> int:
        return self.mean_f.size


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered amplitudes plus the strong statistics they predict."""

    alphas: RelativeAmplitudeSet
    predicted_omegas: StrongStatistics
    condition_number: float


def projector_battery(basis: Observable, pointer: GaussianPointer) -> MeterBattery:
    """The N rank-one projectors |i><i| of one orthonormal basis."""
    n = basis.dimension
    ops = []
    for i in range(n):
        # projector spectrum is (0,...,0,1); keep the basis vectors but
        # reorder so eigenvalues are ascending with |i> last
        order = [j for j in range(n) if j != i] + [i]
        vecs = basis.eigenvectors[:, order]
        vals = np.zeros(n)
        vals[-1] = 1.0
        ops.append(Observable(vals, vecs))
    return MeterBattery(ops, pointer)


def joint_weak_means(spec: TransitionSpec, battery: MeterBattery) -> JointReadout:
    """First-order mean readings of all meters coupled at t = T/2.

    Each meter j reads sum_i S^(j)_i Re alpha^(j)_i in position and
    (2/delta_f^2) sum_i S^(j)_i Im alpha^(j)_i in momentum, with the
    relative amplitudes computed in that operator's own eigenbasis --
    identical to running each weak meter alone.  Any observable already on
    ``spec`` is ignored; the battery supplies the measurement bases.
    """
    if battery.dimension != spec.dimension:
        raise ValueError("battery dimension does not match the transition")
    half_steps = _half_steps(spec)  # one decomposition of H per battery
    means_f = []
    means_l = []
    for op in battery.operators:
        alphas = relative_amplitudes(_project(half_steps, op))
        readout = weak_asymptotics(alphas, op, battery.pointer)
        means_f.append(readout.mean_f)
        means_l.append(readout.mean_lambda)
    return JointReadout(means_f, means_l)


def _weak_values(readout: JointReadout,
                 pointer: GaussianPointer) -> np.ndarray:
    """f_j + i (delta_f^2 / 2) Lambda_j: each meter's weak value
    sum_i S^(j)_i alpha^(j)_i, read back from its two mean readings."""
    return readout.mean_f + 0.5j * pointer.delta_f ** 2 * readout.mean_lambda


def reconstruct_alphas(readout: JointReadout,
                       pointer: GaussianPointer) -> RelativeAmplitudeSet:
    """Invert projector readouts: alpha_i = f_i + i (delta_f^2 / 2) Lambda_i.

    ``readout`` must hold the mean positions/momenta of the N projector
    meters of a single orthonormal basis, in basis order.  A projector's
    weak value is its alpha_i, so this is the S = I case of
    :func:`reconstruct_from_operator_family`.
    """
    alphas = _weak_values(readout, pointer)
    total = alphas.sum()
    if abs(total.real - 1.0) > READOUT_SUM_TOL or abs(total.imag) > READOUT_SUM_TOL:
        raise InconsistentReadout(
            f"projector readouts sum to {total:.8f}, expected 1; input corrupted")
    return RelativeAmplitudeSet(alphas, tol=1e-6)


def reconstruct_from_operator_family(readouts: JointReadout,
                                     family: MeterBattery,
                                     basis=None) -> ReconstructionResult:
    """Recover all relative amplitudes from N co-diagonal operators.

    The family's operators must be diagonal in one common basis with an
    invertible eigenvalue matrix S[j, i]; the 2N mean readings then give
    the N weak values S alpha, and one N x N complex solve gives alpha.
    ``basis`` (an Observable or a unitary column matrix) pins the ordering
    of the recovered amplitudes; when omitted it is taken from the family
    member with the most distinct eigenvalues, whose eigenbasis is least
    arbitrary.
    """
    n = family.dimension
    if family.size != n:
        raise ValueError(f"need exactly N={n} operators, got {family.size}")
    if readouts.size != n:
        raise ValueError("readout count does not match family size")

    if basis is None:
        distinct = [np.unique(np.round(op.eigenvalues, 9)).size
                    for op in family.operators]
        basis = family.operators[int(np.argmax(distinct))].eigenvectors
    elif isinstance(basis, Observable):
        basis = basis.eigenvectors
    else:
        basis = np.asarray(basis, dtype=complex)

    s_matrix = np.empty((n, n))
    for j, op in enumerate(family.operators):
        m = basis.conj().T @ op.matrix() @ basis
        off = m - np.diag(np.diag(m))
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(off).max() > 1e-10 * scale:
            raise ValueError(
                f"operator {j} is not diagonal in the family's common basis")
        s_matrix[j] = np.diag(m).real

    cond = float(np.linalg.cond(s_matrix))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularFamily(
            f"eigenvalue matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")

    alphas = RelativeAmplitudeSet(
        np.linalg.solve(s_matrix, _weak_values(readouts, family.pointer)),
        tol=1e-8 * cond)
    return ReconstructionResult(alphas=alphas,
                                predicted_omegas=predict_strong(alphas),
                                condition_number=cond)


def predict_strong(r: RelativeAmplitudeSet) -> StrongStatistics:
    """Strong-measurement probabilities predicted from weak data.

    The ratios omega_i / omega_j = |alpha_i|^2 / |alpha_j|^2 and
    sum(omega) = 1 fix omega_i = |alpha_i|^2 / sum_j |alpha_j|^2, the same
    normalisation :func:`strong_probabilities` applies to the A_i, since
    alpha is proportional to A.  Paths with alpha_i = 0 are never travelled
    (omega_i = 0).
    """
    stats = _normalized_weights(r.alphas)
    if stats is None:
        raise AllZeroAmplitudes("cannot predict statistics from all-zero amplitudes")
    return stats


def design_postselection(psi: StateVector, targets) -> StateVector:
    """Find the post-selection |phi> realizing prescribed amplitudes.

    Given z_i with sum(z) = 1, returns the normalized |phi> such that the
    H = 0 transition psi -> phi has relative amplitudes alpha_i = z_i.  The
    solution fixes <phi|i> proportional to z_i / <i|psi>, the overall scale
    by normalization, and the global phase by making the first nonzero
    component positive-real.
    """
    z = np.asarray(targets, dtype=complex).reshape(-1)
    if z.size != psi.dimension:
        raise ValueError("target count does not match the state dimension")
    total = z.sum()
    if abs(total - 1.0) > TARGET_SUM_TOL:
        raise TargetSumViolation(
            f"targets sum to {total:.12f}, expected 1 within {TARGET_SUM_TOL:.0e}")

    psi_amp = psi.amplitudes
    phi = np.zeros_like(psi_amp)
    for i, (zi, pi) in enumerate(zip(z, psi_amp)):
        if pi == 0.0:
            if zi != 0.0:
                raise UnreachableTarget(
                    f"target z[{i}] = {zi} is nonzero on an unpopulated path")
            continue
        phi[i] = (zi / pi).conjugate()

    state = StateVector(phi)  # normalizes; scale freedom lands here
    return StateVector(_fix_phase(state.amplitudes))
