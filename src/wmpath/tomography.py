"""Transition tomography: simultaneous weak meters and inversion.

A battery of weak meters coupled at the same instant reads out, to first
order in the coupling, exactly what each meter would read alone.  Its meters
must be co-diagonal, so a battery is one basis |i> plus the eigenvalue
matrix S[j, i] of meter j on |i>, and reads the weak values S alpha of the
relative amplitudes alpha in that basis.  The N projectors of one basis
(S = I), or any invertible S, therefore recover every alpha_i, from which
the outcome statistics of any strong measurement in that basis can be
predicted without performing it.  The inverse problem is also solvable: for
any initial state and any target amplitudes summing to one there is a
post-selection state realizing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroAmplitudes,
    InconsistentReadout,
    MomentumUnderflow,
    SingularFamily,
    TargetSumViolation,
    UnreachableTarget,
)
from .hilbert import Observable, StateVector, _fix_phase
from .meter import GaussianPointer, _weak_momentum
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
_TINY = np.finfo(float).tiny  # smallest normal float


@dataclass(frozen=True)
class MeterBattery:
    """J co-diagonal observables measured at once with one pointer: the
    common ``basis`` (N x N, columns |i>) and the real eigenvalue matrix
    ``spectra`` S (J x N), S[j, i] = <i|A_j|i>.

    ValueError is raised if a member is not diagonal in the common basis
    to 1e-10 of that member's own scale.  Non-commuting observables are
    read one at a time (:func:`weak_asymptotics`,
    :func:`weak_value_from_matrix`).
    """

    basis: np.ndarray
    spectra: np.ndarray
    pointer: GaussianPointer

    def __init__(self, operators, pointer):
        operators = tuple(operators)
        if len({op.dimension for op in operators}) != 1:
            raise ValueError("a battery needs operators of one shared dimension")
        basis = _common_basis(operators)
        spectra = np.empty((len(operators), basis.shape[0]))
        for j, op in enumerate(operators):
            m = _restrict(op, basis)  # B^dagger A_j B
            spectra[j] = np.diag(m).real
            if np.abs(m - np.diag(np.diag(m))).max() > 1e-10 * np.abs(m).max():
                raise ValueError(f"operator {j} is not diagonal in the battery's "
                                 "common basis; a battery must be co-diagonal")
        _set_battery(self, basis, spectra, pointer)

    @property
    def size(self) -> int:
        return self.spectra.shape[0]

    @property
    def dimension(self) -> int:
        return self.spectra.shape[1]


def _restrict(op: Observable, vectors: np.ndarray) -> np.ndarray:
    """The matrix <a|A|b> of ``op`` between the columns of ``vectors``."""
    overlap = vectors.conj().T @ op.eigenvectors
    return (overlap * op.eigenvalues) @ overlap.conj().T


def _blocks(lo: int, hi: int, values: np.ndarray, tol: float) -> list:
    """The runs of two or more equal sorted ``values`` (to ``tol``), as
    column ranges (a, b) within lo..hi."""
    edges = [lo, *(lo + 1 + np.flatnonzero(np.diff(values) > tol)), hi]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b - a > 1]


def _common_basis(operators) -> np.ndarray:
    """An eigenbasis shared by co-diagonal ``operators``.

    It starts from the eigenbasis of the member with the most distinct
    eigenvalues (to 1e-9 of its largest).  Inside a degenerate eigenspace
    LAPACK's basis is arbitrary, so each member in turn is diagonalized on
    every eigenspace still degenerate, which splits it wherever that
    member's eigenvalues differ.  If the chosen member is non-degenerate,
    its eigenbasis is used as it is.
    """
    tols = [1e-9 * np.abs(op.eigenvalues).max() for op in operators]
    first = int(np.argmax([np.count_nonzero(np.diff(op.eigenvalues) > tol)
                           for op, tol in zip(operators, tols)]))
    basis = operators[first].eigenvectors.copy()
    blocks = _blocks(0, basis.shape[0], operators[first].eigenvalues, tols[first])
    for op, tol in zip(operators, tols):
        refined = []
        for lo, hi in blocks:
            values, rotation = np.linalg.eigh(_restrict(op, basis[:, lo:hi]))
            basis[:, lo:hi] = basis[:, lo:hi] @ rotation
            refined += _blocks(lo, hi, values, tol)
        blocks = refined
    return basis


def _set_battery(battery: MeterBattery, basis, spectra, pointer) -> MeterBattery:
    spectra.setflags(write=False)
    for name, value in (("basis", basis), ("spectra", spectra), ("pointer", pointer)):
        object.__setattr__(battery, name, value)
    return battery


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
    """The N rank-one projectors |i><i| of one orthonormal basis: S = I."""
    return _set_battery(object.__new__(MeterBattery), basis.eigenvectors,
                        np.eye(basis.dimension), pointer)


def joint_weak_means(spec: TransitionSpec, battery: MeterBattery) -> JointReadout:
    """First-order mean readings of all meters coupled at t = T/2.

    With alpha the relative amplitudes in the battery's basis, meter j reads
    Re w_j in position and (2/delta_f^2) Im w_j in momentum, w = S alpha:
    identical to running each weak meter alone.  Any observable already on
    ``spec`` is ignored; the battery supplies the measurement basis.
    """
    if battery.dimension != spec.dimension:
        raise ValueError("battery dimension does not match the transition")
    alphas = relative_amplitudes(_project(_half_steps(spec), battery.basis))
    weak = battery.spectra @ alphas.alphas
    return JointReadout(weak.real, _weak_momentum(weak, battery.pointer.momentum_variance))


def _weak_values(readout: JointReadout,
                 pointer: GaussianPointer) -> np.ndarray:
    """f_j + i (delta_f^2 / 2) Lambda_j: each meter's weak value (S alpha)_j,
    read back from its two mean readings.

    Raises :class:`MomentumUnderflow` where 1/delta_f^2 is subnormal or 0:
    Lambda = 2 Im(w) / delta_f^2 has then lost Im(w).  Above that even a
    subnormal reading holds Lambda to 2.5e-324, so Im(w) to
    2.5e-324 delta_f^2 / 2 < 6e-17.
    """
    variance = pointer.momentum_variance
    if variance < _TINY:
        raise MomentumUnderflow(
            f"momentum readings underflow at delta_f = {pointer.delta_f:.3e}; "
            "Im alpha cannot be recovered")
    return readout.mean_f + 1j * (readout.mean_lambda / (2.0 * variance))


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

    The 2N mean readings give the N weak values S alpha, and one solve with
    the invertible eigenvalue matrix S gives alpha in the family's basis
    order.  A ``basis`` (an Observable or a unitary column matrix) re-orders
    S; ValueError is raised unless |basis^dagger B|^2 is a permutation.
    """
    n = family.dimension
    if family.size != n:
        raise ValueError(f"need exactly N={n} operators, got {family.size}")
    if readouts.size != n:
        raise ValueError("readout count does not match family size")

    s_matrix = family.spectra
    if basis is not None:
        vectors = basis.eigenvectors if isinstance(basis, Observable) else basis
        weights = np.abs(np.asarray(vectors, dtype=complex).conj().T @ family.basis) ** 2
        order = weights.argmax(axis=1)
        if np.abs(weights - np.eye(n)[order]).max() > 1e-10:
            raise ValueError("basis does not diagonalize the family")
        s_matrix = s_matrix[:, order]

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
    populated = psi_amp != 0.0
    unreachable = np.flatnonzero(~populated & (z != 0.0))
    if unreachable.size:
        i = unreachable[0]
        raise UnreachableTarget(
            f"target z[{i}] = {z[i]} is nonzero on an unpopulated path")

    # z_i / psi_i overflows where psi_i is tiny (subnormal), so divide by
    # psi_i scaled to modulus [0.5, 1) and put the powers of two back
    # relative to the largest: exact scalings, and phi stays finite
    z, psi_amp = z[populated], psi_amp[populated]
    exponent = np.frexp(np.abs(psi_amp))[1]
    unit = np.ldexp(psi_amp.real, -exponent) + 1j * np.ldexp(psi_amp.imag, -exponent)
    ratio = (z / unit).conj()
    shift = exponent.min() - exponent
    phi = np.zeros_like(psi.amplitudes)
    phi[populated] = np.ldexp(ratio.real, shift) + 1j * np.ldexp(ratio.imag, shift)

    state = StateVector(phi)  # normalizes; scale freedom lands here
    return StateVector(_fix_phase(state.amplitudes))
