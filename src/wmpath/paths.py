"""Virtual-path amplitudes of a pre- and post-selected transition.

A transition prepared in |psi> at t=0 and post-selected in |phi> at t=T can
reach the final state along N interfering paths, one per eigenstate |i> of
the quantity measured at t=T/2:

    A_i = <phi| U(T/2) |i><i| U(T/2) |psi>,      U(t) = exp(-i H t).

Everything downstream is built from these amplitudes: an accurate meter
decoheres the paths and samples them with probabilities |A_i|^2 (suitably
normalized), while a vanishingly inaccurate meter leaves the interference
intact and reads out the relative amplitudes alpha_i = A_i / sum(A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalPostselection, ZeroTransmission
from .hilbert import (
    HermitianMatrix,
    Observable,
    StateVector,
    evolve,
    spectral_decompose,
)

__all__ = [
    "TransitionSpec",
    "PathAmplitudeSet",
    "RelativeAmplitudeSet",
    "EigenvaluePartition",
    "StrongStatistics",
    "path_amplitudes",
    "relative_amplitudes",
    "group",
    "strong_probabilities",
    "strong_mean",
    "weak_value",
    "weak_value_from_matrix",
]

ORTHOGONALITY_THRESHOLD = 1e-12
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class TransitionSpec:
    """One pre/post-selected experiment.

    ``observable`` is the quantity measured at t = T/2; it may be left
    ``None`` for operations that supply their own measurement basis
    (e.g. a battery of simultaneous weak meters).
    """

    psi: StateVector
    phi: StateVector
    hamiltonian: HermitianMatrix
    total_time: float = 0.0
    observable: Observable | None = None

    def __post_init__(self):
        n = self.psi.dimension
        if self.phi.dimension != n or self.hamiltonian.dimension != n:
            raise ValueError("psi, phi and the Hamiltonian must share one dimension")
        if self.observable is not None and self.observable.dimension != n:
            raise ValueError("observable dimension does not match the states")
        if not (np.isfinite(self.total_time) and self.total_time >= 0.0):
            raise ValueError("total_time must be finite and >= 0")

    @property
    def dimension(self) -> int:
        return self.psi.dimension

    def with_observable(self, observable: Observable) -> "TransitionSpec":
        return TransitionSpec(self.psi, self.phi, self.hamiltonian,
                              self.total_time, observable)


@dataclass(frozen=True)
class PathAmplitudeSet:
    """The N complex path amplitudes A_i together with their sum."""

    amplitudes: np.ndarray
    total: complex

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "total", complex(amps.sum()))

    def __len__(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class RelativeAmplitudeSet:
    """Relative amplitudes alpha_i = A_i / sum(A); they sum to one."""

    alphas: np.ndarray

    def __init__(self, alphas, tol: float = 1e-10):
        arr = np.asarray(alphas, dtype=complex).reshape(-1)
        if abs(arr.sum() - 1.0) > tol:
            raise ValueError(
                f"relative amplitudes sum to {arr.sum():.3e}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "alphas", arr)

    def __len__(self) -> int:
        return self.alphas.size


@dataclass(frozen=True)
class EigenvaluePartition:
    """Disjoint index groups sharing one observable eigenvalue each."""

    groups: tuple[tuple[int, ...], ...]
    group_values: tuple[float, ...]

    def __init__(self, groups, group_values):
        groups = tuple(tuple(int(i) for i in g) for g in groups)
        group_values = tuple(float(v) for v in group_values)
        if len(groups) != len(group_values):
            raise ValueError("one value per group required")
        flat = [i for g in groups for i in g]
        if len(flat) != len(set(flat)):
            raise ValueError("groups overlap")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "group_values", group_values)

    @property
    def dimension(self) -> int:
        return sum(len(g) for g in self.groups)

    @classmethod
    def from_observable(cls, obs: Observable) -> "EigenvaluePartition":
        """Group indices whose (sorted) eigenvalues are equal within 1e-12.

        Runs of consecutive eigenvalues with gaps <= 1e-12 are merged, so
        the grouping depends only on exact (or near-exact) degeneracy.
        """
        vals = obs.eigenvalues
        groups: list[list[int]] = [[0]]
        for i in range(1, vals.size):
            if vals[i] - vals[i - 1] <= DEGENERACY_TOL:
                groups[-1].append(i)
            else:
                groups.append([i])
        values = [float(np.mean(vals[list(g)])) for g in groups]
        return cls(groups, values)

    def validate_against(self, obs: Observable):
        """Check the groups cover 0..N-1 and carry eigenvalues equal to
        their stated value within 1e-12."""
        n = obs.dimension
        flat = sorted(i for g in self.groups for i in g)
        if flat != list(range(n)):
            raise ValueError("partition does not cover every path index exactly once")
        for g, val in zip(self.groups, self.group_values):
            ev = obs.eigenvalues[list(g)]
            if np.abs(ev - val).max() > DEGENERACY_TOL:
                raise ValueError(
                    f"group {g} mixes eigenvalues {ev} (stated value {val})")


@dataclass(frozen=True)
class StrongStatistics:
    """Per-route probabilities of a decohering (accurate) measurement."""

    omegas: np.ndarray

    def __init__(self, omegas):
        w = np.asarray(omegas, dtype=float).reshape(-1)
        if not np.all(np.isfinite(w)):
            raise ValueError("probabilities must be finite")
        if w.min() < -1e-12 or w.max() > 1.0 + 1e-12:
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {w.sum()}, expected 1")
        w.setflags(write=False)
        object.__setattr__(self, "omegas", w)


def _eigenvalues_for(obs, count: int) -> np.ndarray:
    """Per-path values: an Observable's eigenvalues or a plain sequence,
    checked against the number of paths they must align with."""
    values = obs.eigenvalues if isinstance(obs, Observable) else obs
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != count:
        raise ValueError(
            f"{values.size} eigenvalues for {count} path amplitudes")
    return values


def _half_steps(spec: TransitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """U(-T/2)|phi> and U(T/2)|psi>, from one decomposition of H."""
    h = spectral_decompose(spec.hamiltonian)
    half = spec.total_time / 2.0
    # <phi| U(T/2) = (U(-T/2)|phi>)^dagger
    return (evolve(spec.phi, h, -half).amplitudes,
            evolve(spec.psi, h, half).amplitudes)


def _project(half_steps: tuple[np.ndarray, np.ndarray],
             observable: Observable) -> PathAmplitudeSet:
    """A_i from the two half-step states, in ``observable``'s eigenbasis."""
    u_phi, u_psi = half_steps
    basis = observable.eigenvectors
    left = basis.conj().T @ u_phi     # <i|U(-T/2)|phi>
    right = basis.conj().T @ u_psi    # <i|U(T/2)|psi>
    return PathAmplitudeSet(left.conj() * right)


def path_amplitudes(spec: TransitionSpec) -> PathAmplitudeSet:
    """Amplitudes A_i of the N virtual paths, one per eigenstate of the
    observable, with the evolution applied in two half-steps around T/2."""
    if spec.observable is None:
        raise ValueError("TransitionSpec needs an observable to define paths")
    return _project(_half_steps(spec), spec.observable)


def relative_amplitudes(a: PathAmplitudeSet) -> RelativeAmplitudeSet:
    """alpha_i = A_i / sum(A).

    Raises OrthogonalPostselection when |sum(A)| <= 1e-12: the weak values
    diverge for an (almost) forbidden transition and the caller must decide
    what to do, rather than receive silently enormous numbers.
    """
    total = a.total
    if abs(total) <= ORTHOGONALITY_THRESHOLD:
        raise OrthogonalPostselection(
            f"|total amplitude| = {abs(total):.3e} <= "
            f"{ORTHOGONALITY_THRESHOLD:.1e}; "
            "post-selection (nearly) orthogonal; weak values diverge")
    return RelativeAmplitudeSet(a.amplitudes / total)


def group(a: PathAmplitudeSet, p: EigenvaluePartition) -> PathAmplitudeSet:
    """Coarse-grain amplitudes over degenerate-eigenvalue groups.

    Interference inside each group survives an accurate measurement, so the
    grouped set carries one coherent amplitude per group; the total is
    unchanged.
    """
    if p.dimension != len(a):
        raise ValueError("partition size does not match the amplitude count")
    flat = sorted(i for g in p.groups for i in g)
    if flat != list(range(len(a))):
        raise ValueError("partition does not cover every path index exactly once")
    grouped = [a.amplitudes[list(g)].sum() for g in p.groups]
    return PathAmplitudeSet(grouped)


def _normalized_weights(values: np.ndarray) -> StrongStatistics | None:
    """|v_i|^2 / sum_j |v_j|^2, or None when every v_i is zero.

    The moduli are divided by max |v| before squaring, as StateVector does,
    so no square overflows to inf or underflows to zero.
    """
    moduli = np.abs(values)
    peak = moduli.max()
    if peak == 0.0:
        return None
    moduli /= peak
    weights = moduli * moduli
    return StrongStatistics(weights / weights.sum())


def strong_probabilities(a: PathAmplitudeSet) -> StrongStatistics:
    """Route probabilities omega_i = |A_i|^2 / sum |A_j|^2."""
    stats = _normalized_weights(a.amplitudes)
    if stats is None:
        raise ZeroTransmission(
            "all path amplitudes vanish; post-selection unreachable")
    return stats


def strong_mean(values, w: StrongStatistics) -> float:
    """Weighted eigenvalue sum sum_i omega_i S_i.

    ``values`` may be an Observable (its eigenvalues are used) or a plain
    sequence of per-route values, e.g. the group values of a partition.
    """
    return float(_eigenvalues_for(values, w.omegas.size) @ w.omegas)


def weak_value(obs, r: RelativeAmplitudeSet) -> complex:
    """The complex weak value sum_i S_i alpha_i.

    Its real part is what a vanishingly inaccurate position meter reads on
    average; its imaginary part drives the momentum kick of the pointer.
    ``obs`` may be an Observable or a plain eigenvalue sequence aligned with
    the relative amplitudes.
    """
    return complex(np.sum(_eigenvalues_for(obs, len(r)) * r.alphas))


def weak_value_from_matrix(spec: TransitionSpec, s_matrix) -> complex:
    """Weak value in matrix form, <phi|U S U|psi> / <phi|U^2|psi>.

    For H = 0 this reduces to the familiar <phi|S|psi>/<phi|psi>.  Unlike
    :func:`weak_value` it needs no eigenbasis, which makes it linear in the
    operator argument even for non-commuting operators.
    """
    s = np.asarray(s_matrix, dtype=complex)
    u_phi, u_psi = _half_steps(spec)
    denom = complex(np.vdot(u_phi, u_psi))
    if abs(denom) <= ORTHOGONALITY_THRESHOLD:
        raise OrthogonalPostselection(
            "post-selection (nearly) orthogonal; weak values diverge")
    numer = complex(np.vdot(u_phi, s @ u_psi))
    return numer / denom
