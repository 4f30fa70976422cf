"""Finite-dimensional complex Hilbert-space arithmetic.

States, Hermitian observables in spectral form, and unitary time evolution
(hbar = 1 throughout).  Everything here is immutable after construction and
all operations are pure, so objects can be shared freely between workers.

``spectral_decompose`` is the one place eigenbases come from.  A matrix with
no nonzero off-diagonal entry is read off directly; any other goes to
LAPACK (``numpy.linalg.eigh``).  Either way the ordering (ascending, stable)
and the eigenvector phase convention are fixed afterwards, so downstream
results do not depend on which route produced the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "StateVector",
    "HermitianMatrix",
    "Observable",
    "inner_product",
    "evolve",
    "spectral_decompose",
]

# Tolerances fixed by the library contract.
HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
PHASE_PIVOT_TOL = 1e-8


def _as_complex_vector(values) -> np.ndarray:
    vec = np.asarray(values, dtype=complex).reshape(-1)
    if vec.size < 1:
        raise ValueError("state vector needs at least one component")
    if not np.all(np.isfinite(vec)):
        raise ValueError("state vector contains non-finite entries")
    return vec


@dataclass(frozen=True)
class StateVector:
    """A normalized ket.  The constructor rescales its input to unit norm."""

    amplitudes: np.ndarray

    def __init__(self, amplitudes):
        vec = _as_complex_vector(amplitudes)
        # scale by the largest modulus first, so that the norm of components
        # near 1e+-200 neither overflows nor underflows
        scale = np.abs(vec).max()
        if scale == 0.0:
            raise ValueError("cannot normalize the zero vector")
        vec = vec / scale
        vec = vec / np.linalg.norm(vec)
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    def __getitem__(self, idx) -> complex:
        return complex(self.amplitudes[idx])


@dataclass(frozen=True)
class HermitianMatrix:
    """An N x N complex Hermitian matrix (energy units when a Hamiltonian)."""

    entries: np.ndarray

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains non-finite entries")
        scale = max(1.0, float(np.abs(mat).max()))
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL * scale:
            raise ValueError("matrix is not Hermitian within 1e-12")
        # store the exactly-Hermitian average so round-trips are symmetric
        mat = 0.5 * (mat + mat.conj().T)
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @classmethod
    def zero(cls, dimension: int) -> "HermitianMatrix":
        return cls(np.zeros((dimension, dimension)))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Observable:
    """A measured quantity in spectral form.

    ``eigenvalues`` are sorted non-decreasing (repeats allowed) and
    ``eigenvectors[:, i]`` is the unit eigenvector for ``eigenvalues[i]``,
    with the first component of modulus > 1e-8 made positive-real.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)

    def __init__(self, eigenvalues, eigenvectors):
        vals = np.asarray(eigenvalues, dtype=float).reshape(-1)
        vecs = np.asarray(eigenvectors, dtype=complex)
        n = vals.size
        if vecs.shape != (n, n):
            raise ValueError("eigenvector matrix shape must be (N, N)")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be sorted non-decreasing")
        gram = vecs.conj().T @ vecs
        if np.abs(gram - np.eye(n)).max() > ORTHONORMALITY_TOL:
            raise ValueError("eigenvectors are not orthonormal within 1e-10")
        vals.setflags(write=False)
        vecs = vecs.copy()
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        """Spectral decomposition of a Hermitian matrix (or raw array)."""
        if not isinstance(matrix, HermitianMatrix):
            matrix = HermitianMatrix(matrix)
        return spectral_decompose(matrix)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.size

    def matrix(self) -> np.ndarray:
        """Reassemble sum_i S_i |i><i|."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum_k conj(a_k) b_k."""
    if a.dimension != b.dimension:
        raise ValueError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each unit column (or a single unit vector) so that its first
    entry of modulus > 1e-8 is positive-real.  A unit vector of fewer than
    1e16 components always has such an entry."""
    cols = vectors.reshape(vectors.shape[0], -1)
    lead_index = (np.abs(cols) > PHASE_PIVOT_TOL).argmax(axis=0)
    lead = cols[lead_index, np.arange(cols.shape[1])]
    return (cols * (lead.conj() / np.abs(lead))).reshape(vectors.shape)


def spectral_decompose(m: HermitianMatrix) -> Observable:
    """Diagonalize a Hermitian matrix.

    A matrix whose off-diagonal entries are all exactly zero is read off
    directly: its eigenvectors are the standard basis vectors.  Any other
    matrix goes to ``numpy.linalg.eigh``; ConvergenceError is raised if
    LAPACK does not converge.  Output ordering is deterministic: eigenvalues
    ascending by a stable sort, so ties in a diagonal matrix keep basis
    order, and each eigenvector's phase fixed by the positive-real
    convention.  Inside a degenerate eigenspace of a non-diagonal matrix the
    basis is whatever LAPACK returns; quantities summed over such a block
    (grouped amplitudes, strong statistics, meter readings, weak values) do
    not depend on that choice.
    """
    a = m.entries
    # every nonzero entry on the diagonal: nothing to rotate
    if np.count_nonzero(a) == np.count_nonzero(a.diagonal()):
        vals = a.diagonal().real
        vecs = np.eye(a.shape[0])
    else:
        try:
            vals, vecs = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
        vecs = _fix_phase(vecs)
    order = np.argsort(vals, kind="stable")
    return Observable(vals[order], vecs[:, order])


def evolve(state: StateVector, h, t: float) -> StateVector:
    """Apply exp(-i h t) to a state via the spectral decomposition of h.

    ``h`` is a Hermitian matrix, decomposed here, or an Observable already in
    spectral form, so that a caller evolving several states under one
    Hamiltonian decomposes it once.
    """
    if not isinstance(h, Observable):
        h = Observable.from_matrix(h)  # raises on non-Hermitian input
    if h.dimension != state.dimension:
        raise ValueError(
            f"dimension mismatch: state {state.dimension}, matrix {h.dimension}")
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    coeffs = h.eigenvectors.conj().T @ state.amplitudes
    evolved = h.eigenvectors @ (np.exp(-1j * h.eigenvalues * t) * coeffs)
    return StateVector(evolved)
