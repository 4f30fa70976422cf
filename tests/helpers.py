"""Shared test utilities: independent oracles and random-instance factories.

The matrix exponential here is a scaled Taylor series, deliberately
unrelated to the spectral route the library uses, so unitarity and
evolution checks are genuinely two-sided.
"""

from __future__ import annotations

import numpy as np

from wmpath import HermitianMatrix, Observable, StateVector, TransitionSpec


def expm_taylor(matrix: np.ndarray) -> np.ndarray:
    """exp(M) by scaling-and-squaring Taylor summation."""
    m = np.asarray(matrix, dtype=complex)
    scale = int(max(0, np.ceil(np.log2(max(1e-16, np.linalg.norm(m, np.inf)))) + 1))
    small = m / (2 ** scale)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for order in range(1, 40):
        term = term @ small / order
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(scale):
        out = out @ out
    return out


def random_hermitian(rng: np.random.Generator, n: int) -> HermitianMatrix:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix(0.5 * (raw + raw.conj().T))


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    return StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))


def spaced_eigenvalues(rng: np.random.Generator, n: int,
                       min_gap: float = 0.2) -> np.ndarray:
    """Ascending eigenvalues with pairwise gaps >= min_gap, centred near 0."""
    gaps = min_gap + rng.uniform(0.0, 1.0, size=n)
    values = np.cumsum(gaps)
    return values - values.mean()


def random_transition(rng: np.random.Generator, n: int,
                      min_gap: float = 0.2,
                      with_dynamics: bool = True) -> TransitionSpec:
    """A generic transition with a well-separated measurement spectrum."""
    observable = Observable.from_matrix(np.diag(spaced_eigenvalues(rng, n, min_gap)))
    hamiltonian = (random_hermitian(rng, n) if with_dynamics
                   else HermitianMatrix.zero(n))
    total_time = float(rng.uniform(0.0, 2.0)) if with_dynamics else 0.0
    return TransitionSpec(random_state(rng, n), random_state(rng, n),
                          hamiltonian, total_time, observable)


def barrier_amplitudes(height: float, width: float, mass: float, k: np.ndarray):
    """T(k) and R(k) of a rectangular barrier in the textbook cosh/sinh form.

    With q = sqrt(2 mu V - k^2) and g = mu V / k - k,
        T = e^{-ikd} / (cosh(qd) + i g sinh(qd)/q),
        R = -i (mu V / k) (sinh(qd)/q) / (cosh(qd) + i g sinh(qd)/q).
    Written independently of the library's scaled form; it overflows for
    opaque barriers (qd > 710) and divides by zero at q = 0 exactly.  Both
    depend on q only through cosh(qd) and sinh(qd)/q, so they continue to
    complex k without a branch cut.
    """
    k = np.asarray(k, dtype=complex)
    mu_v = mass * height
    q = np.sqrt(2.0 * mu_v - k * k)
    sinh_over_q = np.sinh(q * width) / q
    denom = np.cosh(q * width) + 1j * (mu_v / k - k) * sinh_over_q
    return (np.exp(-1j * k * width) / denom,
            -1j * (mu_v / k) * sinh_over_q / denom)


def barrier_log_derivative(height: float, width: float, mass: float,
                           p: float, nodes: int = 32) -> complex:
    """d log T / dp from the Cauchy integral of T on a circle round p.

    The mean of T(p + r w) / (r w) over the nodes-th roots of unity w is
    T'(p) up to O(r^nodes) while T is analytic inside the circle.  The
    radius r = 0.05 min(p, 1/d) stays clear of k = 0 and, for barriers that
    are not much wider than 1/k_th, of the resonance poles below the axis.
    """
    radius = 0.05 * min(p, 1.0 / width)
    roots = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    ring, _ = barrier_amplitudes(height, width, mass, p + radius * roots)
    centre, _ = barrier_amplitudes(height, width, mass, p)
    return complex(np.mean(ring / roots) / radius / centre)
