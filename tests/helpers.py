"""Shared test utilities: independent oracles and random-instance factories.

The matrix exponential here is a scaled Taylor series, deliberately
unrelated to the spectral route the library uses, so unitarity and
evolution checks are genuinely two-sided.
"""

from __future__ import annotations

import math

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


def kernel_readings(amplitudes, values, delta_f: float):
    """(mean_f, mean_lambda, norm) of the Gaussian pointer at one accuracy,
    summed pair by pair in plain Python: the loop reference for the
    library's blocked kernel pass over an accuracy ladder."""
    norm = num_f = num_l = 0j
    for a_i, s_i in zip(amplitudes, values):
        for a_j, s_j in zip(amplitudes, values):
            pair = (a_i * a_j.conjugate()
                    * math.exp(-(s_i - s_j) ** 2 / (2.0 * delta_f ** 2)))
            norm += pair
            num_f += pair * (s_i + s_j) / 2.0
            num_l += -1j * pair * (s_i - s_j) / delta_f ** 2
    return num_f.real / norm.real, num_l.real / norm.real, norm.real


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


def _lattice_synthesis(b, p: float, x_lo: float, x_hi: float, nodes: int,
                       window_width=None):
    """One FFT of a spectrum over a whole box from x_lo, p on its lattice.

    T(-k) = conj T(k) is mirrored onto k < 0.  The spectrum is
    T exp(-((k - p) w / 2)^2) for a window width w, else 1 + (T - 1) taper,
    the taper closing T - 1 at the lattice edge.  Returns ``(x, a, dx)``.
    """
    from wmpath import transmission_amplitude

    cycles = max(1, round(p * (x_hi - x_lo) / (2.0 * np.pi)))
    length = 2.0 * np.pi * cycles / p
    dx = length / nodes
    j_zero = round(-x_lo / dx)
    x = (np.arange(nodes) - j_zero) * dx
    k = 2.0 * np.pi * np.fft.fftfreq(nodes, d=dx)
    half = nodes // 2
    t_half = transmission_amplitude(b, np.abs(k[:half + 1]))
    t_k = np.concatenate((t_half[:half], t_half[half:0:-1].conj()))
    if window_width is None:
        taper = np.exp(-((np.abs(k) / (0.85 * (np.pi / dx))) ** 24))
        spectrum = 1.0 + (t_k - 1.0) * taper
    else:
        spectrum = t_k * np.exp(-0.25 * ((k - p) * window_width) ** 2)
    a = np.roll(np.fft.fft(np.roll(spectrum, -cycles)), j_zero)
    a *= (2.0 * np.pi / length) / np.sqrt(2.0 * np.pi)
    return x, a, dx


def full_lattice_shift(b, p: float, grid=None):
    """Shift amplitudes on the whole reference lattice of ``shift_amplitudes``.

    One FFT at the fine step over the whole box: the synthesis the library
    splits into a band-limited and a short-range piece.  Returns
    ``(x, a, total, leakage)``, without the sum-rule check.
    """
    from wmpath.tunneling import ShiftGrid, _layout

    x, a, dx = _lattice_synthesis(b, p, *_layout(b, p, grid or ShiftGrid()))
    leakage = float(np.abs(a[x < 0.0]).sum() / np.abs(a).sum())
    return x, a, complex(a.sum() * dx), leakage


def windowed_delay(b, p: float, nodes: int) -> float:
    """integral x Re alpha(x) dx of the Gaussian-windowed spectrum on a
    ``nodes``-node box: ``weak_shift``'s integral route at a fixed size."""
    gap = min(p, b.threshold_momentum - p) if b.height > 0 else p
    width = max(16.0 / gap, 4.0 * b.width)
    x, a, _ = _lattice_synthesis(b, p, -12.0 * width, 12.0 * (width + b.width),
                                 nodes, window_width=width)
    return float((np.sum(x * a) / a.sum()).real)
