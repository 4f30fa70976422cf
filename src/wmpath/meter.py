"""Exact Gaussian von Neumann pointer statistics at any accuracy.

The pointer starts in G(f) = (delta_f)^(-1/2) G0(f/delta_f) with the fixed
unit-norm profile G0(f) = (2/pi)^(1/4) exp(-f^2), and is kicked impulsively
at t = T/2 so that a successful post-selection leaves it in

    G'(f)      = sum_i A_i G(f - S_i)                 (position),
    G'(lambda) = G(lambda) sum_i A_i exp(-i lambda S_i)  (momentum).

For this profile both first moments have closed forms built from the single
overlap kernel K_ij = exp(-(S_i - S_j)^2 / (2 delta_f^2)), which is the
production path here; a trapezoid quadrature of the same densities serves
as an independent oracle.  delta_f -> 0 reproduces the strong (decohered)
statistics, delta_f -> infinity the weak asymptotes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, ZeroNorm
from .paths import (
    PathAmplitudeSet,
    RelativeAmplitudeSet,
    _eigenvalues_for,
    weak_value,
)

__all__ = [
    "GaussianPointer",
    "MeterReadout",
    "QuadratureGrid",
    "pointer_position_amplitude",
    "pointer_momentum_amplitude",
    "exact_mean_position",
    "quadrature_moments",
    "weak_asymptotics",
]

ZERO_NORM_THRESHOLD = 1e-300

# (2/pi)^(1/4), the L2-normalizing prefactor of G0
_G0_PREFACTOR = (2.0 / np.pi) ** 0.25

# kernel entries per block of an accuracy ladder: the (P, N, N) pass stays
# cache-sized and its memory flat in the ladder length
_KERNEL_BLOCK = 1 << 15


@dataclass(frozen=True)
class GaussianPointer:
    """A one-dimensional meter of accuracy delta_f (pointer width)."""

    delta_f: float

    def __post_init__(self):
        object.__setattr__(self, "_variance", _accuracy_terms(self.delta_f)[1])

    def profile(self, f):
        """Initial pointer wave function G(f)."""
        f = np.asarray(f, dtype=float)
        with np.errstate(over="ignore"):  # (f / delta_f)^2 = inf: G = 0
            return (_G0_PREFACTOR / np.sqrt(self.delta_f)
                    * np.exp(-(f / self.delta_f) ** 2))

    def momentum_profile(self, lam):
        """Fourier transform G(lambda) of the initial profile."""
        lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore"):  # (lambda delta_f)^2 = inf: G = 0
            return (_G0_PREFACTOR * np.sqrt(self.delta_f / 2.0)
                    * np.exp(-(lam * self.delta_f) ** 2 / 4.0))

    @property
    def momentum_variance(self) -> float:
        """int lambda^2 |G(lambda)|^2 d lambda = 1 / delta_f^2 for G0."""
        return float(self._variance)


def _accuracy_terms(delta_f) -> tuple[np.ndarray, np.ndarray]:
    """(delta_f, 1/delta_f^2) as float arrays, under the one validity rule
    for accuracies: each delta_f finite and > 0 with 1/delta_f^2 finite."""
    widths = np.asarray(delta_f, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):  # delta_f^2 = inf: 0
        variance = 1.0 / np.square(widths)
    if not np.all((widths > 0.0) & (widths < np.inf) & np.isfinite(variance)):
        raise ValueError("delta_f must be finite and > 0, with 1/delta_f^2 "
                         "finite (delta_f above about 7.5e-155)")
    return widths, variance


@dataclass(frozen=True)
class MeterReadout:
    """Mean pointer position/momentum plus the post-selection weight."""

    mean_f: float
    mean_lambda: float
    norm: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.mean_f, self.mean_lambda, self.norm))):
            raise ValueError("meter readout contains non-finite entries")
        if self.norm < 0.0:
            raise ValueError("post-selection weight cannot be negative")


def pointer_position_amplitude(a: PathAmplitudeSet, obs, m: GaussianPointer,
                               f) -> np.ndarray | complex:
    """Final pointer amplitude G'(f) = sum_i A_i G(f - S_i)."""
    s = _eigenvalues_for(obs, len(a))
    f = np.asarray(f, dtype=float)
    out = np.tensordot(a.amplitudes, m.profile(f[..., None] - s), axes=([0], [-1]))
    return out if out.ndim else complex(out)


def pointer_momentum_amplitude(a: PathAmplitudeSet, obs, m: GaussianPointer,
                               lam) -> np.ndarray | complex:
    """Final momentum amplitude G'(lambda) = G(lambda) sum_i A_i e^{-i lambda S_i}."""
    s = _eigenvalues_for(obs, len(a))
    lam = np.asarray(lam, dtype=float)
    phases = np.exp(-1j * lam[..., None] * s)
    out = m.momentum_profile(lam) * (phases @ a.amplitudes)
    return out if out.ndim else complex(out)


def _kernel_moments(a: PathAmplitudeSet, obs, delta_f):
    """Exact (mean_f, mean_lambda, norm) arrays, one entry per accuracy in
    ``delta_f``, from three closed-form double sums over the Gaussian
    overlap kernel K_ij = exp(-(S_i - S_j)^2 / (2 delta_f^2)): the whole
    accuracy ladder in one blocked pass, _KERNEL_BLOCK entries of the
    (P, N, N) kernel at a time."""
    delta_f, variance = _accuracy_terms(delta_f)
    s = _eigenvalues_for(obs, len(a))
    # overflows give K = 0 or 1, or non-finite moments the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        ds = s[:, None] - s[None, :]
        ds2, s_sum = ds ** 2, s[:, None] + s[None, :]
        outer = np.outer(a.amplitudes, a.amplitudes.conj())
        norm, num_f, num_l = np.empty((3, delta_f.size), dtype=complex)
        step = max(1, _KERNEL_BLOCK // ds.size)
        for start in range(0, delta_f.size, step):
            block = slice(start, start + step)
            pair = outer * np.exp(-ds2 / (2.0 * delta_f[block, None, None] ** 2))
            norm[block] = pair.sum(axis=(1, 2))
            num_f[block] = (pair * s_sum * 0.5).sum(axis=(1, 2))
            num_l[block] = (-1j * variance[block, None, None] * pair * ds).sum(axis=(1, 2))
        n = _checked_norm(norm)
        return num_f.real / n, num_l.real / n, n


def _checked_norm(norm) -> np.ndarray:
    value = np.real(norm)
    if np.any(value <= ZERO_NORM_THRESHOLD):
        raise ZeroNorm(
            f"post-selection weight {np.min(value):.3e} underflowed; "
            "post-selection impossible at this accuracy")
    return value


def _weak_momentum(weak: complex, variance):
    """2 (Im(w) / delta_f^2) from variance = 1/delta_f^2; doubling last keeps 0 at 0."""
    with np.errstate(over="ignore"):  # an inf the caller rejects
        return 2.0 * (variance * weak.imag)


def exact_mean_position(a: PathAmplitudeSet, obs, m: GaussianPointer) -> MeterReadout:
    """Closed-form mean pointer position and momentum at accuracy delta_f.

    The momentum reading is identically zero whenever all amplitudes share
    a common phase: the kernel double sum is then real-symmetric and the
    antisymmetric momentum weight cancels pairwise.
    """
    mean_f, mean_l, norm = _kernel_moments(a, obs, [m.delta_f])
    return MeterReadout(mean_f=mean_f[0], mean_lambda=mean_l[0], norm=norm[0])


def weak_asymptotics(r: RelativeAmplitudeSet, obs, m: GaussianPointer) -> MeterReadout:
    """First-order (delta_f -> infinity) meter readings.

    mean_f      = sum_i S_i Re alpha_i
    mean_lambda = (2 / delta_f^2) sum_i S_i Im alpha_i
    """
    wv = weak_value(obs, r)
    return MeterReadout(mean_f=wv.real,
                        mean_lambda=_weak_momentum(wv, m.momentum_variance),
                        norm=1.0)


@dataclass(frozen=True)
class QuadratureGrid:
    """Grid request for the quadrature oracle.

    ``span_sigmas`` counts pointer standard deviations added beyond the
    extreme eigenvalues; at least 8 are required, and at least 2^12 points.
    """

    points: int = 1 << 13
    span_sigmas: float = 12.0

    def __post_init__(self):
        if self.points < (1 << 12):
            raise GridError("quadrature grid needs at least 2^12 points")
        if self.span_sigmas < 8.0:
            raise GridError("quadrature grid must span >= 8 standard deviations")


def quadrature_moments(a: PathAmplitudeSet, obs, m: GaussianPointer,
                       grid: QuadratureGrid | None = None) -> MeterReadout:
    """Trapezoid-rule moments of |G'(f)|^2 and |G'(lambda)|^2.

    A numerical oracle for the closed forms, deliberately sharing no code
    with them beyond the profile definitions.
    """
    if grid is None:
        grid = QuadratureGrid()
    s = _eigenvalues_for(obs, len(a))

    # position density: |G(f)|^2 has sigma = delta_f / 2
    sigma_f = m.delta_f / 2.0
    lo = s.min() - grid.span_sigmas * sigma_f
    hi = s.max() + grid.span_sigmas * sigma_f
    f = np.linspace(lo, hi, grid.points)
    gf = pointer_position_amplitude(a, s, m, f)
    rho_f = np.abs(gf) ** 2
    norm_f = np.trapezoid(rho_f, f)

    # momentum density: |G(lambda)|^2 has sigma = 1 / delta_f, but the
    # integrand also oscillates at the eigenvalue gaps, so the resolution
    # must beat both scales
    sigma_l = 1.0 / m.delta_f
    span_l = grid.span_sigmas * sigma_l
    gap = float(s.max() - s.min())
    points_l = grid.points
    min_step = (np.pi / gap / 8.0) if gap > 0 else np.inf
    if 2 * span_l / points_l > min_step:
        points_l = int(2 ** np.ceil(np.log2(2 * span_l / min_step)))
    lam = np.linspace(-span_l, span_l, points_l)
    gl = pointer_momentum_amplitude(a, s, m, lam)
    rho_l = np.abs(gl) ** 2
    norm_l = np.trapezoid(rho_l, lam)

    if abs(norm_f - norm_l) > 1e-8 * max(norm_f, norm_l, 1e-30):
        raise GridError(
            f"position/momentum norms disagree ({norm_f:.6e} vs {norm_l:.6e}); "
            "grid span or resolution inadequate")
    n = float(_checked_norm(norm_f))
    mean_f = np.trapezoid(f * rho_f, f) / n
    mean_l = np.trapezoid(lam * rho_l, lam) / norm_l
    return MeterReadout(mean_f=float(mean_f), mean_lambda=float(mean_l), norm=n)
