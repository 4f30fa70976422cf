"""Tunneling through a rectangular barrier as a built-in weak measurement.

A broad wave packet transmitted through a barrier is assembled from copies
of its own envelope displaced by a continuous shift x', each weighted by a
complex amplitude A(x') obtained from the transmission amplitude T(k).  The
packet's own position plays the pointer, its width the (in)accuracy: for a
very broad packet the mean readings are first-order weak values of the
shift.

Sign convention (fixed here once, used everywhere in this module): x' is a
*delay* -- the envelope contribution G(x - vt + x') lags the free packet by
x' > 0.  With that orientation

    A(x)  = (2 pi)^(-1/2) e^{+ipx} integral T(k) e^{-ikx} dk,

which vanishes identically for x < 0 because T(k) is analytic in the upper
half k-plane (a barrier has no bound states): no transmitted component can
*outrun* instantaneous traversal.  The mean delay is

    delta_x = integral x Re alpha(x) dx = dPhi/dp,     T = |T| e^{i Phi},

which is large and *negative* for an opaque barrier (the Hartman advance:
the transmitted peak emerges ahead of the free one by |delta_x|), i.e. a
weak value lying entirely outside the support of the shift distribution.
The mean momentum grows because higher momenta tunnel more easily:

    delta_k = 2 <k^2>_G  d log|T| / dp,   <k^2>_G = 1 / delta_x_packet^2.

Both are the Im and Re parts of one closed-form d log T/dp.  The full
dispersive wave-packet simulation is kept as an oracle for both shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = [
    "BarrierSpec",
    "PacketSpec",
    "ShiftDistribution",
    "ShiftGrid",
    "TransmissionResult",
    "transmission_amplitude",
    "reflection_amplitude",
    "shift_amplitudes",
    "weak_shift",
    "momentum_shift",
    "phase_derivative",
    "log_modulus_derivative",
    "simulate_transmission",
]


@dataclass(frozen=True)
class BarrierSpec:
    """Rectangular barrier of height V and width d for a particle of mass mu."""

    height: float
    width: float
    mass: float = 1.0

    def __post_init__(self):
        # height 0 is the free-propagation edge case the trivial checks use
        if not (self.height >= 0 and self.width > 0 and self.mass > 0):
            raise ValueError("barrier needs height >= 0, width > 0, mass > 0")

    @property
    def threshold_momentum(self) -> float:
        """Momentum at which the kinetic energy reaches the barrier top."""
        return float(np.sqrt(2.0 * self.mass * self.height))


@dataclass(frozen=True)
class PacketSpec:
    """Incident Gaussian packet: envelope G0(x/delta_x) times e^{ipx}."""

    momentum: float
    delta_x: float

    def __post_init__(self):
        if not (self.momentum > 0 and self.delta_x > 0):
            raise ValueError("packet momentum and width must be positive")

    def require_sub_barrier(self, barrier: BarrierSpec):
        if barrier.height == 0.0:
            return  # no barrier, nothing to stay below
        if self.momentum >= barrier.threshold_momentum:
            raise ValueError(
                f"packet momentum {self.momentum} is not below the barrier "
                f"(threshold {barrier.threshold_momentum:.6f})")

    @property
    def momentum_variance(self) -> float:
        """<k^2> of the envelope's momentum distribution = 1/delta_x^2."""
        return 1.0 / self.delta_x ** 2


# |qd|^2 below which s and w take their series.  The direct forms divide by
# q, and w's cancels down to O(|qd|^2) of its terms, losing digits as
# eps / |qd|^3: about 1e-13 at this limit, where the series hold to 1e-17.
_SERIES_LIMIT = 1e-2


def _barrier_terms(b: BarrierSpec, k: np.ndarray):
    """The terms T, R and d log T/dp are built from, at momenta k.

    With q = sqrt(2 mu V - k^2) (principal root, Re q >= 0),
        c = (1 + e^{-2qd}) / 2,   s = (1 - e^{-2qd}) / (2q),   g = mu V / k - k,
    so that cosh(qd) + i (g/q) sinh(qd) = e^{qd} (c + i g s).  Returns
    ``(e^{-qd}, s, g, c + i g s)``; every term stays bounded, so an opaque
    barrier underflows T towards 0 instead of overflowing cosh to nan.
    Where |qd|^2 = |2 mu V - k^2| d^2 < 1e-2, s comes from the series of
    e^{-x} sinh(x)/x, x = qd, which is finite at q = 0 itself.  Entries at
    k = 0, where g is infinite, are meaningless; callers set their limits.
    """
    d, mu_v = b.width, b.mass * b.height
    q_sq = 2.0 * mu_v - k * k
    q = np.sqrt(q_sq.astype(complex))
    decay = np.exp(q * -d)
    s = decay * decay
    denom = s + 1.0
    denom *= 0.5                         # c
    np.subtract(1.0, s, out=s)
    with np.errstate(divide="ignore", invalid="ignore"):  # q = 0, k = 0
        s /= q + q
        near = np.abs(q_sq) < _SERIES_LIMIT / (d * d)
        if near.any():
            x_sq = q_sq[near] * (d * d)
            s[near] = decay[near] * d * (1.0 + x_sq * (1.0 / 6.0 + x_sq * (
                1.0 / 120.0 + x_sq * (1.0 / 5040.0 + x_sq / 362880.0))))
        g = mu_v / k - k
        denom += 1j * (g * s)
    return decay, s, g, denom


def transmission_amplitude(b: BarrierSpec, k):
    """Exact rectangular-barrier transmission amplitude T(k) at real k.

    Below the barrier q = sqrt(2 mu (V - E)) is real, above it the same
    formula continues analytically (q -> i k').  Negative k returns the
    conjugate of T(|k|); T(0) = 0 whenever V > 0, while V = 0
    short-circuits to T = 1.  Evaluated as
    T = e^{-ikd} e^{-qd} / (c + i g s) from :func:`_barrier_terms`, so it
    stays finite at any width and at the threshold q = 0.
    """
    k_arr = np.asarray(k, dtype=float)
    scalar = k_arr.ndim == 0
    k_arr = np.atleast_1d(k_arr)
    if b.height == 0.0:
        out = np.ones(k_arr.shape, dtype=complex)
    else:
        decay, _, _, denom = _barrier_terms(b, k_arr)
        with np.errstate(invalid="ignore"):
            out = np.exp(k_arr * (-1j * b.width)) * decay / denom
        out = np.where(k_arr == 0, 0.0 + 0.0j, out)
    return complex(out[0]) if scalar else out


def reflection_amplitude(b: BarrierSpec, k):
    """Exact reflection amplitude R(k); |T|^2 + |R|^2 = 1 on the real axis.

    R = -i mu V s / (k (c + i g s)) from :func:`_barrier_terms`; R(0) = -1
    whenever V > 0, while V = 0 short-circuits to R = 0.
    """
    k_arr = np.asarray(k, dtype=float)
    scalar = k_arr.ndim == 0
    k_arr = np.atleast_1d(k_arr)
    if b.height == 0.0:
        out = np.zeros(k_arr.shape, dtype=complex)
    else:
        _, s, _, denom = _barrier_terms(b, k_arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = s * (-1j * b.mass * b.height) / (k_arr * denom)
        out = np.where(k_arr == 0, -1.0 + 0.0j, out)
    return complex(out[0]) if scalar else out


# Default shift grids keep the step of the 2^21-node grid reaching 6000,
# which ``leakage`` (Gibbs ringing, proportional to the step) is defined
# on, and never exceed that grid.
_LEAKAGE_REACH = 6000.0
_LEAKAGE_NODES = 1 << 21
_MIN_NODES = 1 << 14
_TAIL_EFOLDS = 16.0  # resonance-tail e-folds the default reach holds
_MIN_CYCLES = 50     # carrier cycles per box; the step moves <= 1/(2 cycles)


@dataclass(frozen=True)
class ShiftGrid:
    """Grid request for the shift-amplitude synthesis.

    The grid starts at -4d and reaches at least +8d.  A field left ``None``
    is sized from the problem.  The delay-side reach must hold the slow
    tail of A(x), which comes from the first above-barrier transmission
    resonance (k' d = pi): its pole at Im k = -2 pi^2 / (k_th^2 d^3) makes
    the tail decay as e^{-x/L} with L = mu V d^3 / pi^2.  The default reach
    is 16 L, capped at 6000.  The default node count is the smallest power of two
    (>= 2^14) covering that span, and at least 50 carrier cycles, at the
    step of the 2^21-node grid reaching 6000, so ``leakage`` keeps its
    value; barriers wide enough to need the cap get that grid itself.
    Explicit values are used as given; ``nodes`` must be a power of two
    for the FFT.
    """

    x_max_absolute: float | None = None  # delay-side reach, absolute units
    nodes: int | None = None

    def __post_init__(self):
        if self.nodes is not None and (
                self.nodes < _MIN_NODES or self.nodes & (self.nodes - 1)):
            raise GridError("shift grid needs a power-of-two node count >= 2^14")


@dataclass(frozen=True)
class ShiftDistribution:
    """Shift amplitudes A(x') on a uniform grid, plus diagnostics.

    ``relative`` holds alpha(x') = A(x') / integral(A); ``leakage`` is the
    |A| mass fraction found at x < 0, which would vanish for the exact
    continuum object and so measures the synthesis quality.
    """

    x_grid: np.ndarray
    amplitudes: np.ndarray
    relative: np.ndarray
    total: complex
    leakage: float

    @property
    def step(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])


def _synthesize(b: BarrierSpec, p: float, x_lo: float, x_hi: float,
                nodes: int, window_width: float | None):
    """FFT synthesis of A(x) = (2pi)^(-1/2) e^{ipx} int W(k) T(k) e^{-ikx} dk.

    The box length is nudged so the mean momentum p sits exactly on the
    reciprocal lattice, which makes the discrete sum rule
    sum_j A_j dx = sqrt(2 pi) W(p) T(p) an identity rather than an
    approximation.  The spectrum is W T; with no window, (T - 1) is instead
    tapered to zero at the lattice edge so the periodization has no seam.
    """
    span = x_hi - x_lo
    cycles = max(1, round(p * span / (2.0 * np.pi)))
    length = 2.0 * np.pi * cycles / p
    dx = length / nodes
    j_zero = round(-x_lo / dx)
    x = (np.arange(nodes) - j_zero) * dx

    k = 2.0 * np.pi * np.fft.fftfreq(nodes, d=dx)
    # T(-k) = conj T(k): evaluate on k >= 0 (Nyquist included), mirror the rest
    half = nodes // 2
    t_half = transmission_amplitude(b, np.abs(k[:half + 1]))
    t_k = np.concatenate((t_half[:half], t_half[half:0:-1].conj()))
    if window_width is None:
        taper = np.exp(-((np.abs(k) / (0.85 * (np.pi / dx))) ** 24))
        spectrum = 1.0 + (t_k - 1.0) * taper
    else:
        spectrum = t_k * np.exp(-0.25 * ((k - p) * window_width) ** 2)

    # p is lattice frequency `cycles` and x[0] is -j_zero steps, so the
    # factors e^{ipx} and e^{-ik x[0]} are exact index rolls of the arrays
    a = np.roll(np.fft.fft(np.roll(spectrum, -cycles)), j_zero)
    a *= (2.0 * np.pi / length) / np.sqrt(2.0 * np.pi)
    return x, a, dx


def _layout(b: BarrierSpec, p: float,
            grid: ShiftGrid) -> tuple[float, float, int]:
    """``(x_lo, x_hi, nodes)`` of a shift-grid request at momentum p."""
    x_lo = -4.0 * b.width
    floor = 8.0 * b.width
    if grid.x_max_absolute is not None:
        x_hi = max(floor, grid.x_max_absolute)
    else:
        tail = b.mass * b.height * b.width ** 3 / np.pi ** 2
        x_hi = max(floor, min(_TAIL_EFOLDS * tail, _LEAKAGE_REACH))
    if grid.nodes is not None:
        return x_lo, x_hi, grid.nodes
    # step of the ceiling grid once _synthesize has put p on its lattice
    cycles = max(1, round(p * (max(x_hi, _LEAKAGE_REACH) - x_lo) / (2.0 * np.pi)))
    step = 2.0 * np.pi * cycles / (p * _LEAKAGE_NODES)
    span = max(x_hi - x_lo, 2.0 * np.pi * _MIN_CYCLES / p)
    nodes = _LEAKAGE_NODES
    while nodes > _MIN_NODES and (nodes // 2) * step >= span:
        nodes //= 2
    return x_lo, x_lo + nodes * step, nodes


def _checked_total(a: np.ndarray, dx: float, t_p: complex) -> complex:
    """integral A dx, checked against the sum rule sqrt(2 pi) T(p)."""
    total = complex(a.sum() * dx)
    target = np.sqrt(2.0 * np.pi) * t_p
    if not abs(total - target) <= 1e-6 * abs(target):
        raise GridError(
            f"shift-amplitude sum rule violated: {total} vs {target}; "
            "grid inadequate")
    return total


def shift_amplitudes(b: BarrierSpec, p: float,
                     grid: ShiftGrid | None = None) -> ShiftDistribution:
    """Decompose the transmission into envelope-shift sub-amplitudes.

    Satisfies the sum rule integral A dx = sqrt(2 pi) T(p) and confines its
    weight to x >= 0 up to the reported leakage.  ``grid=None`` means
    ``ShiftGrid()``, a grid sized from the barrier and p at the step
    ``leakage`` is defined on (see :class:`ShiftGrid`): 2^18 nodes instead
    of 2^21 at d = 2, p = 0.8 (V = mu = 1).
    """
    if grid is None:
        grid = ShiftGrid()
    if p <= 0:
        raise ValueError("mean momentum must be positive")
    x_lo, x_hi, nodes = _layout(b, p, grid)
    x, a, dx = _synthesize(b, p, x_lo, x_hi, nodes, window_width=None)
    total = _checked_total(a, dx, transmission_amplitude(b, p))
    mass = float(np.abs(a).sum() * dx)
    leakage = float(np.abs(a[x < 0.0]).sum() * dx / mass)
    return ShiftDistribution(x_grid=x, amplitudes=a, relative=a / total,
                             total=total, leakage=leakage)


def _log_derivative(b: BarrierSpec, p: float) -> complex:
    """Closed-form d log T / dp at p > 0 (0 when V = 0).

    From T = e^{-ikd} e^{-qd} / (c + i g s) (:func:`_barrier_terms`), with
    dq/dk = -k/q and g' = -mu V / k^2 - 1,
        d log T / dk = -id - [-d k s + i g' s - i g k w] / (c + i g s),
    w = (d c - s) / q^2, in which the two 1/q divergences of
    -qd - log(c + i g s) have cancelled.  Where s takes its series, so does
    w: the series of e^{-x} (cosh x - sinh(x)/x)/x^2, x = qd.
    """
    if p <= 0:
        raise ValueError("mean momentum must be positive")
    if b.height == 0.0:
        return 0j
    d, mu_v = b.width, b.mass * b.height
    decay, s, g, denom = (term[0] for term in _barrier_terms(b, np.array([p])))
    q_sq = 2.0 * mu_v - p * p
    if abs(q_sq) < _SERIES_LIMIT / (d * d):
        x_sq = q_sq * d * d
        w = decay * d ** 3 * (1.0 / 3.0 + x_sq * (1.0 / 30.0 + x_sq * (
            1.0 / 840.0 + x_sq * (1.0 / 45360.0 + x_sq / 3991680.0))))
    else:
        w = (d * 0.5 * (1.0 + decay * decay) - s) / q_sq
    g_prime = -mu_v / (p * p) - 1.0
    numer = -d * p * s + 1j * g_prime * s - 1j * g * p * w
    return complex(-1j * d - numer / denom)


def phase_derivative(b: BarrierSpec, p: float) -> float:
    """dPhi/dp of T(p) = |T| e^{i Phi}; saturates at -d + 2/q (Hartman)."""
    return _log_derivative(b, p).imag


def log_modulus_derivative(b: BarrierSpec, p: float) -> float:
    """d log|T(p)| / dp, the Re part of d log T/dp."""
    return _log_derivative(b, p).real


def weak_shift(b: BarrierSpec, p: float) -> tuple[float, float]:
    """Mean envelope delay delta_x, computed two independent ways.

    Returns ``(from_integral, from_phase)``:

    * ``from_integral`` is integral x Re alpha(x) dx on the shift
      distribution of the spectrum W T, W a broad Gaussian momentum window
      centred at p.  The window is flat at p (W(p) = 1, W'(p) = 0), which
      leaves both the sum rule and this first moment exactly unchanged
      while taming the slow bare tails that no finite grid could hold.
    * ``from_phase`` is the closed-form dPhi/dp (:func:`phase_derivative`).

    Negative values mean the transmitted envelope *leads* free propagation
    (it is ahead by -delta_x): for an opaque barrier delta_x ~ -d although
    every actual shift in the distribution is a non-negative delay.
    """
    if p <= 0:
        raise ValueError("mean momentum must be positive")
    if b.height > 0 and p >= b.threshold_momentum:
        raise ValueError("weak delay analysis requires a sub-barrier momentum")
    t_p = transmission_amplitude(b, p)
    if abs(t_p) < np.finfo(float).tiny:  # subnormal T has lost its digits
        raise ValueError("transmission underflows at this momentum")

    # window must die out well inside (0, threshold); a few barrier
    # widths is comfortably enough for any sub-barrier p
    gap = min(p, b.threshold_momentum - p) if b.height > 0 else p
    probe_width = max(16.0 / gap, 4.0 * b.width)
    x_lo = -12.0 * probe_width
    x_hi = 12.0 * probe_width + 12.0 * b.width
    x, a, dx = _synthesize(b, p, x_lo, x_hi, 1 << 17, window_width=probe_width)
    total = _checked_total(a, dx, t_p)
    from_integral = float((complex(np.sum(x * a)) * dx / total).real)
    return from_integral, phase_derivative(b, p)


def momentum_shift(b: BarrierSpec, packet: PacketSpec) -> float:
    """Mean momentum gain of the transmitted packet.

    delta_k = 2 <k^2>_G d log|T|/dp, positive below the barrier because the
    transmission modulus grows with momentum.
    """
    packet.require_sub_barrier(b)
    return 2.0 * packet.momentum_variance * log_modulus_derivative(b, packet.momentum)


@dataclass(frozen=True)
class TransmissionResult:
    """Transmitted-packet observables from the full dispersive simulation."""

    mean_x: float
    mean_k: float
    transmitted_norm: float
    time: float
    packet: PacketSpec
    mass: float

    @property
    def delay_shift(self) -> float:
        """Measured delta_x in the delay convention.

        The free reference co-moves at the *transmitted* mean momentum;
        referencing the incident momentum instead would fold the momentum
        filtering drift (mean_k - p) t / mu into a t-dependent offset that
        is not part of the geometric shift.
        """
        return (self.mean_k / self.mass) * self.time - self.mean_x

    @property
    def momentum_gain(self) -> float:
        return self.mean_k - self.packet.momentum


def _chirp_z(values: np.ndarray, k: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_n values_n e^{i y_m k_n} for every m, on uniform grids k and y.

    Bluestein's identity m n = (m^2 + n^2 - (m - n)^2) / 2 turns the sum
    into one convolution with the chirp e^{-i a j^2 / 2}, a = dk dy, done
    by zero-padded FFTs of length >= M + N - 1: O((M + N) log(M + N))
    work instead of the M x N phase matrix.
    """
    n_k, n_y = k.size, y.size
    dk, dy = k[1] - k[0], y[1] - y[0]
    a = dk * dy
    n = np.arange(n_k, dtype=float)
    m = np.arange(n_y, dtype=float)
    size = 1 << (n_k + n_y - 2).bit_length()
    chirp = np.zeros(size, dtype=complex)
    chirp[:n_y] = np.exp(-0.5j * a * m ** 2)
    chirp[size - n_k + 1:] = np.exp(-0.5j * a * n[:0:-1] ** 2)
    weighted = values * np.exp(1j * (y[0] * dk * n + 0.5 * a * n ** 2))
    conv = np.fft.ifft(np.fft.fft(weighted, size) * np.fft.fft(chirp))[:n_y]
    return np.exp(1j * (k[0] * y + 0.5 * a * m ** 2)) * conv


def simulate_transmission(b: BarrierSpec, packet: PacketSpec,
                          t: float) -> TransmissionResult:
    """Propagate the transmitted packet with full dispersion E = k^2/2mu.

    The wave is synthesized in momentum space, psi_T proportional to
    integral T(k) G(k - p) e^{i(kx - E(k) t)} dk, with the carrier factored
    out so only the envelope is sampled.  The sum over the k grid at every
    point of the position grid is a chirp-z transform between two uniform
    grids (:func:`_chirp_z`).  Requires v t > 10 delta_x + d so the packet
    has cleared the barrier region.
    """
    packet.require_sub_barrier(b)
    p, dx_packet = packet.momentum, packet.delta_x
    v = p / b.mass
    if v * t <= 10.0 * dx_packet + b.width:
        raise GridError(
            f"time {t} too small: need v t > 10 delta_x + d = "
            f"{(10.0 * dx_packet + b.width) / v:.1f}")

    # momentum grid: the envelope is dead beyond ~12/delta_x either side
    half_span = 16.0 / dx_packet
    if p - half_span <= 0:
        raise GridError("packet too narrow: momentum grid would cross k = 0")
    kappa = np.linspace(-half_span, half_span, 1 << 13)
    envelope = np.exp(-0.25 * (kappa * dx_packet) ** 2)
    t_k = transmission_amplitude(b, p + kappa)
    spectral = t_k * envelope

    weights = np.abs(spectral) ** 2
    norm_k = np.trapezoid(weights, kappa)
    mean_k = p + float(np.trapezoid(kappa * weights, kappa) / norm_k)
    # fraction of the incident norm that tunnelled
    incident = np.trapezoid(envelope ** 2, kappa)
    transmitted_norm = float(norm_k / incident)

    # envelope in the frame moving at v: full quadratic dispersion retained
    y = np.linspace(-8.0 * dx_packet, 8.0 * dx_packet, 1 << 11)
    modes = spectral * np.exp(-0.5j * kappa ** 2 * t / b.mass)
    profile = np.abs(_chirp_z(modes, kappa, y)) ** 2
    norm_y = np.trapezoid(profile, y)
    if norm_y <= 0:
        raise GridError("transmitted envelope lost on the position grid")
    mean_x = v * t + float(np.trapezoid(y * profile, y) / norm_y)

    return TransmissionResult(mean_x=mean_x, mean_k=mean_k,
                              transmitted_norm=transmitted_norm,
                              time=float(t), packet=packet, mass=b.mass)
