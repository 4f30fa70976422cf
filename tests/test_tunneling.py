import numpy as np
import pytest

from wmpath import (
    BarrierSpec,
    PacketSpec,
    ShiftGrid,
    log_modulus_derivative,
    momentum_shift,
    phase_derivative,
    reflection_amplitude,
    shift_amplitudes,
    simulate_transmission,
    transmission_amplitude,
    weak_shift,
)
from wmpath import tunneling
from wmpath.errors import GridError
from wmpath.tunneling import _chirp_z

from helpers import (barrier_amplitudes, barrier_log_derivative,
                     full_lattice_shift, windowed_delay)

OPAQUE = BarrierSpec(height=1.0, width=10.0, mass=1.0)
FREE = BarrierSpec(height=0.0, width=10.0, mass=1.0)
P = 0.8


class TestTransmissionAmplitude:
    def test_free_limit_is_unity(self):
        k = np.linspace(0.1, 3.0, 17)
        assert np.abs(transmission_amplitude(FREE, k) - 1.0).max() < 1e-12
        vanishing = BarrierSpec(height=1e-14, width=10.0)
        assert np.abs(transmission_amplitude(vanishing, k) - 1.0).max() < 1e-10

    def test_unitarity_at_reference_point(self):
        t = transmission_amplitude(OPAQUE, P)
        r = reflection_amplitude(OPAQUE, P)
        assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_unitarity_across_grid(self):
        k = np.linspace(0.05, 4.0, 400)  # spans sub-barrier and above-barrier
        t = transmission_amplitude(OPAQUE, k)
        r = reflection_amplitude(OPAQUE, k)
        assert np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0).max() < 1e-10

    def test_opaque_decay_scales_with_width(self):
        # log|T| ~ -q d + slowly varying terms, so widening the barrier by
        # delta d multiplies |T| by ~ e^{-q delta d}
        q = np.sqrt(2.0 * (1.0 - P * P / 2.0))
        t10 = abs(transmission_amplitude(BarrierSpec(1.0, 10.0), P))
        t12 = abs(transmission_amplitude(BarrierSpec(1.0, 12.0), P))
        ratio = np.log(t10 / t12)
        assert ratio == pytest.approx(2.0 * q, rel=1e-3)

    @pytest.mark.parametrize("width", [10.0, 100.0, 700.0])
    def test_opaque_barrier_stays_finite_and_unitary(self, width):
        # cosh(qd) overflows near qd = 710; the scaled form never builds it
        b = BarrierSpec(height=1.0, width=width, mass=1.0)
        t = transmission_amplitude(b, P)
        r = reflection_amplitude(b, P)
        assert np.isfinite(t) and np.isfinite(r)
        assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_continuous_at_threshold(self):
        # q = 0 exactly: m is infinite, yet T and R have finite limits
        b = BarrierSpec(height=0.05, width=4.0, mass=1.0)
        k_th = b.threshold_momentum
        for amplitude in (transmission_amplitude, reflection_amplitude):
            at = amplitude(b, k_th)
            assert np.isfinite(at)
            for side in (1.0 - 1e-9, 1.0 + 1e-9):
                assert abs(at - amplitude(b, k_th * side)) < 1e-8
        grid = transmission_amplitude(b, np.array([0.5, 1.0, 2.0]) * k_th)
        assert np.isfinite(grid).all()

    @pytest.mark.parametrize("height, width", [(0.25, 5.0), (1.0, 2.0)])
    def test_matches_cosh_sinh_form_next_to_threshold(self, height, width):
        # |k / k_th - 1| from 0.1 to 1e-14 crosses the series edge |qd| = 0.1;
        # a form that cancels, (1 - e^{-2qd}) / q, is off by ~1e-10 at 1e-10
        b = BarrierSpec(height=height, width=width, mass=1.0)
        offsets = 10.0 ** -np.arange(1.0, 15.0)
        k = b.threshold_momentum * np.concatenate((1.0 - offsets, 1.0 + offsets))
        oracle_t, oracle_r = barrier_amplitudes(height, width, 1.0, k)
        for amplitude, oracle in ((transmission_amplitude, oracle_t),
                                  (reflection_amplitude, oracle_r)):
            error = np.abs(amplitude(b, k) - oracle) / np.abs(oracle)
            assert error.max() < 1e-13

    def test_zero_momentum_is_fully_reflected(self):
        assert transmission_amplitude(OPAQUE, 0.0) == 0.0
        assert reflection_amplitude(OPAQUE, 0.0) == -1.0

    def test_conjugate_symmetry(self):
        k = np.array([0.3, 0.9, 1.7])
        plus = transmission_amplitude(OPAQUE, k)
        minus = transmission_amplitude(OPAQUE, -k)
        assert np.abs(minus - plus.conj()).max() < 1e-14


class TestShiftAmplitudes:
    def test_free_case_is_delta_spike(self):
        dist = shift_amplitudes(FREE, P, ShiftGrid(nodes=1 << 16,
                                                   x_max_absolute=80.0))
        magnitudes = np.abs(dist.amplitudes)
        peak = magnitudes.argmax()
        assert dist.x_grid[peak] == pytest.approx(0.0, abs=dist.step)
        others = np.delete(magnitudes, peak)
        assert others.max() < 1e-9 * magnitudes[peak]
        assert abs(dist.total - np.sqrt(2 * np.pi)) < 1e-9

    def test_sum_rule(self):
        dist = shift_amplitudes(OPAQUE, P)
        target = np.sqrt(2.0 * np.pi) * transmission_amplitude(OPAQUE, P)
        assert abs(dist.total - target) < 1e-6 * abs(target)

    @pytest.mark.parametrize("width", [2.0, 12.0])
    def test_default_grid_keeps_the_leakage_of_the_full_grid(self, width):
        b = BarrierSpec(height=1.0, width=width, mass=1.0)
        sized = shift_amplitudes(b, P)
        full = shift_amplitudes(b, P, ShiftGrid(x_max_absolute=6000.0,
                                                nodes=1 << 21))
        assert sized.leakage == pytest.approx(full.leakage, rel=0.02)
        assert sized.step == pytest.approx(full.step, rel=0.01)
        target = np.sqrt(2.0 * np.pi) * transmission_amplitude(b, P)
        assert abs(sized.total - target) < 1e-6 * abs(target)

    def test_default_grid_is_sized_from_the_barrier(self):
        narrow = shift_amplitudes(BarrierSpec(1.0, 2.0), P)
        assert narrow.x_grid.size <= 1 << 18
        assert shift_amplitudes(OPAQUE, P).x_grid.size < 1 << 21
        # once 16 tail lengths pass 6000 the default is the full grid itself
        wide = BarrierSpec(1.0, 16.0)
        sized = shift_amplitudes(wide, 1.3)
        full = shift_amplitudes(wide, 1.3, ShiftGrid(x_max_absolute=6000.0,
                                                     nodes=1 << 21))
        assert np.array_equal(sized.amplitudes, full.amplitudes)

    @pytest.mark.parametrize("width", [15.0, 16.5, 17.5, 18.5, 19.0])
    def test_opaque_barriers_keep_the_sum_rule(self, width):
        # |T| = 6e-8 to 4e-10, where the sum rule's rounding, about
        # eps / |T|, nears its tolerance; from |T| < 1e-8 (d = 16.5) the
        # whole lattice's one FFT is taken, and it holds the rule to d = 19
        b = BarrierSpec(1.0, width)
        target = np.sqrt(2.0 * np.pi) * transmission_amplitude(b, P)
        assert abs(shift_amplitudes(b, P).total - target) < 1e-6 * abs(target)

    def test_support_on_nonnegative_shifts(self):
        # no poles in the upper half k-plane: nothing outruns instantaneous
        # traversal, so (numerical dust aside) all weight sits at x >= 0
        dist = shift_amplitudes(OPAQUE, P)
        assert dist.leakage < 1e-3

    def test_nan_total_violates_the_sum_rule(self, monkeypatch):
        def poisoned(*args, **kwargs):
            x, a, dx = synthesize(*args, **kwargs)
            return x, np.full_like(a, np.nan), dx

        synthesize = tunneling._synthesize
        monkeypatch.setattr(tunneling, "_synthesize", poisoned)
        with pytest.raises(GridError):
            shift_amplitudes(OPAQUE, P, ShiftGrid(nodes=1 << 14))
        with pytest.raises(GridError):
            weak_shift(OPAQUE, P)

    def test_rejects_undersized_grid(self):
        with pytest.raises(GridError):
            ShiftGrid(nodes=1 << 10)


class TestTwoScaleSynthesis:
    """``shift_amplitudes`` against one FFT over its whole reference lattice.

    Nothing else checks ``leakage`` to this precision: the CLI reports it,
    and the acceptance tests only bound it.  At d = 15 and 19 only p = 1.3
    is taken: at p = 0.2, |T| = 4e-10 and 2e-12 are below 1e-8, where the
    whole lattice is taken.
    """

    @pytest.mark.parametrize("height, width, p", [
        *[(1.0, d, p) for d in (1.0, 2.0, 3.2, 5.0, 8.0, 10.0, 12.0)
          for p in (0.2, 1.3)],
        (1.0, 15.0, 1.3), (1.0, 19.0, 1.3),
        (0.25, 2.0, 0.2), (0.25, 8.0, 0.6), (4.0, 2.0, 0.2), (4.0, 12.0, 2.5),
    ])
    def test_matches_the_full_lattice(self, height, width, p):
        b = BarrierSpec(height, width)
        dist = shift_amplitudes(b, p)
        x, a, _, leakage = full_lattice_shift(b, p)
        # every node is a lattice node: the fine window is the lattice's
        # first nodes, the tail a sub-lattice of it
        index = np.searchsorted(x, dist.x_grid)
        assert np.array_equal(x[index], dist.x_grid)
        gaps = np.flatnonzero(np.diff(index) > 1)
        window = gaps[0] + 1 if gaps.size else index.size
        assert np.array_equal(index[:window], np.arange(window))
        assert dist.x_grid.size < x.size / 4
        assert (np.abs(dist.amplitudes - a[index]).max()
                < 1e-8 * np.abs(a).max())
        assert dist.leakage == pytest.approx(leakage, rel=1e-4)
        target = np.sqrt(2.0 * np.pi) * transmission_amplitude(b, p)
        assert abs(dist.total - target) < 1e-6 * abs(target)

    @pytest.mark.parametrize("width, p", [(0.02, 1.2), (0.05, 1.2), (15.0, 0.2)])
    def test_narrow_or_opaque_barrier_takes_the_whole_box(self, width, p):
        # the band of T W, 1.26 k_c = 80 / d, would pass half the
        # lattice's momenta (d = 0.02, 0.05), or |T| = 4e-10 < 1e-8
        # (d = 15): S takes the whole lattice's one FFT, T mirrored from
        # k >= 0 as the oracle does, so that only the scale rounds apart
        b = BarrierSpec(1.0, width)
        dist = shift_amplitudes(b, p)
        x, a, total, leakage = full_lattice_shift(b, p)
        assert np.array_equal(dist.x_grid, x)
        assert np.abs(dist.amplitudes - a).max() < 1e-15 * np.abs(a).max()
        assert dist.total == pytest.approx(total, rel=1e-15)
        assert dist.leakage == pytest.approx(leakage, rel=1e-12)

    def test_weights_are_the_steps_of_the_two_grids(self):
        dist = shift_amplitudes(OPAQUE, P)
        steps = np.diff(dist.x_grid)
        junction = np.argmax(steps > 1.5 * dist.step)
        fine, coarse = steps[0], steps[junction]
        assert np.allclose(steps[:junction], fine, rtol=1e-9)
        assert np.allclose(steps[junction:], coarse, rtol=1e-9)
        assert np.allclose(dist.weights[:junction], fine, rtol=1e-9)
        assert dist.weights[junction] == pytest.approx(0.5 * (fine + coarse))
        assert np.allclose(dist.weights[junction + 1:], coarse, rtol=1e-9)


class TestWeakShift:
    @pytest.mark.parametrize("width, p", [
        (2.0, 0.2), (2.0, 1.3), (5.0, 0.8), (12.0, 0.2), (12.0, 1.3),
        (25.0, 0.8), (200.0, 0.8), (605.0, 0.8), (0.1, 1.4)])
    def test_grid_is_sized_from_the_window(self, monkeypatch, width, p):
        # the window confines the spectrum to |k - p| < 16 / w, which
        # 2^12 nodes on a box of at most 28 w hold 14 times over, and
        # samples it at k = p + kappa: no 2^17 nodes, nor any more near k = 0
        sizes = []

        def recording(spectrum, *args):
            sizes.append(spectrum.size)
            return synthesize(spectrum, *args)

        synthesize = tunneling._synthesize
        monkeypatch.setattr(tunneling, "_synthesize", recording)
        b = BarrierSpec(1.0, width)
        from_integral, _ = weak_shift(b, p)
        assert from_integral == pytest.approx(windowed_delay(b, p, 1 << 17),
                                              rel=1e-10)
        assert sizes == [1 << 12]

    @pytest.mark.parametrize("height, width", [(1.0, 0.1), (1.0, 10.0), (4.0, 2.0)])
    def test_routes_agree_near_the_threshold(self, height, width):
        # 3e-4 below k_th the window is 5.3e4 wide, inside the 1e5 limit
        b = BarrierSpec(height, width)
        from_integral, from_phase = weak_shift(b, b.threshold_momentum - 3e-4)
        assert from_integral == pytest.approx(from_phase, rel=1e-7)

    @pytest.mark.parametrize("gap", [1e-4, 1.4e-5, 2.4e-9])
    def test_rejects_a_window_too_wide_to_hold_its_moment(self, gap):
        # 16 / gap > 1e5: rounding would swamp the window's first moment;
        # sized by bandwidth from k = 0, 2.4e-9 would have asked 2^38 nodes
        b = BarrierSpec(1.0, 10.0)
        with pytest.raises(GridError, match="below the barrier threshold"):
            weak_shift(b, b.threshold_momentum - gap)

    def test_free_barrier_gives_zero(self):
        from_integral, from_phase = weak_shift(FREE, P)
        assert abs(from_integral) < 1e-9
        assert abs(from_phase) < 1e-9

    def test_routes_agree_and_shift_is_negative(self):
        from_integral, from_phase = weak_shift(OPAQUE, P)
        assert from_phase < 0.0
        assert abs(from_integral - from_phase) < 0.01 * abs(from_phase)
        # opaque barrier: |delta_x| is of the order of the width
        assert 0.5 * OPAQUE.width < abs(from_phase) < 1.5 * OPAQUE.width

    def test_magnitude_grows_linearly_with_width(self):
        shifts = []
        for d in (8.0, 10.0, 12.0):
            _, from_phase = weak_shift(BarrierSpec(1.0, d), P)
            shifts.append(abs(from_phase))
        assert shifts[0] < shifts[1] < shifts[2]
        increments = np.diff(shifts)
        # linear growth: equal increments for equal width steps
        assert increments[1] == pytest.approx(increments[0], rel=0.05)

    def test_weak_value_lies_outside_the_support(self):
        dist = shift_amplitudes(OPAQUE, P)
        _, from_phase = weak_shift(OPAQUE, P)
        assert dist.leakage < 1e-3      # support numerically confined to x >= 0
        assert from_phase < 0.0         # yet the mean shift is negative

    @pytest.mark.parametrize("width", [25.0, 200.0])
    def test_routes_agree_past_the_rounding_of_t(self, width):
        # |T| = 4e-13 and 9e-102: a spectrum W (1 + (T - 1) taper) loses T
        from_integral, from_phase = weak_shift(BarrierSpec(1.0, width), P)
        assert np.isfinite(from_integral) and np.isfinite(from_phase)
        assert from_integral == pytest.approx(from_phase, rel=1e-6)

    def test_rejects_above_barrier_momentum(self):
        with pytest.raises(ValueError):
            weak_shift(OPAQUE, 2.0)

    def test_rejects_underflowing_transmission(self):
        # |T| = 2e-314 is subnormal: the integral route would drift by 2e-8
        with pytest.raises(ValueError):
            weak_shift(BarrierSpec(1.0, 620.0), P)


class TestMomentumShift:
    def test_free_barrier_gives_zero(self):
        assert momentum_shift(FREE, PacketSpec(P, 200.0)) == pytest.approx(0.0, abs=1e-12)

    def test_positive_below_barrier(self):
        packet = PacketSpec(P, 500.0)
        dk = momentum_shift(OPAQUE, packet)
        assert dk > 0.0
        assert np.sign(dk) == np.sign(log_modulus_derivative(OPAQUE, P))

    def test_scales_with_inverse_width_squared(self):
        dk200 = momentum_shift(OPAQUE, PacketSpec(P, 200.0))
        dk400 = momentum_shift(OPAQUE, PacketSpec(P, 400.0))
        assert dk200 * 200.0 ** 2 == pytest.approx(dk400 * 400.0 ** 2, rel=1e-6)

    def test_finite_for_an_opaque_barrier(self):
        dk = momentum_shift(BarrierSpec(1.0, 700.0), PacketSpec(P, 500.0))
        assert np.isfinite(dk) and dk > 0.0

    def test_rejects_above_barrier(self):
        with pytest.raises(ValueError):
            momentum_shift(OPAQUE, PacketSpec(1.9, 100.0))


def central_difference_log_derivative(b, p):
    """Dense central difference of the full complex amplitude: T'/T."""
    h = 1e-6 * p
    derivative = (transmission_amplitude(b, p + h)
                  - transmission_amplitude(b, p - h)) / (2 * h)
    return derivative / transmission_amplitude(b, p)


class TestPhaseDerivative:
    def test_against_analytic_log_derivative(self):
        # independent oracle: complex-step-free dense central difference of
        # the full complex amplitude, then Im/Re parts of T'/T
        dlog = central_difference_log_derivative(OPAQUE, P)
        assert phase_derivative(OPAQUE, P) == pytest.approx(dlog.imag, rel=1e-6)
        assert log_modulus_derivative(OPAQUE, P) == pytest.approx(dlog.real, rel=1e-6)

    @pytest.mark.parametrize("height, width", [
        (1.0, 10.0), (1.0, 2.0), (0.05, 4.0), (4.0, 0.3)])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 1.0, 1.5, 3.0])
    def test_matches_central_difference(self, height, width, ratio):
        # below, at and above the threshold p = k_th
        b = BarrierSpec(height=height, width=width, mass=1.0)
        p = ratio * b.threshold_momentum
        dlog = central_difference_log_derivative(b, p)
        assert phase_derivative(b, p) == pytest.approx(dlog.imag, rel=1e-6)
        assert log_modulus_derivative(b, p) == pytest.approx(dlog.real, rel=1e-6)

    @pytest.mark.parametrize("qd", [3e-3, 0.99e-2, 1.01e-2, 0.99e-1, 1.01e-1])
    def test_series_and_direct_forms_meet_near_threshold(self, qd):
        # |qd| < 0.1 takes the series for s and w, the rest the direct form
        p = np.sqrt(2.0 - (qd / OPAQUE.width) ** 2)
        dlog = central_difference_log_derivative(OPAQUE, p)
        assert phase_derivative(OPAQUE, p) == pytest.approx(dlog.imag, rel=1e-6)
        assert log_modulus_derivative(OPAQUE, p) == pytest.approx(dlog.real, rel=1e-6)

    @pytest.mark.parametrize("height, width", [(1.0, 2.0), (0.05, 4.0), (0.25, 5.0)])
    def test_matches_contour_derivative_next_to_threshold(self, height, width):
        # from 0.1 to 1e-6 of k_th on both sides, across the series edge;
        # a direct w = (d c - s) / q^2 at |qd| = 0.01 is ~3e-11 off
        b = BarrierSpec(height=height, width=width, mass=1.0)
        offsets = 10.0 ** -np.arange(1.0, 7.0)
        ratios = np.concatenate((1.0 - offsets, 1.0 + offsets))
        for p in b.threshold_momentum * ratios:
            oracle = barrier_log_derivative(height, width, 1.0, p)
            closed = log_modulus_derivative(b, p) + 1j * phase_derivative(b, p)
            assert abs(closed - oracle) < 1e-12 * abs(oracle)

    @pytest.mark.parametrize("width", [50.0, 200.0, 700.0, 1e4])
    def test_hartman_saturation(self, width):
        # opaque limit: delta_x = -d + 2/q, whatever the width
        q = np.sqrt(2.0 - P * P)
        shift = phase_derivative(BarrierSpec(1.0, width), P)
        assert shift + width == pytest.approx(2.0 / q, rel=1e-9)

    def test_log_modulus_slope_grows_as_p_over_q_per_width(self):
        # log|T| ~ -q d + const, so d log|T|/dp gains d p / q
        q = np.sqrt(2.0 - P * P)
        narrow = log_modulus_derivative(BarrierSpec(1.0, 100.0), P)
        wide = log_modulus_derivative(BarrierSpec(1.0, 200.0), P)
        assert wide - narrow == pytest.approx(100.0 * P / q, rel=1e-9)


class TestChirpZ:
    @pytest.mark.parametrize("k_range, y_range, n_k, n_y", [
        ((-0.3, 1.7), (5.0, 40.0), 517, 300),      # neither grid symmetric
        ((-0.064, 0.064), (-4000.0, 4000.0), 211, 1023),
        ((2.0, 2.5), (-3.0, -1.0), 7, 129),
    ])
    def test_matches_dense_double_sum(self, k_range, y_range, n_k, n_y):
        rng = np.random.default_rng(n_k + n_y)
        k = np.linspace(*k_range, n_k)
        y = np.linspace(*y_range, n_y)
        values = rng.normal(size=n_k) + 1j * rng.normal(size=n_k)
        dense = np.exp(1j * np.outer(y, k)) @ values
        fast = _chirp_z(values, k, y)
        assert np.abs(fast - dense).max() < 1e-10 * np.abs(dense).max()


class TestSimulation:
    def test_free_packet_travels_at_v(self):
        packet = PacketSpec(P, 200.0)
        t = 1.05 * (10 * 200.0 + 10.0) / P
        sim = simulate_transmission(FREE, packet, t)
        vt = P * t
        assert abs(sim.mean_x - vt) < 1e-3 * vt
        assert sim.transmitted_norm == pytest.approx(1.0, abs=1e-9)

    def test_oracle_matches_first_order_shifts(self):
        packet = PacketSpec(P, 500.0)
        t = 1.05 * (10 * 500.0 + 10.0) / P
        sim = simulate_transmission(OPAQUE, packet, t)
        _, delta_x = weak_shift(OPAQUE, P)
        delta_k = momentum_shift(OPAQUE, packet)
        assert abs(sim.delay_shift - delta_x) < 0.02 * abs(delta_x)
        assert abs(sim.momentum_gain - delta_k) < 0.02 * abs(delta_k)

    def test_rejects_too_small_time(self):
        with pytest.raises(GridError):
            simulate_transmission(OPAQUE, PacketSpec(P, 500.0), 10.0)
