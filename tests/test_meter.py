import tracemalloc

import numpy as np
import pytest

from wmpath import (
    GaussianPointer,
    HermitianMatrix,
    Observable,
    PathAmplitudeSet,
    QuadratureGrid,
    RelativeAmplitudeSet,
    StateVector,
    TransitionSpec,
    ZeroNorm,
    exact_mean_position,
    path_amplitudes,
    pointer_momentum_amplitude,
    pointer_position_amplitude,
    quadrature_moments,
    relative_amplitudes,
    strong_mean,
    strong_probabilities,
    weak_asymptotics,
)
from wmpath.errors import GridError
from wmpath.meter import _KERNEL_BLOCK, _kernel_moments

from helpers import kernel_readings, random_transition

SIGMA_Z_VALUES = np.array([1.0, -1.0])
# eigenvalues whose weighted sums overflow a double
HUGE_GAP = Observable(np.array([0.0, 1e308]), np.eye(2))


def spin100_amplitudes(b=-99.0 / 101.0) -> PathAmplitudeSet:
    spec = TransitionSpec(StateVector([1.0, 1.0]), StateVector([1.0, b]),
                          HermitianMatrix.zero(2), 0.0,
                          Observable(np.array([1.0, 2.0]), np.eye(2)))
    return path_amplitudes(spec)


def test_momentum_constant_against_quadrature():
    # the hard-coded <lambda^2> = 1/delta_f^2 checked by brute quadrature,
    # before anything else in this module relies on it
    for delta_f in (0.3, 1.0, 7.0):
        pointer = GaussianPointer(delta_f)
        lam = np.linspace(-40.0 / delta_f, 40.0 / delta_f, 1 << 15)
        density = np.abs(pointer.momentum_profile(lam)) ** 2
        norm = np.trapezoid(density, lam)
        second = np.trapezoid(lam ** 2 * density, lam)
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert second == pytest.approx(pointer.momentum_variance, rel=1e-10)
        # position profile is unit-norm too
        f = np.linspace(-40.0 * delta_f, 40.0 * delta_f, 1 << 15)
        assert np.trapezoid(pointer.profile(f) ** 2, f) == pytest.approx(1.0, abs=1e-10)


def test_accuracy_limits():
    # 1/delta_f^2 must be finite: 1e-300 once passed and then divided by 0
    with pytest.raises(ValueError, match="7.5e-155"):
        GaussianPointer(1e-300)
    pointer = GaussianPointer(7.5e-155)
    # 2 / delta_f^2 overflows at this width; a real weak value still reads 0
    alphas = relative_amplitudes(PathAmplitudeSet([0.5, 0.5]))
    assert weak_asymptotics(alphas, [1.0, -1.0], pointer).mean_lambda == 0.0
    # delta_f^2 overflows to the weak limit instead of raising OverflowError
    assert GaussianPointer(1e200).momentum_variance == 0.0


def test_profiles_vanish_without_overflow():
    # (f / delta_f)^2 and (lambda delta_f)^2 overflow at the two ends of the
    # accepted widths: the profiles are 0 there, without a RuntimeWarning
    assert GaussianPointer(1e-154).profile(2.0) == 0.0
    assert GaussianPointer(1e200).momentum_profile(1.0) == 0.0


class TestPointerAmplitudes:
    def test_single_path_is_shifted_profile(self):
        pointer = GaussianPointer(0.7)
        amps = PathAmplitudeSet([1.0])
        f = np.linspace(-3, 5, 11)
        out = pointer_position_amplitude(amps, [1.3], pointer, f)
        assert np.abs(out - pointer.profile(f - 1.3)).max() < 1e-14

    def test_symmetric_pair_at_midpoint(self):
        pointer = GaussianPointer(1.1)
        amps = PathAmplitudeSet([0.4, 0.4])
        value = pointer_position_amplitude(amps, [1.0, -1.0], pointer, 0.0)
        assert value == pytest.approx(2 * 0.4 * pointer.profile(-1.0), abs=1e-14)

    def test_strong_meter_separates_peaks(self):
        # at delta_f = 0.01 the cross talk between f = +1 and the far branch
        # is Gaussian-suppressed to oblivion
        pointer = GaussianPointer(0.01)
        amps = spin100_amplitudes()
        at_peak = pointer_position_amplitude(amps, SIGMA_Z_VALUES, pointer, 1.0)
        expected = amps.amplitudes[0] * pointer.profile(0.0)
        assert abs(at_peak - expected) < 1e-14

    def test_momentum_single_path_pure_phase(self):
        pointer = GaussianPointer(0.9)
        amps = PathAmplitudeSet([0.8j])
        lam = np.linspace(-5, 5, 9)
        out = pointer_momentum_amplitude(amps, [2.0], pointer, lam)
        assert np.abs(np.abs(out) - 0.8 * np.abs(pointer.momentum_profile(lam))).max() < 1e-14

    def test_momentum_two_path_interference(self):
        # |G'|^2 = 2 |A|^2 |G|^2 (1 + cos 2 lambda) for equal A, S = +/-1
        pointer = GaussianPointer(1.5)
        a = 0.3
        amps = PathAmplitudeSet([a, a])
        lam = np.linspace(-4, 4, 101)
        out = np.abs(pointer_momentum_amplitude(amps, [1.0, -1.0], pointer, lam)) ** 2
        expected = 2 * a * a * np.abs(pointer.momentum_profile(lam)) ** 2 \
            * (1 + np.cos(2 * lam))
        assert np.abs(out - expected).max() < 1e-14

    def test_momentum_at_origin_is_total(self):
        pointer = GaussianPointer(2.0)
        amps = spin100_amplitudes()
        value = pointer_momentum_amplitude(amps, SIGMA_Z_VALUES, pointer, 0.0)
        assert value == pytest.approx(pointer.momentum_profile(0.0) * amps.total)


class TestExactMeans:
    def test_spin100_strong_accuracy(self):
        readout = exact_mean_position(spin100_amplitudes(), SIGMA_Z_VALUES,
                                      GaussianPointer(1e-3))
        assert readout.mean_f == pytest.approx(400.0 / 20002.0, abs=1e-6)

    def test_spin100_weak_accuracy(self):
        readout = exact_mean_position(spin100_amplitudes(), SIGMA_Z_VALUES,
                                      GaussianPointer(1e4))
        assert readout.mean_f == pytest.approx(100.0, abs=0.5)

    def test_single_path_reads_its_eigenvalue(self):
        for delta_f in (1e-3, 1.0, 1e3):
            readout = exact_mean_position(PathAmplitudeSet([0.5 - 0.2j]), [2.7],
                                          GaussianPointer(delta_f))
            assert readout.mean_f == pytest.approx(2.7, abs=1e-12)

    def test_momentum_vanishes_for_common_phase(self):
        rng = np.random.default_rng(20)
        moduli = rng.uniform(0.1, 1.0, size=4)
        phase = np.exp(0.77j)
        amps = PathAmplitudeSet(moduli * phase)
        values = np.array([-1.5, -0.5, 0.5, 1.5])
        for delta_f in (1e-3, 0.1, 1.0, 10.0, 1e3):
            readout = exact_mean_position(amps, values, GaussianPointer(delta_f))
            assert abs(readout.mean_lambda) < 1e-12

    def test_complex_pair_momentum_reading(self):
        # b = i: alpha = (1/(1-i), -i/(1-i)), so sum S Im alpha = +1 and
        # <lambda> delta_f^2 / 2 -> 1 as delta_f grows
        amps = spin100_amplitudes(b=1j)
        delta_f = 100.0
        readout = exact_mean_position(amps, SIGMA_Z_VALUES, GaussianPointer(delta_f))
        alpha = amps.amplitudes / amps.total
        target = np.sum(SIGMA_Z_VALUES * alpha.imag)
        assert target == pytest.approx(1.0, abs=1e-14)
        assert readout.mean_lambda * delta_f ** 2 / 2 == pytest.approx(target, abs=1e-3)

    def test_ladder_matches_pairwise_loop(self):
        # N = 64 over a ladder of several kernel blocks, from strong to weak
        rng = np.random.default_rng(27)
        amps = PathAmplitudeSet(rng.normal(size=64) + 1j * rng.normal(size=64))
        values = np.sort(rng.normal(size=64))
        ladder = np.geomspace(0.01, 100.0, 3 * (_KERNEL_BLOCK // 64 ** 2) + 5)
        got = np.column_stack(_kernel_moments(amps, values, ladder))
        expected = [kernel_readings(amps.amplitudes, values, d) for d in ladder]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_ladder_memory_is_flat(self):
        # the kernel runs in blocks, so a 10x longer ladder allocates
        # about the same peak; one (P, N, N) array would need 10x
        rng = np.random.default_rng(26)
        amps = PathAmplitudeSet(rng.normal(size=32) + 1j * rng.normal(size=32))
        values = np.sort(rng.normal(size=32))
        peaks = []
        for points in (100, 1000):
            tracemalloc.start()
            _kernel_moments(amps, values, np.geomspace(0.01, 100.0, points))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_overflowing_moments_raise(self):
        # once read mean_f = nan, after an overflow warning
        with pytest.raises(ValueError, match="non-finite"):
            exact_mean_position(PathAmplitudeSet([1.0, 1.0]), HUGE_GAP,
                                GaussianPointer(1.0))

    def test_zero_norm_raises(self):
        # a transition with no amplitude at all leaves the meter nothing to
        # weight: the success weight underflows outright
        amps = PathAmplitudeSet([0.0, 1e-200])
        with pytest.raises(ZeroNorm):
            exact_mean_position(amps, [1.0, -1.0], GaussianPointer(1e-3))


class TestWeakAsymptotics:
    def test_overflowing_weak_value_raises(self):
        # once read mean_f = inf, after an overflow warning
        with pytest.raises(ValueError, match="not finite"):
            weak_asymptotics(RelativeAmplitudeSet([-1.0, 2.0]), HUGE_GAP,
                             GaussianPointer(1.0))

    def test_spin100_reads_hundred(self):
        alphas = relative_amplitudes(spin100_amplitudes())
        readout = weak_asymptotics(alphas, SIGMA_Z_VALUES, GaussianPointer(5.0))
        assert readout.mean_f == pytest.approx(100.0, abs=1e-10)

    def test_projector_reads_alpha(self):
        rng = np.random.default_rng(21)
        spec = random_transition(rng, 4, with_dynamics=False)
        alphas = relative_amplitudes(path_amplitudes(spec))
        pointer = GaussianPointer(3.0)
        for i in range(4):
            values = np.zeros(4)
            values[i] = 1.0
            readout = weak_asymptotics(alphas, values, pointer)
            assert readout.mean_f == pytest.approx(alphas.alphas[i].real, abs=1e-12)
            assert readout.mean_lambda == pytest.approx(
                2.0 / 9.0 * alphas.alphas[i].imag, abs=1e-12)

    def test_identity_observable(self):
        rng = np.random.default_rng(22)
        spec = random_transition(rng, 5)
        alphas = relative_amplitudes(path_amplitudes(spec))
        readout = weak_asymptotics(alphas, np.ones(5), GaussianPointer(2.0))
        assert readout.mean_f == pytest.approx(1.0, abs=1e-10)
        assert readout.mean_lambda == pytest.approx(0.0, abs=1e-10)


class TestQuadratureOracle:
    def test_spin100_matches_closed_form(self):
        amps = spin100_amplitudes()
        pointer = GaussianPointer(1.0)
        quad = quadrature_moments(amps, SIGMA_Z_VALUES, pointer)
        closed = exact_mean_position(amps, SIGMA_Z_VALUES, pointer)
        assert quad.mean_f == pytest.approx(closed.mean_f, abs=1e-6)
        assert quad.norm == pytest.approx(closed.norm, rel=1e-8)

    def test_single_path(self):
        quad = quadrature_moments(PathAmplitudeSet([1.0]), [0.8],
                                  GaussianPointer(0.5))
        assert quad.mean_f == pytest.approx(0.8, abs=1e-9)

    def test_random_instances_all_accuracies(self):
        rng = np.random.default_rng(23)
        for delta_f in (0.1, 0.5, 1.0, 10.0):
            spec = random_transition(rng, 4)
            amps = path_amplitudes(spec)
            pointer = GaussianPointer(delta_f)
            closed = exact_mean_position(amps, spec.observable, pointer)
            quad = quadrature_moments(amps, spec.observable, pointer)
            scale = max(1.0, abs(closed.mean_f))
            assert abs(quad.mean_f - closed.mean_f) < 1e-6 * scale
            scale_l = max(1.0, abs(closed.mean_lambda))
            assert abs(quad.mean_lambda - closed.mean_lambda) < 1e-6 * scale_l

    def test_rejects_small_grid(self):
        with pytest.raises(GridError):
            QuadratureGrid(points=100)
        with pytest.raises(GridError):
            QuadratureGrid(span_sigmas=4.0)


class TestInterpolation:
    def test_strong_limit_for_separated_spectra(self):
        rng = np.random.default_rng(24)
        pointer = GaussianPointer(1e-3)
        for _ in range(5):
            spec = random_transition(rng, 4, min_gap=0.1)
            amps = path_amplitudes(spec)
            strong = strong_mean(spec.observable, strong_probabilities(amps))
            readout = exact_mean_position(amps, spec.observable, pointer)
            assert abs(readout.mean_f - strong) < 1e-6

    def test_weak_limit_error_decreases_monotonically(self):
        amps = spin100_amplitudes()
        alphas = relative_amplitudes(amps)
        target = np.sum(SIGMA_Z_VALUES * alphas.alphas.real)
        # ladder starts above 10 * max|S| * max|alpha| = 505
        delta_f = 1024.0
        errors = []
        for _ in range(8):
            readout = exact_mean_position(amps, SIGMA_Z_VALUES,
                                          GaussianPointer(delta_f))
            errors.append(abs(readout.mean_f - target))
            delta_f *= 2.0
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_parseval_norm_consistency(self):
        rng = np.random.default_rng(25)
        for delta_f in (0.2, 1.0, 5.0):
            spec = random_transition(rng, 3)
            amps = path_amplitudes(spec)
            pointer = GaussianPointer(delta_f)
            s = spec.observable.eigenvalues
            f = np.linspace(s.min() - 15 * delta_f, s.max() + 15 * delta_f, 1 << 14)
            lam_span = 15.0 / delta_f + 4.0 / max(1e-9, s.max() - s.min())
            lam = np.linspace(-lam_span, lam_span, 1 << 14)
            norm_f = np.trapezoid(
                np.abs(pointer_position_amplitude(amps, s, pointer, f)) ** 2, f)
            norm_l = np.trapezoid(
                np.abs(pointer_momentum_amplitude(amps, s, pointer, lam)) ** 2, lam)
            assert norm_f == pytest.approx(norm_l, abs=1e-8 * max(1, norm_f))
