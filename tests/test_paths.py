import numpy as np
import pytest

import wmpath.paths
from wmpath import (
    EigenvaluePartition,
    GaussianPointer,
    HermitianMatrix,
    Observable,
    OrthogonalPostselection,
    PathAmplitudeSet,
    StateVector,
    StrongStatistics,
    TransitionSpec,
    ZeroTransmission,
    evolve,
    exact_mean_position,
    group,
    path_amplitudes,
    relative_amplitudes,
    strong_mean,
    strong_probabilities,
    weak_value,
    weak_value_from_matrix,
)

from helpers import expm_taylor, random_state, random_transition

SQRT2 = np.sqrt(2.0)


def natural_basis(n: int) -> Observable:
    """Non-degenerate observable keeping path index = basis index."""
    return Observable(np.arange(1.0, n + 1.0), np.eye(n))


def spin100_spec() -> TransitionSpec:
    b = -99.0 / 101.0
    return TransitionSpec(StateVector([1.0, 1.0]), StateVector([1.0, b]),
                          HermitianMatrix.zero(2), 0.0, natural_basis(2))


def threebox_spec() -> TransitionSpec:
    return TransitionSpec(StateVector([1.0, 1.0, 1.0]),
                          StateVector([1.0, -1.0, 1.0]),
                          HermitianMatrix.zero(3), 0.0, natural_basis(3))


def cheshire_amplitudes() -> PathAmplitudeSet:
    spec = TransitionSpec(StateVector([1.0, 1.0, 1.0, 1.0]),
                          StateVector([1.0, 1.0, 1.0, -1.0]),
                          HermitianMatrix.zero(4), 0.0, natural_basis(4))
    return path_amplitudes(spec)


class TestPathAmplitudes:
    def test_trivial_single_route(self):
        spec = TransitionSpec(StateVector([1.0, 0.0, 0.0]),
                              StateVector([1.0, 0.0, 0.0]),
                              HermitianMatrix.zero(3), 0.0, natural_basis(3))
        amps = path_amplitudes(spec)
        assert np.allclose(amps.amplitudes, [1.0, 0.0, 0.0], atol=1e-15)

    def test_spin100_amplitudes_by_hand(self):
        # oracle: A_i = <phi|i><i|psi> with both states written out explicitly
        b = -99.0 / 101.0
        phi_norm = np.sqrt(1.0 + b * b)
        expected = np.array([
            (1.0 / phi_norm) * (1.0 / SQRT2),
            (b / phi_norm) * (1.0 / SQRT2),
        ])
        amps = path_amplitudes(spin100_spec())
        assert np.abs(amps.amplitudes - expected).max() < 1e-14
        assert amps.amplitudes[0] == pytest.approx(0.50497475, abs=1e-8)
        assert amps.amplitudes[1] == pytest.approx(-0.49497525, abs=1e-8)

    def test_threebox_amplitudes(self):
        amps = path_amplitudes(threebox_spec())
        assert np.abs(amps.amplitudes - np.array([1, -1, 1]) / 3.0).max() < 1e-14

    def test_total_matches_direct_transition_amplitude(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            spec = random_transition(rng, n)
            amps = path_amplitudes(spec)
            u = expm_taylor(-1j * spec.hamiltonian.entries * spec.total_time)
            direct = np.vdot(spec.phi.amplitudes, u @ spec.psi.amplitudes)
            assert abs(amps.total - direct) < 1e-10

    def test_measurement_instant_is_midpoint(self):
        # two half-evolutions, not one full evolution then projection
        rng = np.random.default_rng(11)
        spec = random_transition(rng, 3)
        amps = path_amplitudes(spec)
        half = spec.total_time / 2.0
        basis = spec.observable.eigenvectors
        u_psi = evolve(spec.psi, spec.hamiltonian, half).amplitudes
        u_phi = evolve(spec.phi, spec.hamiltonian, -half).amplitudes
        manual = (basis.conj().T @ u_phi).conj() * (basis.conj().T @ u_psi)
        assert np.abs(amps.amplitudes - manual).max() < 1e-12


    def test_hamiltonian_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        spec = random_transition(rng, 3)
        calls = []
        original = wmpath.paths.spectral_decompose
        monkeypatch.setattr(wmpath.paths, "spectral_decompose",
                            lambda m: calls.append(m) or original(m))
        path_amplitudes(spec)
        weak_value_from_matrix(spec, spec.observable.matrix())
        assert calls == [spec.hamiltonian, spec.hamiltonian]


class TestRelativeAmplitudes:
    def test_spin100_reference_values(self):
        alphas = relative_amplitudes(path_amplitudes(spin100_spec())).alphas
        assert np.abs(alphas - np.array([50.5, -49.5])).max() < 1e-10

    def test_threebox_reference_values(self):
        alphas = relative_amplitudes(path_amplitudes(threebox_spec())).alphas
        assert np.abs(alphas - np.array([1.0, -1.0, 1.0])).max() < 1e-12

    def test_single_path(self):
        alphas = relative_amplitudes(PathAmplitudeSet([0.3 + 0.1j])).alphas
        assert alphas[0] == pytest.approx(1.0)

    def test_sum_is_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            amps = path_amplitudes(random_transition(rng, int(rng.integers(2, 7))))
            if abs(amps.total) < 1e-6:
                continue
            assert abs(relative_amplitudes(amps).alphas.sum() - 1.0) < 1e-10

    def test_orthogonal_postselection_raises(self):
        spec = TransitionSpec(StateVector([1.0, 0.0]), StateVector([0.0, 1.0]),
                              HermitianMatrix.zero(2), 0.0, natural_basis(2))
        with pytest.raises(OrthogonalPostselection):
            relative_amplitudes(path_amplitudes(spec))


class TestGrouping:
    def test_cheshire_occupation_grouping(self):
        amps = cheshire_amplitudes()  # proportional to (1, 1, 1, -1)/4
        partition = EigenvaluePartition(((0, 1), (2, 3)), (1.0, 0.0))
        grouped = group(amps, partition)
        assert grouped.amplitudes[0] == pytest.approx(0.5)
        assert grouped.amplitudes[1] == pytest.approx(0.0, abs=1e-15)
        assert grouped.total == pytest.approx(amps.total)

    def test_singleton_partition_is_identity(self):
        amps = cheshire_amplitudes()
        partition = EigenvaluePartition(((0,), (1,), (2,), (3,)),
                                        (1.0, 2.0, 3.0, 4.0))
        grouped = group(amps, partition)
        assert np.array_equal(grouped.amplitudes, amps.amplitudes)

    def test_threebox_first_box_grouping(self):
        amps = path_amplitudes(threebox_spec())
        partition = EigenvaluePartition(((0,), (1, 2)), (1.0, 0.0))
        grouped = group(amps, partition)
        assert grouped.amplitudes[0] == pytest.approx(1.0 / 3.0)
        assert grouped.amplitudes[1] == pytest.approx(0.0, abs=1e-15)

    def test_non_covering_partition_rejected(self):
        amps = cheshire_amplitudes()
        with pytest.raises(ValueError):
            group(amps, EigenvaluePartition(((0, 1),), (1.0,)))

    def test_mixed_eigenvalues_rejected(self):
        obs = Observable(np.array([0.0, 0.0, 1.0]), np.eye(3))
        bad = EigenvaluePartition(((0, 2), (1,)), (0.0, 0.0))
        with pytest.raises(ValueError):
            bad.validate_against(obs)

    def test_partition_from_observable_groups_degeneracies(self):
        obs = Observable(np.array([-1.0, 0.0, 0.0, 1.0]), np.eye(4))
        partition = EigenvaluePartition.from_observable(obs)
        assert partition.groups == ((0,), (1, 2), (3,))
        assert partition.group_values == (-1.0, 0.0, 1.0)


class TestStrongStatistics:
    def test_spin100_probabilities(self):
        # oracle: omega = (101^2, 99^2) / (101^2 + 99^2)
        stats = strong_probabilities(path_amplitudes(spin100_spec()))
        assert stats.omegas[0] == pytest.approx(10201.0 / 20002.0, abs=1e-12)
        assert stats.omegas[1] == pytest.approx(9801.0 / 20002.0, abs=1e-12)

    def test_threebox_grouped_certainty(self):
        amps = path_amplitudes(threebox_spec())
        grouped = group(amps, EigenvaluePartition(((0,), (1, 2)), (1.0, 0.0)))
        stats = strong_probabilities(grouped)
        assert stats.omegas[0] == pytest.approx(1.0, abs=1e-15)
        assert stats.omegas[1] == pytest.approx(0.0, abs=1e-15)

    def test_equal_moduli_give_uniform(self):
        amps = PathAmplitudeSet([1.0, 1j, -1.0, -1j, 1.0])
        stats = strong_probabilities(amps)
        assert np.abs(stats.omegas - 0.2).max() < 1e-14

    def test_all_zero_raises(self):
        with pytest.raises(ZeroTransmission):
            strong_probabilities(PathAmplitudeSet([0.0, 0.0]))

    def test_huge_amplitudes_do_not_overflow(self):
        # |A|^2 = inf would give inf / inf = nan for both routes
        stats = strong_probabilities(PathAmplitudeSet([1e160, 1e160]))
        assert np.array_equal(stats.omegas, [0.5, 0.5])

    def test_tiny_amplitudes_do_not_underflow(self):
        # A = (1e-170, 1e-170): |A|^2 = 1e-340 would round to zero
        spec = TransitionSpec(StateVector([1e-170, 1.0]),
                              StateVector([1.0, 1e-170]),
                              HermitianMatrix.zero(2), 0.0, natural_basis(2))
        stats = strong_probabilities(path_amplitudes(spec))
        assert np.array_equal(stats.omegas, [0.5, 0.5])

    def test_non_finite_probabilities_rejected(self):
        with pytest.raises(ValueError):
            StrongStatistics([np.nan, np.nan])

    def test_spin100_strong_mean(self):
        stats = strong_probabilities(path_amplitudes(spin100_spec()))
        mean = strong_mean([1.0, -1.0], stats)
        assert mean == pytest.approx(400.0 / 20002.0, abs=1e-12)

    def test_concentrated_weight_returns_group_value(self):
        stats = strong_probabilities(PathAmplitudeSet([0.7, 0.0]))
        assert strong_mean([4.25, -3.0], stats) == pytest.approx(4.25)

    def test_threebox_projector_mean_is_one(self):
        amps = path_amplitudes(threebox_spec())
        grouped = group(amps, EigenvaluePartition(((0,), (1, 2)), (1.0, 0.0)))
        assert strong_mean([1.0, 0.0], strong_probabilities(grouped)) == \
            pytest.approx(1.0, abs=1e-12)


class TestWeakValue:
    def test_spin100_reads_one_hundred(self):
        alphas = relative_amplitudes(path_amplitudes(spin100_spec()))
        value = weak_value([1.0, -1.0], alphas)
        assert value.real == pytest.approx(100.0, abs=1e-10)
        assert value.imag == pytest.approx(0.0, abs=1e-10)

    def test_identity_observable_reads_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = random_transition(rng, 4)
            amps = path_amplitudes(spec)
            if abs(amps.total) < 1e-6:
                continue
            value = weak_value(np.ones(4), relative_amplitudes(amps))
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_cheshire_spin_right(self):
        amps = cheshire_amplitudes()
        alphas = relative_amplitudes(amps)  # (1/2, 1/2, 1/2, -1/2)
        value = weak_value([0.0, 0.0, 1.0, -1.0], alphas)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_matrix_form_matches_eigen_form(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            spec = random_transition(rng, 4)
            amps = path_amplitudes(spec)
            if abs(amps.total) < 1e-6:
                continue
            eigen_value = weak_value(spec.observable, relative_amplitudes(amps))
            matrix_value = weak_value_from_matrix(spec, spec.observable.matrix())
            assert abs(eigen_value - matrix_value) < 1e-10

    def test_linearity_with_noncommuting_operators(self):
        rng = np.random.default_rng(15)
        psi, phi = random_state(rng, 3), random_state(rng, 3)
        spec = TransitionSpec(psi, phi, HermitianMatrix.zero(3), 0.0)
        s1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s1 = 0.5 * (s1 + s1.conj().T)
        s2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s2 = 0.5 * (s2 + s2.conj().T)
        assert np.abs(s1 @ s2 - s2 @ s1).max() > 1e-3  # genuinely non-commuting
        a, b = 0.7, -2.3
        combined = weak_value_from_matrix(spec, a * s1 + b * s2)
        separate = (a * weak_value_from_matrix(spec, s1)
                    + b * weak_value_from_matrix(spec, s2))
        assert abs(combined - separate) < 1e-10

    def test_expectation_value_when_postselection_is_preselection(self):
        rng = np.random.default_rng(16)
        psi = random_state(rng, 4)
        obs = random_transition(rng, 4).observable
        spec = TransitionSpec(psi, psi, HermitianMatrix.zero(4), 0.0, obs)
        alphas = relative_amplitudes(path_amplitudes(spec))
        assert np.abs(alphas.alphas.imag).max() < 1e-12
        coeffs = obs.eigenvectors.conj().T @ psi.amplitudes
        assert np.abs(alphas.alphas.real - np.abs(coeffs) ** 2).max() < 1e-12
        expectation = np.vdot(psi.amplitudes, obs.matrix() @ psi.amplitudes).real
        assert weak_value(obs, alphas) == pytest.approx(expectation, abs=1e-10)

    def test_group_then_strong_matches_grouped_strong(self):
        rng = np.random.default_rng(17)
        values = np.array([-1.0, -1.0, 0.5, 0.5, 0.5])
        obs = Observable(values, np.eye(5))
        spec = TransitionSpec(random_state(rng, 5), random_state(rng, 5),
                              HermitianMatrix.zero(5), 0.0, obs)
        amps = path_amplitudes(spec)
        partition = EigenvaluePartition.from_observable(obs)
        grouped = group(amps, partition)
        direct = strong_probabilities(grouped)
        rebuilt = strong_probabilities(PathAmplitudeSet(
            [amps.amplitudes[list(g)].sum() for g in partition.groups]))
        assert np.abs(direct.omegas - rebuilt.omegas).max() < 1e-12


class TestDegenerateEigenspace:
    def test_rotation_inside_a_block_changes_nothing(self):
        # eigh picks an arbitrary basis inside a degenerate eigenspace; every
        # reading must be blind to that choice
        rng = np.random.default_rng(18)
        values = np.array([-1.0, 0.5, 0.5, 0.5, 2.0])
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        obs = Observable.from_matrix((q * values) @ q.conj().T)
        w, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        vecs = obs.eigenvectors.copy()
        vecs[:, 1:4] = vecs[:, 1:4] @ w
        rotated = Observable(obs.eigenvalues, vecs)
        partition = EigenvaluePartition.from_observable(obs)
        assert partition.groups == ((0,), (1, 2, 3), (4,))
        transition = random_transition(rng, 5)

        def readings(observable):
            amps = path_amplitudes(transition.with_observable(observable))
            grouped = group(amps, partition)
            out = [*grouped.amplitudes, *strong_probabilities(grouped).omegas,
                   weak_value(observable, relative_amplitudes(amps))]
            for delta_f in (0.3, 1.0, 10.0):
                readout = exact_mean_position(amps, observable,
                                              GaussianPointer(delta_f))
                out += [readout.mean_f, readout.mean_lambda, readout.norm]
            return np.array(out)

        before, after = readings(obs), readings(rotated)
        assert np.abs(vecs - obs.eigenvectors).max() > 0.1  # a real rotation
        assert np.abs(after - before).max() < 1e-12
