import numpy as np
import pytest

import wmpath.paths
import wmpath.tomography
from wmpath import (
    AllZeroAmplitudes,
    GaussianPointer,
    HermitianMatrix,
    InconsistentReadout,
    JointReadout,
    MeterBattery,
    MomentumUnderflow,
    Observable,
    RelativeAmplitudeSet,
    SingularFamily,
    StateVector,
    TargetSumViolation,
    TransitionSpec,
    UnreachableTarget,
    design_postselection,
    joint_weak_means,
    path_amplitudes,
    predict_strong,
    projector_battery,
    reconstruct_alphas,
    reconstruct_from_operator_family,
    relative_amplitudes,
    weak_asymptotics,
)
from wmpath.scenarios import get_scenario

from helpers import random_state, random_transition


def natural_basis(n: int) -> Observable:
    return Observable(np.arange(1.0, n + 1.0), np.eye(n))


def transition(psi_values, phi_values) -> TransitionSpec:
    psi = StateVector(psi_values)
    phi = StateVector(phi_values)
    return TransitionSpec(psi, phi, HermitianMatrix.zero(psi.dimension))


class TestJointWeakMeans:
    def test_single_meter_reduces_to_weak_asymptotics(self):
        rng = np.random.default_rng(30)
        spec = random_transition(rng, 4)
        pointer = GaussianPointer(7.0)
        battery = MeterBattery([spec.observable], pointer)
        joint = joint_weak_means(spec, battery)
        alone = weak_asymptotics(relative_amplitudes(path_amplitudes(spec)),
                                 spec.observable, pointer)
        assert joint.mean_f[0] == pytest.approx(alone.mean_f, abs=1e-14)
        assert joint.mean_lambda[0] == pytest.approx(alone.mean_lambda, abs=1e-14)

    def test_hamiltonian_decomposed_once_per_battery(self, monkeypatch):
        rng = np.random.default_rng(31)
        spec = random_transition(rng, 6)
        battery = projector_battery(spec.observable, GaussianPointer(7.0))
        calls = []
        original = wmpath.paths.spectral_decompose
        monkeypatch.setattr(wmpath.paths, "spectral_decompose",
                            lambda m: calls.append(m) or original(m))
        joint = joint_weak_means(spec, battery)
        assert calls == [spec.hamiltonian]
        basis = spec.observable.eigenvectors
        for j in range(spec.dimension):
            # the projector onto column j, its eigenvalue 1 last
            order = [i for i in range(spec.dimension) if i != j] + [j]
            op = Observable(np.eye(spec.dimension)[-1], basis[:, order])
            alone = weak_asymptotics(
                relative_amplitudes(path_amplitudes(spec.with_observable(op))),
                op, battery.pointer)
            assert joint.mean_f[j] == pytest.approx(alone.mean_f, rel=1e-12, abs=0)
            assert joint.mean_lambda[j] == pytest.approx(alone.mean_lambda,
                                                         rel=1e-12, abs=0)

    def test_projector_battery_is_one_basis(self, monkeypatch):
        # N = 1024: the battery builds no Observable and the readout
        # projects onto the basis once, not once per meter
        n = 1024
        rng = np.random.default_rng(36)
        basis = natural_basis(n)
        spec = TransitionSpec(random_state(rng, n), random_state(rng, n),
                              HermitianMatrix.zero(n))
        built, projections = [], []
        observable_init = Observable.__init__
        monkeypatch.setattr(Observable, "__init__",
                            lambda self, *a: built.append(a) or observable_init(self, *a))
        battery = projector_battery(basis, GaussianPointer(7.0))
        assert built == []
        assert battery.spectra.shape == (n, n)
        project = wmpath.tomography._project
        monkeypatch.setattr(wmpath.tomography, "_project",
                            lambda *a: projections.append(a) or project(*a))
        joint = joint_weak_means(spec, battery)
        assert len(projections) == 1
        expected = relative_amplitudes(
            path_amplitudes(spec.with_observable(basis))).alphas
        assert np.abs(joint.mean_f - expected.real).max() < 1e-12

    @pytest.mark.parametrize("rows", [
        [[1.0, 1.0, 2.0], [1.0, 2.0, 3.0]],
        np.eye(4),  # the N rank-one projectors: every member degenerate
        [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
         [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]],  # the Cheshire meters
    ], ids=["one-degenerate", "projectors", "cheshire"])
    def test_degenerate_members_share_a_basis(self, rows):
        # LAPACK's basis inside a degenerate eigenspace is arbitrary, so the
        # battery must find the common basis from all members together
        rng = np.random.default_rng(37)
        n = len(rows[0])
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = np.linalg.qr(raw)[0]
        members = [Observable.from_matrix((q * np.asarray(values)) @ q.conj().T)
                   for values in rows]
        spec = random_transition(rng, n)
        pointer = GaussianPointer(9.0)
        battery = MeterBattery(members, pointer)
        joint = joint_weak_means(spec, battery)
        alone = [weak_asymptotics(
            relative_amplitudes(path_amplitudes(spec.with_observable(op))), op, pointer)
            for op in members]
        for readings, reference in ((joint.mean_f, [a.mean_f for a in alone]),
                                    (joint.mean_lambda, [a.mean_lambda for a in alone])):
            assert np.abs(readings - reference).max() < 1e-12 * np.abs(reference).max()
        if len(rows) == n:
            result = reconstruct_from_operator_family(joint, battery, basis=q)
            expected = relative_amplitudes(path_amplitudes(
                spec.with_observable(Observable(np.arange(n, dtype=float), q)))).alphas
            assert np.abs(result.alphas.alphas - expected).max() < 1e-12

    def test_cheshire_battery(self):
        scenario = get_scenario("cheshire")
        battery = MeterBattery(
            [scenario.observable(name)
             for name in ("PL", "PR", "sigmaL", "sigmaR")],
            GaussianPointer(50.0))
        joint = joint_weak_means(scenario.transition, battery)
        assert np.abs(joint.mean_f - np.array([1.0, 0.0, 0.0, 1.0])).max() < 1e-12
        assert np.abs(joint.mean_lambda).max() < 1e-12

    def test_threebox_battery(self):
        scenario = get_scenario("threebox")
        battery = MeterBattery(
            [scenario.observable(name) for name in ("P1", "P2", "P3")],
            GaussianPointer(40.0))
        joint = joint_weak_means(scenario.transition, battery)
        assert np.abs(joint.mean_f - np.array([1.0, -1.0, 1.0])).max() < 1e-12


class TestReconstructAlphas:
    def test_threebox_projectors(self):
        scenario = get_scenario("threebox")
        pointer = GaussianPointer(25.0)
        battery = projector_battery(natural_basis(3), pointer)
        joint = joint_weak_means(scenario.transition, battery)
        recovered = reconstruct_alphas(joint, pointer)
        assert np.abs(recovered.alphas - np.array([1.0, -1.0, 1.0])).max() < 1e-12

    def test_single_path(self):
        readout = JointReadout([1.0], [0.0])
        recovered = reconstruct_alphas(readout, GaussianPointer(10.0))
        assert recovered.alphas[0] == pytest.approx(1.0)

    def test_round_trip_random_transition(self):
        rng = np.random.default_rng(31)
        spec = random_transition(rng, 5, with_dynamics=True)
        pointer = GaussianPointer(12.0)
        battery = projector_battery(spec.observable, pointer)
        bare = TransitionSpec(spec.psi, spec.phi, spec.hamiltonian,
                              spec.total_time)
        joint = joint_weak_means(bare, battery)
        recovered = reconstruct_alphas(joint, pointer)
        expected = relative_amplitudes(path_amplitudes(spec)).alphas
        assert np.abs(recovered.alphas - expected).max() < 1e-10

    def test_wide_pointer_reads_back_im_alpha(self):
        # delta_f^2 = 1e200 still fits a float; 2 Im(w) / delta_f^2 ~ 1e-200
        rng = np.random.default_rng(32)
        spec = random_transition(rng, 3, with_dynamics=False)
        pointer = GaussianPointer(1e100)
        joint = joint_weak_means(spec, projector_battery(spec.observable, pointer))
        expected = relative_amplitudes(path_amplitudes(spec)).alphas
        recovered = reconstruct_alphas(joint, pointer).alphas
        assert np.abs(recovered - expected).max() < 1e-12

    @pytest.mark.parametrize("delta_f", [1e155, 1e200])
    def test_underflowing_momenta_raise(self, delta_f):
        # 1/delta_f^2 is subnormal (1e155) or 0 (1e200): the momentum
        # readings have lost Im(alpha); squaring delta_f once overflowed
        rng = np.random.default_rng(33)
        spec = random_transition(rng, 3, with_dynamics=False)
        pointer = GaussianPointer(delta_f)
        battery = projector_battery(spec.observable, pointer)
        joint = joint_weak_means(spec, battery)
        with pytest.raises(MomentumUnderflow):
            reconstruct_alphas(joint, pointer)
        with pytest.raises(MomentumUnderflow):
            reconstruct_from_operator_family(joint, battery, basis=spec.observable)

    def test_subnormal_momentum_reading_is_read_back(self):
        # 1/delta_f^2 = 1e-300 is normal, a reading of 1e-310 is not, but
        # it still holds Im(alpha) = 1e-310 / 2e-300 to 2.5e-324 / 2e-300
        recovered = reconstruct_alphas(
            JointReadout([0.5, 0.5], [1e-310, -1e-310]), GaussianPointer(1e150))
        assert np.abs(recovered.alphas - [0.5 + 5e-11j, 0.5 - 5e-11j]).max() < 1e-23

    def test_corrupted_readout_rejected(self):
        readout = JointReadout([0.7, 0.7], [0.0, 0.0])  # sums to 1.4
        with pytest.raises(InconsistentReadout):
            reconstruct_alphas(readout, GaussianPointer(5.0))


class TestOperatorFamily:
    def test_projector_family_matches_direct_inversion(self):
        scenario = get_scenario("threebox")
        pointer = GaussianPointer(18.0)
        basis = natural_basis(3)
        battery = projector_battery(basis, pointer)
        joint = joint_weak_means(scenario.transition, battery)
        direct = reconstruct_alphas(joint, pointer)
        result = reconstruct_from_operator_family(joint, battery, basis=basis)
        assert np.abs(result.alphas.alphas - direct.alphas).max() < 1e-12
        assert result.condition_number == pytest.approx(1.0, abs=1e-12)

    def test_sigma_z_and_identity_recover_spin100(self):
        scenario = get_scenario("spin100")
        pointer = GaussianPointer(300.0)
        family = MeterBattery([scenario.observable("sigma_z"),
                               scenario.observable("identity")], pointer)
        joint = joint_weak_means(scenario.transition, family)
        result = reconstruct_from_operator_family(joint, family,
                                                  basis=np.eye(2))
        assert np.abs(result.alphas.alphas - np.array([50.5, -49.5])).max() < 1e-9
        expected_omegas = np.array([10201.0, 9801.0]) / 20002.0
        assert np.abs(result.predicted_omegas.omegas - expected_omegas).max() < 1e-9

    def test_repeated_operator_is_singular(self):
        scenario = get_scenario("spin100")
        pointer = GaussianPointer(100.0)
        sigma_z = scenario.observable("sigma_z")
        family = MeterBattery([sigma_z, sigma_z], pointer)
        joint = joint_weak_means(scenario.transition, family)
        with pytest.raises(SingularFamily):
            reconstruct_from_operator_family(joint, family)

    def test_non_codiagonal_family_rejected(self):
        pointer = GaussianPointer(50.0)
        sigma_x = Observable.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sigma_z = Observable.from_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            MeterBattery([sigma_z, sigma_x], pointer)

    @pytest.mark.parametrize("scale", [1e-11, 1e-200, 1e200])
    def test_non_codiagonal_family_rejected_at_any_scale(self, scale):
        pointer = GaussianPointer(50.0)
        sigma_x = Observable.from_matrix(scale * np.array([[0.0, 1.0], [1.0, 0.0]]))
        sigma_z = Observable.from_matrix(scale * np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="co-diagonal"):
            MeterBattery([sigma_z, sigma_x], pointer)
        # a zero member is diagonal in every basis
        zero = Observable(np.zeros(2), np.eye(2))
        battery = MeterBattery([zero, sigma_z], pointer)
        assert np.array_equal(battery.spectra, [[0.0, 0.0], [-scale, scale]])

    def test_basis_that_does_not_diagonalize_the_family_rejected(self):
        scenario = get_scenario("cheshire")
        pointer = GaussianPointer(18.0)
        battery = projector_battery(natural_basis(4), pointer)
        joint = joint_weak_means(scenario.transition, battery)
        swap = np.eye(4)
        swap[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
        mixed = Observable.from_matrix(swap + np.diag([0.0, 0.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="does not diagonalize"):
            reconstruct_from_operator_family(joint, battery, basis=mixed)
        # a re-ordered basis is accepted and re-indexes the amplitudes
        reversed_basis = Observable(np.arange(4.0), np.eye(4)[:, ::-1])
        result = reconstruct_from_operator_family(joint, battery, basis=reversed_basis)
        assert np.abs(result.alphas.alphas - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12

    def test_family_inverts_joint_means_on_random_transition(self):
        rng = np.random.default_rng(32)
        n = 4
        basis = natural_basis(n)
        pointer = GaussianPointer(20.0)
        operators = []
        for _ in range(n):
            values = rng.uniform(-2.0, 2.0, size=n)
            order = np.argsort(values)
            operators.append(Observable(values[order], np.eye(n)[:, order]))
        family = MeterBattery(operators, pointer)
        spec = random_transition(rng, n, with_dynamics=True)
        bare = TransitionSpec(spec.psi, spec.phi, spec.hamiltonian, spec.total_time)
        joint = joint_weak_means(bare, family)
        result = reconstruct_from_operator_family(joint, family, basis=basis)
        expected = relative_amplitudes(path_amplitudes(
            bare.with_observable(basis))).alphas
        tol = 1e-8 * result.condition_number
        assert np.abs(result.alphas.alphas - expected).max() < tol


class TestPredictStrong:
    def test_threebox(self):
        stats = predict_strong(RelativeAmplitudeSet([1.0, -1.0, 1.0]))
        assert np.abs(stats.omegas - 1.0 / 3.0).max() < 1e-12

    def test_spin100(self):
        stats = predict_strong(RelativeAmplitudeSet([50.5, -49.5]))
        expected = np.array([10201.0, 9801.0]) / 20002.0
        assert np.abs(stats.omegas - expected).max() < 1e-12

    def test_concentrated(self):
        stats = predict_strong(RelativeAmplitudeSet([1.0, 0.0, 0.0]))
        assert np.allclose(stats.omegas, [1.0, 0.0, 0.0])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            raw[-1] += 1.0 - raw.sum()
            if np.abs(raw).min() < 1e-3:
                continue
            alphas = RelativeAmplitudeSet(raw)
            stats = predict_strong(alphas)
            direct = np.abs(raw) ** 2 / np.sum(np.abs(raw) ** 2)
            assert np.abs(stats.omegas - direct).max() < 1e-9

    def test_all_zero_rejected(self):
        bad = RelativeAmplitudeSet.__new__(RelativeAmplitudeSet)
        object.__setattr__(bad, "alphas", np.zeros(3, dtype=complex))
        with pytest.raises(AllZeroAmplitudes):
            predict_strong(bad)


class TestDesignPostselection:
    def test_threebox_pair(self):
        psi = StateVector([1.0, 1.0, 1.0])
        phi = design_postselection(psi, [1.0, -1.0, 1.0])
        expected = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
        assert np.abs(phi.amplitudes - expected).max() < 1e-12

    def test_concentrating_target(self):
        rng = np.random.default_rng(34)
        psi = random_state(rng, 4)
        phi = design_postselection(psi, [1.0, 0.0, 0.0, 0.0])
        assert np.abs(np.abs(phi.amplitudes) - [1.0, 0.0, 0.0, 0.0]).max() < 1e-12

    def test_cheshire_pair(self):
        psi = StateVector([1.0, 1.0, 1.0, 1.0])
        phi = design_postselection(psi, [0.5, 0.5, 0.5, -0.5])
        expected = np.array([1.0, 1.0, 1.0, -1.0]) / 2.0
        assert np.abs(phi.amplitudes - expected).max() < 1e-12

    def test_round_trip_large_targets(self):
        psi = StateVector([1.0, 1.0])
        targets = np.array([100.5, -99.5])
        phi = design_postselection(psi, targets)
        spec = TransitionSpec(psi, phi, HermitianMatrix.zero(2), 0.0,
                              natural_basis(2))
        realized = relative_amplitudes(path_amplitudes(spec)).alphas
        assert np.abs(realized - targets).max() < 1e-8

    def test_sum_violation(self):
        with pytest.raises(TargetSumViolation):
            design_postselection(StateVector([1.0, 1.0]), [0.5, 0.6])

    def test_unreachable_target(self):
        with pytest.raises(UnreachableTarget):
            design_postselection(StateVector([1.0, 0.0]), [0.5, 0.5])

    def test_unreachable_target_names_the_first_index(self):
        with pytest.raises(UnreachableTarget, match=r"z\[1\]"):
            design_postselection(StateVector([1.0, 0.0, 1.0, 0.0]),
                                 [0.5, 0.25, 0.0, 0.25])

    @pytest.mark.parametrize("tiny", [1e-200, 1e-310])
    def test_tiny_component_keeps_phi_finite(self, tiny):
        # z / psi once overflowed for a subnormal psi component
        phi = design_postselection(StateVector([1.0, tiny]), [0.5, 0.5])
        assert np.array_equal(phi.amplitudes, [tiny, 1.0])

    def test_zero_target_on_unpopulated_path_is_fine(self):
        phi = design_postselection(StateVector([1.0, 0.0]), [1.0, 0.0])
        assert np.abs(phi.amplitudes - [1.0, 0.0]).max() < 1e-14

    def test_random_round_trips(self):
        rng = np.random.default_rng(35)
        basis_cache = {}
        for _ in range(30):
            n = int(rng.integers(2, 7))
            psi = random_state(rng, n)
            z = rng.normal(size=n) * 10 + 1j * rng.normal(size=n) * 10
            z[-1] += 1.0 - z.sum()
            phi = design_postselection(psi, z)
            basis = basis_cache.setdefault(n, natural_basis(n))
            spec = TransitionSpec(psi, phi, HermitianMatrix.zero(n), 0.0, basis)
            realized = relative_amplitudes(path_amplitudes(spec)).alphas
            assert np.abs(realized - z).max() < 1e-8
