import numpy as np
import pytest

from wmpath import (
    ConvergenceError,
    HermitianMatrix,
    StateVector,
    evolve,
    inner_product,
    spectral_decompose,
)

from helpers import expm_taylor, random_hermitian, random_state

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class TestStateVector:
    def test_normalizing_constructor(self):
        state = StateVector([3.0, 4.0])
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
        assert state[0] == pytest.approx(0.6)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            StateVector([0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_components_normalize(self, scale):
        # the plain norm overflows (1e200) or underflows (1e-200) here
        state = StateVector([scale, scale])
        assert np.abs(state.amplitudes - 1.0 / np.sqrt(2.0)).max() < 1e-15

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            StateVector([1.0, np.nan])

    def test_immutable(self):
        state = StateVector([1.0, 1.0])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0


class TestHermitianMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            HermitianMatrix([[0.0, 1.0], [0.5, 0.0]])

    def test_accepts_complex_hermitian(self):
        m = HermitianMatrix([[1.0, 1j], [-1j, 2.0]])
        assert m.dimension == 2

    def test_entries_near_the_float_limit_stay_finite(self):
        # the average (m + m^H) / 2 once summed first and overflowed to inf
        m = HermitianMatrix([[0.0, 1e308j], [-1e308j, 1e308]])
        assert m.entries[1, 1] == 1e308
        assert m.entries[0, 1] == 1e308j

    def test_stored_average_is_the_plain_average(self):
        # halving is exact, so halving first rounds as the sum of halves did
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = a + a.conj().T
        a[0, 1] += 1e-14  # within the tolerance, so the average is rounded
        assert np.array_equal(HermitianMatrix(a).entries, 0.5 * (a + a.conj().T))

    def test_is_diagonal(self):
        assert HermitianMatrix.zero(3).is_diagonal
        assert HermitianMatrix(np.diag([2.0, 0.0, -1.0])).is_diagonal
        assert not HermitianMatrix(PAULI_X).is_diagonal


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            psi = random_state(rng, n)
            assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        e1 = StateVector([1.0, 0.0])
        e2 = StateVector([0.0, 1.0])
        assert inner_product(e1, e2) == 0.0

    def test_spin100_overlap(self):
        # independent evaluation: <phi|psi> = (1 + b) / (sqrt(2) sqrt(1 + b^2))
        b = -99.0 / 101.0
        expected = (1.0 + b) / (np.sqrt(2.0) * np.sqrt(1.0 + b * b))
        psi = StateVector([1.0, 1.0])
        phi = StateVector([1.0, b])
        value = inner_product(phi, psi)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.0099995, abs=5e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(StateVector([1.0]), StateVector([1.0, 0.0]))


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 4)
        out = evolve(psi, HermitianMatrix.zero(4), 3.7)
        assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-12

    def test_pauli_x_quarter_period(self):
        # hand diagonalization: exp(-i sigma_x pi/2) (1,0) = (0, -i)
        out = evolve(StateVector([1.0, 0.0]), HermitianMatrix(PAULI_X), np.pi / 2)
        assert np.abs(out.amplitudes - np.array([0.0, -1j])).max() < 1e-12

    def test_matches_taylor_exponential(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = random_hermitian(rng, 4)
            t = float(rng.uniform(-2.0, 2.0))
            psi = random_state(rng, 4)
            u = expm_taylor(-1j * h.entries * t)
            expected = u @ psi.amplitudes
            out = evolve(psi, h, t)
            assert np.abs(out.amplitudes - expected).max() < 1e-10
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        t1, t2 = 0.7, 1.9
        once = evolve(psi, h, t1 + t2)
        twice = evolve(evolve(psi, h, t1), h, t2)
        assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-9

    def test_spectral_form_matches_matrix(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        out = evolve(psi, spectral_decompose(h), 0.8)
        assert np.array_equal(out.amplitudes, evolve(psi, h, 0.8).amplitudes)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            evolve(StateVector([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestSpectralDecompose:
    def test_diagonal_matrix_sorted(self):
        obs = spectral_decompose(HermitianMatrix(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(obs.eigenvalues, [1.0, 2.0, 3.0])
        # permuted standard basis
        assert np.allclose(np.abs(obs.eigenvectors),
                           np.eye(3)[:, [1, 2, 0]])

    def test_pauli_z(self):
        obs = spectral_decompose(HermitianMatrix(PAULI_Z))
        assert np.allclose(obs.eigenvalues, [-1.0, 1.0])
        assert np.allclose(obs.eigenvectors, np.eye(2)[:, [1, 0]])

    def test_pauli_x(self):
        # analytic 2x2: eigenvectors (1, -/+ 1)/sqrt(2), phase-fixed
        obs = spectral_decompose(HermitianMatrix(PAULI_X))
        assert np.allclose(obs.eigenvalues, [-1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(obs.eigenvectors[:, 0], [s, -s], atol=1e-12)
        assert np.allclose(obs.eigenvectors[:, 1], [s, s], atol=1e-12)

    def test_reassembly_and_completeness(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 6, 9, 64):
            h = random_hermitian(rng, n)
            obs = spectral_decompose(h)
            assert np.abs(obs.matrix() - h.entries).max() < 1e-9
            v = obs.eigenvectors
            completeness = v @ v.conj().T
            assert np.abs(completeness - np.eye(n)).max() < 1e-9

    def test_deterministic_phase(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        first = spectral_decompose(h)
        second = spectral_decompose(h)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        for i in range(4):
            lead = next(x for x in first.eigenvectors[:, i] if abs(x) > 1e-8)
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_repeated_eigenvalues_allowed(self):
        obs = spectral_decompose(HermitianMatrix(np.diag([1.0, 1.0, 2.0])))
        assert np.allclose(obs.eigenvalues, [1.0, 1.0, 2.0])
        # a diagonal matrix keeps tied basis states in basis order
        obs = spectral_decompose(HermitianMatrix(np.diag([2.0, 1.0, 0.0, 1.0])))
        assert np.array_equal(obs.eigenvalues, [0.0, 1.0, 1.0, 2.0])
        assert np.array_equal(obs.eigenvectors, np.eye(4)[:, [2, 1, 3, 0]])

    def test_eigh_failure_is_convergence_error(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            spectral_decompose(HermitianMatrix(PAULI_X))
        # a diagonal matrix never reaches LAPACK
        assert np.array_equal(spectral_decompose(HermitianMatrix(PAULI_Z)).eigenvalues,
                              [-1.0, 1.0])
