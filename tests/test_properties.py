"""Property-based checks over randomized states and operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wmpath import (
    EigenvaluePartition,
    GaussianPointer,
    HermitianMatrix,
    MeterBattery,
    Observable,
    OrthogonalPostselection,
    StateVector,
    TransitionSpec,
    design_postselection,
    evolve,
    exact_mean_position,
    group,
    inner_product,
    joint_weak_means,
    path_amplitudes,
    relative_amplitudes,
    spectral_decompose,
    strong_probabilities,
    weak_asymptotics,
    weak_value,
)

from helpers import expm_taylor, random_hermitian

finite_reals = st.floats(min_value=-5.0, max_value=5.0,
                         allow_nan=False, allow_infinity=False)


def complex_array(n):
    return st.tuples(
        arrays(np.float64, (n,), elements=finite_reals),
        arrays(np.float64, (n,), elements=finite_reals),
    ).map(lambda pair: pair[0] + 1j * pair[1]).filter(
        lambda v: np.linalg.norm(v) > 1e-3)


def hermitian_matrix(n):
    return st.tuples(
        arrays(np.float64, (n, n), elements=finite_reals),
        arrays(np.float64, (n, n), elements=finite_reals),
    ).map(lambda pair: 0.5 * ((pair[0] + 1j * pair[1])
                              + (pair[0] + 1j * pair[1]).conj().T))


@settings(max_examples=60, deadline=None)
@given(values=complex_array(4))
def test_states_normalize(values):
    state = StateVector(values)
    assert abs(inner_product(state, state) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(matrix=hermitian_matrix(4), psi=complex_array(4),
       t=st.floats(min_value=-3.0, max_value=3.0))
def test_evolution_preserves_norm_and_reverses(matrix, psi, t):
    h = HermitianMatrix(matrix)
    state = StateVector(psi)
    forward = evolve(state, h, t)
    assert abs(np.linalg.norm(forward.amplitudes) - 1.0) < 1e-10
    back = evolve(forward, h, -t)
    assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(matrix=hermitian_matrix(5))
def test_spectral_reassembly(matrix):
    h = HermitianMatrix(matrix)
    obs = spectral_decompose(h)
    assert np.abs(obs.matrix() - h.entries).max() < 1e-9
    identity = obs.eigenvectors @ obs.eigenvectors.conj().T
    assert np.abs(identity - np.eye(5)).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(psi=complex_array(3), phi=complex_array(3))
def test_relative_amplitudes_sum_to_one(psi, phi):
    spec = TransitionSpec(StateVector(psi), StateVector(phi),
                          HermitianMatrix.zero(3), 0.0,
                          Observable(np.array([1.0, 2.0, 3.0]), np.eye(3)))
    amps = path_amplitudes(spec)
    if abs(amps.total) <= 1e-6:
        return  # orthogonal postselection is its own error path
    alphas = relative_amplitudes(amps)
    assert abs(alphas.alphas.sum() - 1.0) < 1e-10
    assert abs(weak_value(np.ones(3), alphas) - 1.0) < 1e-10


@settings(max_examples=60, deadline=None)
@given(psi=complex_array(4), phi=complex_array(4))
def test_strong_probabilities_normalized(psi, phi):
    spec = TransitionSpec(StateVector(psi), StateVector(phi),
                          HermitianMatrix.zero(4), 0.0,
                          Observable(np.array([-1.0, -1.0, 1.0, 1.0]), np.eye(4)))
    amps = path_amplitudes(spec)
    if np.abs(amps.amplitudes).max() == 0.0:
        return  # disjoint supports: unreachable even incoherently
    stats = strong_probabilities(amps)
    assert abs(stats.omegas.sum() - 1.0) < 1e-10
    assert stats.omegas.min() >= -1e-12
    partition = EigenvaluePartition.from_observable(spec.observable)
    grouped_stats = strong_probabilities(group(amps, partition))
    assert abs(grouped_stats.omegas.sum() - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(psi=complex_array(4),
       z_raw=complex_array(3),
       delta_f=st.floats(min_value=0.05, max_value=50.0))
def test_design_round_trip_and_meter_sanity(psi, z_raw, delta_f):
    state = StateVector(psi)
    if np.abs(state.amplitudes).min() < 1e-3:
        return  # stay clear of the unreachable-target regime
    z = np.concatenate([z_raw, [1.0 - z_raw.sum()]])
    phi = design_postselection(state, z)
    basis = Observable(np.arange(1.0, 5.0), np.eye(4))
    spec = TransitionSpec(state, phi, HermitianMatrix.zero(4), 0.0, basis)
    amps = path_amplitudes(spec)
    realized = relative_amplitudes(amps).alphas
    assert np.abs(realized - z).max() < 1e-8
    readout = exact_mean_position(amps, basis, GaussianPointer(delta_f))
    assert np.isfinite(readout.mean_f)
    assert readout.norm > 0


@st.composite
def codiagonal_batteries(draw):
    """A transition and J co-diagonal observables on one random unitary basis,
    each with its own basis inside its degenerate eigenspaces.

    Eigenvalues are integers in [-3, 3], so a row repeats values
    (degenerate) or keeps them apart, and each row is scaled by 10^k,
    |k| <= 200.  The post-selection overlaps U(T)|psi> by 10^-m, m <= 10,
    or by exactly 0.
    """
    n = draw(st.integers(2, 8))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = draw(arrays(np.float64, (rows, n), elements=st.integers(-3, 3)))
    values *= 10.0 ** draw(arrays(np.float64, (rows, 1), elements=st.integers(-200, 200)))
    overlap = draw(st.just(0.0) | st.integers(-10, 0).map(lambda m: 10.0 ** m))
    if draw(st.booleans()):
        hamiltonian, total_time = random_hermitian(rng, n), float(rng.uniform(0.1, 2.0))
    else:
        hamiltonian, total_time = HermitianMatrix.zero(n), 0.0
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    basis = np.linalg.qr(raw)[0]
    psi = StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))
    target = expm_taylor(-1j * total_time * hamiltonian.entries) @ psi.amplitudes
    target /= np.linalg.norm(target)
    other = rng.normal(size=n) + 1j * rng.normal(size=n)
    other -= target * np.vdot(target, other)
    other /= np.linalg.norm(other)
    phi = StateVector(np.sqrt(1.0 - overlap ** 2) * other + overlap * target)
    operators = []
    for row in values:
        order = np.argsort(row, kind="stable")
        vectors = basis[:, order]
        # like LAPACK's, a member's basis inside a degenerate eigenspace is
        # arbitrary: rotate it by a random unitary
        for value in np.unique(row):
            block = np.flatnonzero(row[order] == value)
            mix = rng.normal(size=(block.size,) * 2) + 1j * rng.normal(size=(block.size,) * 2)
            vectors[:, block] = vectors[:, block] @ np.linalg.qr(mix)[0]
        operators.append(Observable(row[order], vectors))
    spec = TransitionSpec(psi, phi, hamiltonian, total_time)
    return spec, basis, values, operators, overlap


@settings(max_examples=100, deadline=None)
@given(case=codiagonal_batteries())
def test_joint_readings_match_single_meters(case):
    spec, basis, values, operators, overlap = case
    pointer = GaussianPointer(7.0)
    battery = MeterBattery(operators, pointer)
    if overlap == 0.0:
        with pytest.raises(OrthogonalPostselection):
            joint_weak_means(spec, battery)
        return
    # below an overlap of about 1e-5 the rounded alphas may miss their unit
    # sum by more than 1e-10, which relative_amplitudes reports as a nearly
    # orthogonal post-selection
    try:
        joint = joint_weak_means(spec, battery)
    except OrthogonalPostselection:
        assert overlap < 1e-4
        return
    amps = path_amplitudes(spec.with_observable(
        Observable(np.arange(float(spec.dimension)), basis)))
    alphas = amps.amplitudes / amps.total
    # both routes round the normalisation by about eps sum|A| / |sum A|
    cond = np.abs(amps.amplitudes).sum() / abs(amps.total)
    scales = 1e-12 * cond * (np.abs(values) @ np.abs(alphas))
    for j, op in enumerate(operators):
        try:
            alone = weak_asymptotics(
                relative_amplitudes(path_amplitudes(spec.with_observable(op))),
                op, pointer)
        except OrthogonalPostselection:  # the same check, alphas rounded in another order
            assert overlap < 1e-4
            continue
        assert abs(joint.mean_f[j] - alone.mean_f) <= scales[j]
        momentum_scale = 2.0 * pointer.momentum_variance * scales[j]
        assert abs(joint.mean_lambda[j] - alone.mean_lambda) <= momentum_scale
