"""Tests for truncated Fock-space states, operators and measurements."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qscissors.fock import (
    DensityMatrix,
    FockVector,
    MultiModeState,
    annihilation_matrix,
    beam_splitter_unitary,
    coherent_state,
    fidelity,
    nqs_target_state,
    number_matrix,
    project_and_renormalize,
    truncated_coherent_state,
)


def test_fock_vector_basics():
    v = FockVector([1.0, 0.0, 0.0])
    assert v.dim == 3
    assert abs(v.norm - 1.0) < 1e-15
    w = v.to_dim(5)
    assert w.dim == 5
    assert abs(w.amplitudes[0] - 1.0) < 1e-15
    assert np.all(w.amplitudes[3:] == 0)


def test_fock_vector_rejects_bad_norm():
    with pytest.raises(ValueError):
        FockVector([0.0, 0.0])
    with pytest.raises(ValueError):
        FockVector([1.0, 1.0])  # norm^2 = 2
    with pytest.raises(ValueError):
        FockVector([])


def test_fock_vector_no_truncation():
    v = FockVector([0.6, 0.8])
    with pytest.raises(ValueError):
        v.to_dim(1)


def test_overlap_pads_shorter():
    v = FockVector([0.6, 0.8])
    w = FockVector([1.0, 0.0, 0.0, 0.0])
    assert abs(v.overlap(w) - 0.6) < 1e-15
    assert abs(w.overlap(v) - 0.6) < 1e-15


def test_normalized_subnormalized_vector():
    v = FockVector([0.5, 0.5])  # norm^2 = 0.5, legal
    u = v.normalized()
    assert abs(u.norm - 1.0) < 1e-15


def test_density_matrix_validation():
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    assert abs(rho.trace - 1.0) < 1e-15
    assert abs(rho.purity - (0.49 + 0.09)) < 1e-15
    assert abs(rho.mean_photon_number() - 0.3) < 1e-15
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.zeros((2, 3)))


def test_pure_state_round_trip():
    rng = np.random.default_rng(11)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = FockVector(amp / np.linalg.norm(amp))
    rho = v.density_matrix()
    assert abs(rho.purity - 1.0) < 1e-12
    assert abs(fidelity(v, rho) - 1.0) < 1e-12


def test_coherent_state_moments():
    alpha = 0.7 + 0.2j
    v, deficit = coherent_state(alpha, 30)
    assert deficit < 1e-12
    a = annihilation_matrix(30)
    # eigenstate of the truncated ladder up to the far tail
    resid = a @ v.amplitudes - alpha * v.amplitudes
    assert np.max(np.abs(resid[:25])) < 1e-10
    nbar = np.vdot(v.amplitudes, number_matrix(30) @ v.amplitudes).real
    assert abs(nbar - abs(alpha) ** 2) < 1e-12


def test_coherent_state_large_amplitude():
    # alpha^n alone would overflow long before the 1/sqrt(n!) weight
    alpha = 30.0 * np.exp(0.7j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, deficit = coherent_state(alpha, 1500)
    assert abs(v.norm - 1.0) < 1e-12
    assert abs(deficit) < 1e-12
    nbar = float(np.dot(np.arange(1501), np.abs(v.amplitudes) ** 2))
    assert abs(nbar - 900.0) < 1e-9 * 900.0
    ratio = v.amplitudes[901] / v.amplitudes[900]
    assert abs(ratio - alpha / np.sqrt(901)) < 1e-9 * abs(ratio)


def test_coherent_state_vacuum_and_warning():
    v, deficit = coherent_state(0.0, 5)
    assert deficit == 0.0
    assert abs(v.amplitudes[0] - 1.0) < 1e-15
    with pytest.warns(UserWarning):
        coherent_state(3.0, 4)  # cutoff clips most of the population
    with pytest.raises(ValueError):
        coherent_state(1.0, -1)


def test_truncated_coherent_state():
    v = truncated_coherent_state(0.5)
    assert v.dim == 2
    assert abs(v.amplitudes[1] / v.amplitudes[0] - 0.5) < 1e-15
    assert abs(v.norm - 1.0) < 1e-15


def test_nqs_target_state():
    v = nqs_target_state(0, 0.1)
    assert abs(v.amplitudes[0] - 1.0) < 1e-15
    v = nqs_target_state(3, 0.2)
    assert abs(v.amplitudes[0] - np.cos(0.6)) < 1e-15
    assert abs(v.amplitudes[1] + 1j * np.sin(0.6)) < 1e-15
    with pytest.raises(ValueError):
        nqs_target_state(-1, 0.1)


def test_ladder_matrices():
    a = annihilation_matrix(4)
    n = number_matrix(4)
    assert np.allclose(a.conj().T @ a, n)
    # [a, a^dag] = 1 away from the cutoff edge
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(np.diag(comm)[:-1], 1.0)


def test_fidelity_pads_and_clamps():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    psi = FockVector([1.0, 0.0])
    assert abs(fidelity(psi, rho) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        fidelity(FockVector([0.0, 0.0, 0.0, 1.0]), rho)


def test_multimode_product_and_tensor():
    s = MultiModeState.product([[1.0, 0.0], [0.0, 2.0]])  # normalizes
    assert s.dims == (2, 2)
    assert abs(s.norm - 1.0) < 1e-15
    t = s.tensor()
    assert t.shape == (2, 2)
    assert abs(t[0, 1] - 1.0) < 1e-15
    with pytest.raises(ValueError):
        MultiModeState(np.zeros(5), (2, 2))


def test_beam_splitter_unitarity_and_number_conservation():
    dims = (4, 4)
    t = np.sqrt(0.6)
    U = beam_splitter_unitary(t, 1j * np.sqrt(0.4), (0, 1), dims)
    assert np.max(np.abs(U.conj().T @ U - np.eye(16))) < 1e-12
    n_tot = np.kron(number_matrix(3), np.eye(4)) + np.kron(np.eye(4), number_matrix(3))
    assert np.max(np.abs(U @ n_tot - n_tot @ U)) < 1e-12


def test_beam_splitter_single_photon_split():
    t, rm = np.sqrt(0.7), np.sqrt(0.3)
    U = beam_splitter_unitary(t, 1j * rm, (0, 1), (3, 3))
    inp = np.zeros(9, dtype=complex)
    inp[3] = 1.0  # |1, 0>
    out = (U @ inp).reshape(3, 3)
    assert abs(out[1, 0] - t) < 1e-12
    assert abs(out[0, 1] + 1j * rm) < 1e-12


def test_beam_splitter_heisenberg_action():
    # U^dag a U = t a + r^* b on every complete photon-number sector
    d = 5
    dims = (d, d)
    t = np.sqrt(0.55)
    r = 1j * np.sqrt(0.45)
    U = beam_splitter_unitary(t, r, (0, 1), dims)
    a = np.kron(annihilation_matrix(d - 1), np.eye(d))
    b = np.kron(np.eye(d), annihilation_matrix(d - 1))
    lhs = U.conj().T @ a @ U
    rhs = t * a + np.conj(r) * b
    for i in range(d):
        for j in range(d):
            if i + j <= d - 1:
                col = i * d + j
                assert np.max(np.abs(lhs[:, col] - rhs[:, col])) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    t_sq=st.floats(0.0, 1.0),
    r_phase=st.floats(0.0, 2 * np.pi),
    d0=st.integers(2, 6),
    d1=st.integers(2, 6),
    swap=st.booleans(),
)
def test_beam_splitter_blocks_equal_full_space_expm(t_sq, r_phase, d0, d1, swap):
    # the photon-number-block exponential must equal expm of the generator
    # assembled on the whole pair space from kron'd ladders
    pair = (1, 0) if swap else (0, 1)
    t = np.sqrt(t_sq)
    r = np.sqrt(1.0 - t_sq) * np.exp(1j * r_phase)
    U = beam_splitter_unitary(t, r, pair, (d0, d1))
    ladders = (np.kron(annihilation_matrix(d0 - 1), np.eye(d1)),
               np.kron(np.eye(d0), annihilation_matrix(d1 - 1)))
    ai, aj = ladders[pair[0]], ladders[pair[1]]
    phi = np.arccos(t) * (np.conj(r) / abs(r) if abs(r) > 0 else 1.0)
    want = expm(phi * (ai.conj().T @ aj) - np.conj(phi) * (ai @ aj.conj().T))
    assert np.max(np.abs(U - want)) < 1e-12
    eye = np.eye(d0 * d1)
    assert np.max(np.abs(U.conj().T @ U - eye)) < 1e-12
    n_tot = ladders[0].conj().T @ ladders[0] + ladders[1].conj().T @ ladders[1]
    assert np.max(np.abs(U @ n_tot - n_tot @ U)) < 1e-12
    # a third, idle mode in dims leaves the pair's unitary as it is
    U3 = beam_splitter_unitary(t, r, (pair[0] + 1, pair[1] + 1), (3, d0, d1))
    assert np.array_equal(U3, U)


def test_beam_splitter_rejects_lossy_pair():
    with pytest.raises(ValueError):
        beam_splitter_unitary(0.9, 0.9j, (0, 1), (3, 3))


def test_projection_on_bell_like_state():
    # (|0,1> + |1,0>)/sqrt(2); conditioning mode 1 on |1> leaves |0>
    amp = np.zeros(4, dtype=complex)
    amp[1] = amp[2] = 1 / np.sqrt(2)
    s = MultiModeState(amp, (2, 2))
    out, p = project_and_renormalize(s, [(1, 1)])
    assert abs(p - 0.5) < 1e-15
    assert isinstance(out, FockVector)
    assert abs(out.amplitudes[0] - 1.0) < 1e-15


def test_projection_multi_mode_remainder():
    s = MultiModeState.product([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    out, p = project_and_renormalize(s, [(1, 1)])
    assert isinstance(out, MultiModeState)
    assert out.dims == (2, 2)
    assert abs(p - 1.0) < 1e-14


def test_projection_error_paths():
    s = MultiModeState.product([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        project_and_renormalize(s, [(0, 1)])  # zero-probability outcome
    with pytest.raises(ValueError):
        project_and_renormalize(s, [(0, 5)])  # outcome outside dimension
    with pytest.raises(ValueError):
        project_and_renormalize(s, [(0, 0), (0, 0)])  # mode listed twice


def test_coherent_state_single_level_cutoff():
    # cutoff 0 keeps only the n=0 term: renormalizes to vacuum, reports
    # the e^{-|alpha|^2} norm deficit, and warns about the clipping
    with pytest.warns(UserWarning):
        v, deficit = coherent_state(1.0, 0)
    assert abs(v.amplitudes[0] - 1.0) < 1e-15
    assert abs(deficit - (1.0 - np.exp(-1.0))) < 1e-12
    v, _ = coherent_state(0.5, 15)
    assert abs(v.amplitudes[1] / v.amplitudes[0] - 0.5) < 1e-12


def test_truncated_coherent_state_complex_amplitude():
    v = truncated_coherent_state(2j)
    assert abs(v.amplitudes[0] - 1 / np.sqrt(5)) < 1e-15
    assert abs(v.amplitudes[1] - 2j / np.sqrt(5)) < 1e-15


def test_nqs_target_state_quarter_turns():
    v = nqs_target_state(1, np.pi / 2)
    assert abs(v.amplitudes[0]) < 1e-15
    assert abs(v.amplitudes[1] + 1j) < 1e-15
    v = nqs_target_state(2, np.pi / 8)
    assert abs(v.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(v.amplitudes[1] + 1j / np.sqrt(2)) < 1e-15


def test_fidelity_orthogonal_and_mixed():
    one = DensityMatrix(np.diag([0.0, 1.0]))
    assert fidelity(FockVector([1.0, 0.0]), one) == 0.0
    plus = FockVector(np.array([1.0, 1.0]) / np.sqrt(2))
    maximally_mixed = DensityMatrix(np.eye(2) / 2)
    assert abs(fidelity(plus, maximally_mixed) - 0.5) < 1e-15


def test_beam_splitter_full_transmission_is_identity():
    U = beam_splitter_unitary(1.0, 0.0, (0, 1), (3, 3))
    assert np.array_equal(U, np.eye(9))


def test_projection_passes_through_unmeasured_mode():
    # conditioning |1,0>|phi> on exactly its own outcome leaves |phi>, p=1
    phi = np.array([0.6, 0.8j], dtype=complex)
    s = MultiModeState.product([[0.0, 1.0], [1.0, 0.0], phi])
    out, p = project_and_renormalize(s, [(0, 1), (1, 0)])
    assert abs(p - 1.0) < 1e-14
    assert np.max(np.abs(out.amplitudes - phi)) < 1e-14


def test_projection_complete_outcome_set_sums_to_one():
    rng = np.random.default_rng(7)
    amp = rng.normal(size=12) + 1j * rng.normal(size=12)
    amp /= np.linalg.norm(amp)
    s = MultiModeState(amp, (4, 3))
    total = sum(project_and_renormalize(s, [(0, k)])[1] for k in range(4))
    assert abs(total - 1.0) < 1e-10
