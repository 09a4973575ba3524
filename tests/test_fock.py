"""Tests for truncated Fock-space states, operators, beam splitters and the
per-diagonal propagator apply."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qscissors.fock import (
    CutoffError,
    DensityMatrix,
    FockVector,
    _apply_diagonal_propagators,
    _checked_trace,
    _expm_hermitian,
    _packed_diagonals,
    _splitter_eigh,
    annihilation_matrix,
    beam_splitter_unitary,
    coherent_state,
)

from packed import diagonal_block, place, squares


def test_fock_vector_basics():
    v = FockVector([1.0, 0.0, 0.0])
    assert v.dim == 3
    assert abs(v.norm - 1.0) < 1e-15


def test_fock_vector_rejects_bad_norm():
    with pytest.raises(ValueError):
        FockVector([0.0, 0.0])
    with pytest.raises(ValueError):
        FockVector([1.0, 1.0])  # norm^2 = 2
    with pytest.raises(ValueError):
        FockVector([])


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


def test_trace_drift_guard():
    rho = np.diag([0.7, 0.3]).astype(complex)
    out = rho + 1e-9 * np.eye(2) / 2
    assert abs(_checked_trace(1.0, out, "step") - (1.0 + 1e-9)) < 1e-15  # within 1e-8
    with pytest.raises(CutoffError, match="^step: trace drifted by 1.000e-07"):
        _checked_trace(1.0, rho + 1e-7 * np.eye(2) / 2, "step")
    with pytest.raises(CutoffError, match="^step: trace drifted by nan"):
        _checked_trace(1.0, np.full((2, 2), np.nan), "step")


def test_pure_state_round_trip():
    rng = np.random.default_rng(11)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = FockVector(amp / np.linalg.norm(amp))
    rho = v.density_matrix()
    assert abs(rho.purity - 1.0) < 1e-12
    f = np.vdot(v.amplitudes, rho.elements @ v.amplitudes).real  # <psi|rho|psi>
    assert abs(f - 1.0) < 1e-12


def test_coherent_state_moments():
    alpha = 0.7 + 0.2j
    v, deficit = coherent_state(alpha, 30)
    assert deficit < 1e-12
    a = annihilation_matrix(30)
    # eigenstate of the truncated ladder up to the far tail
    resid = a @ v.amplitudes - alpha * v.amplitudes
    assert np.max(np.abs(resid[:25])) < 1e-10
    number = np.diag(np.arange(31.0))
    nbar = np.vdot(v.amplitudes, number @ v.amplitudes).real
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


def test_ladder_matrices():
    a = annihilation_matrix(4)
    n = np.diag(np.arange(5.0))
    assert np.allclose(a.conj().T @ a, n)
    # [a, a^dag] = 1 away from the cutoff edge
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(np.diag(comm)[:-1], 1.0)


def test_beam_splitter_unitarity_and_number_conservation():
    dims = (4, 4)
    t = np.sqrt(0.6)
    U = beam_splitter_unitary(t, 1j * np.sqrt(0.4), *dims)
    assert np.max(np.abs(U.conj().T @ U - np.eye(16))) < 1e-12
    number = np.diag(np.arange(4.0))
    n_tot = np.kron(number, np.eye(4)) + np.kron(np.eye(4), number)
    assert np.max(np.abs(U @ n_tot - n_tot @ U)) < 1e-12


def test_beam_splitter_single_photon_split():
    t, rm = np.sqrt(0.7), np.sqrt(0.3)
    U = beam_splitter_unitary(t, 1j * rm, 3, 3)
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
    U = beam_splitter_unitary(t, r, *dims)
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
# the shapes lqs_projection_oracle builds: (2, d) and (d, d) at the
# benchmark's cutoff 12 and at qscissors verify's cutoff 15
@example(t_sq=0.37, r_phase=np.pi / 2, d0=2, d1=14, swap=False)
@example(t_sq=0.63, r_phase=1.1, d0=2, d1=14, swap=True)
@example(t_sq=0.5, r_phase=np.pi / 2, d0=14, d1=14, swap=False)
@example(t_sq=0.21, r_phase=4.0, d0=17, d1=17, swap=False)
# a mode of dimension 1 (every block of size 1), t = 1 - 1e-16 and t = 0
@example(t_sq=0.4, r_phase=0.3, d0=1, d1=5, swap=False)
@example(t_sq=0.4, r_phase=0.3, d0=1, d1=5, swap=True)
@example(t_sq=(1 - 1e-16) ** 2, r_phase=np.pi / 2, d0=4, d1=6, swap=False)
@example(t_sq=0.0, r_phase=2.5, d0=5, d1=5, swap=False)
def test_beam_splitter_blocks_equal_full_space_expm(t_sq, r_phase, d0, d1, swap):
    # the photon-number-block exponential must equal expm of the generator
    # assembled on the whole pair space from kron'd ladders
    # both mode orders: the larger mode first or second
    d_i, d_j = (d1, d0) if swap else (d0, d1)
    t = np.sqrt(t_sq)
    r = np.sqrt(1.0 - t_sq) * np.exp(1j * r_phase)
    U = beam_splitter_unitary(t, r, d_i, d_j)
    ai = np.kron(annihilation_matrix(d_i - 1), np.eye(d_j))
    aj = np.kron(np.eye(d_i), annihilation_matrix(d_j - 1))
    phi = np.arccos(t) * (np.conj(r) / abs(r) if abs(r) > 0 else 1.0)
    want = expm(phi * (ai.conj().T @ aj) - np.conj(phi) * (ai @ aj.conj().T))
    assert np.max(np.abs(U - want)) < 1e-12
    eye = np.eye(d0 * d1)
    assert np.max(np.abs(U.conj().T @ U - eye)) < 1e-12
    n_tot = ai.conj().T @ ai + aj.conj().T @ aj
    assert np.max(np.abs(U @ n_tot - n_tot @ U)) < 1e-12


@st.composite
def _hermitian_stacks(draw):
    """(n, m, m) Hermitian stacks: random blocks, some zero-padded below size
    m like the beam-splitter stack, some with repeated eigenvalues."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    a = rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))
    h = scale * (a + a.conj().swapaxes(-1, -2)) / 2
    for b in range(n):
        kind = draw(st.sampled_from(["full", "padded", "degenerate"]))
        if kind == "padded":  # size 0 leaves an all-zero block
            s = draw(st.integers(0, m))
            h[b, s:, :] = h[b, :, s:] = 0
        elif kind == "degenerate":
            q, _ = np.linalg.qr(a[b])
            lam = rng.choice([-scale, 0.0, scale], size=m)
            h[b] = (q * lam) @ q.conj().T
    return h


@settings(max_examples=200, deadline=None)
@given(h=_hermitian_stacks())
def test_expm_hermitian_equals_scipy_expm(h):
    got = _expm_hermitian(h)
    want = np.array([expm(-1j * block) for block in h])
    assert np.max(np.abs(got - want)) < 1e-13


def test_cached_splitter_basis_gives_the_bits_of_a_cold_call():
    # shapes interleaved at several angles, every call after the first of its
    # shape a cache hit: each must equal, bit for bit, a call that rebuilds
    # the eigendecomposition after the cache is cleared
    shapes = [(2, 14), (14, 14), (2, 17), (17, 17), (1, 4), (4, 1)]
    pairs = [(np.sqrt(t_sq), np.sqrt(1.0 - t_sq) * np.exp(1j * phase))
             for t_sq, phase in ((0.37, np.pi / 2), (0.0, 1.1), (0.83, 4.0), (0.5, -0.6))]
    _splitter_eigh.cache_clear()
    warm = {(t, r, shape): beam_splitter_unitary(t, r, *shape)
            for t, r in pairs for shape in shapes}
    assert _splitter_eigh.cache_info().hits == len(warm) - len(shapes)
    for (t, r, shape), u in warm.items():
        _splitter_eigh.cache_clear()
        assert beam_splitter_unitary(t, r, *shape).tobytes() == u.tobytes()


def test_cached_splitter_basis_is_read_only():
    for shape in ((2, 14), (1, 4), (5, 3)):
        for arr in _splitter_eigh(*shape):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = 0


def test_beam_splitter_rejects_lossy_pair():
    with pytest.raises(ValueError):
        beam_splitter_unitary(0.9, 0.9j, 3, 3)


def test_coherent_state_single_level_cutoff():
    # cutoff 0 keeps only the n=0 term: renormalizes to vacuum, reports
    # the e^{-|alpha|^2} norm deficit, and warns about the clipping
    with pytest.warns(UserWarning):
        v, deficit = coherent_state(1.0, 0)
    assert abs(v.amplitudes[0] - 1.0) < 1e-15
    assert abs(deficit - (1.0 - np.exp(-1.0))) < 1e-12
    v, _ = coherent_state(0.5, 15)
    assert abs(v.amplitudes[1] / v.amplitudes[0] - 0.5) < 1e-12


def test_beam_splitter_full_transmission_is_identity():
    U = beam_splitter_unitary(1.0, 0.0, 3, 3)
    assert np.array_equal(U, np.eye(9))


def _apply_loop(rho, stack):
    """Reference: one matrix-vector product per diagonal, mirrored."""
    d = rho.shape[0]
    out = np.diag(diagonal_block(stack, 0) @ rho.diagonal())
    for x in range(1, d):
        w = diagonal_block(stack, x) @ rho.diagonal(-x)
        out = out + np.diag(w, -x) + np.diag(w.conj(), x)
    return out


def test_apply_diagonal_propagators_equals_loop():
    # a random Hermitian rho and a random packed stack, zero outside the
    # squares of its diagonals: the batched gather-matmul-mirror must equal
    # the per-diagonal loop, at every d up to 45, of either parity
    rng = np.random.default_rng(45)
    for d in range(1, 46):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = A + A.conj().T
        shape = (d // 2 + 1, d, d)
        stack = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * squares(d)
        got = _apply_diagonal_propagators(rho, stack)
        want = _apply_loop(rho, stack)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(np.tril(got, -1), np.triu(got, 1).conj().T)


@pytest.mark.parametrize("d", range(1, 46))
def test_packed_layout_follows_its_rule(d):
    # the slot at the block's position plus m, in the row of the matrix
    # that holds diagonal n - m, holds entry (n, m); every entry n >= m
    # sits in exactly one slot, and a slot outside every square reads d
    lay = _packed_diagonals(d)
    want_n, want_m = np.full((2, d // 2 + 1, d), d)
    for x in range(d):
        b, o = place(d, x)
        j = np.arange(d - x)
        want_n[b, o + j], want_m[b, o + j] = j + x, j
    assert np.array_equal(lay.n, want_n) and np.array_equal(lay.m, want_m)
    held = lay.n < d
    assert np.array_equal(held, np.diagonal(squares(d), axis1=1, axis2=2))
    assert np.array_equal(lay.m < d, held)
    n, m = np.tril_indices(d)
    assert sorted(zip(lay.n[held].tolist(), lay.m[held].tolist())) == sorted(
        zip(n.tolist(), m.tolist()))
    assert np.array_equal(lay.lower, n * d + m) and np.array_equal(lay.upper, m * d + n)
    assert np.array_equal(lay.n.reshape(-1)[lay.slot], n)
    assert np.array_equal(lay.m.reshape(-1)[lay.slot], m)
    for arr in lay:
        assert not arr.flags.writeable
