"""Tests for the brute-force master-equation integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscissors.fock import (
    CutoffError,
    DensityMatrix,
    _apply_diagonal_propagators,
    annihilation_matrix,
    coherent_state,
)
from qscissors.lindblad import IntegratorConfig, _generator_blocks, integrate, lindblad_rhs
from qscissors.nqs import (
    NqsParams,
    analytic_damped_step_thermal,
    analytic_damped_step_zero_T,
    unitary_kerr_step,
)


def _random_density(seed, dim, support=None):
    """Random density on `dim` levels, optionally supported on the lowest
    `support` levels only; truncated generators are faithful to the
    untruncated dynamics only away from the cutoff edge."""
    support = dim if support is None else support
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    small = A @ A.conj().T
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:support, :support] = small / np.trace(small).real
    return rho


def _dissipator(L, rho):
    return L @ rho @ L.conj().T - 0.5 * (L.conj().T @ L @ rho + rho @ L.conj().T @ L)


def _rk4_run(rho, n_steps, h, lam, nbar):
    """Reference: the step-by-step RK4 loop that integrate evaluates exactly
    as one matrix power per diagonal."""
    for _ in range(n_steps):
        k1 = lindblad_rhs(rho, 1.0, lam, nbar)
        k2 = lindblad_rhs(rho + 0.5 * h * k1, 1.0, lam, nbar)
        k3 = lindblad_rhs(rho + 0.5 * h * k2, 1.0, lam, nbar)
        k4 = lindblad_rhs(rho + h * k3, 1.0, lam, nbar)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)


def test_rhs_equals_standard_lindblad_form():
    # the symmetrized double-commutator thermal term must equal the
    # two-dissipator form gamma (nbar+1) D[a] + gamma nbar D[a^dag] with the
    # Kerr commutator on every level, so the state fills the top levels too
    d = 9
    rho = _random_density(31, d)
    a = annihilation_matrix(d - 1)
    kerr = a.conj().T @ a.conj().T @ a @ a
    for kappa, gamma, nbar in [(1.0, 0.3, 0.0), (1.0, 0.3, 0.7), (2.0, 0.05, 1.4)]:
        want = (
            -0.5j * kappa * (kerr @ rho - rho @ kerr)
            + gamma * (nbar + 1) * _dissipator(a, rho)
            + gamma * nbar * _dissipator(a.conj().T, rho)
        )
        got = lindblad_rhs(rho, kappa, gamma, nbar)
        assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("x", [-4, -1, 0, 2, 7])
def test_rhs_keeps_each_diagonal(x):
    # the generator conserves n - m: a matrix supported on one diagonal is
    # mapped onto that diagonal, which is what lets integrate work per block
    d = 10
    rng = np.random.default_rng(37 + x)
    v = rng.normal(size=d - abs(x)) + 1j * rng.normal(size=d - abs(x))
    out = lindblad_rhs(np.diag(v, x), 1.0, 0.3, 0.6)
    assert np.any(np.diagonal(out, x) != 0)
    assert np.all(out - np.diag(np.diagonal(out, x), x) == 0)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 20), lam=st.floats(0.0, 2.0), nbar=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_generator_blocks_reproduce_rhs(d, lam, nbar, seed):
    # block L_x acts on diagonal -x; applied diagonal by diagonal and
    # mirrored, the blocks must give the full right-hand side of a random
    # Hermitian matrix, and their zero padding must stay zero
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A + A.conj().T
    rho /= np.max(np.abs(rho))
    L = _generator_blocks(d, lam, nbar)
    assert L.shape == (d, d, d)
    for x in range(1, d):
        assert np.all(L[x, d - x:, :] == 0) and np.all(L[x, :, d - x:] == 0)
    got = _apply_diagonal_propagators(rho, [L[x, :d - x, :d - x] for x in range(d)])
    assert np.max(np.abs(got - lindblad_rhs(rho, 1.0, lam, nbar))) < 1e-13


@pytest.mark.parametrize("seed, dim, tau, lam, nbar, want_steps", [
    (38, 16, 0.5, 0.05, 0.0, 500),   # zero temperature
    (39, 14, 0.5, 0.3, 0.4, 500),    # thermal
    (40, 12, 1.0, 0.0, 0.0, 1000),   # lossless
    (41, 13, 0.004, 0.4, 0.1, 10),   # 10-step floor
])
def test_integrate_matches_step_loop(seed, dim, tau, lam, nbar, want_steps):
    # the states fill every level, so the cutoff edge is exercised too
    rho0 = _random_density(seed, dim)
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=dim - 1, lam=lam, nbar=nbar)
    cfg = IntegratorConfig(dt=1e-3)
    n_steps = max(int(np.ceil(tau / cfg.dt - 1e-12)), 10)
    assert n_steps == want_steps
    want = _rk4_run(rho0, n_steps, tau / n_steps, lam, nbar)
    got = integrate(DensityMatrix(rho0), tau, p, cfg).elements
    assert np.max(np.abs(got - want)) < 1e-12


def test_rhs_cached_ladders_follow_the_dimension():
    # the ladder products are cached per dimension; switching dimensions
    # back and forth must still give the literal formula built afresh
    for k, d in enumerate((9, 16, 9)):
        rho = _random_density(40 + k, d, support=d - 2)
        a = annihilation_matrix(d - 1)
        ad = a.conj().T
        kerr = ad @ ad @ a @ a
        n_op = ad @ a
        kappa, gamma, nbar = 1.3, 0.2, 0.4
        want = (-0.5j * kappa * (kerr @ rho - rho @ kerr)
                - 0.5 * gamma * (n_op @ rho + rho @ n_op - 2 * (a @ rho @ ad))
                + gamma * nbar * (ad @ rho @ a - n_op @ rho - rho @ a @ ad + a @ rho @ ad))
        got = lindblad_rhs(rho, kappa, gamma, nbar)
        assert got.shape == (d, d)
        assert np.max(np.abs(got - want)) < 1e-13


def test_rhs_traceless_and_hermiticity_preserving():
    rho = _random_density(32, 8)
    out = lindblad_rhs(rho, 1.0, 0.2, 0.5)
    assert abs(np.trace(out)) < 1e-13
    assert np.max(np.abs(out - out.conj().T)) < 1e-13


def test_rk4_fourth_order_convergence():
    rho0 = DensityMatrix(_random_density(33, 14, support=6))
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=13, lam=0.3, nbar=0.2)
    ref = analytic_damped_step_thermal(rho0, 0.5, p).elements
    errs = []
    for dt in (0.05, 0.025):
        got = integrate(rho0, 0.5, p, IntegratorConfig(dt=dt)).elements
        errs.append(np.max(np.abs(got - ref)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0  # halving dt cuts the error ~16x


def test_integrate_matches_analytic_zero_T():
    rho0 = DensityMatrix(_random_density(34, 10, support=7))
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=9, lam=0.05)
    want = analytic_damped_step_zero_T(rho0, 1.0, p).elements
    got = integrate(rho0, 1.0, p).elements
    assert np.max(np.abs(got - want)) < 1e-6


def test_integrate_zero_time_and_validation():
    rho0 = DensityMatrix(np.diag([0.5, 0.5]))
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=1, lam=0.1)
    out = integrate(rho0, 0.0, p)
    assert np.array_equal(out.elements, rho0.elements)
    with pytest.raises(ValueError):
        integrate(rho0, -1.0, p)


def test_integrate_accepts_plain_arrays():
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=3, lam=0.2)
    out = integrate(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), 0.3, p)
    assert abs(out.trace - 1.0) < 1e-10


def test_integrate_trace_guard_on_stiff_problem():
    # damping far above the resolvable rate makes RK4 blow up; the trace
    # drift check must catch it rather than return garbage
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0
    p = NqsParams(epsilon=0.0, kicks=0, cutoff=3, lam=5000.0)
    with pytest.raises(CutoffError):
        integrate(DensityMatrix(rho), 0.01, p)


def test_minimum_step_count():
    # tau far below dt still integrates accurately thanks to the 10-step floor
    rho0 = DensityMatrix(_random_density(35, 12, support=6))
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=11, lam=0.4, nbar=0.1)
    want = analytic_damped_step_thermal(rho0, 0.004, p).elements
    got = integrate(rho0, 0.004, p, IntegratorConfig(dt=1e-3)).elements
    assert np.max(np.abs(got - want)) < 1e-10


def test_rhs_vacuum_stationary():
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    assert np.max(np.abs(lindblad_rhs(rho, 1.0, 0.4, 0.0))) < 1e-15


def test_rhs_single_photon_decay_rate():
    # population leaves |1> at rate gamma and lands in |0>, Kerr term inert
    gamma = 0.36
    rho = np.zeros((6, 6), dtype=complex)
    rho[1, 1] = 1.0
    for kappa in (0.0, 1.0, 3.2):
        d = lindblad_rhs(rho, kappa, gamma, 0.0)
        assert abs(d[1, 1].real + gamma) < 1e-14
        assert abs(d[0, 0].real - gamma) < 1e-14


def test_integrate_lossless_path_matches_kerr_phases():
    v, _ = coherent_state(0.6, 10)
    rho0 = v.density_matrix()
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=10, lam=0.0)
    got = integrate(rho0, 1.0, p, IntegratorConfig(dt=1e-3)).elements
    want = unitary_kerr_step(rho0, 1.0).elements
    assert np.max(np.abs(got - want)) < 1e-8
