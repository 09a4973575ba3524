"""Tests for the special functions behind the exact damped-Kerr propagator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import comb, genlaguerre

from qscissors.specfun import (
    _ln_factorials,
    damping_coefficients,
    laguerre_assoc,
    sqrt_binomial_ratio,
)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(0, 15))
        k = int(rng.integers(0, 10))
        x = float(rng.uniform(0, 5))
        want = genlaguerre(n, k)(x)
        got = laguerre_assoc(n, k, x)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))
    with pytest.raises(ValueError):
        laguerre_assoc(-1, 0, 1.0)


def test_ln_factorial():
    table = _ln_factorials(20)
    assert table.shape == (21,) and not table.flags.writeable
    for n in (0, 1, 5, 20):
        assert abs(table[n] - math.log(math.factorial(n))) < 1e-12


def test_sqrt_binomial_ratio_matches_comb():
    for n, m, l in [(0, 0, 0), (3, 2, 4), (10, 7, 5), (25, 25, 12)]:
        want = math.sqrt(comb(n + l, n, exact=True) * comb(m + l, m, exact=True))
        assert abs(sqrt_binomial_ratio(n, m, l) - want) < 1e-10 * want
    # large arguments stay finite thanks to the log-space evaluation
    assert np.isfinite(sqrt_binomial_ratio(80, 80, 60))


def test_sqrt_binomial_ratio_arrays_match_scalar_calls():
    rng = np.random.default_rng(11)
    n = rng.integers(0, 40, size=(4, 1))
    m = rng.integers(0, 40, size=(4, 5))
    l = rng.integers(0, 40, size=5)
    got = sqrt_binomial_ratio(n, m, l)
    assert got.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            want = sqrt_binomial_ratio(int(n[i, 0]), int(m[i, j]), int(l[j]))
            assert isinstance(want, float)
            assert abs(got[i, j] - want) <= 1e-15 * want
    for bad in ((np.array([1, -2]), 0, 1), (1, np.array([0, 3]), np.array([2, -1]))):
        with pytest.raises(ValueError):
            sqrt_binomial_ratio(*bad)


def test_laguerre_arrays_match_scalar_calls():
    x = 0.37
    k = np.arange(12)
    row = laguerre_assoc(7, k, x)
    assert row.shape == (12,)
    for kk in k:
        assert row[kk] == laguerre_assoc(7, int(kk), x)
    n = np.arange(9)[:, None]
    table = laguerre_assoc(n, k, x)
    assert table.shape == (9, 12)
    for nn in range(9):
        for kk in k:
            assert table[nn, kk] == laguerre_assoc(nn, int(kk), x)
            assert abs(table[nn, kk] - genlaguerre(nn, kk)(x)) < 1e-9 * max(1.0, abs(table[nn, kk]))
    for bad in ((3, np.array([0, -1])), (np.array([2, -3]), 1)):
        with pytest.raises(ValueError):
            laguerre_assoc(*bad, x)


def test_damping_coefficients_zero_temperature_reduction():
    # at nbar = 0: E = e^{-t_x} and g_bar = (1 - e^{-2 t_x}) / omega
    lam, tau, x = 0.3, 1.1, 2
    E, g_bar = damping_coefficients(x, lam, 0.0, tau)
    lx = lam + 1j * x
    assert abs(E - np.exp(-lx * tau / 2)) < 1e-12
    g_zero = lam * (1 - np.exp(-lx * tau)) / lx
    assert abs(g_bar - g_zero) < 1e-12


@settings(max_examples=300, deadline=None)
@given(x=st.integers(0, 39), lam=st.floats(1e-3, 1.0), nbar=st.floats(0.0, 2.0),
       log_tau=st.floats(-12.0, 1.0))
def test_damping_coefficients_match_direct_form(x, lam, nbar, log_tau):
    # one formula from t_x = 0 up: log-uniform tau puts many draws at small
    # |t_x|, where 1 - e^{-2 t_x} cancels unless it goes through expm1
    tau = 10.0**log_tau
    got_E, got_g = damping_coefficients(x, lam, nbar, tau)
    # direct evaluation with unguarded sinh/cosh/coth
    omega = 1 + 2 * nbar + 1j * x / lam
    delta = np.sqrt(complex(omega**2 - 4 * nbar * (nbar + 1)))
    t_x = lam * delta * tau / 2
    E = delta / (omega * np.sinh(t_x) + delta * np.cosh(t_x))
    g = 2 * (nbar + 1) / (omega + delta * np.cosh(t_x) / np.sinh(t_x))
    assert abs(got_E - E) <= 1e-13 * abs(E)
    assert abs(got_g - g) <= 1e-13 * abs(g)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(1e-3, 1.0), nbar=st.floats(0.0, 2.0), log_tau=st.floats(-12.0, 1.0))
def test_damping_coefficients_over_an_array_of_offsets(lam, nbar, log_tau):
    # one call over x = 0..39 matches the scalar calls entry by entry; numpy's
    # array and scalar loops may round apart by a few ulps
    tau = 10.0**log_tau
    E, g = damping_coefficients(np.arange(40), lam, nbar, tau)
    for x in range(40):
        E1, g1 = damping_coefficients(x, lam, nbar, tau)
        assert abs(E[x] - E1) <= 1e-14 * abs(E1)
        assert abs(g[x] - g1) <= 1e-14 * abs(g1)


def test_damping_coefficients_at_zero_time():
    E, g_bar = damping_coefficients(0, 0.5, 0.0, 0.0)
    assert E == 1.0
    assert g_bar == 0.0


def test_damping_coefficients_large_time_no_overflow():
    E, g_bar = damping_coefficients(5, 0.4, 0.6, 500.0)
    assert np.isfinite(E) and np.isfinite(g_bar)
    assert abs(E) < 1.0  # decays, never grows


@pytest.mark.parametrize("nbar", [0.5, 1e3, 1e10, 1e160])
def test_damping_coefficients_diagonal_at_any_nbar(nbar):
    # x = 0: Omega^2 - 4 nbar (nbar + 1) is exactly 1, so Delta = 1 and, with
    # s = 1 - e^{-lam tau}, E = e^{-lam tau/2}/(1 + nbar s) and
    # g_bar = (nbar + 1) s/(1 + nbar s); the expanded form of Delta^2 keeps
    # this where Omega^2 alone would cancel or overflow
    lam, tau = 0.1, 1.0
    s = -math.expm1(-lam * tau)
    E, g_bar = damping_coefficients(0, lam, nbar, tau)
    assert abs(E - math.exp(-lam * tau / 2) / (1 + nbar * s)) <= 1e-14 * abs(E)
    assert abs(g_bar - (nbar + 1) * s / (1 + nbar * s)) <= 1e-14 * abs(g_bar)


@pytest.mark.parametrize("lam", [1e-150, 1e-153, 1e-200, 1e-300])
def test_damping_coefficients_at_tiny_lam_reach_the_kerr_limit(lam):
    # y = x/lam past 1e150: y*y would overflow, but the coefficients have
    # their lam -> 0 limit, E = e^{-i x tau/2} and g_bar = 0 to rounding
    x, nbar, tau = np.arange(21), 0.1, 1.0
    E, g_bar = damping_coefficients(x, lam, nbar, tau)
    assert np.max(np.abs(E - np.exp(-0.5j * x * tau))) < 1e-15
    assert np.max(np.abs(g_bar)) < 1e-100


def test_damping_coefficients_rejects_bad_input():
    with pytest.raises(ValueError):
        damping_coefficients(1, 0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        damping_coefficients(1, 0.5, -0.1, 1.0)


def test_laguerre_low_orders():
    for k in (0, 1, 4):
        assert laguerre_assoc(0, k, 1.7) == 1.0
    for x in (0.0, 0.8, 3.5):
        assert abs(laguerre_assoc(1, 1, x) - (2 - x)) < 1e-14


def test_sqrt_binomial_ratio_specific_values():
    assert abs(sqrt_binomial_ratio(1, 0, 1) - math.sqrt(2)) < 1e-14
    assert abs(sqrt_binomial_ratio(5, 5, 0) - 1.0) < 1e-14


def test_damping_coefficients_diagonal_zero_temperature():
    # x = 0, nbar = 0: Omega = Delta = 1, so E and g_bar collapse to the
    # bare amplitude-decay pair e^{-lam tau/2} and 1 - e^{-lam tau}
    lam, tau = 0.35, 1.4
    E, g_bar = damping_coefficients(0, lam, 0.0, tau)
    assert abs(E - math.exp(-lam * tau / 2)) < 1e-13
    assert abs(g_bar - (1 - math.exp(-lam * tau))) < 1e-13
