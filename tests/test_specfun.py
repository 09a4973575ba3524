"""Tests for the special functions behind the exact damped-Kerr propagator."""

import math

import numpy as np
import pytest
from scipy.special import comb, genlaguerre

from qscissors.specfun import (
    damping_coefficients,
    laguerre_assoc,
    ln_factorial,
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
    for n in (0, 1, 5, 20):
        assert abs(ln_factorial(n) - math.log(math.factorial(n))) < 1e-12
    with pytest.raises(ValueError):
        ln_factorial(-1)


def test_sqrt_binomial_ratio_matches_comb():
    for n, m, l in [(0, 0, 0), (3, 2, 4), (10, 7, 5), (25, 25, 12)]:
        want = math.sqrt(comb(n + l, n, exact=True) * comb(m + l, m, exact=True))
        assert abs(sqrt_binomial_ratio(n, m, l) - want) < 1e-10 * want
    # large arguments stay finite thanks to the log-space evaluation
    assert np.isfinite(sqrt_binomial_ratio(80, 80, 60))


def test_damping_coefficients_delta_branch():
    co = damping_coefficients(3, 1.0, 0.2, 0.4, 1.7)
    target = co.omega**2 - 4 * 0.4 * 1.4
    assert abs(co.delta**2 - target) < 1e-12 * abs(target)
    assert co.delta.real >= 0  # principal branch


def test_damping_coefficients_zero_temperature_reduction():
    # at nbar = 0: E = e^{-t_x} and g_bar = (1 - e^{-2 t_x}) / omega
    lam, tau, x = 0.3, 1.1, 2
    co = damping_coefficients(x, 1.0, lam, 0.0, tau)
    lx = lam + 1j * x
    assert abs(co.E - np.exp(-lx * tau / 2)) < 1e-12
    g_zero = lam * (1 - np.exp(-lx * tau)) / lx
    assert abs(co.g_bar - g_zero) < 1e-12


def test_damping_coefficients_small_time_series():
    # the series branch must join the general formula smoothly
    x, lam, nbar = 1, 0.5, 0.2
    for tau in (1e-7, 5e-6, 1e-4):
        co = damping_coefficients(x, 1.0, lam, nbar, tau)
        # direct evaluation with unguarded sinh/cosh/coth
        omega = 1 + 2 * nbar + 1j * x / lam
        delta = np.sqrt(complex(omega**2 - 4 * nbar * (nbar + 1)))
        t_x = lam * delta * tau / 2
        E = delta / (omega * np.sinh(t_x) + delta * np.cosh(t_x))
        g = 2 * (nbar + 1) / (omega + delta * np.cosh(t_x) / np.sinh(t_x))
        assert abs(co.E - E) < 1e-9
        assert abs(co.g_bar - g) < 1e-9
    co = damping_coefficients(0, 1.0, 0.5, 0.0, 0.0)
    assert co.E == 1.0
    assert co.g_bar == 0.0


def test_damping_coefficients_large_time_no_overflow():
    co = damping_coefficients(5, 1.0, 0.4, 0.6, 500.0)
    assert np.isfinite(co.E) and np.isfinite(co.g_bar)
    assert abs(co.E) < 1.0  # decays, never grows


def test_damping_coefficients_rejects_bad_input():
    with pytest.raises(ValueError):
        damping_coefficients(1, 1.0, 0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        damping_coefficients(1, 1.0, 0.5, -0.1, 1.0)


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
    # bare amplitude-decay pair e^{-gamma t/2} and 1 - e^{-gamma t}
    gamma, t = 0.35, 1.4
    co = damping_coefficients(0, 1.0, gamma, 0.0, t)
    assert abs(co.omega - 1.0) < 1e-15
    assert abs(co.delta - 1.0) < 1e-15
    assert abs(co.E - math.exp(-gamma * t / 2)) < 1e-13
    assert abs(co.g_bar - (1 - math.exp(-gamma * t))) < 1e-13
