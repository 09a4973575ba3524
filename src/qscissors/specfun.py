"""Special functions for the exact damped-Kerr propagator.

Associated Laguerre polynomials, log-space binomials and the complex damping
coefficients of the thermal solution.
"""

import math
from dataclasses import dataclass

import numpy as np


def laguerre_assoc(n, k, x):
    """Associated Laguerre polynomial L_n^k(x) by the three-term recurrence."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative integers")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + k - x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1 + k - x) * cur - (j - 1 + k) * prev) / j
    return cur


def ln_factorial(n):
    """ln(n!) via lgamma."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.lgamma(n + 1)


def sqrt_binomial_ratio(n, m, l):
    """sqrt(C(n+l, n) C(m+l, m)), evaluated in log space.

    These are the binomial weights of the photon-loss ladder; linear-space
    factorials would overflow long before the cutoffs used here.
    """
    if n < 0 or m < 0 or l < 0:
        raise ValueError("arguments must be nonnegative")
    log_c = (
        ln_factorial(n + l) - ln_factorial(l) - ln_factorial(n)
        + ln_factorial(m + l) - ln_factorial(l) - ln_factorial(m)
    )
    return math.exp(0.5 * log_c)


@dataclass
class DampingCoefficients:
    """Per-diagonal coefficients of the exact damped-oscillator propagator.

    delta is the principal square root of omega^2 - 4 nbar (nbar + 1), so
    delta**2 recovers that combination to rounding.
    """

    omega: complex
    delta: complex
    t_x: complex
    E: complex
    g_bar: complex


def damping_coefficients(x, kappa, gamma, nbar, t):
    """Coefficients Omega_x, Delta_x, t_x, E_x, g_bar_x of the damped step.

    x is the diagonal offset n - m, kappa the Kerr strength, gamma the
    damping rate, nbar the thermal occupation, t the (unscaled) duration.
    gamma = 0 is outside this operation's domain; the lossless case goes
    through the unitary Kerr step instead.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive; lambda = 0 is the unitary Kerr path")
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    omega = 1 + 2 * nbar + 1j * kappa * x / gamma
    delta = np.sqrt(complex(omega**2 - 4 * nbar * (nbar + 1)))
    t_x = gamma * delta * t / 2
    if abs(t_x) < 1e-6:
        # sinh/cosh -> t_x + O(t^3), coth -> 1/t + t/3 - t^3/45
        coth = 1 / t_x + t_x / 3 - t_x**3 / 45 if t_x != 0 else None
        if coth is None:
            E = 1.0 + 0j
            g_bar = 0.0 + 0j
        else:
            E = delta / (omega * np.sinh(t_x) + delta * np.cosh(t_x))
            g_bar = 2 * (nbar + 1) / (omega + delta * coth)
    else:
        # factor e^{t_x} out of sinh/cosh: stable for Re(t_x) >= 0, which the
        # principal branch of delta guarantees
        em2 = np.exp(-2 * t_x)
        E = 2 * delta * np.exp(-t_x) / ((omega + delta) + (delta - omega) * em2)
        coth = (1 + em2) / (1 - em2)
        g_bar = 2 * (nbar + 1) / (omega + delta * coth)
    return DampingCoefficients(omega=omega, delta=delta, t_x=t_x, E=E, g_bar=g_bar)
