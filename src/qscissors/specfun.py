"""Special functions for the exact damped-Kerr propagator.

Associated Laguerre polynomials, log-space binomials and the complex damping
coefficients of the thermal solution.
"""

import functools
import math

import numpy as np


def laguerre_assoc(n, k, x):
    """Associated Laguerre polynomial L_n^k(x) by the three-term recurrence.

    n and k may be integer arrays, which broadcast: one run of the
    recurrence up to max(n) serves every element, each step advancing a
    whole row of orders k.  Scalar arguments give a scalar.
    """
    n, k = np.asarray(n), np.asarray(k)
    if np.any(n < 0) or np.any(k < 0):
        raise ValueError("n and k must be nonnegative integers")
    n, k = np.broadcast_arrays(n, k)
    prev, cur = np.ones(n.shape), 1.0 + k - x
    out = np.where(n == 0, prev, cur)
    for j in range(2, int(n.max(initial=0)) + 1):
        prev, cur = cur, ((2 * j - 1 + k - x) * cur - (j - 1 + k) * prev) / j
        np.copyto(out, cur, where=n == j)
    return out if out.ndim else out[()]


@functools.lru_cache(maxsize=16)
def _ln_factorials(top):
    """ln(0!), ..., ln(top!) as a read-only array."""
    table = np.array([math.lgamma(i + 1) for i in range(top + 1)])
    table.flags.writeable = False
    return table


def sqrt_binomial_ratio(n, m, l):
    """sqrt(C(n+l, n) C(m+l, m)), evaluated in log space.

    These are the binomial weights of the photon-loss ladder; linear-space
    factorials would overflow long before the cutoffs used here.  n, m and
    l may be integer arrays, which broadcast; scalar arguments give a float.
    """
    n, m, l = np.asarray(n), np.asarray(m), np.asarray(l)
    if np.any(n < 0) or np.any(m < 0) or np.any(l < 0):
        raise ValueError("arguments must be nonnegative")
    lnf = _ln_factorials(int(max(np.max(n + l), np.max(m + l))))
    log_c = lnf[n + l] - lnf[l] - lnf[n] + lnf[m + l] - lnf[l] - lnf[m]
    out = np.exp(0.5 * log_c)
    return out if out.ndim else float(out)


def damping_coefficients(x, lam, nbar, tau):
    """Coefficients (E_x, g_bar_x) of the exact damped step, as complex numbers.

    x is the diagonal offset n - m, or an array of offsets, which gives
    arrays of coefficients; lam is the damping rate in units of the Kerr
    coupling, nbar the thermal occupation and tau the duration in units of
    the inverse Kerr coupling.  lam = 0 is outside this operation's domain;
    the lossless case goes through the unitary Kerr step instead.

    With Omega = 1 + 2 nbar + i y, y = x/lam, Delta the principal square
    root of Omega^2 - 4 nbar (nbar + 1) = 1 - y^2 + 2 i (1 + 2 nbar) y (the
    expanded form, which neither cancels nor overflows at large nbar) and
    t_x = lam Delta tau/2: with D = (Omega + Delta) + (Delta - Omega)
    e^{-2 t_x}, E = 2 Delta e^{-t_x}/D and g_bar = 2 (nbar + 1)(1 -
    e^{-2 t_x})/D.  These are the sinh/cosh forms with e^{t_x} factored
    out, stable for Re(t_x) >= 0 (which the principal branch of Delta
    guarantees).  1 - e^{-2 t_x} goes through expm1, so one formula holds
    down to t_x = 0, where g_bar = 0 exactly.
    """
    if lam <= 0:
        raise ValueError("lam must be positive; lambda = 0 is the unitary Kerr path")
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    y = x / lam
    omega = 1 + 2 * nbar + 1j * y
    s = np.where(np.abs(y) > 1e150, np.abs(y), 1.0)  # y*y nears overflow: s leaves the root
    u, v = y / s, 1 / s
    delta = s * np.sqrt(v * v - u * u + 2j * (1 + 2 * nbar) * u * v)
    t_x = lam * delta * tau / 2
    em2 = np.exp(-2 * t_x)
    D = (omega + delta) + (delta - omega) * em2
    E = 2 * delta * np.exp(-t_x) / D
    g_bar = 2 * (nbar + 1) * -np.expm1(-2 * t_x) / D
    return E, g_bar
