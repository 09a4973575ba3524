"""Brute-force master-equation integrator.

Fixed-step RK4 on the truncated Fock space, used as the independent check
of the analytic damped-Kerr propagators.  Deliberately no adaptivity: runs
are short, matrices small, and fixed steps make results bit-reproducible.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .fock import CutoffError, DensityMatrix, annihilation_matrix


@dataclass
class IntegratorConfig:
    """RK4 settings: scaled-time step and allowed trace leakage."""

    dt: float = 1e-3
    leakage_tolerance: float = 1e-8

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def lindblad_rhs(rho, kappa, gamma, nbar):
    """Right-hand side of the kicked-Kerr master equation.

    drho/dt = -i(kappa/2)[(a^dag)^2 a^2, rho]
              - (gamma/2)([a^dag, a rho] + h.c.) + gamma nbar [a^dag, [rho, a]]

    assembled literally from ladder matrices.  The same generator equals the
    standard Lindblad form with down-rate gamma(nbar+1) and up-rate
    gamma*nbar; the test suite checks that identity numerically.
    """
    rho = np.asarray(rho, dtype=complex)
    a, ad, kerr, n_op, a_ad = _ladder_products(rho.shape[0])
    out = -0.5j * kappa * (kerr @ rho - rho @ kerr)
    # [a^dag, a rho] + h.c. for Hermitian rho reduces to
    # a^dag a rho + rho a^dag a - 2 a rho a^dag
    out -= 0.5 * gamma * (n_op @ rho + rho @ n_op - 2 * (a @ rho @ ad))
    if nbar > 0:
        # [a^dag, [rho, a]] = a^dag rho a - a^dag a rho - rho a a^dag + a rho a^dag
        out += gamma * nbar * (ad @ (rho @ a) - n_op @ rho - rho @ a_ad + a @ (rho @ ad))
    return out


@functools.lru_cache(maxsize=8)
def _ladder_products(d):
    """a, a^dag, (a^dag)^2 a^2, a^dag a and a a^dag on d levels, read-only."""
    a = annihilation_matrix(d - 1)
    ad = a.conj().T
    mats = (a, ad, ad @ ad @ a @ a, ad @ a, a @ ad)
    for m in mats:
        m.flags.writeable = False
    return mats


def _rk4_run(rho, n_steps, h, lam, nbar):
    for _ in range(n_steps):
        k1 = lindblad_rhs(rho, 1.0, lam, nbar)
        k2 = lindblad_rhs(rho + 0.5 * h * k1, 1.0, lam, nbar)
        k3 = lindblad_rhs(rho + 0.5 * h * k2, 1.0, lam, nbar)
        k4 = lindblad_rhs(rho + h * k3, 1.0, lam, nbar)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def integrate(rho0, tau_total, p, cfg=None):
    """Evolve rho0 for scaled time tau_total under damping lambda and nbar.

    p carries the physical parameters (anything with .lam and .nbar
    attributes, e.g. nqs.NqsParams).  Integrates in scaled time tau =
    kappa*t, so the Kerr coefficient is 1 and the damping rate is lambda.
    At least 10 steps are always taken per segment.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    rho = np.array(rho0.elements if isinstance(rho0, DensityMatrix) else rho0, dtype=complex)
    if tau_total < 0:
        raise ValueError("tau_total must be nonnegative")
    if tau_total == 0:
        return DensityMatrix(rho)
    n_steps = max(int(np.ceil(tau_total / cfg.dt - 1e-12)), 10)
    h = tau_total / n_steps
    trace0 = float(np.trace(rho).real)
    rho = _rk4_run(rho, n_steps, h, p.lam, p.nbar)
    if not np.all(np.isfinite(rho)):
        raise FloatingPointError("non-finite values in RK4 integration")
    drift = abs(float(np.trace(rho).real) - trace0)
    if drift > cfg.leakage_tolerance:
        raise CutoffError(
            f"trace drifted by {drift:.3e} over tau={tau_total} "
            f"(tolerance {cfg.leakage_tolerance:.1e}); raise the cutoff"
        )
    return DensityMatrix(rho)
