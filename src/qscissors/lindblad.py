"""Brute-force master-equation integrator.

Fixed-step RK4 on the truncated Fock space, used as the independent check
of the analytic damped-Kerr propagators.  Deliberately no adaptivity: runs
are short, matrices small, and fixed steps make results bit-reproducible.

The master equation is written once, as a table of (c, A, B) terms meaning
c A rho B over the cached ladder matrices.  lindblad_rhs sums the table over
the full matrix.  The generator conserves x = n - m, so the same table also
gives one block L_x of size d - x per diagonal, built from the entry that
fock, the one module to know where a diagonal sits, names for each slot of
the packed stack of fock._apply_diagonal_propagators.  For this constant
linear generator n RK4 steps of size h are exactly the matrix T(h L_x)^n,
with T(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, whose stack is applied to the
lower diagonals and mirrored.  No hypergeometric propagator is used.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .fock import (DensityMatrix, _apply_diagonal_propagators, _checked_trace,
                   _packed_diagonals, _trace, annihilation_matrix)


@dataclass
class IntegratorConfig:
    """RK4 settings: the scaled-time step."""

    dt: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def lindblad_rhs(rho, lam, nbar):
    """Right-hand side of the kicked-Kerr master equation in scaled time.

    drho/dtau = -(i/2)[(a^dag)^2 a^2, rho]
                - (lam/2)([a^dag, a rho] + h.c.)
                + (lam nbar/2)([a^dag, [rho, a]] + h.c.)

    with tau = kappa t and lam = gamma/kappa, assembled literally from
    ladder matrices.  On the infinite space the thermal double commutator
    is its own h.c.; on the truncated space only the symmetrized form maps
    Hermitian rho to Hermitian output, so it is taken like the damping
    term.  The generator then equals the standard Lindblad form with
    down-rate lam(nbar+1) and up-rate lam*nbar on every level, cutoff
    included; the test suite checks that identity.
    """
    rho = np.asarray(rho, dtype=complex)
    terms = _master_equation_terms(rho.shape[0], lam, nbar)
    return sum(c * (A @ rho @ B) for c, A, B in terms)


def _master_equation_terms(d, lam, nbar):
    """The master equation on d levels as (c, A, B) terms, each c A rho B."""
    a, ad, kerr, n_op, a_ad, eye = _ladder_products(d)
    terms = [(-0.5j, kerr, eye), (0.5j, eye, kerr),
             # [a^dag, a rho] + h.c. for Hermitian rho reduces to
             # a^dag a rho + rho a^dag a - 2 a rho a^dag
             (-0.5 * lam, n_op, eye), (-0.5 * lam, eye, n_op), (lam, a, ad)]
    if nbar > 0:
        # ([a^dag, [rho, a]] + h.c.)/2 = a^dag rho a + a rho a^dag
        #   - (a^dag a + a a^dag) rho/2 - rho (a^dag a + a a^dag)/2
        g = lam * nbar
        terms += [(g, ad, a), (g, a, ad), (-0.5 * g, n_op, eye), (-0.5 * g, a_ad, eye),
                  (-0.5 * g, eye, n_op), (-0.5 * g, eye, a_ad)]
    return terms


@functools.lru_cache(maxsize=8)
def _ladder_products(d):
    """a, a^dag, (a^dag)^2 a^2, a^dag a, a a^dag and 1 on d levels, read-only."""
    a = annihilation_matrix(d - 1)
    ad = a.conj().T
    mats = (a, ad, ad @ ad @ a @ a, ad @ a, a @ ad, np.eye(d, dtype=complex))
    for m in mats:
        m.flags.writeable = False
    return mats


def _generator_blocks(d, lam, nbar):
    """Per-diagonal blocks of the master-equation generator.

    On diagonal -x, v[j] = rho[j + x, j], the generator acts as
    L_x[j, j'] = sum over terms of c A[j + x, j' + x] B[j', j], of size
    d - x.  Returns the packed (d // 2 + 1, d, d) stack of the L_x
    (fock._packed_diagonals): with (n, m) the entry of rho that a slot of
    the stack holds, entry (r, s) of a matrix is the sum of c A[n_r, n_s]
    B[m_s, m_r].  A slot that holds no entry reads n = m = d, where the
    padded ladder matrices are zero; every term conserves n - m, so the
    entries between two diagonals sharing a matrix come out zero too.
    """
    lay = _packed_diagonals(d)
    n, m = lay.n[:, :, None], lay.m[:, :, None]
    blocks = np.zeros((d // 2 + 1, d, d), dtype=complex)
    padded = np.zeros((d + 1, d + 1), dtype=complex)
    for c, A, B in _master_equation_terms(d, lam, nbar):
        padded[:d, :d] = A
        a = padded[n, n.swapaxes(1, 2)]
        padded[:d, :d] = B
        blocks += c * a * padded[m.swapaxes(1, 2), m]
    return blocks


def integrate(rho0, tau_total, p, cfg=None):
    """Evolve rho0 for scaled time tau_total under damping lambda and nbar.

    p carries the physical parameters (anything with .lam and .nbar
    attributes, e.g. nqs.NqsParams).  Integrates in scaled time tau =
    kappa*t, so the Kerr coefficient is 1 and the damping rate is lambda.
    At least 10 steps are always taken per segment.

    Computes fixed-step RK4 with n steps of size h = tau_total/n, evaluated
    exactly as T(h L_x)^n on each diagonal (one matrix power of the stacked
    step matrices), so the result is still bit-reproducible and Hermitian
    by construction.

    Raises:
        CutoffError: if the trace drifts by more than fock.LEAKAGE_TOL.
        FloatingPointError: if the result is not finite (lam far past the Kerr scale).
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
    d = rho.shape[0]
    hL = h * _generator_blocks(d, p.lam, p.nbar)
    eye = np.eye(d) * (_packed_diagonals(d).n < d)[:, :, None]  # on every slot holding an entry
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite entry
        step = eye + hL @ (eye + (hL / 2) @ (eye + (hL / 3) @ (eye + hL / 4)))
        out = _apply_diagonal_propagators(rho, np.linalg.matrix_power(step, n_steps))
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite values in RK4 integration")
    _checked_trace(float(_trace(rho)), out, f"RK4 over tau={tau_total}")
    return DensityMatrix(out)
