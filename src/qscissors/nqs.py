"""Nonlinear quantum scissors: kicked, damped Kerr oscillator.

A Kerr oscillator driven by short coherent kicks confines its state to the
{|0>, |1>} subspace when the kick strength is small and the kick period is
an incommensurate multiple of the Kerr revival time.  Between kicks the
damped evolution has an exact per-diagonal solution; kicks are displacement
unitaries with closed-form matrix elements.

The propagators and the kick matrix are array code.  A propagator family
(one matrix per diagonal x = n - m) is the zero-padded (d, d, d) stack that
fock._apply_diagonal_propagators takes; its entries are evaluated in one
pass over flat (x, j, l) index arrays cached per dimension and scattered
straight into the stack.  The thermal family's terminating hypergeometric
sum runs in a loop over its summation index only, over a prefix of entries
that shrinks as k passes each entry's m.  The kick matrix takes every
Laguerre value from one recurrence.  A damped step is one batched
matrix-vector product over all diagonals.

Each step, the kick and the fidelity have one array core (_damped, _kerr,
_kick, _fidelity); the public functions wrap them around a validated
DensityMatrix.  evolve_kicked runs the cores directly and validates the
state twice, at the start and at the end of the trajectory: each damped
step and each kick keeps its trace-drift guard, every core returns a
Hermitian array by construction, and a non-positive final state raises
ValueError.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import (DensityMatrix, _apply_diagonal_propagators, _mean_n, _purity, _trace,
                   check_trace_drift)
from .specfun import _ln_factorials, damping_coefficients, laguerre_assoc, sqrt_binomial_ratio


@dataclass
class NqsParams:
    """Protocol parameters for the kicked Kerr oscillator.

    Times are in units of the inverse Kerr coupling and lam is the damping
    rate in units of the Kerr coupling, so the free evolution depends only
    on lam and nbar; the kick period tau_k is a scaled time too.  epsilon,
    tau_k, lam and nbar must be finite, tau_k positive and the others
    nonnegative; kicks >= 0 and cutoff >= 1.

    Two corners of that domain fail on the thermal path (nbar > 0) with
    FloatingPointError, "non-finite entries": lam below about cutoff/1.3e154
    (damping_coefficients squares x/lam past the float range) and lam *
    tau_k above about 1420 (the family's prefactor e^{lam tau_k/2} overflows).

    tau_k defaults to 1.0: the kick period only needs to be long enough
    for the detector/reservoir to act, but tau_k = 2*pi would be a full
    Kerr revival (the free step becomes the identity) and would destroy
    the truncation. Generic values steer clear of such resonances.
    """

    epsilon: float
    kicks: int
    cutoff: int
    tau_k: float = 1.0
    lam: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        for name, value in (("epsilon", self.epsilon), ("tau_k", self.tau_k),
                            ("lambda", self.lam), ("nbar", self.nbar)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.nbar < 0:
            raise ValueError("nbar must be nonnegative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.tau_k <= 0:
            raise ValueError("tau_k must be positive")
        if self.kicks < 0:
            raise ValueError("kicks must be nonnegative")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.epsilon > 0.3:
            warnings.warn(
                f"epsilon = {self.epsilon} is not small; the kicks must stay much "
                "weaker than the Kerr interaction for clean truncation",
                stacklevel=3,  # past the generated __init__, to the caller
            )


@dataclass
class EvolutionRecord:
    """Trajectory sample: state (a (d, d) array) and derived scalars at one protocol point."""

    tau: float
    rho: np.ndarray
    fidelity: float
    trace: float
    purity: float
    mean_n: float
    kick_index: int


class _FamilyIndex(NamedTuple):
    """Flat indices of every upper entry P_x[j, j+l] (j + l < dim - x).

    Entries are sorted by m = j descending, so those with m >= k form the
    prefix of length active[k].  n = j + x; xm = x*dim + m indexes a
    per-diagonal power table of shape (dim, dim) at exponent m.
    """

    x: np.ndarray
    n: np.ndarray
    m: np.ndarray
    l: np.ndarray
    xm: np.ndarray
    active: np.ndarray


@functools.lru_cache(maxsize=8)
def _family_indices(dim):
    """The _FamilyIndex of one dimension, its arrays read-only."""
    r = np.arange(dim)
    # axes (x, j, c): entry (j, c) of block x is upper when j <= c < dim - x
    x, j, c = np.nonzero((r >= r[:, None]) & (r < dim - r[:, None, None]))
    order = np.argsort(-j, kind="stable")
    x, m, l = x[order], j[order], (c - j)[order]
    idx = _FamilyIndex(x=x, n=m + x, m=m, l=l, xm=x * dim + m,
                       active=np.searchsorted(-m, -r, side="right"))
    for arr in idx:
        arr.flags.writeable = False
    return idx


def _power_table(base, dim):
    """Row x holds base[x]**p for p < dim, as sequential products."""
    table = np.empty((len(base), dim), dtype=complex)
    table[:, 0] = 1.0
    table[:, 1:] = base[:, None]
    return np.cumprod(table, axis=1)


def _zero_t_upper(dim, lam, tau):
    """Upper entries of every zero-temperature per-diagonal propagator.

    P_x[j, j+l] = e^{i x tau/2} e^{-(lam + i x) tau (n+m)/2}
    sqrt(C(n+l, n) C(m+l, m)) g_x^l with n = j + x, m = j and
    g_x = lam (1 - e^{-(lam + i x) tau}) / (lam + i x).
    """
    ix = _family_indices(dim)
    x, n, m, l = ix.x, ix.n, ix.m, ix.l
    xs = np.arange(dim)
    lx = lam + 1j * xs
    g = np.empty(dim, dtype=complex)
    g[0] = -np.expm1(-lam * tau)
    g[1:] = lam * (1 - np.exp(-lx[1:] * tau)) / lx[1:]
    pref = np.exp(1j * x * tau / 2) * np.exp(-lx[x] * tau * (n + m) / 2)
    return pref * sqrt_binomial_ratio(n, m, l) * _power_table(g, dim)[x, l]


def _thermal_upper(dim, lam, nbar, tau):
    """Upper entries of every finite-temperature per-diagonal propagator.

    Downward entries follow the exact damped-oscillator solution,
    E^{n+m+1} F(-n, -m; l+1; zeta) = E^{x+1} sum_k c_k (E^2)^{m-k} with
    c_k carrying w^k, w = zeta E^2 = q g_bar^2: the E^2 powers are
    distributed over the terms, which keeps every intermediate bounded at
    large tau.  The terminating sum runs for all entries at once, k from 0
    to the largest m; sorted by m descending, the entries that still have
    a k-th term form a shrinking prefix.
    """
    ix = _family_indices(dim)
    x, n, m, l, xm = ix.x, ix.n, ix.m, ix.l, ix.xm
    xs = np.arange(dim)
    E, g = damping_coefficients(xs, lam, nbar, tau)
    q = nbar / (nbar + 1)
    pref = np.exp(lam * tau / 2 + 1j * xs * tau) * E ** (xs + 1)
    E2_pow = _power_table(E * E, dim).ravel()
    w = (q * g * g)[x]
    s = np.zeros(len(x), dtype=complex)
    c = np.ones(len(x), dtype=complex)
    for k in range(dim):
        a = ix.active[k]
        s[:a] += c[:a] * E2_pow[xm[:a] - k]
        c[:a] *= (k - n[:a]) * (k - m[:a]) * w[:a] / ((l[:a] + 1 + k) * (k + 1))
    return pref[x] * sqrt_binomial_ratio(n, m, l) * _power_table(g, dim)[x, l] * s


# Every step of a trajectory reuses one family, and no caller alternates
# between more than two (nqs-limits: thermal and zero-T at one point); a
# cutoff-30 family holds about 10^4 complex entries, so a deeper cache only
# keeps dead families alive.
@functools.lru_cache(maxsize=2)
def _propagator_family(dim, lam, nbar, tau, kind):
    """All per-diagonal propagators for one (lam, nbar, tau) damped step.

    kind selects the formula ("thermal" or "zero"); the thermal route at
    nbar = 0 must agree with the zero route but goes through the general
    coefficient machinery, which keeps the two code paths independent.
    Both build every diagonal's upper entries in one pass over flat index
    arrays.  Thermal excitation fills the lower triangles by the
    detailed-balance symmetry of the per-diagonal generator,
    P[j, j-k] = q^k P[j-k, j] with q = nbar/(nbar+1).  Returns a read-only
    (dim, dim, dim) stack whose block x acts on the entries rho[j + x, j]
    and is zero beyond size dim - x.

    Raises FloatingPointError if an entry is not finite, which happens
    where lam is far outside the scale of the Kerr coupling.
    """
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite entry
        if kind == "zero":
            upper, q = _zero_t_upper(dim, lam, tau), 0.0
        else:
            upper, q = _thermal_upper(dim, lam, nbar, tau), nbar / (nbar + 1)
    # the lower entries are q^l < 1 times these, so they are finite too
    if not np.all(np.isfinite(upper)):
        raise FloatingPointError(f"{kind} propagator family at lambda={lam:g}, nbar={nbar:g}, "
                                 f"tau={tau:g} has non-finite entries")
    ix = _family_indices(dim)
    col = ix.m + ix.l
    stack = np.zeros((dim, dim, dim), dtype=complex)
    stack[ix.x, ix.m, col] = upper
    if q:
        # mirrored entry P[j+l, j]; at l = 0 it rewrites the diagonal unchanged
        stack[ix.x, col, ix.m] = q ** ix.l * upper
    stack.flags.writeable = False
    return stack


def _damped(rho, lam, nbar, tau, kind):
    """Array core of both damped steps; kind picks the propagator family.

    lam = 0 is the lossless Kerr step, at any nbar: with no coupling the
    reservoir does nothing.  Raises CutoffError if the step moves the trace
    by more than LEAKAGE_TOL.
    """
    if lam == 0:
        return _kerr(rho, tau)
    stack = _propagator_family(rho.shape[0], float(lam), float(nbar), float(tau), kind)
    out = _apply_diagonal_propagators(rho, stack)
    check_trace_drift(rho, out, "zero-T step" if kind == "zero" else "thermal step")
    return out


def _kerr(rho, tau):
    """Array core of the lossless Kerr step."""
    n = np.arange(rho.shape[0])
    phase = np.exp(-0.5j * n * (n - 1) * tau)
    return phase[:, None] * rho * phase.conj()[None, :]


def analytic_damped_step_thermal(rho_in, tau, p):
    """Exact damped-Kerr step at reservoir occupation nbar, duration tau (scaled).

    At lam = 0 it is the unitary Kerr step.
    """
    return DensityMatrix(_damped(rho_in.elements, p.lam, p.nbar, tau, "thermal"))


def analytic_damped_step_zero_T(rho_in, tau, p):
    """Exact damped-Kerr step for a zero-temperature reservoir.

    At lam = 0 it is the unitary Kerr step; nbar > 0 is refused at any lam.
    """
    if p.nbar != 0:
        raise ValueError("zero-T step requires nbar = 0")
    return DensityMatrix(_damped(rho_in.elements, p.lam, 0.0, tau, "zero"))


def unitary_kerr_step(rho_in, tau):
    """Lossless Kerr evolution: rho_nm picks up e^{-i[n(n-1)-m(m-1)]tau/2}."""
    return DensityMatrix(_kerr(rho_in.elements, tau))


def kick_unitary(eps, cutoff):
    """Displacement matrix of one kick, U = D(-i eps), in closed form.

    Element (n, m) is e^{-eps^2/2} sqrt(min!/max!) (-i eps)^{|n-m|}
    L_min^{|n-m|}(eps^2); the lower triangle carries the same sign factor
    as the upper, giving the symmetry U_nm = (-1)^{n-m} U*_mn.  The lower
    triangle is evaluated at once over its index arrays, its Laguerre values
    from one recurrence, and mirrored into the upper.  Raises
    FloatingPointError if an element is not finite, which happens where eps
    is far outside the weak-kick regime.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    d = cutoff + 1
    e2 = eps * eps
    lnf = _ln_factorials(d - 1)
    n, m = np.tril_indices(d)
    k = n - m
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite element
        val = (
            np.exp(-e2 / 2)
            * np.exp(0.5 * (lnf[m] - lnf[n]))
            * (-1j * eps) ** k
            * laguerre_assoc(m, k, e2)
        )
    if not np.all(np.isfinite(val)):
        raise FloatingPointError(f"kick matrix at epsilon={eps:g} has non-finite elements")
    U = np.zeros((d, d), dtype=complex)
    U[n, m] = val
    off = k > 0
    U[m[off], n[off]] = (1 - 2 * (k[off] % 2)) * np.conj(val[off])
    return U


def _kick(rho, U):
    """Array core of one kick, U rho U^dag, made Hermitian by construction.

    Raises CutoffError if the kick moves the trace by more than LEAKAGE_TOL.
    """
    if U.shape[0] != rho.shape[0]:
        raise ValueError(f"kick matrix dim {U.shape[0]} != state dim {rho.shape[0]}")
    out = U @ rho @ U.conj().T
    out = 0.5 * (out + out.conj().T)
    check_trace_drift(rho, out, "kick")
    return out


def apply_kick(rho_in, U):
    """One kick: rho -> U rho U^dag; CutoffError if it moves the trace."""
    return DensityMatrix(_kick(rho_in.elements, U))


def truncation_fidelity(rho, k, eps):
    """Overlap with the k-kick target qubit, from the 2x2 corner of rho.

    cos^2(k eps) rho_00 + sin(2 k eps) Im rho_01 + sin^2(k eps) rho_11,
    which is <psi_k|rho|psi_k> for the target psi_k = (cos(k eps),
    -i sin(k eps)), clamped to [0, 1].
    """
    if rho.dim < 2:
        raise ValueError("need at least a two-level state")
    return float(_fidelity(rho.elements, k, eps))


def _fidelity(rho, k, eps):
    """Array core of truncation_fidelity over a (..., d, d) stack of states;
    the kick counts k broadcast against the stack's leading axes.  The
    squares are products: a scalar ** 2 and an array ** 2 can round apart."""
    th = k * eps
    c, s = np.cos(th), np.sin(th)
    f = (
        c * c * rho[..., 0, 0].real
        + np.sin(2 * th) * rho[..., 0, 1].imag
        + s * s * rho[..., 1, 1].real
    )
    return np.clip(f, 0.0, 1.0)


def evolve_kicked(p, initial=None):
    """Run the kicked protocol: kick, then damped free evolution, repeated.

    The kick comes first (the exact between-kick solution is valid from
    just after a kick until just before the next).  A record is taken for
    the initial state and after every half-step, so a run with K kicks
    yields 2K+1 records.  Fidelity in each record is measured against the
    k-kick target state with k = kicks applied so far.

    The loop fills one (2K+1, d, d) array of states, each record's rho is a
    view into it, and the records' scalars come from one pass over it.  The
    state is validated as a DensityMatrix at the start and at the end; in
    between it only passes through CPTP steps (the kick and the Kerr phases
    unitary, the kick and the damped steps trace-checked) whose output is
    Hermitian by construction.

    Args:
        p: NqsParams.
        initial: optional DensityMatrix; defaults to vacuum.  States
            smaller than the cutoff dimension are zero-padded.

    Raises:
        fock.CutoffError: if any kick or step moves the trace by more than
            fock.LEAKAGE_TOL (1e-8).
        MemoryError: if the (2K+1, d, d) array does not fit in memory.
        ValueError: if the final state is not Hermitian or has an eigenvalue
            below -fock.EIG_TOL.
    """
    d = p.cutoff + 1
    rho0 = np.ones((1, 1)) if initial is None else initial.elements  # vacuum by default
    if len(rho0) > d:
        raise ValueError(f"initial state dim {len(rho0)} exceeds cutoff+1 = {d}")
    states = np.zeros((2 * p.kicks + 1, d, d), dtype=complex)
    states[0, : len(rho0), : len(rho0)] = rho0
    DensityMatrix(states[0])
    if p.nbar > 0 and p.cutoff < 20:
        warnings.warn(
            f"cutoff {p.cutoff} is small for a thermal run; leakage checks may trip",
            stacklevel=2,
        )
    if p.kicks:
        U = kick_unitary(p.epsilon, p.cutoff)
        kind = "zero" if p.nbar == 0 else "thermal"
        for k in range(1, p.kicks + 1):
            states[2 * k - 1] = _kick(states[2 * k - 2], U)
            states[2 * k] = _damped(states[2 * k - 1], p.lam, p.nbar, p.tau_k, kind)
        DensityMatrix(states[-1])  # end-of-trajectory validation
    kick = (np.arange(len(states)) + 1) // 2  # record i follows kick (i + 1) // 2
    columns = zip(_fidelity(states, kick, p.epsilon).tolist(), _trace(states).tolist(),
                  _purity(states).tolist(), _mean_n(states).tolist(), kick.tolist())
    return [EvolutionRecord(tau=(i // 2) * p.tau_k, rho=states[i], fidelity=f, trace=t,
                            purity=pur, mean_n=n, kick_index=k)
            for i, (f, t, pur, n, k) in enumerate(columns)]
