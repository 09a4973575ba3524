"""Nonlinear quantum scissors: kicked, damped Kerr oscillator.

A Kerr oscillator driven by short coherent kicks confines its state to the
{|0>, |1>} subspace when the kick strength is small and the kick period is
an incommensurate multiple of the Kerr revival time.  Between kicks the
damped evolution has an exact per-diagonal solution; kicks are displacement
unitaries with closed-form matrix elements.

The propagators and the kick matrix are array code.  A propagator family
(one matrix per diagonal x = n - m) is the packed (d // 2 + 1, d, d) stack
that fock._apply_diagonal_propagators takes; its entries are evaluated in
one pass over flat index arrays, cached per dimension from the entry that
fock, the one module to know where a diagonal sits, names for each slot,
and scattered straight into the stack.  The thermal family's terminating
hypergeometric sums, sum_k C(n, k) C(m, k) w^k (E^2)^{m-k} / C(l+k, k),
are one real matrix product: 1/C(l+k, k) is a fixed (d, d) matrix, and
the other factors form one column per diagonal x and row m.  The E^2
powers stay distributed over the terms, where no intermediate over- or
underflows at large tau.  The kick matrix takes every Laguerre value from
one recurrence.  A damped step is one batched matrix-vector product over
all diagonals.

A kick U = D(-i eps) is real in the phase frame of D = diag((-i)^n): K =
D^* U D is the real displacement D(eps).  Turning a matrix into that frame
or out of it multiplies entry (n, m) by a power of i, which is exact in
floating point, so a kick is two real matrix products between two exact
turns.  The states stay in the lab frame, where the damped steps act.

Each step and the kick have one array core (_damped, _kerr, _kick); the
public functions wrap them around a validated DensityMatrix.  trajectory
runs the cores directly and validates the state twice, at the start and at
the end: each damped step and each kick keeps its trace-drift guard, every
core returns a Hermitian array by construction, and a non-positive final
state raises ValueError.  Its states and its columns, the whole table of
qscissors nqs, feed both evolve_kicked's records and the command.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import (DensityMatrix, _apply_diagonal_propagators, _checked_trace,
                   _hermitian_from_lower, _mean_n, _packed_diagonals, _purity, _trace)
from .specfun import _ln_factorials, damping_coefficients, laguerre_assoc, sqrt_binomial_ratio


@dataclass
class NqsParams:
    """Protocol parameters for the kicked Kerr oscillator.

    Times are in units of the inverse Kerr coupling and lam is the damping
    rate in units of the Kerr coupling, so the free evolution depends only
    on lam and nbar; the kick period tau_k is a scaled time too.  epsilon,
    tau_k, lam and nbar must be finite, tau_k positive and the others
    nonnegative; kicks >= 0 and cutoff >= 1.

    The thermal path (nbar > 0) fails with FloatingPointError, "non-finite
    entries", where lam is below about cutoff/9e307 (2 x/lam overflows) or
    lam * tau_k above about 1420 (e^{lam tau_k/2} overflows).

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

    Entries run in stack order.  P_x[j, j+l] pairs the slots holding (n, m)
    = (j + x, j) and (n + l, m + l) (fock._packed_diagonals); at and mirror
    are the flat positions of P_x[j, j+l] and P_x[j+l, j] in the stack.
    """

    x: np.ndarray
    n: np.ndarray
    m: np.ndarray
    l: np.ndarray
    at: np.ndarray
    mirror: np.ndarray


@functools.lru_cache(maxsize=8)
def _family_indices(dim):
    """The _FamilyIndex of one dimension, its arrays read-only."""
    lay = _packed_diagonals(dim)
    x, m = lay.n - lay.m, lay.m
    # axes (b, r, c): slots r and c of row b hold (n, m) and (n + l, m + l),
    # l >= 0; an empty slot reads n = m = dim, so m_r <= m_c < dim holds on none
    b, r, c = np.nonzero((x[:, :, None] == x[:, None, :]) & (m[:, :, None] <= m[:, None, :])
                         & (m[:, None, :] < dim))
    idx = _FamilyIndex(x=x[b, r], n=lay.n[b, r], m=m[b, r], l=m[b, c] - m[b, r],
                       at=(b * dim + r) * dim + c, mirror=(b * dim + c) * dim + r)
    for arr in idx:
        arr.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=8)
def _hypergeometric_terms(dim):
    """The fixed parts of _thermal_upper's sums at one dimension, read-only.

    Rows are the pairs (x, m), m < dim - x, x-major.  Returns
    coef[k, row] = C(n, k) C(m, k), zero for k > m; inv_binom[l, k] =
    1/C(l+k, k); the x of each row; e2_at[k, row], the flat index of
    (E_x^2)^max(m-k, 0) in a (dim, dim) power table; and sum_at, the flat
    index of each upper entry's sum in the (dim, rows) product.  Both
    binomial ratios are cumprods of the factors of the recurrence: at
    d = 81 they are within 3e-15 relative of the exact values, where
    exp(lgamma) sums are off by 2e-13.
    """
    r = np.arange(dim)
    rx, rm = np.nonzero(r < dim - r[:, None])
    i = r[:-1, None]
    coef = np.ones((dim, len(rx)))
    coef[1:] = np.cumprod((rx + rm - i) * (rm - i) / ((i + 1.0) * (i + 1)), axis=0)
    inv_binom = np.ones((dim, dim))
    inv_binom[:, 1:] = np.cumprod((r[:-1] + 1.0) / (r[:, None] + 1 + r[:-1]), axis=1)
    e2_at = (rx * dim + np.maximum(rm - r[:, None], 0)).astype(np.int32)
    ix = _family_indices(dim)
    row = np.cumsum(dim - r) - (dim - r)  # the first row of each x
    sum_at = (ix.l * len(rx) + row[ix.x] + ix.m).astype(np.int32)
    terms = (coef, inv_binom, rx, e2_at, sum_at)
    for arr in terms:
        arr.flags.writeable = False
    return terms


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
    E^{n+m+1} F(-n, -m; l+1; zeta) = E^{x+1} s with the terminating sum
    s = sum_k c_k (E^2)^{m-k}, w = zeta E^2 = q g_bar^2 and
    c_k = C(n, k) C(m, k) w^k / C(l+k, k).  The factorials split: l enters
    only through 1/C(l+k, k), so s[l, (x, m)] = sum_k 1/C(l+k, k) F[k, (x, m)]
    with F = C(n, k) C(m, k) w^k (E^2)^{m-k}, and every sum of every diagonal
    is one real matrix product on the float view of F, gathered to the
    entries.  F keeps the E^2 powers distributed over the terms, which keeps
    every intermediate bounded: factored out as (E^2)^m (w/E^2)^k, they
    underflow and overflow at large tau.
    """
    ix = _family_indices(dim)
    x, n, m, l = ix.x, ix.n, ix.m, ix.l
    coef, inv_binom, rx, e2_at, sum_at = _hypergeometric_terms(dim)
    xs = np.arange(dim)
    E, g = damping_coefficients(xs, lam, nbar, tau)
    q = nbar / (nbar + 1)
    pref = np.exp(lam * tau / 2 + 1j * xs * tau) * E ** (xs + 1)
    F = np.take(_power_table(E * E, dim), e2_at)
    F *= np.take(_power_table(q * g * g, dim).T, rx, axis=1)
    F *= coef
    s = np.take((inv_binom @ F.view(float)).view(complex), sum_at)
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
    (dim // 2 + 1, dim, dim) stack in the packed layout of
    fock._packed_diagonals.

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
    stack = np.zeros((dim // 2 + 1, dim, dim), dtype=complex)
    stack.reshape(-1)[ix.at] = upper
    if q:
        # mirrored entry P[j+l, j]; at l = 0 it rewrites the diagonal unchanged
        stack.reshape(-1)[ix.mirror] = q ** ix.l * upper
    stack.flags.writeable = False
    return stack


def _damped(rho, lam, nbar, tau, kind, tr):
    """Array core of both damped steps; kind picks the propagator family.

    `tr` is the trace of rho; returns the stepped state and its trace.
    lam = 0 is the lossless Kerr step, at any nbar: with no coupling the
    reservoir does nothing.  Raises CutoffError if the step moves the trace
    by more than LEAKAGE_TOL.
    """
    if lam == 0:
        out = _kerr(rho, tau)
        return out, float(_trace(out))
    stack = _propagator_family(rho.shape[0], float(lam), float(nbar), float(tau), kind)
    out = _apply_diagonal_propagators(rho, stack)
    return out, _checked_trace(tr, out, "zero-T step" if kind == "zero" else "thermal step")


def _kerr(rho, tau):
    """Array core of the lossless Kerr step."""
    n = np.arange(rho.shape[0])
    phase = np.exp(-0.5j * n * (n - 1) * tau)
    return phase[:, None] * rho * phase.conj()[None, :]


def analytic_damped_step_thermal(rho_in, tau, p):
    """Exact damped-Kerr step at reservoir occupation nbar, duration tau (scaled).

    At lam = 0 it is the unitary Kerr step.
    """
    rho = rho_in.elements
    return DensityMatrix(_damped(rho, p.lam, p.nbar, tau, "thermal", float(_trace(rho)))[0])


def analytic_damped_step_zero_T(rho_in, tau, p):
    """Exact damped-Kerr step for a zero-temperature reservoir.

    At lam = 0 it is the unitary Kerr step; nbar > 0 is refused at any lam.
    """
    if p.nbar != 0:
        raise ValueError("zero-T step requires nbar = 0")
    rho = rho_in.elements
    return DensityMatrix(_damped(rho, p.lam, 0.0, tau, "zero", float(_trace(rho)))[0])


def unitary_kerr_step(rho_in, tau):
    """Lossless Kerr evolution: rho_nm picks up e^{-i[n(n-1)-m(m-1)]tau/2}."""
    return DensityMatrix(_kerr(rho_in.elements, tau))


@functools.lru_cache(maxsize=8)
def _phase_frame(d):
    """i^(n - m) over the entries (n, m) of a (d, d) matrix, read-only.

    With D = diag((-i)^n), D^* A D is A times it entry by entry, and
    D A D^* is A times its transpose.  Every value is 1, i, -1 or -i.
    """
    n = np.arange(d)
    phase = np.array([1, 1j, -1, -1j])[(n[:, None] - n) % 4]
    phase.flags.writeable = False
    return phase


# One entry: trajectories rerun at one (eps, cutoff) point, as in the
# nqs-long benchmark, reuse it; a scan over fresh points never hits a cache.
@functools.lru_cache(maxsize=1)
def kick_unitary(eps, cutoff):
    """Displacement matrix of one kick, U = D(-i eps), in closed form.

    U = D K D^* with D = diag((-i)^n), where K = D(eps) is real: for n >= m
    and k = n - m, K[n, m] = e^{-eps^2/2} sqrt(m!/n!) eps^k L_m^k(eps^2) and
    K[m, n] = (-1)^k K[n, m].  The lower triangle of K is evaluated at once
    over its index arrays, in real arithmetic and with its Laguerre values
    from one recurrence, and mirrored into the upper.  U is K times
    (-i)^(n - m) entry by entry, which is exact, so every element of U is
    purely real or purely imaginary and U is symmetric.  Raises
    FloatingPointError if an element is not finite, which happens where eps
    is far outside the weak-kick regime.  The last (eps, cutoff) is
    cached; the result is read-only.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    d = cutoff + 1
    e2 = eps * eps
    lnf = _ln_factorials(d - 1)
    n, m = np.tril_indices(d)
    k = n - m
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite element
        val = (np.exp(-e2 / 2) * np.exp(0.5 * (lnf[m] - lnf[n])) * eps ** k
               * laguerre_assoc(m, k, e2))
    if not np.all(np.isfinite(val)):
        raise FloatingPointError(f"kick matrix at epsilon={eps:g} has non-finite elements")
    K = np.zeros((d, d))
    K[n, m] = val
    off = k > 0
    K[m[off], n[off]] = (1 - 2 * (k[off] % 2)) * val[off]
    U = K * _phase_frame(d).T
    U.flags.writeable = False
    return U


def _frame_kick(U):
    """K = D^* U D, the kick matrix U in the phase frame, as a real array.

    Raises ValueError unless K is exactly real, as it is for kick_unitary.
    """
    K = U * _phase_frame(U.shape[0])
    if np.any(K.imag):
        raise ValueError("kick matrix is not real in the (-i)^n phase frame")
    return np.ascontiguousarray(K.real)


def _kick(rho, K, tr):
    """Array core of one kick, U rho U^dag with U = D K D^*, K = _frame_kick(U).

    K rho_f K^T, rho_f = D^* rho D, is two real (d, d) @ (d, 2d) products
    on float views; the second multiplies the transpose of the first, so
    the product, and its turn back, come out transposed: their upper
    triangle is the result's lower, written with its conjugate mirror and a
    real diagonal, so the result is Hermitian by construction.  `tr` is the
    trace of rho; returns the kicked state and its trace.  Raises
    CutoffError if the kick moves the trace by more than LEAKAGE_TOL.
    """
    d = rho.shape[0]
    if K.shape[0] != d:
        raise ValueError(f"kick matrix dim {K.shape[0]} != state dim {d}")
    phase = _phase_frame(d)
    half = (K @ (rho * phase).view(float)).view(complex)  # K rho_f
    flipped = (K @ np.ascontiguousarray(half.T).view(float)).view(complex)  # (K rho_f K^T)^T
    out = _hermitian_from_lower((flipped * phase).reshape(-1)[_packed_diagonals(d).upper], d)
    out.reshape(-1).imag[:: d + 1] = 0.0
    return out, _checked_trace(tr, out, "kick")


def apply_kick(rho_in, U):
    """One kick: rho -> U rho U^dag; CutoffError if it moves the trace.

    U must be exactly real in the phase frame (_frame_kick), as every
    kick_unitary is; ValueError otherwise.
    """
    rho = rho_in.elements
    return DensityMatrix(_kick(rho, _frame_kick(U), float(_trace(rho)))[0])


def _fidelity(rho, k, eps):
    """Overlap with the k-kick target psi_k = (cos(k eps), -i sin(k eps)), clamped
    to [0, 1]: cos^2(k eps) rho_00 + sin(2 k eps) Im rho_01 + sin^2(k eps) rho_11
    for each state of a (..., d, d) stack, k broadcast against its leading axes.
    The squares are products: a scalar ** 2 and an array ** 2 can round apart."""
    th = k * eps
    c, s = np.cos(th), np.sin(th)
    f = (
        c * c * rho[..., 0, 0].real
        + np.sin(2 * th) * rho[..., 0, 1].imag
        + s * s * rho[..., 1, 1].real
    )
    return np.clip(f, 0.0, 1.0)


def trajectory(p, initial=None):
    """evolve_kicked's (2K+1, d, d) states and the table of qscissors nqs, a
    dict of numpy columns in CSV order: kick_index, tau, fidelity, trace,
    purity, mean_n and the corners rho_00, re_rho_01, im_rho_01, rho_11."""
    d = p.cutoff + 1
    rho0 = np.ones((1, 1)) if initial is None else initial.elements  # vacuum by default
    if len(rho0) > d:
        raise ValueError(f"initial state dim {len(rho0)} exceeds cutoff+1 = {d}")
    states = np.empty((2 * p.kicks + 1, d, d), dtype=complex)  # each step writes its state whole
    states[0] = 0.0
    states[0, : len(rho0), : len(rho0)] = rho0
    DensityMatrix(states[0])
    if p.nbar > 0 and p.cutoff < 20:
        warnings.warn(f"cutoff {p.cutoff} is small for a thermal run; leakage checks may trip",
                      stacklevel=3)  # past evolve_kicked, to its caller
    if p.kicks:
        K = _frame_kick(kick_unitary(p.epsilon, p.cutoff))
        kind = "zero" if p.nbar == 0 else "thermal"
        tr = float(_trace(states[0]))  # each state's trace is taken once, by the step making it
        for k in range(1, p.kicks + 1):
            states[2 * k - 1], tr = _kick(states[2 * k - 2], K, tr)
            states[2 * k], tr = _damped(states[2 * k - 1], p.lam, p.nbar, p.tau_k, kind, tr)
        DensityMatrix(states[-1])  # end-of-trajectory validation
    step = np.arange(len(states))
    kick = (step + 1) // 2  # state i follows kick (i + 1) // 2
    return states, {"kick_index": kick, "tau": (step // 2) * p.tau_k,
                    "fidelity": _fidelity(states, kick, p.epsilon), "trace": _trace(states),
                    "purity": _purity(states), "mean_n": _mean_n(states),
                    "rho_00": states[:, 0, 0].real, "re_rho_01": states[:, 0, 1].real,
                    "im_rho_01": states[:, 0, 1].imag, "rho_11": states[:, 1, 1].real}


def evolve_kicked(p, initial=None):
    """Run the kicked protocol: kick, then damped free evolution, repeated.

    The kick comes first (the exact between-kick solution is valid from
    just after a kick until just before the next).  A record is taken for
    the initial state and after every half-step, so a run with K kicks
    yields 2K+1 records.  Fidelity in each record is measured against the
    k-kick target state with k = kicks applied so far.

    Each record's rho is a view into one (2K+1, d, d) array of states,
    validated as the module docstring describes.

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
    states, columns = trajectory(p, initial)
    rows = zip(states, *(v.tolist() for v in columns.values()))
    return [EvolutionRecord(tau=t, rho=rho, fidelity=f, trace=tr, purity=pur, mean_n=n,
                            kick_index=k) for rho, k, t, f, tr, pur, n, *_corners in rows]
