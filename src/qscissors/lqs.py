"""Linear quantum scissors: projection synthesis with loss and inefficiency.

A single photon split on one beam splitter, recombined with a coherent beam
on a second, and conditioned on detecting exactly one photon in one output
and none in the other truncates the coherent state to its {|0>, |1>} part.
This module carries the closed-form fidelities for lossy beam splitters and
inefficient detectors, plus two independent brute-force oracles: a full
Fock-space simulation of the lossless pipeline and an explicit environment-
mode realization of the Langevin noise operators.  LqsParams is the record
of one point; sweep evaluates many at once, as the command line does.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fock import NORM_TOL, FockVector, beam_splitter_unitary, coherent_amplitudes, coherent_state

_ALPHA_MAX = math.sqrt(sys.float_info.max)  # largest |alpha| whose square is finite
_LOG_MAX = math.log(sys.float_info.max)  # largest argument of a finite math.exp


@dataclass
class LqsParams:
    """Scissors parameters: identical lossy BSs and finite-efficiency detectors.

    The BS convention is t real, r = i*r_mag, which keeps the phase-noise
    coefficient Omega = t r^* + t^* r identically zero.  Each BS dissipates
    Gamma = gamma_bs, with t^2 + r_mag^2 + Gamma = 1, so the inputs are
    r_mag and Gamma and t = sqrt(1 - Gamma - r_mag^2) is derived once,
    here.  |alpha|^2 must be a finite float, r_mag lie in [0, 1], Gamma in
    [0, 1] with r_mag^2 + Gamma <= 1, and eta in (0, 1].  The herald must
    have nonzero probability, which is zero exactly where r_mag = 0, or
    where t = 0 and either alpha = 0 or Gamma = 0 with eta = 1; every
    function taking an LqsParams relies on it.  This is the one-point
    record; sweep checks and evaluates many points at once.
    """

    alpha: complex
    gamma_bs: float
    r_mag: float
    eta: float = 1.0
    t: float = field(init=False)

    def __post_init__(self):
        t, checks = _domain(self.alpha, self.gamma_bs, self.r_mag, self.eta)
        _first_failure(checks)
        self.t = float(t)

    @property
    def r(self):
        """Complex reflection coefficient i*r_mag."""
        return 1j * self.r_mag

    @property
    def x(self):
        """Detector-dressed loss commutator eta*Gamma + (1 - eta)."""
        return _loss_commutator(self.eta, self.gamma_bs)


def _loss_commutator(eta, gamma_bs):
    """x = eta*Gamma + (1 - eta), of scalars or arrays."""
    return eta * gamma_bs + 1.0 - eta


def _domain(alpha, gamma_bs, r_mag, eta):
    """t and the domain checks of LqsParams at one point or an array of them.

    Returns t = sqrt(1 - Gamma - r_mag^2), which is 0 where the subtraction
    leaves |t^2| <= 1e-12 (rounding), and the checks as (mask of points
    that pass, message of point i) pairs in the order they apply, for
    _first_failure.  A nan fails the first check on its own value, so the
    r_mag^2 + Gamma check never sees one.  The herald's check, the last,
    reads the factors of its probability, as their product can underflow.
    """
    with np.errstate(all="ignore"):  # a point outside the domain fails a check instead
        t_sq = 1.0 - gamma_bs - r_mag * r_mag
        t = np.where(t_sq > 1e-12, np.sqrt(t_sq), 0.0)
        a = abs(alpha)
        finite_alpha = a <= _ALPHA_MAX
    heralded = (r_mag != 0) & ((t != 0) | ((a != 0) & ((gamma_bs != 0) | (eta != 1))))
    checks = [
        (finite_alpha, lambda i: "alpha must be finite with |alpha|^2 inside the float "
                                 f"range, got {_at(alpha, i)}"),
        ((0.0 <= r_mag) & (r_mag <= 1.0),
         lambda i: f"r_mag must lie in [0, 1], got {_at(r_mag, i)}"),
        ((0.0 <= gamma_bs) & (gamma_bs <= 1.0),
         lambda i: f"Gamma (gamma_bs) must lie in [0, 1], got {_at(gamma_bs, i)}"),
        (t_sq >= -1e-12,
         lambda i: f"r_mag^2 + Gamma (gamma_bs) = {1.0 - _at(t_sq, i):.12g} exceeds 1"),
        ((0.0 < eta) & (eta <= 1.0), lambda i: f"eta must lie in (0, 1], got {_at(eta, i)}"),
        (heralded, lambda i: "F is undefined: the heralding event has probability zero "
                             f"(r_mag = {_at(r_mag, i):.6g}, t = {_at(t, i):.6g}, "
                             f"|alpha| = {_at(a, i):.6g})"),
    ]
    return t, checks


def _at(values, i):
    """Point i, in C order, of a scalar or an array, as a Python number."""
    return np.ravel(values)[i].item()


def _first_failure(checks):
    """Raise ValueError for the first point that fails any of `checks`,
    (mask of points that pass, message of point i) pairs in the order they
    apply, with the message of the first check it fails, as a loop would.
    """
    failing = ~np.array([ok for ok, _ in checks], dtype=bool).reshape(len(checks), -1)
    if failing.any():
        i = int(failing.any(axis=0).argmax())
        raise ValueError(checks[int(failing[:, i].argmax())][1](i))


def sweep(alpha, eta, gamma_bs, r_sq):
    """LqsParams's checks and the fidelities of many points, as columns
    (alpha_abs, eta, gamma_bs, r_sq, F_closed, F_ppb) in CSV order.

    The inputs broadcast together, with r_mag = sqrt(r_sq), and every
    column has their broadcast shape (0-d for four scalars); a broadcast
    input comes back as a copy.  Every point is checked, r_sq in [0, 1]
    first, before any is computed; the first failing point in C order
    raises its first failing check's ValueError.  F_ppb is fidelity_ppb
    where Gamma = 0 and r^2 = 0.5, and None elsewhere.
    """
    alpha, eta, gamma_bs, r_sq = (np.asarray(v, order="C")
                                  for v in np.broadcast_arrays(alpha, eta, gamma_bs, r_sq))
    r_sq_range = ((0.0 <= r_sq) & (r_sq <= 1.0),
                  lambda i: f"r_sq must lie in [0, 1], got {_at(r_sq, i)}")
    with np.errstate(invalid="ignore"):  # r_sq outside [0, 1] fails r_sq_range first
        r_mag = np.sqrt(r_sq) + 0.0  # + 0.0 turns sqrt(-0.0) into 0.0
    t, checks = _domain(alpha, gamma_bs, r_mag, eta)
    _first_failure([r_sq_range, *checks])
    a = np.abs(alpha)
    lossless_5050 = (gamma_bs == 0) & (np.abs(r_sq - 0.5) < 1e-12)
    return {"alpha_abs": a, "eta": eta, "gamma_bs": gamma_bs, "r_sq": r_sq,
            "F_closed": _closed_form(a, eta, gamma_bs, r_mag, t),
            "F_ppb": np.where(lossless_5050, fidelity_ppb(a, eta), None)}


def truncated_state_general_bs(alpha, t1, r1, t2, r2):
    """Scissors output for two distinct lossless BSs, as a two-level state.

    Amplitudes are proportional to (|r1 t2|, alpha |r2 t1|).
    """
    for t, r in ((t1, r1), (t2, r2)):
        if abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) > NORM_TOL:
            raise ValueError(f"BS pair (t={t}, r={r}) is not lossless")
    c0 = abs(r1) * abs(t2)
    c1 = alpha * abs(r2) * abs(t1)
    norm = math.hypot(c0, abs(c1))
    if norm < 1e-15:
        raise ValueError("degenerate beam splitters: output has no amplitude")
    return FockVector(np.array([c0, c1], dtype=complex) / norm)


def fidelity_closed_form(p):
    """Truncation fidelity of the lossy scissors, simplified form.

    Exactly 1 at alpha = 0 (vacuum truncates to itself).
    """
    return float(_closed_form(abs(p.alpha), p.eta, p.gamma_bs, p.r_mag, p.t))


def _closed_form(a, eta, gamma_bs, r_mag, t):
    """fidelity_closed_form at one point or an array of them, |alpha| = a.

    F = 1 - loss/((1 + R)(loss + t^2 (1 + R))) with R = 1/|alpha|^2 and
    loss = x r^2 + Gamma uses only + - * /, which round alike for Python
    floats and float64 arrays, so one point and a whole axis give the same
    bits.  Below the smallest normal float, |alpha|^2 is taken as that
    float: R stays finite, so t = 0 gives no 0 * inf, and F is exactly 1,
    as it is at alpha = 0.
    """
    with np.errstate(over="ignore"):  # the denominator overflows only where F rounds to 1
        r2 = r_mag * r_mag
        R = 1.0 / np.maximum(a * a, sys.float_info.min)
        loss = _loss_commutator(eta, gamma_bs) * r2 + gamma_bs
        return 1.0 - loss / ((1.0 + R) * (loss + t * t * (1.0 + R)))


def fidelity_unsimplified(p):
    """Truncation fidelity assembled from the normalization and overlap forms.

    Same quantity as fidelity_closed_form, kept deliberately unsimplified
    (the overlap's exponential intact, times N^2 from
    normalization_closed_form) as an internal consistency route.  Raises
    FloatingPointError where that exponential, e^{x|alpha|^2}, or N overflows.
    """
    n = normalization_closed_form(p)
    a = abs(p.alpha)
    a2 = a * a
    if a2 == 0:  # F = 1 - O(|alpha|^2)
        return 1.0
    x = p.x
    if x * a2 > _LOG_MAX:
        raise FloatingPointError(f"e^(x|alpha|^2) overflows a float at |alpha|^2 = {a2:.6g}, "
                                 f"x = {x:.6g}")
    # the overlap's bracket as the square of a root, as in N, and eta r^2 N^2
    # as (sqrt(eta) r_mag N)^2: |alpha|^2 and r_mag may be subnormal, N^2 overflow
    s = math.sqrt(1.0 + a2)
    rest_root = math.hypot(p.t * s, a * math.sqrt(x * p.r_mag * p.r_mag + p.gamma_bs) / s)
    front_n = p.r_mag * n * math.sqrt(p.eta) * rest_root
    return (math.exp(x * a2) * front_n) * front_n


def normalization_closed_form(p):
    """Normalization N of the conditional scissors output, in closed form.

    N^-2 = eta r^2 e^{x|alpha|^2} (t^2 (1 + |alpha|^2) + |alpha|^2 (r^2 x + Gamma)),
    equal to (eta r^2 t^2)^{-1/2} at alpha = 0.  N is e^{-x|alpha|^2/2}
    over the bracket's root hypot(t sqrt(1 + |alpha|^2), |alpha| sqrt(r^2 x
    + Gamma)), then over sqrt(eta) and r_mag one at a time, so it stays
    finite where e^{x|alpha|^2} alone overflows and keeps its last digits
    where |alpha|^2, the bracket or eta r^2 is tiny; it is taken in log
    space where e^{-x|alpha|^2/2} is below the normal float range.  Raises
    FloatingPointError where N overflows.
    """
    a = abs(p.alpha)
    a2 = a * a
    root = math.hypot(p.t * math.sqrt(1.0 + a2),
                      a * math.sqrt(p.x * p.r_mag * p.r_mag + p.gamma_bs))
    decay = math.exp(-0.5 * p.x * a2)
    if decay < sys.float_info.min:  # root >= sqrt(x)|alpha| keeps this N below 1e176
        log_n = -0.5 * p.x * a2 - (math.log(root) + 0.5 * math.log(p.eta) + math.log(p.r_mag))
        return math.exp(log_n)
    n = decay / root / math.sqrt(p.eta) / p.r_mag if root else math.inf
    if n == math.inf:
        raise FloatingPointError(f"N overflows a float at eta = {p.eta:.6g}, r_mag = {p.r_mag:.6g}")
    return n


def fidelity_ppb(alpha, eta):
    """Projection-synthesis fidelity, lossless 50/50 BSs, of scalars or arrays.

    1 - (1 - eta) |alpha|^4 / ((1 + |alpha|^2)(1 + (2 - eta)|alpha|^2)),
    written in u = |alpha|^2/(1 + |alpha|^2) as 1 - (1 - eta) u^2/(1 +
    (1 - eta) u), which stays finite for every |alpha|^2 a float holds.
    Raises OverflowError where |alpha| is finite and |alpha|^2 is not.
    """
    a = abs(alpha)
    with np.errstate(over="ignore"):  # an overflowing square is refused below
        a2 = a * a
    over = np.isinf(a2) & np.isfinite(a)
    if over.any():
        raise OverflowError(f"|alpha|^2 overflows a float at |alpha| = {_at(a, over.argmax()):.6g}")
    u = a2 / (1.0 + a2)
    loss = (1.0 - eta) * u
    return 1.0 - loss * u / (1.0 + loss)


def _poisson_tail_bound(b2, cutoff):
    """Upper bound on sum_{k > cutoff} b2^k/k!, as a share of e^{b2}.

    Valid past the Poisson peak, cutoff + 2 > b2, where successive terms
    shrink by at least b2/(cutoff + 2): the tail is below a geometric
    series started at its first term.
    """
    if b2 == 0:
        return 0.0
    ratio = b2 / (cutoff + 2)
    first = math.exp((cutoff + 1) * math.log(b2) - b2 - math.lgamma(cutoff + 2))
    return first / (1.0 - ratio)


def env_gram_oracle(p):
    """Normalization and fidelity from explicit environment modes.

    The Langevin noise operators of the lossy-BS/inefficient-detector chain
    are realized as creation operators on three fresh bosonic modes: one
    with commutator Gamma (photon lost at the first BS) and two with
    commutator x = eta*Gamma + 1 - eta (loss dressed by the detector) on
    the one-photon and coherent paths.  The two environment bundles that
    multiply |0>_b1 and |1>_b1 are built as explicit state vectors, one
    (2, 2, cutoff + 2) amplitude array each, every term written into its
    block of photon numbers in the two loss modes; the normalization
    follows from <psi|psi> = 1 over the whole vectors, and the fidelity
    from the squared overlap with the ideal truncated state.

    Returns (N, F).  The coherent-like environment mode is cut off where
    the neglected tail is below 1e-16 of e^{x|alpha|^2}, under the rounding
    of a float, so N is good to its last digits at any size; the search starts
    past the Poisson peak, so the tail bound holds at every cutoff it
    tries.  That mode carries exp(beta c^dag)|0>, beta = alpha sqrt(x),
    whose squared norm e^{x|alpha|^2} overflows a float from x|alpha|^2 of
    about 709; it is built scaled by e^{-x|alpha|^2/2} (the coherent-state
    components of beta) and the scale is put back into N only.  Raises
    FloatingPointError where N itself falls below the normal float range,
    from x|alpha|^2 of about 1400, or where the bundles' squared norm does.
    """
    alpha = complex(p.alpha)
    a2 = abs(alpha) ** 2
    x, G = p.x, p.gamma_bs
    beta = alpha * math.sqrt(x)
    b2 = abs(beta) ** 2
    env_cutoff = max(8, math.ceil(b2))
    while _poisson_tail_bound(b2, env_cutoff) > 1e-16:
        env_cutoff += 1
    v3 = coherent_amplitudes(beta, env_cutoff + 1)
    front = math.sqrt(p.eta) * p.r
    # the two bundles over the (2, 2, env_cutoff + 2) modes: [Gamma mode,
    # one-photon path's x mode, coherent-like mode]
    lam0 = np.zeros((2, 2, v3.size), dtype=complex)
    lam0[0, 0] = front * p.t * v3
    lam0[0, 1] = front * alpha * p.r * math.sqrt(x) * v3
    lam0[1, 0] = front * alpha * math.sqrt(G) * v3
    lam1 = np.zeros_like(lam0)
    lam1[0, 0] = front * p.t * v3
    # 1/N^2 = e^{x|alpha|^2} * scaled_n2_inv
    scaled_n2_inv = np.linalg.norm(lam0)**2 + a2 * np.linalg.norm(lam1)**2
    if scaled_n2_inv < sys.float_info.min:
        raise FloatingPointError(f"the Gram norm {scaled_n2_inv:.3e} is below the normal float "
                                 f"range at |alpha| = {abs(alpha):.6g}, t = {p.t:.6g}")
    N = math.exp(-b2 / 2) / math.sqrt(scaled_n2_inv)
    if N < sys.float_info.min:
        raise FloatingPointError(f"N = {N:.3e} is below the normal float range "
                                 f"at x|a|^2 = {b2:.6g}")
    combined = lam0 + a2 * lam1
    F = float(np.vdot(combined, combined).real) / scaled_n2_inv / (1.0 + a2)
    return N, F


def lqs_projection_oracle(alpha, t, r, cutoff, t2=None, r2=None):
    """Brute-force scissors run in the full three-mode Fock space.

    Sends |1, 0, alpha> through the two beam splitters, projects the middle
    and last output modes onto <1| and <0|, and returns the conditional
    first-mode state with the outcome probability.  A second (t2, r2) pair
    makes the BSs distinct; by default they are identical.  Each splitter's
    unitary acts on its own mode pair by contraction over those two axes of
    the (2, d, d) amplitude tensor; the second splitter, built in full, is
    contracted only through its <1|<0| row, the one outcome kept.  Raises
    ValueError where the outcome has probability zero.
    """
    if t2 is None:
        t2, r2 = t, r
    d = cutoff + 2
    coh, _ = coherent_state(alpha, cutoff + 1)
    psi = np.zeros((2, d, d), dtype=complex)
    psi[1, 0, :] = coh.amplitudes
    u1 = beam_splitter_unitary(t, r, 2, d).reshape(2, d, 2, d)
    u2 = beam_splitter_unitary(t2, r2, d, d).reshape(d, d, d, d)
    psi = np.tensordot(u1, psi, axes=([2, 3], [0, 1]))
    cond = np.tensordot(psi, u2[1, 0], axes=([1, 2], [0, 1]))
    prob = float(np.vdot(cond, cond).real)
    if prob < 1e-14:
        raise ValueError(f"zero-probability outcome (p = {prob:.3e})")
    return FockVector(cond / np.sqrt(prob)), prob
