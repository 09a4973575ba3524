"""Linear quantum scissors: projection synthesis with loss and inefficiency.

A single photon split on one beam splitter, recombined with a coherent beam
on a second, and conditioned on detecting exactly one photon in one output
and none in the other truncates the coherent state to its {|0>, |1>} part.
This module carries the closed-form fidelities for lossy beam splitters and
inefficient detectors, plus two independent brute-force oracles: a full
Fock-space simulation of the lossless pipeline and an explicit environment-
mode realization of the Langevin noise operators.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fock import FockVector, beam_splitter_unitary, coherent_amplitudes, coherent_state

_COEF_TOL = 1e-10
_ALPHA_MAX = math.sqrt(sys.float_info.max)  # largest |alpha| whose square is finite


@dataclass
class LqsParams:
    """Scissors parameters: identical lossy BSs and finite-efficiency detectors.

    The BS convention is t real, r = i*r_mag, which keeps the phase-noise
    coefficient Omega = t r^* + t^* r identically zero.  Each BS dissipates
    Gamma = gamma_bs, with t^2 + r_mag^2 + Gamma = 1, so the inputs are
    r_mag and Gamma and t = sqrt(1 - Gamma - r_mag^2) is derived once,
    here.  |alpha|^2 must be a finite float, r_mag lie in [0, 1], Gamma in
    [0, 1] with r_mag^2 + Gamma <= 1, and eta in (0, 1].
    """

    alpha: complex
    gamma_bs: float
    r_mag: float
    eta: float = 1.0
    t: float = field(init=False)

    def __post_init__(self):
        if not abs(self.alpha) <= _ALPHA_MAX:  # nan and inf fail too
            raise ValueError(f"alpha must be finite with |alpha|^2 inside the float "
                             f"range, got {self.alpha}")
        if not 0.0 <= self.r_mag <= 1.0:
            raise ValueError(f"r_mag must lie in [0, 1], got {self.r_mag}")
        if not 0.0 <= self.gamma_bs <= 1.0:
            raise ValueError(f"Gamma (gamma_bs) must lie in [0, 1], got {self.gamma_bs}")
        t_sq = 1.0 - self.gamma_bs - self.r_mag**2
        if t_sq < -1e-12:
            raise ValueError(f"r_mag^2 + Gamma (gamma_bs) = {1.0 - t_sq:.12g} exceeds 1")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        # |t^2| <= 1e-12 is rounding in the subtraction: t = 0
        self.t = math.sqrt(t_sq) if t_sq > 1e-12 else 0.0

    @property
    def r(self):
        """Complex reflection coefficient i*r_mag."""
        return 1j * self.r_mag

    @property
    def x(self):
        """Detector-dressed loss commutator eta*Gamma + (1 - eta)."""
        return self.eta * self.gamma_bs + 1.0 - self.eta


def truncated_state_general_bs(alpha, t1, r1, t2, r2):
    """Scissors output for two distinct lossless BSs, as a two-level state.

    Amplitudes are proportional to (|r1 t2|, alpha |r2 t1|).
    """
    for t, r in ((t1, r1), (t2, r2)):
        if abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) > _COEF_TOL:
            raise ValueError(f"BS pair (t={t}, r={r}) is not lossless")
    c0 = abs(r1) * abs(t2)
    c1 = alpha * abs(r2) * abs(t1)
    norm = math.hypot(c0, abs(c1))
    if norm < 1e-15:
        raise ValueError("degenerate beam splitters: output has no amplitude")
    return FockVector(np.array([c0, c1], dtype=complex) / norm)


def fidelity_closed_form(p):
    """Truncation fidelity of the lossy scissors, simplified form.

    Exactly 1 at alpha = 0 (vacuum truncates to itself).  Undefined, and a
    ValueError, where the heralding event has probability zero with a
    coherent input (_herald_bracket is zero): r_mag = 0 (no photon reaches
    the detectors; at any alpha, eta and Gamma, as in
    normalization_closed_form), or t = 0 at alpha = 0 or with lossless
    splitters and ideal detectors.
    """
    a2 = abs(p.alpha) ** 2
    if _herald_bracket(p, a2) == 0:
        raise ValueError("F is undefined: the heralding event has probability zero "
                         f"(r_mag = {p.r_mag:.6g}, t = {p.t:.6g}, |alpha| = {abs(p.alpha):.6g})")
    if a2 == 0:
        return 1.0
    R = 1.0 / a2
    loss = p.x * p.r_mag**2 + p.gamma_bs
    return 1.0 - loss / ((1.0 + R) * (loss + p.t**2 * (1.0 + R)))


def fidelity_unsimplified(p):
    """Truncation fidelity assembled from the normalization and overlap forms.

    Same quantity as fidelity_closed_form, kept deliberately unsimplified
    (the overlap's exponential intact, times N^2 from
    normalization_closed_form) as an internal consistency route.
    """
    n2 = normalization_closed_form(p) ** 2  # raises where the herald has probability zero
    a2 = abs(p.alpha) ** 2
    if a2 == 0:
        return 1.0
    r2, t2, x, G = p.r_mag**2, p.t**2, p.x, p.gamma_bs
    overlap = p.eta * r2 * math.exp(x * a2) * (t2 * (a2 + 1.0) + a2 * (r2 * x + G) / (1.0 + a2))
    return overlap * n2


def normalization_closed_form(p):
    """Normalization N of the conditional scissors output, in closed form.

    N^-2 = eta r^2 e^{x|alpha|^2} (t^2 (1 + |alpha|^2) + |alpha|^2 (r^2 x + Gamma)),
    evaluated in log space so that N stays finite where e^{x|alpha|^2}
    alone overflows, and equal to (eta r^2 t^2)^{-1/2} at alpha = 0.
    """
    a2 = abs(p.alpha) ** 2
    bracket = _herald_bracket(p, a2)
    if bracket == 0:
        raise ValueError("N is undefined: the heralding event has probability zero")
    return math.exp(-0.5 * (p.x * a2 + math.log(bracket)))


def _herald_bracket(p, a2):
    """eta r^2 (t^2 (1 + |alpha|^2) + |alpha|^2 (r^2 x + Gamma)), which is
    N^-2 e^{-x|alpha|^2}: zero exactly where the herald has probability zero.
    For |alpha| > 0 it equals eta r^2 |alpha|^2 times the denominator
    loss + t^2 (1 + 1/|alpha|^2) of fidelity_closed_form."""
    return p.eta * p.r_mag**2 * (p.t**2 * (1.0 + a2) + a2 * (p.r_mag**2 * p.x + p.gamma_bs))


def fidelity_ppb(alpha, eta):
    """Projection-synthesis fidelity for lossless BSs at 50/50 split.

    1 - (1 - eta) |alpha|^4 / ((1 + |alpha|^2)(1 + (2 - eta)|alpha|^2)),
    written in u = |alpha|^2/(1 + |alpha|^2) as 1 - (1 - eta) u^2/(1 +
    (1 - eta) u), which stays finite for every |alpha|^2 a float holds.
    """
    u = abs(alpha) ** 2
    u /= 1.0 + u
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
    multiply |0>_b1 and |1>_b1 are built as explicit state vectors, the
    normalization follows from <psi|psi> = 1, and the fidelity from the
    squared overlap with the ideal truncated state.

    Returns (N, F).  The coherent-like environment mode is cut off where
    the neglected tail is below 1e-12 of e^{x|alpha|^2}; the search starts
    past the Poisson peak, so the tail bound holds at every cutoff it
    tries.  That mode carries exp(beta c^dag)|0>, beta = alpha sqrt(x),
    whose squared norm e^{x|alpha|^2} overflows a float from x|alpha|^2 of
    about 709; it is built scaled by e^{-x|alpha|^2/2} (the coherent-state
    components of beta) and the scale is put back into N only.  Raises
    FloatingPointError where N itself falls below the normal float range,
    from x|alpha|^2 of about 1400.
    """
    alpha = complex(p.alpha)
    a2 = abs(alpha) ** 2
    x, G = p.x, p.gamma_bs
    beta = alpha * math.sqrt(x)
    b2 = abs(beta) ** 2
    env_cutoff = max(8, math.ceil(b2))
    while _poisson_tail_bound(b2, env_cutoff) > 1e-12:
        env_cutoff += 1
    v3 = coherent_amplitudes(beta, env_cutoff + 1)
    g0 = np.array([1.0, 0.0], dtype=complex)
    g1 = np.array([0.0, 1.0], dtype=complex)
    front = math.sqrt(p.eta) * p.r
    # the two bundles as flat vectors over the (2, 2, env_cutoff + 1) modes
    lam0 = (front * p.t * np.kron(np.kron(g0, g0), v3)
            + front * alpha * p.r * math.sqrt(x) * np.kron(np.kron(g0, g1), v3)
            + front * alpha * math.sqrt(G) * np.kron(np.kron(g1, g0), v3))
    lam1 = front * p.t * np.kron(np.kron(g0, g0), v3)
    # 1/N^2 = e^{x|alpha|^2} * scaled_n2_inv
    scaled_n2_inv = np.linalg.norm(lam0)**2 + a2 * np.linalg.norm(lam1)**2
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
    the (2, d, d) amplitude tensor.  Raises ValueError where the outcome has
    probability zero.
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
    psi = np.tensordot(psi, u2, axes=([1, 2], [2, 3]))
    cond = psi[:, 1, 0]
    prob = float(np.vdot(cond, cond).real)
    if prob < 1e-14:
        raise ValueError(f"zero-probability outcome (p = {prob:.3e})")
    return FockVector(cond / np.sqrt(prob)), prob
