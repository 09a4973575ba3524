"""Linear quantum scissors: projection synthesis with loss and inefficiency.

A single photon split on one beam splitter, recombined with a coherent beam
on a second, and conditioned on detecting exactly one photon in one output
and none in the other truncates the coherent state to its {|0>, |1>} part.
This module carries the closed-form fidelities for lossy beam splitters and
inefficient detectors, plus two independent brute-force oracles: a full
Fock-space simulation of the lossless pipeline and an explicit environment-
mode realization of the Langevin noise operators.
"""

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    CutoffError,
    FockVector,
    MultiModeState,
    beam_splitter_unitary,
    coherent_amplitudes,
    coherent_state,
    project_and_renormalize,
)

_COEF_TOL = 1e-10


@dataclass
class LqsParams:
    """Scissors parameters: identical lossy BSs and finite-efficiency detectors.

    The BS convention is t real, r = i*r_mag, which keeps the phase-noise
    coefficient Omega = t r^* + t^* r identically zero.  Each BS dissipates
    Gamma = gamma_bs, with t^2 + r_mag^2 + Gamma = 1, so the inputs are
    r_mag and Gamma and t = sqrt(1 - Gamma - r_mag^2) is derived once,
    here.  alpha must be finite, r_mag lie in [0, 1], Gamma in [0, 1] with
    r_mag^2 + Gamma <= 1, and eta in (0, 1].
    """

    alpha: complex
    gamma_bs: float
    r_mag: float
    eta: float = 1.0
    t: float = field(init=False)

    def __post_init__(self):
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 <= self.r_mag <= 1.0:
            raise ValueError(f"r_mag must lie in [0, 1], got {self.r_mag}")
        if not 0.0 <= self.gamma_bs <= 1.0:
            raise ValueError(f"Gamma (gamma_bs) must lie in [0, 1], got {self.gamma_bs}")
        t_sq = 1.0 - self.gamma_bs - self.r_mag**2
        if t_sq < -1e-12:
            raise ValueError(f"r_mag^2 + Gamma (gamma_bs) = {1.0 - t_sq:.12g} exceeds 1")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        self.t = math.sqrt(max(t_sq, 0.0))

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

    Exactly 1 at alpha = 0 when t > 0 (vacuum truncates to itself).
    Undefined, and a ValueError, where the heralding event has probability
    zero with a coherent input: r_mag = 0 (no photon reaches the detectors;
    at any alpha, eta and Gamma, as in normalization_closed_form), or t = 0
    at alpha = 0 or with lossless splitters and ideal detectors.
    """
    if p.r_mag == 0:
        raise ValueError("F is undefined: the heralding event has probability zero "
                         "(r_mag = 0)")
    a2 = abs(p.alpha) ** 2
    if a2 == 0:
        return _vacuum_fidelity(p)
    R = 1.0 / a2
    loss = p.x * p.r_mag**2 + p.gamma_bs
    denom = loss + p.t**2 * (1.0 + R)
    if denom == 0:
        raise ValueError("F is undefined: the heralding event has probability zero "
                         "(t = 0, Gamma = 0, eta = 1)")
    return 1.0 - loss / ((1.0 + R) * denom)


def fidelity_unsimplified(p):
    """Truncation fidelity assembled from the normalization and overlap forms.

    Same quantity as fidelity_closed_form, kept deliberately unsimplified
    (the overlap's exponential intact, times N^2 from
    normalization_closed_form) as an internal consistency route.
    """
    a2 = abs(p.alpha) ** 2
    if a2 == 0:
        return _vacuum_fidelity(p)
    r2, t2, x, G = p.r_mag**2, p.t**2, p.x, p.gamma_bs
    overlap = p.eta * r2 * math.exp(x * a2) * (t2 * (a2 + 1.0) + a2 * (r2 * x + G) / (1.0 + a2))
    return overlap * normalization_closed_form(p) ** 2


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
    N^-2 e^{-x|alpha|^2}: zero exactly where the herald has probability zero."""
    return p.eta * p.r_mag**2 * (p.t**2 * (1.0 + a2) + a2 * (p.r_mag**2 * p.x + p.gamma_bs))


def _vacuum_fidelity(p):
    """F at alpha = 0: the vacuum truncates to itself, unless the herald
    (eta r^2 t^2 there) has probability zero."""
    if _herald_bracket(p, 0.0) == 0:
        raise ValueError("F is undefined: the heralding event has probability zero "
                         "(eta r^2 t^2 = 0 at alpha = 0)")
    return 1.0


def fidelity_ppb(alpha, eta):
    """Projection-synthesis fidelity for lossless BSs at 50/50 split."""
    a2 = abs(alpha) ** 2
    return 1.0 - a2**2 * (1.0 - eta) / ((1.0 + a2) * (1.0 + a2 * (2.0 - eta)))


def _poisson_tail_bound(b2, cutoff):
    """Upper bound on sum_{k > cutoff} b2^k/k!, as a share of e^{b2}.

    Past the Poisson peak (cutoff + 2 > b2) successive terms shrink by at
    least b2/(cutoff + 2), so the tail is below a geometric series started
    at its first term; below the peak no such bound exists and the result
    is inf.
    """
    if b2 == 0:
        return 0.0
    ratio = b2 / (cutoff + 2)
    if ratio >= 1.0:
        return math.inf
    first = math.exp((cutoff + 1) * math.log(b2) - b2 - math.lgamma(cutoff + 2))
    return first / (1.0 - ratio)


def env_gram_oracle(p, env_cutoff=None):
    """Normalization and fidelity from explicit environment modes.

    The Langevin noise operators of the lossy-BS/inefficient-detector chain
    are realized as creation operators on three fresh bosonic modes: one
    with commutator Gamma (photon lost at the first BS) and two with
    commutator x = eta*Gamma + 1 - eta (loss dressed by the detector) on
    the one-photon and coherent paths.  The two environment bundles that
    multiply |0>_b1 and |1>_b1 are built as explicit state vectors, the
    normalization follows from <psi|psi> = 1, and the fidelity from the
    squared overlap with the ideal truncated state.

    Returns (N, F).  env_cutoff bounds the coherent-like environment mode;
    when omitted it is chosen so the neglected tail is below 1e-12 of
    e^{x|alpha|^2}.  That mode carries exp(beta c^dag)|0>, beta = alpha
    sqrt(x), whose squared norm e^{x|alpha|^2} overflows a float from
    x|alpha|^2 of about 709; it is built scaled by e^{-x|alpha|^2/2} (the
    coherent-state components of beta) and the scale is put back into N
    only.  Raises FloatingPointError where N itself falls below the normal
    float range, from x|alpha|^2 of about 1400.
    """
    alpha = complex(p.alpha)
    a2 = abs(alpha) ** 2
    x, G = p.x, p.gamma_bs
    beta = alpha * math.sqrt(x)
    b2 = abs(beta) ** 2
    if env_cutoff is None:
        env_cutoff = max(8, math.ceil(b2))
        while _poisson_tail_bound(b2, env_cutoff) > 1e-12:
            env_cutoff += 1
    tail = _poisson_tail_bound(b2, env_cutoff)
    if tail > 1e-10:
        raise CutoffError(f"env_cutoff {env_cutoff} leaves tail {tail:.3e} of e^(x|a|^2), "
                          f"x|a|^2 = {b2:.6g}")
    dims = (2, 2, env_cutoff + 1)
    v3 = coherent_amplitudes(beta, env_cutoff + 1)
    g0 = np.array([1.0, 0.0], dtype=complex)
    g1 = np.array([0.0, 1.0], dtype=complex)
    front = math.sqrt(p.eta) * p.r
    lam0 = MultiModeState(
        front * p.t * np.kron(np.kron(g0, g0), v3)
        + front * alpha * p.r * math.sqrt(x) * np.kron(np.kron(g0, g1), v3)
        + front * alpha * math.sqrt(G) * np.kron(np.kron(g1, g0), v3),
        dims,
    )
    lam1 = MultiModeState(front * p.t * np.kron(np.kron(g0, g0), v3), dims)
    # 1/N^2 = e^{x|alpha|^2} * scaled_n2_inv
    scaled_n2_inv = lam0.norm**2 + a2 * lam1.norm**2
    N = math.exp(-b2 / 2) / math.sqrt(scaled_n2_inv)
    if N < sys.float_info.min:
        raise FloatingPointError(f"N = {N:.3e} is below the normal float range "
                                 f"at x|a|^2 = {b2:.6g}")
    combined = lam0.amplitudes + a2 * lam1.amplitudes
    F = float(np.vdot(combined, combined).real) / scaled_n2_inv / (1.0 + a2)
    return N, F


def lqs_projection_oracle(alpha, t, r, cutoff, t2=None, r2=None):
    """Brute-force scissors run in the full three-mode Fock space.

    Sends |1, 0, alpha> through the two beam splitters, projects the middle
    and last output modes onto <1| and <0|, and returns the conditional
    first-mode state with the outcome probability.  A second (t2, r2) pair
    makes the BSs distinct; by default they are identical.  Each splitter's
    unitary acts on its own mode pair by contraction over those two axes of
    the (2, d, d) amplitude tensor.
    """
    if t2 is None:
        t2, r2 = t, r
    d = cutoff + 2
    coh, _ = coherent_state(alpha, cutoff + 1)
    photon = np.array([0.0, 1.0], dtype=complex)
    vac = np.zeros(d, dtype=complex)
    vac[0] = 1.0
    state = MultiModeState.product([photon, vac, coh.amplitudes])
    dims = state.dims
    u1 = beam_splitter_unitary(t, r, (0, 1), dims).reshape(2, d, 2, d)
    u2 = beam_splitter_unitary(t2, r2, (1, 2), dims).reshape(d, d, d, d)
    psi = np.tensordot(u1, state.tensor(), axes=([2, 3], [0, 1]))
    psi = np.tensordot(psi, u2, axes=([1, 2], [2, 3]))
    return project_and_renormalize(MultiModeState(psi, dims), [(1, 1), (2, 0)])
