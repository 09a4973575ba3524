"""Truncated Fock-space linear algebra.

States, ladder operators and beam-splitter unitaries on photon-number-
truncated Hilbert spaces.  All matrices are dense; the cutoffs used here (a
few tens of levels) make sparsity pointless.  Every unitary is exp(-iH) of
a Hermitian generator, V diag(e^{-i lambda}) V^dag from one batched
np.linalg.eigh (_unitary_from_eigh).  A beam-splitter unitary lives on its
own two modes; its generator conserves the total photon number, so its
blocks of fixed total are zero-padded into one stack, no block larger than
the shorter mode's dimension.  That stack is the mixing angle times a fixed
real matrix, so its eigendecomposition is taken once per pair of mode
dimensions and cached; a call only puts in the angle and the phases.  The
multi-mode states it acts on are plain amplitude tensors, one axis per mode.

Per-diagonal propagators, of the damped Kerr steps and of RK4 alike, have
one format, the packed layout; only this module knows where a diagonal
sits in it, and _packed_diagonals names the entry each slot holds.  The
d - x entries rho[j + x, j] of diagonal -x are acted on by a (d - x) x
(d - x) block, and diagonals x and d - x fill one d x d matrix exactly: a
stack of d // 2 + 1 matrices holds diagonal x in matrix x from position 0
for x <= d // 2, and in matrix d - x from position x otherwise, each
square on the main diagonal and zero elsewhere.  _apply_diagonal_propagators
applies such a stack in one batched matmul.
"""

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .specfun import _ln_factorials

NORM_TOL = 1e-10
HERM_TOL = 1e-12
EIG_TOL = 1e-9
LEAKAGE_TOL = 1e-8


class CutoffError(RuntimeError):
    """Raised when a Fock cutoff is too small for the requested evolution."""


def _checked_trace(tr_in, rho_out, what):
    """The trace of rho_out, after checking it against tr_in, the trace of
    the state `what` started from.

    Raises CutoffError if the trace moved by more than LEAKAGE_TOL:
    trace-preserving evolution on a truncated space loses trace only by
    pushing population past the cutoff.
    """
    tr_out = float(_trace(rho_out))
    drift = abs(tr_out - tr_in)
    if not drift <= LEAKAGE_TOL:  # a nan drift fails too
        raise CutoffError(f"{what}: trace drifted by {drift:.3e} (tolerance "
                          f"{LEAKAGE_TOL:.0e}); the state reaches the cutoff, enlarge it")
    return tr_out


# Re tr rho, Re tr rho^2 and sum_n n Re rho_nn, one formula each, of a (d, d)
# array or of each array in a (..., d, d) stack
def _trace(rho):
    return np.trace(rho, axis1=-2, axis2=-1).real


def _purity(rho):
    # sum |rho_ij|^2 on the float view, one real pass: tr rho^2 for a Hermitian rho
    re_im = np.ascontiguousarray(rho).view(float)
    return np.einsum("...ij,...ij->...", re_im, re_im)


def _mean_n(rho):
    return np.einsum("...ii,i->...", rho.real, np.arange(rho.shape[-1], dtype=float))


class _PackedDiagonals(NamedTuple):
    """The packed per-diagonal layout of dimension d (module docstring).

    For every entry n >= m, in np.tril_indices order: lower is its flat
    position n*d + m, upper its mirror's m*d + n, and slot its flat
    position in the (d // 2 + 1, d) array whose row b holds the entries
    that matrix b acts on.  n[b, r] and m[b, r] name the entry (n, m) that
    slot r of row b holds, both d for a slot that holds none.
    """

    lower: np.ndarray
    upper: np.ndarray
    slot: np.ndarray
    n: np.ndarray
    m: np.ndarray


@functools.lru_cache(maxsize=8)
def _packed_diagonals(d):
    """The _PackedDiagonals of dimension d, its arrays read-only."""
    n, m = np.tril_indices(d)
    x = n - m
    # diagonal x sits in matrix x from position 0, or in matrix d - x from position x
    slot = np.where(x > d // 2, (d - x) * d + x, x * d) + m
    held = np.full((2, d // 2 + 1, d), d)  # (n, m) of the entry in each slot
    held.reshape(2, -1)[:, slot] = n, m
    lay = _PackedDiagonals(lower=n * d + m, upper=m * d + n, slot=slot, n=held[0], m=held[1])
    for arr in lay:
        arr.flags.writeable = False
    return lay


def _hermitian_from_lower(w, d):
    """The (d, d) matrix whose entries n >= m are w, in np.tril_indices
    order, and whose entries above the main diagonal mirror them conjugated."""
    lay = _packed_diagonals(d)
    out = np.empty(d * d, dtype=complex)
    out[lay.upper] = np.conj(w)
    out[lay.lower] = w  # after the mirror, so the main diagonal keeps w
    return out.reshape(d, d)


def _apply_diagonal_propagators(rho, stack):
    """Apply per-diagonal propagators; compute n >= m, mirror the rest.

    stack is a (d // 2 + 1, d, d) array in the packed layout (module
    docstring).  The diagonals are gathered into the rows of one (d // 2 +
    1, d) array, multiplied by their matrices in one batched matmul and
    scattered back with their mirror images, so the output is Hermitian by
    construction.
    """
    d = rho.shape[0]
    lay = _packed_diagonals(d)
    v = np.zeros((d // 2 + 1) * d, dtype=complex)
    v[lay.slot] = rho.reshape(-1)[lay.lower]
    w = np.matmul(stack, v.reshape(-1, d, 1)).reshape(-1)[lay.slot]
    return _hermitian_from_lower(w, d)


class FockVector:
    """Pure state of a single mode, amplitudes indexed by photon number."""

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex).ravel()
        if amp.size == 0:
            raise ValueError("FockVector needs at least one amplitude")
        n2 = float(np.vdot(amp, amp).real)
        if not (0.0 < n2 <= 1.0 + NORM_TOL):
            raise ValueError(f"norm^2 = {n2} outside (0, 1]")
        self.amplitudes = amp

    @property
    def dim(self):
        return self.amplitudes.size

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def density_matrix(self):
        psi = self.amplitudes
        return DensityMatrix(np.outer(psi, psi.conj()))

    def __repr__(self):
        return f"FockVector(dim={self.dim}, norm={self.norm:.6f})"


class DensityMatrix:
    """Mixed state of a single mode; validated Hermitian and positive.

    The constructor checks squareness, Hermiticity (HERM_TOL) and the
    smallest eigenvalue (EIG_TOL).
    """

    def __init__(self, elements):
        rho = np.asarray(elements, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > HERM_TOL:
            raise ValueError(f"not Hermitian: max|rho_nm - rho_mn^*| = {herm:.3e}")
        evmin = float(np.linalg.eigvalsh(rho).min())
        if evmin < -EIG_TOL:
            raise ValueError(f"negative eigenvalue {evmin:.3e}")
        self.elements = rho

    @property
    def dim(self):
        return self.elements.shape[0]

    @property
    def trace(self):
        return float(_trace(self.elements))

    @property
    def purity(self):
        return float(_purity(self.elements))

    def mean_photon_number(self):
        return float(_mean_n(self.elements))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, trace={self.trace:.6f})"


def coherent_amplitudes(alpha, dim):
    """Raw coherent-state components e^{-|alpha|^2/2} alpha^n / sqrt(n!), n < dim.

    The moduli are formed in log space, exp(-|alpha|^2/2 + n ln|alpha| -
    ln(n!)/2), so no power of |alpha| or factorial overflows.
    """
    if alpha == 0:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
        return amp
    n = np.arange(dim)
    log_mod = -abs(alpha) ** 2 / 2 + n * math.log(abs(alpha)) - 0.5 * _ln_factorials(dim - 1)
    return np.exp(log_mod) * np.exp(1j * n * np.angle(alpha))


def coherent_state(alpha, cutoff):
    """Coherent state truncated at `cutoff`, renormalized.

    Returns (state, deficit) where deficit = 1 - norm^2 of the raw truncated
    expansion c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!) (coherent_amplitudes).
    A deficit above 1e-6 means the cutoff clips real population and triggers
    a warning.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    amp = coherent_amplitudes(alpha, cutoff + 1)
    n2 = float(np.vdot(amp, amp).real)
    deficit = 1.0 - n2
    if n2 < 1.0 - 1e-6:
        warnings.warn(
            f"coherent_state(|alpha|={abs(alpha):.3g}, cutoff={cutoff}): "
            f"norm^2 = {n2:.6f}, cutoff clips the expansion",
            stacklevel=2,
        )
    return FockVector(amp / np.sqrt(n2)), deficit


def annihilation_matrix(cutoff):
    """Ladder matrix a with a_{n-1,n} = sqrt(n), dimension cutoff+1."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), 1).astype(complex)


def _unitary_from_eigh(lam, v):
    """V diag(e^{-i lambda}) V^dag, of one eigendecomposition or of a stack.

    On a degenerate eigenvalue V is fixed only up to a unitary mix of its
    eigenvectors, which leaves the product unchanged.
    """
    return (v * np.exp(-1j * lam)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _expm_hermitian(h):
    """exp(-ih) of a Hermitian matrix, or of each matrix of a (..., m, m) stack,
    from one batched eigh, h = V diag(lambda) V^dag."""
    return _unitary_from_eigh(*np.linalg.eigh(h))


@functools.lru_cache(maxsize=8)
def _splitter_eigh(d_i, d_j):
    """The angle-free part of beam_splitter_unitary, read-only: (lam, v) of
    its real block stack W = V diag(lam) V^T, the flat positions in W of the
    entries inside a block, and their flat positions in the unitary."""
    # [N, a]: position a of block N holds |k, N - k>, k counted up from the
    # smallest k of the block; positions past the block's size are padding
    m = min(d_i, d_j)
    total = np.arange(d_i + d_j - 1)[:, None]
    k = np.maximum(total - d_j + 1, 0) + np.arange(m)
    inside = k <= np.minimum(total, d_i - 1)
    # a_i^dag a_j raises k by one with weight sqrt((k+1)(N-k)), a_i a_j^dag
    # lowers it with the same weight; zero where k + 1 is padding
    w = np.sqrt((k[:, :-1] + 1) * (total - k[:, :-1]) * inside[:, 1:])
    a = np.arange(m - 1)
    stack = np.zeros((total.size, m, m))
    stack[:, a + 1, a] = stack[:, a, a + 1] = w
    lam, v = np.linalg.eigh(stack)
    # each block's corner goes to the pair-space indices k d_j + N - k
    idx = k * d_j + total - k
    both = inside[:, :, None] & inside[:, None, :]
    rows = np.broadcast_to(idx[:, :, None], both.shape)[both]
    cols = np.broadcast_to(idx[:, None, :], both.shape)[both]
    arrays = (lam, v, np.flatnonzero(both), rows * (d_i * d_j) + cols)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def beam_splitter_unitary(t, r, d_i, d_j):
    """Beam-splitter unitary on two modes i and j of dimensions d_i and d_j.

    Exponential of the bilinear generator phi a_i^dag a_j - phi^* a_i a_j^dag
    with |phi| = arccos(t), phased so that U^dag a_i U = t a_i + r^* a_j.
    The pair must be lossless: |t|^2 + |r|^2 = 1.

    The returned matrix is indexed like np.kron of mode i with mode j.  The
    truncated generator conserves n_i + n_j, so it splits into d_i + d_j - 1
    blocks of fixed total photon number N, each in the basis |k, N - k>.
    The blocks, times i, are zero-padded to the shorter mode's dimension
    into one Hermitian stack; the padding has eigenvalue 0, so each block's
    corner of its exponential is the block's own.  A block couples
    neighbouring basis states only, all with the phase g = i r^*/|r|, so
    the stack is taken real symmetric, in the basis g^k |k, N - k>, and the
    phases are put back on the result.  It is then |phi| times a fixed
    matrix, whose eigendecomposition _splitter_eigh caches per (d_i, d_j).
    """
    t = float(t)
    r = complex(r)
    if abs(t * t + abs(r) ** 2 - 1.0) > NORM_TOL:
        raise ValueError(f"not unitary: t^2 + |r|^2 = {t * t + abs(r) ** 2}")
    if abs(r) == 0:
        return np.eye(d_i * d_j, dtype=complex)
    theta = np.arccos(min(t, 1.0))
    g = 1j * r.conjugate() / abs(r)  # i phi = g theta
    lam, v, src, dst = _splitter_eigh(d_i, d_j)
    gauge = g ** np.arange(v.shape[-1])  # g^a, not g^k: a block's common factor g^(k - a) cancels
    blocks = _unitary_from_eigh(theta * lam, v) * gauge[:, None] * gauge.conj()
    u = np.zeros((d_i * d_j) ** 2, dtype=complex)
    u[dst] = blocks.reshape(-1)[src]
    return u.reshape(d_i * d_j, d_i * d_j)
