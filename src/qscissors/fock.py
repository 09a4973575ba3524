"""Truncated Fock-space linear algebra.

States, ladder operators and beam-splitter unitaries on photon-number-
truncated Hilbert spaces.  All matrices are dense; the cutoffs used here (a
few tens of levels) make sparsity pointless.  A beam-splitter unitary lives
on its own two modes and is exponentiated one total-photon-number block at
a time, so no matrix exponential is larger than the shorter mode's
dimension; the multi-mode states it acts on are plain amplitude tensors,
one axis per mode.

Per-diagonal propagators, of the damped Kerr steps and of RK4 alike, have
one format: a (d, d, d) stack whose block x acts on the entries
rho[j + x, j] of diagonal -x and is zero beyond size d - x.
_apply_diagonal_propagators applies such a stack in one batched matmul.
"""

import functools
import math
import warnings

import numpy as np

from .specfun import _ln_factorials

NORM_TOL = 1e-10
HERM_TOL = 1e-12
EIG_TOL = 1e-9
LEAKAGE_TOL = 1e-8


class CutoffError(RuntimeError):
    """Raised when a Fock cutoff is too small for the requested evolution."""


def check_trace_drift(rho_in, rho_out, what):
    """Raise CutoffError if `what` moved the trace from rho_in to rho_out by
    more than LEAKAGE_TOL: trace-preserving evolution on a truncated space
    loses trace only by pushing population past the cutoff."""
    drift = abs(float(_trace(rho_out)) - float(_trace(rho_in)))
    if not drift <= LEAKAGE_TOL:  # a nan drift fails too
        raise CutoffError(f"{what}: trace drifted by {drift:.3e} (tolerance "
                          f"{LEAKAGE_TOL:.0e}); the state reaches the cutoff, enlarge it")


# Re tr rho, Re tr rho^2 and sum_n n Re rho_nn, one formula each, of a (d, d)
# array or of each array in a (..., d, d) stack
def _trace(rho):
    return np.trace(rho, axis1=-2, axis2=-1).real


def _purity(rho):
    return np.einsum("...ij,...ji->...", rho, rho).real


def _mean_n(rho):
    return np.einsum("...ii,i->...", rho.real, np.arange(rho.shape[-1], dtype=float))


@functools.lru_cache(maxsize=8)
def _diagonal_indices(d):
    """Flat indices of the lower triangle of a (d, d) array, read-only.

    For every entry n >= m: its position n*d + m, its mirror's m*d + n,
    and x*d + m with x = n - m, its position in a (d, d) array whose row x
    holds diagonal -x, the entries rho[j + x, j], zero-padded to length d.
    """
    n, m = np.tril_indices(d)
    idx = (n * d + m, m * d + n, (n - m) * d + m)
    for arr in idx:
        arr.flags.writeable = False
    return idx


def _apply_diagonal_propagators(rho, stack):
    """Apply per-diagonal propagators; compute n >= m, mirror the rest.

    stack is a (d, d, d) array whose block x acts on diagonal -x, the
    entries rho[j + x, j], and is zero beyond size d - x.  The diagonals
    are gathered into the rows of one zero-padded (d, d) array, multiplied
    by their blocks in one batched matmul and scattered back with their
    mirror images, so the output is Hermitian by construction.
    """
    d = rho.shape[0]
    lower, upper, diag = _diagonal_indices(d)
    v = np.zeros(d * d, dtype=complex)
    v[diag] = rho.reshape(-1)[lower]
    w = np.matmul(stack, v.reshape(d, d, 1)).reshape(-1)[diag]
    out = np.empty(d * d, dtype=complex)
    out[upper] = np.conj(w)
    out[lower] = w  # after the mirror, so the main diagonal keeps w
    return out.reshape(d, d)


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


def beam_splitter_unitary(t, r, d_i, d_j):
    """Beam-splitter unitary on two modes i and j of dimensions d_i and d_j.

    Exponential of the bilinear generator phi a_i^dag a_j - phi^* a_i a_j^dag
    with |phi| = arccos(t), phased so that U^dag a_i U = t a_i + r^* a_j.
    The pair must be lossless: |t|^2 + |r|^2 = 1.

    The returned matrix is indexed like np.kron of mode i with mode j.  The
    truncated generator conserves n_i + n_j, so it is exponentiated one
    block of fixed total photon number at a time.
    """
    from scipy.linalg import expm  # deferred: scipy.linalg dominates import time

    t = float(t)
    r = complex(r)
    if abs(t * t + abs(r) ** 2 - 1.0) > NORM_TOL:
        raise ValueError(f"not unitary: t^2 + |r|^2 = {t * t + abs(r) ** 2}")
    if abs(r) == 0:
        return np.eye(d_i * d_j, dtype=complex)
    theta = np.arccos(min(t, 1.0))
    phi = (r.conjugate() / abs(r)) * theta
    u = np.zeros((d_i * d_j, d_i * d_j), dtype=complex)
    for total in range(d_i + d_j - 1):
        k = np.arange(max(0, total - d_j + 1), min(total, d_i - 1) + 1)
        # block basis |k, total-k>: a_i^dag a_j raises k by one with weight
        # sqrt((k+1)(total-k)), a_i a_j^dag lowers it with the same weight
        w = np.sqrt((k[:-1] + 1) * (total - k[:-1]))
        gen = np.diag(phi * w, -1) - np.diag(np.conj(phi) * w, 1)
        idx = k * d_j + total - k  # pair-space index of |k, total-k>
        u[np.ix_(idx, idx)] = expm(gen)
    return u
