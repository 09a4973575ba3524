"""Truncated Fock-space linear algebra.

States, ladder operators, tensor products, beam-splitter unitaries and
projective measurements on photon-number-truncated Hilbert spaces.  All
matrices are dense; the cutoffs used here (a few tens of levels) make
sparsity pointless.  A beam-splitter unitary lives on its own two modes and
is exponentiated one total-photon-number block at a time, so no matrix
exponential is larger than the shorter mode's dimension.
"""

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
    drift = abs(float(np.trace(rho_out).real) - float(np.trace(rho_in).real))
    if drift > LEAKAGE_TOL:
        raise CutoffError(f"{what}: trace drifted by {drift:.3e} (tolerance "
                          f"{LEAKAGE_TOL:.0e}); the state reaches the cutoff, enlarge it")


def _apply_diagonal_propagators(rho, props):
    """Apply per-diagonal propagators; compute n >= m, mirror the rest.

    props[x] is the (d - x, d - x) matrix acting on diagonal -x, the
    entries rho[j + x, j]; the output is Hermitian by construction.
    Diagonal -x of a (d, d) array is the stride-(d+1) run of its flat
    view starting at x*d, diagonal +x the run starting at x.
    """
    d = rho.shape[0]
    out = np.zeros((d, d), dtype=complex)
    flat = out.reshape(-1)
    for x in range(d):
        dst = props[x] @ rho.diagonal(-x)
        flat[x * d::d + 1] = dst
        if x:
            flat[x:x + (d - x) * (d + 1):d + 1] = np.conj(dst)
    return out


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

    def normalized(self):
        return FockVector(self.amplitudes / self.norm)

    def to_dim(self, dim):
        """Zero-pad to a larger dimension; truncation is refused."""
        if dim < self.dim:
            raise ValueError(f"cannot shrink FockVector from {self.dim} to {dim}")
        out = np.zeros(dim, dtype=complex)
        out[: self.dim] = self.amplitudes
        return FockVector(out)

    def overlap(self, other):
        """<self|other>, padding the shorter vector."""
        d = max(self.dim, other.dim)
        return complex(np.vdot(self.to_dim(d).amplitudes, other.to_dim(d).amplitudes))

    def density_matrix(self):
        psi = self.amplitudes
        return DensityMatrix(np.outer(psi, psi.conj()))

    def __repr__(self):
        return f"FockVector(dim={self.dim}, norm={self.norm:.6f})"


class DensityMatrix:
    """Mixed state of a single mode; validated Hermitian and positive.

    The constructor checks squareness, Hermiticity (HERM_TOL) and the
    smallest eigenvalue (EIG_TOL).  DensityMatrix._trusted wraps an array
    without those checks.  It is only for validated states pushed through
    CPTP maps whose output is Hermitian by construction, inside a routine
    that validates its final state (nqs.evolve_kicked); everywhere else,
    use the constructor.
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

    @classmethod
    def _trusted(cls, elements):
        """Wrap a complex square array as a DensityMatrix without checking it."""
        rho = object.__new__(cls)
        rho.elements = elements
        return rho

    @property
    def dim(self):
        return self.elements.shape[0]

    @property
    def trace(self):
        return float(np.trace(self.elements).real)

    @property
    def purity(self):
        return float(np.trace(self.elements @ self.elements).real)

    def mean_photon_number(self):
        return float(np.dot(np.arange(self.dim), np.diag(self.elements).real))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, trace={self.trace:.6f})"


class MultiModeState:
    """Pure state of several modes: flat amplitude array + per-mode dimensions."""

    def __init__(self, amplitudes, dims):
        dims = tuple(int(d) for d in dims)
        amp = np.asarray(amplitudes, dtype=complex).ravel()
        if amp.size != int(np.prod(dims)):
            raise ValueError(f"{amp.size} amplitudes incompatible with dims {dims}")
        self.amplitudes = amp
        self.dims = dims

    @classmethod
    def product(cls, factors):
        """Tensor product of per-mode amplitude vectors, normalized."""
        amp = np.array([1.0 + 0j])
        dims = []
        for f in factors:
            f = np.asarray(f, dtype=complex).ravel()
            amp = np.kron(amp, f)
            dims.append(f.size)
        amp = amp / np.linalg.norm(amp)
        return cls(amp, dims)

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self):
        return self.amplitudes.reshape(self.dims)


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


def truncated_coherent_state(alpha):
    """Two-level truncation (|0> + alpha|1>)/sqrt(1+|alpha|^2)."""
    return FockVector(np.array([1.0, alpha], dtype=complex) / np.sqrt(1 + abs(alpha) ** 2))


def nqs_target_state(kick_count, eps):
    """Qubit state (cos(k eps), -i sin(k eps)) targeted after k kicks."""
    if kick_count < 0 or eps < 0:
        raise ValueError("kick_count and eps must be nonnegative")
    th = kick_count * eps
    return FockVector(np.array([np.cos(th), -1j * np.sin(th)]))


def annihilation_matrix(cutoff):
    """Ladder matrix a with a_{n-1,n} = sqrt(n), dimension cutoff+1."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), 1).astype(complex)


def number_matrix(cutoff):
    """Photon-number matrix a^dag a."""
    return np.diag(np.arange(cutoff + 1, dtype=float)).astype(complex)


def fidelity(psi, rho):
    """<psi|rho|psi> as a real number, clamped to [0, 1].

    psi is zero-padded up to the density matrix dimension; a psi that is
    longer than rho is a genuine dimension mismatch and raises.
    """
    if psi.dim > rho.dim:
        raise ValueError(f"state dim {psi.dim} exceeds density matrix dim {rho.dim}")
    v = psi.to_dim(rho.dim).amplitudes
    f = float(np.vdot(v, rho.elements @ v).real)
    return min(max(f, 0.0), 1.0)


def beam_splitter_unitary(t, r, mode_pair, dims):
    """Beam-splitter unitary on the two modes of `mode_pair`.

    Exponential of the bilinear generator phi a_i^dag a_j - phi^* a_i a_j^dag
    with |phi| = arccos(t), phased so that U^dag a_i U = t a_i + r^* a_j.
    The pair must be lossless: |t|^2 + |r|^2 = 1.

    `dims` lists the dimensions of all modes; the returned matrix acts on
    the two modes of the pair alone, indexed like np.kron of the lower-
    numbered mode with the higher-numbered one.  The truncated generator
    conserves n_i + n_j, so it is exponentiated one block of fixed total
    photon number at a time.
    """
    from scipy.linalg import expm  # deferred: scipy.linalg dominates import time

    t = float(t)
    r = complex(r)
    if abs(t * t + abs(r) ** 2 - 1.0) > NORM_TOL:
        raise ValueError(f"not unitary: t^2 + |r|^2 = {t * t + abs(r) ** 2}")
    i, j = mode_pair
    di, dj = dims[i], dims[j]
    if abs(r) == 0:
        return np.eye(di * dj, dtype=complex)
    theta = np.arccos(min(t, 1.0))
    phi = (r.conjugate() / abs(r)) * theta
    # flat[n_i, n_j]: pair-space index of |n_i, n_j>
    flat = np.arange(di * dj).reshape((di, dj) if i < j else (dj, di))
    if i > j:
        flat = flat.T
    u = np.zeros((di * dj, di * dj), dtype=complex)
    for total in range(di + dj - 1):
        k = np.arange(max(0, total - dj + 1), min(total, di - 1) + 1)
        # block basis |k, total-k>: a_i^dag a_j raises k by one with weight
        # sqrt((k+1)(total-k)), a_i a_j^dag lowers it with the same weight
        w = np.sqrt((k[:-1] + 1) * (total - k[:-1]))
        gen = np.diag(phi * w, -1) - np.diag(np.conj(phi) * w, 1)
        idx = flat[k, total - k]
        u[np.ix_(idx, idx)] = expm(gen)
    return u


def project_and_renormalize(state, mode_outcomes):
    """Condition a multi-mode state on Fock outcomes of some of its modes.

    mode_outcomes is a list of (mode index, photon number) pairs.  Returns
    the renormalized conditional state of the remaining mode(s) together
    with the outcome probability.  A FockVector is returned when a single
    mode remains, otherwise a MultiModeState.
    """
    tens = state.tensor()
    idx = [slice(None)] * len(state.dims)
    measured = set()
    for mode, outcome in mode_outcomes:
        if not 0 <= outcome < state.dims[mode]:
            raise ValueError(f"outcome {outcome} outside mode {mode} dimension")
        if mode in measured:
            raise ValueError(f"mode {mode} listed twice")
        measured.add(mode)
        idx[mode] = outcome
    cond = tens[tuple(idx)]
    p = float(np.vdot(cond, cond).real)
    if p < 1e-14:
        raise ValueError(f"zero-probability outcome (p = {p:.3e})")
    cond = cond / np.sqrt(p)
    remaining = [d for k, d in enumerate(state.dims) if k not in measured]
    if len(remaining) == 1:
        return FockVector(cond.ravel()), p
    return MultiModeState(cond.ravel(), remaining), p
