"""Power of the oracle suites: a relative 1e-9 error in any formula they check fails a row.

Each mutant wraps one formula where its callers look the name up and scales
its output by 1 + 1e-9 (or turns a phase by 1e-9); the named suite, run at
seed 1234, must then fail, and the same suites pass unmutated.
"""

import numpy as np
import pytest

from qscissors import fock, lqs, nqs, verify

ERR = 1e-9
SEED = 1234


def _scaled(fn, where=None):
    """fn with its output scaled by 1 + ERR, only at the entries `where` picks."""
    def mutant(*args):
        out = fn(*args)
        return out * np.where(where(*args), 1 + ERR, 1.0) if where else out * (1 + ERR)
    return mutant


def _off_diagonal(dim, *_):
    return nqs._family_indices(dim).l >= 1


def _c1_phase_turned(fn):
    def mutant(*args):
        amps = fn(*args).amplitudes.copy()
        amps[1] *= np.exp(1j * ERR)
        return fock.FockVector(amps)
    return mutant


def _g_bar_scaled_when_thermal(fn):
    def mutant(x, lam, nbar, tau):
        E, g = fn(x, lam, nbar, tau)
        return E, g * (1 + ERR) if nbar > 0 else g
    return mutant


def _first_row_and_column_scaled(fn):
    def mutant(eps, cutoff):
        U = fn(eps, cutoff).copy()
        U[0, :] *= 1 + ERR
        U[1:, 0] *= 1 + ERR
        return U
    return mutant


# (module, name, mutant factory, the suite that must fail)
MUTANTS = {
    "closed-form F": (lqs, "_closed_form", _scaled, "lqs-identity"),
    "closed-form N": (lqs, "normalization_closed_form", _scaled, "lqs-gram"),
    "ppb F": (lqs, "fidelity_ppb", _scaled, "lqs-ppb"),
    "phase of c1": (lqs, "truncated_state_general_bs", _c1_phase_turned, "lqs-projection"),
    "zero-T family, l >= 1": (nqs, "_zero_t_upper", lambda f: _scaled(f, _off_diagonal),
                              "nqs-limits"),
    "thermal family, l >= 1": (nqs, "_thermal_upper", lambda f: _scaled(f, _off_diagonal),
                               "nqs-limits"),
    "thermal-only g_bar": (nqs, "damping_coefficients", _g_bar_scaled_when_thermal, "nqs-rk4"),
    "shared binomial weights": (nqs, "sqrt_binomial_ratio", _scaled, "nqs-rk4"),
    "kick matrix, first row and column": (nqs, "kick_unitary", _first_row_and_column_scaled,
                                          "nqs-kick"),
}


# the cached functions themselves, whatever a mutant puts in their place
_CACHED = (nqs._propagator_family, nqs.kick_unitary)


@pytest.fixture(autouse=True)
def _fresh_caches():
    # a family or kick matrix cached under one mutant must not serve another
    for fn in _CACHED:
        fn.cache_clear()
    yield
    for fn in _CACHED:
        fn.cache_clear()


def _row(suite):
    return verify._row(suite, verify.SUITES[suite](SEED))


@pytest.mark.parametrize("suite", sorted({m[3] for m in MUTANTS.values()}))
def test_unmutated_suite_passes(suite):
    row = _row(suite)
    assert row["passed"], row


@pytest.mark.parametrize("mutant", MUTANTS)
def test_relative_1e9_error_fails_its_suite(monkeypatch, mutant):
    module, name, make, suite = MUTANTS[mutant]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    row = _row(suite)
    assert not row["passed"], row
