"""Tests for kicked damped-Kerr evolution: exact steps, kicks, trajectories."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qscissors import nqs
from qscissors.fock import (
    CutoffError,
    DensityMatrix,
    annihilation_matrix,
    coherent_state,
)
from qscissors.nqs import (
    NqsParams,
    _family_indices,
    _propagator_family,
    analytic_damped_step_thermal,
    analytic_damped_step_zero_T,
    apply_kick,
    evolve_kicked,
    kick_unitary,
    truncation_fidelity,
    unitary_kerr_step,
)
from qscissors.specfun import damping_coefficients, sqrt_binomial_ratio


def _random_density(seed, dim):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def test_params_rate_resolution():
    p = NqsParams(epsilon=0.1, kicks=5, cutoff=10)
    assert p.lam == 0.0 and p.nbar == 0.0
    with pytest.raises(ValueError):
        NqsParams(epsilon=0.1, kicks=5, cutoff=10, lam=-0.1)
    for name, field in (("epsilon", "epsilon"), ("tau_k", "tau_k"), ("lambda", "lam"),
                        ("nbar", "nbar")):
        for bad in (float("nan"), float("inf")):
            kw = {"epsilon": 0.1, "kicks": 5, "cutoff": 10, field: bad}
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                NqsParams(**kw)
    with pytest.raises(ValueError):
        NqsParams(epsilon=0.1, kicks=5, cutoff=0)
    with pytest.warns(UserWarning):
        NqsParams(epsilon=0.5, kicks=1, cutoff=10)


def test_epsilon_warning_names_the_caller():
    with pytest.warns(UserWarning, match="not small") as caught:
        NqsParams(epsilon=0.5, kicks=1, cutoff=10)
    assert caught[0].filename == __file__  # not the dataclass's generated __init__


def test_kick_cutoff_error_when_trace_leaks():
    # a strong kick carries the vacuum far past cutoff 20: the kept trace
    # is about 1e-22, which the kick's trace-drift guard refuses
    rho = DensityMatrix(np.diag([1.0] + [0.0] * 20))
    with pytest.raises(CutoffError, match="^kick: trace drifted"):
        apply_kick(rho, kick_unitary(10.0, 20))
    with pytest.warns(UserWarning), pytest.raises(CutoffError, match="^kick: trace drifted"):
        evolve_kicked(NqsParams(epsilon=10.0, kicks=1, cutoff=20))


def test_kerr_step_phases():
    rho = _random_density(7, 6)
    out = unitary_kerr_step(rho, 0.9)
    n = np.arange(6)
    for i in range(6):
        for j in range(6):
            ph = np.exp(-0.5j * (n[i] * (n[i] - 1) - n[j] * (n[j] - 1)) * 0.9)
            assert abs(out.elements[i, j] - ph * rho.elements[i, j]) < 1e-12
    # diagonal untouched, trace and purity conserved
    assert out.trace == pytest.approx(rho.trace, abs=1e-12)
    assert out.purity == pytest.approx(rho.purity, abs=1e-12)


def test_kerr_step_matches_expm():
    d = 8
    rho = _random_density(8, d)
    a = annihilation_matrix(d - 1)
    kerr = a.conj().T @ a.conj().T @ a @ a
    U = expm(-0.5j * kerr * 1.3)
    want = U @ rho.elements @ U.conj().T
    got = unitary_kerr_step(rho, 1.3)
    assert np.max(np.abs(got.elements - want)) < 1e-12


def test_thermal_step_agrees_with_zero_T_route():
    rho = _random_density(9, 12)
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=11, lam=0.25, nbar=0.0)
    a = analytic_damped_step_thermal(rho, 1.4, p)
    b = analytic_damped_step_zero_T(rho, 1.4, p)
    assert np.max(np.abs(a.elements - b.elements)) < 1e-12


def test_damped_step_lambda_to_zero_limit():
    rho = _random_density(10, 10)
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=9, lam=1e-12)
    a = analytic_damped_step_zero_T(rho, 0.8, p)
    b = unitary_kerr_step(rho, 0.8)
    assert np.max(np.abs(a.elements - b.elements)) < 1e-8


def test_damped_step_dispatches_lambda_zero():
    rho = _random_density(12, 8)
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=7, lam=0.0)
    a = analytic_damped_step_thermal(rho, 0.6, p)
    b = unitary_kerr_step(rho, 0.6)
    assert np.max(np.abs(a.elements - b.elements)) == 0.0


def test_zero_T_step_rejects_thermal_params():
    # at any lambda, lossless included: nbar > 0 is not a zero-T reservoir
    rho = _random_density(13, 6)
    for lam in (0.1, 0.0):
        p = NqsParams(epsilon=0.1, kicks=1, cutoff=5, lam=lam, nbar=0.5)
        with pytest.raises(ValueError, match="nbar = 0"):
            analytic_damped_step_zero_T(rho, 1.0, p)


def test_damped_step_trace_preserving_and_decaying():
    rho = _random_density(14, 10)
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=9, lam=0.3)
    out = analytic_damped_step_zero_T(rho, 2.0, p)
    assert out.trace == pytest.approx(rho.trace, abs=1e-10)
    assert out.mean_photon_number() < rho.mean_photon_number()


def test_thermal_step_relaxes_toward_nbar():
    # long evolution drives any state to the thermal occupation
    nbar = 0.4
    rho = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0] + [0.0] * 21))
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=24, lam=0.5, nbar=nbar)
    out = analytic_damped_step_thermal(rho, 80.0, p)
    assert out.mean_photon_number() == pytest.approx(nbar, abs=1e-6)
    # populations follow the Bose ratio
    pops = np.diag(out.elements).real
    assert pops[1] / pops[0] == pytest.approx(nbar / (nbar + 1), abs=1e-6)


def test_thermal_step_cutoff_error_on_top_heavy_state():
    rho = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]))
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=3, lam=1.0, nbar=1.0)
    with pytest.raises(CutoffError):
        analytic_damped_step_thermal(rho, 1.0, p)


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(0.01, 0.5), cutoff=st.integers(10, 60))
def test_kick_unitary_is_unitary_and_symmetric(eps, cutoff):
    d = cutoff + 1
    U = kick_unitary(eps, cutoff)
    # closed-form entries do not depend on the cutoff, so a larger matrix
    # holds this one as its leading block, and its first d columns (far
    # from its own truncation edge) are orthonormal
    big = kick_unitary(eps, cutoff + 40)
    assert np.array_equal(U, big[:d, :d])
    cols = big[:, :d]
    assert np.max(np.abs(cols.conj().T @ cols - np.eye(d))) < 1e-12
    sign = (-1.0) ** np.subtract.outer(np.arange(d), np.arange(d))
    assert np.max(np.abs(U - sign * U.conj().T)) < 1e-14


def test_kick_matches_displacement_expm():
    eps = 0.2
    d = 26
    a = annihilation_matrix(d - 1)
    want = expm(-1j * eps * (a + a.conj().T))
    got = kick_unitary(eps, d - 1)
    assert np.max(np.abs(got[:16, :16] - want[:16, :16])) < 1e-10


def test_kick_on_vacuum_closed_form_fidelity():
    eps = 0.12
    rho = DensityMatrix(np.diag([1.0] + [0.0] * 20))
    out = apply_kick(rho, kick_unitary(eps, 20))
    want = np.exp(-eps**2) * (np.cos(eps) + eps * np.sin(eps)) ** 2
    assert abs(truncation_fidelity(out, 1, eps) - want) < 1e-13


def test_apply_kick_dimension_mismatch():
    rho = _random_density(15, 5)
    with pytest.raises(ValueError):
        apply_kick(rho, kick_unitary(0.1, 10))


def test_truncation_fidelity_matches_target_overlap():
    rho = _random_density(16, 8)
    for k in (0, 1, 4):
        psi = np.array([np.cos(k * 0.13), -1j * np.sin(k * 0.13)])  # k-kick target
        want = np.vdot(psi, rho.elements[:2, :2] @ psi).real
        assert abs(truncation_fidelity(rho, k, 0.13) - want) < 1e-12


def test_evolve_kicked_record_structure():
    p = NqsParams(epsilon=0.1, kicks=4, cutoff=12, lam=0.02)
    recs = evolve_kicked(p)
    assert len(recs) == 2 * 4 + 1
    assert recs[0].tau == 0.0 and recs[0].kick_index == 0
    assert recs[0].fidelity == pytest.approx(1.0)
    # kick happens first: records at tau = (k-1) tau_k, then k tau_k
    assert recs[1].tau == 0.0 and recs[1].kick_index == 1
    assert recs[2].tau == pytest.approx(1.0) and recs[2].kick_index == 1
    assert recs[-1].tau == pytest.approx(4.0) and recs[-1].kick_index == 4
    for r in recs:
        assert abs(r.trace - 1.0) < 1e-8
        assert 0.0 <= r.fidelity <= 1.0


def test_evolve_kicked_zero_kicks():
    p = NqsParams(epsilon=0.1, kicks=0, cutoff=8)
    recs = evolve_kicked(p)
    assert len(recs) == 1
    assert recs[0].fidelity == pytest.approx(1.0)


def test_evolve_kicked_confines_to_qubit_subspace():
    p = NqsParams(epsilon=0.1, kicks=10, cutoff=15, lam=0.05)
    recs = evolve_kicked(p)
    tail = np.diag(recs[-1].rho).real[2:].sum()
    assert tail < 0.02
    assert recs[-1].fidelity > 0.9


def test_evolve_kicked_initial_state_padding():
    small = DensityMatrix(np.diag([0.4, 0.6]))
    p = NqsParams(epsilon=0.05, kicks=1, cutoff=10, lam=0.01)
    recs = evolve_kicked(p, initial=small)
    assert recs[0].rho.shape == (11, 11)
    assert recs[0].rho[1, 1].real == pytest.approx(0.6)
    big = DensityMatrix(np.eye(20) / 20)
    with pytest.raises(ValueError):
        evolve_kicked(p, initial=big)


def test_evolve_kicked_thermal_cutoff_warning():
    p = NqsParams(epsilon=0.05, kicks=1, cutoff=12, lam=0.05, nbar=0.2)
    with pytest.warns(UserWarning):
        evolve_kicked(p)


def test_kerr_step_qubit_block_frozen():
    # n(n-1) vanishes on {0, 1}, so the qubit corner never dephases; the
    # 0-2 coherence flips sign at tau = pi
    rho = _random_density(21, 6)
    out = unitary_kerr_step(rho, 2.37)
    assert np.max(np.abs(out.elements[:2, :2] - rho.elements[:2, :2])) < 1e-15
    out = unitary_kerr_step(rho, np.pi)
    assert abs(out.elements[0, 2] + rho.elements[0, 2]) < 1e-15


def test_kick_unitary_low_order_elements():
    eps = 0.17
    U = kick_unitary(eps, 12)
    front = np.exp(-eps**2 / 2)
    assert abs(U[0, 0] - front) < 1e-14
    # the displacement generator -i eps (a + a^dag) is symmetric, so both
    # off-diagonal first-order elements carry the same -i eps factor
    assert abs(U[1, 0] + 1j * eps * front) < 1e-14
    assert abs(U[0, 1] - U[1, 0]) < 1e-14


def test_apply_kick_vacuum_population_and_identity():
    rho = DensityMatrix(np.diag([1.0] + [0.0] * 15))
    eps = 0.21
    out = apply_kick(rho, kick_unitary(eps, 15))
    assert abs(out.elements[0, 0].real - np.exp(-eps**2)) < 1e-13
    out = apply_kick(rho, kick_unitary(0.0, 15))
    assert np.max(np.abs(out.elements - rho.elements)) < 1e-15


def test_zero_T_single_photon_decay():
    lam, tau = 0.2, 3.0
    rho = DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]))
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=3, lam=lam)
    out = analytic_damped_step_zero_T(rho, tau, p)
    assert abs(out.elements[1, 1].real - np.exp(-lam * tau)) < 1e-12
    assert abs(out.elements[0, 0].real - (1 - np.exp(-lam * tau))) < 1e-12


def test_zero_T_full_relaxation():
    # lambda tau = 40 empties everything into the vacuum
    v, _ = coherent_state(0.5, 8)
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=8, lam=20.0)
    out = analytic_damped_step_zero_T(v.density_matrix(), 2.0, p)
    want = np.zeros((9, 9))
    want[0, 0] = 1.0
    assert np.max(np.abs(out.elements - want)) < 1e-8


def test_thermal_step_vacuum_stationary_at_zero_temperature():
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0, 0.0]))
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=4, lam=0.7)
    out = analytic_damped_step_thermal(rho, 1.9, p)
    assert np.max(np.abs(out.elements - rho.elements)) < 1e-13


def test_truncation_fidelity_one_photon_quarter_turn():
    rho = DensityMatrix(np.diag([0.0, 1.0, 0.0]))
    assert truncation_fidelity(rho, 1, np.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert truncation_fidelity(rho, 0, 0.3) == 0.0


# Literal scalar-loop references for the per-diagonal propagators: the
# element-by-element formulas the array builders in qscissors.nqs must equal.

def _zero_t_propagator_loop(x, size, lam, tau):
    P = np.zeros((size, size), dtype=complex)
    lx = lam + 1j * x
    f = np.exp(-lx * tau)
    g = lam * (1 - f) / lx if x != 0 else -np.expm1(-lam * tau)
    for j in range(size):
        n, m = j + x, j
        pref = np.exp(1j * x * tau / 2) * np.exp(-lx * tau * (n + m) / 2)
        gl = 1.0 + 0j
        for l in range(size - j):
            P[j, j + l] = pref * sqrt_binomial_ratio(n, m, l) * gl
            gl *= g
    return P


def _thermal_propagator_loop(x, size, lam, nbar, tau):
    E, g = damping_coefficients(x, lam, nbar, tau)
    q = nbar / (nbar + 1)
    w = q * g * g
    E2 = E * E
    pref = np.exp(lam * tau / 2 + 1j * x * tau) * E ** (x + 1)
    P = np.zeros((size, size), dtype=complex)
    E2_pow = np.empty(size + 1, dtype=complex)
    E2_pow[0] = 1.0
    for j in range(size):
        E2_pow[j + 1] = E2_pow[j] * E2
    for j in range(size):
        n, m = j + x, j
        gl = 1.0 + 0j
        for l in range(size - j):
            s = 0j
            c = 1.0 + 0j
            for k in range(m + 1):
                s += c * E2_pow[m - k]
                c *= (-n + k) * (-m + k) * w / ((l + 1 + k) * (k + 1))
            P[j, j + l] = pref * sqrt_binomial_ratio(n, m, l) * gl * s
            gl *= g
    for j in range(size):
        for j2 in range(j):
            P[j, j2] = q ** (j - j2) * P[j2, j]
    return P


_STEP_PARAMS = dict(
    lam=st.floats(1e-3, 0.5),
    nbar=st.floats(0.0, 2.0),
    tau=st.floats(0.05, 5.0),
)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 25), **_STEP_PARAMS)
def test_families_equal_scalar_loops(dim, lam, nbar, tau):
    zero = _propagator_family(dim, lam, 0.0, tau, "zero")
    thermal = _propagator_family(dim, lam, nbar, tau, "thermal")
    assert zero.shape == thermal.shape == (dim, dim, dim)
    for x in range(dim):
        size = dim - x
        want = _zero_t_propagator_loop(x, size, lam, tau)
        assert np.max(np.abs(zero[x, :size, :size] - want)) < 1e-13
        want = _thermal_propagator_loop(x, size, lam, nbar, tau)
        assert np.max(np.abs(thermal[x, :size, :size] - want)) < 1e-13


@pytest.mark.parametrize("kind, nbar", [("zero", 0.0), ("thermal", 0.0), ("thermal", 0.4)])
@pytest.mark.parametrize("dim", [2, 7, 30])
def test_families_are_zero_padded(kind, nbar, dim):
    # block x acts on the dim - x entries rho[j + x, j]; rows and columns
    # beyond that are padding and must be exactly zero
    stack = _propagator_family(dim, 0.2, nbar, 1.3, kind)
    for x in range(dim):
        size = dim - x
        assert not np.any(stack[x, size:]) and not np.any(stack[x, :, size:])
        assert np.all(np.diagonal(stack[x])[:size] != 0)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 25), **_STEP_PARAMS)
def test_thermal_family_detailed_balance(dim, lam, nbar, tau):
    q = nbar / (nbar + 1)
    stack = _propagator_family(dim, lam, nbar, tau, "thermal")
    for x in range(dim):
        P = stack[x, :dim - x, :dim - x]
        for k in range(1, P.shape[0]):
            lower, upper = np.diagonal(P, -k), np.diagonal(P, k)
            assert np.max(np.abs(lower - q**k * upper)) <= 1e-15 * max(1.0, np.max(np.abs(lower)))


@settings(max_examples=40, deadline=None)
@given(
    support=st.integers(1, 3),
    headroom=st.integers(15, 22),
    lam=st.floats(1e-3, 0.5),
    nbar=st.floats(0.0, 0.1),
    tau=st.floats(0.05, 5.0),
    thermal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_damped_step_preserves_trace_hermiticity_positivity(
        support, headroom, lam, nbar, tau, thermal, seed):
    # a random state on the lowest `support` levels, the `headroom` levels
    # above it empty; nbar <= 0.1 keeps the thermal spill past the cutoff
    # below 1e-13 at 15 empty levels
    dim = support + headroom
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:support, :support] = _random_density(seed, support).elements
    rho = DensityMatrix(rho)
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=dim - 1, lam=lam, nbar=nbar if thermal else 0.0)
    step = analytic_damped_step_thermal if thermal else analytic_damped_step_zero_T
    out = step(rho, tau, p)
    assert abs(out.trace - rho.trace) < 1e-12
    el = out.elements
    assert np.max(np.abs(el - el.conj().T)) < 1e-15
    DensityMatrix(el)  # validates Hermiticity and positivity


def test_thermal_family_large_time_no_warning():
    # d = 81, nbar = 2, tau = 20: the E^2 powers must stay distributed over
    # the sum's terms, or its intermediates overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (0.05, 0.5):
            family = _propagator_family(81, lam, 2.0, 20.0, "thermal")
            assert np.all(np.isfinite(family))
    # populations relax: the x = 0 block is column-stochastic within the cutoff
    assert np.all(family[0].sum(axis=0).real <= 1.0 + 1e-12)


def test_cached_propagators_are_read_only():
    for kind in ("zero", "thermal"):
        family = _propagator_family(6, 0.1, 0.2 if kind == "thermal" else 0.0, 1.0, kind)
        assert family.flags.c_contiguous and not family.flags.writeable
        with pytest.raises(ValueError):
            family[1, 0, 0] = 1.0
    for arr in _family_indices(6):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["lossless", "zero", "thermal"]),
    support=st.integers(1, 3),
    cutoff=st.integers(20, 26),
    eps=st.floats(0.01, 0.2),
    kicks=st.integers(1, 5),
    tau_k=st.floats(0.1, 3.0),
    lam=st.floats(1e-3, 0.5),
    nbar=st.floats(1e-3, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_kicked_equals_chain_of_validated_steps(
        kind, support, cutoff, eps, kicks, tau_k, lam, nbar, seed):
    # the array loop must reproduce, bit for bit, the public step functions,
    # each of which validates its output
    p = NqsParams(epsilon=eps, kicks=kicks, cutoff=cutoff, tau_k=tau_k,
                  lam=0.0 if kind == "lossless" else lam,
                  nbar=nbar if kind == "thermal" else 0.0)
    initial = _random_density(seed, support)
    records = evolve_kicked(p, initial=initial)
    step = {
        "lossless": lambda s: unitary_kerr_step(s, tau_k),
        "zero": lambda s: analytic_damped_step_zero_T(s, tau_k, p),
        "thermal": lambda s: analytic_damped_step_thermal(s, tau_k, p),
    }[kind]
    padded = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    padded[:support, :support] = initial.elements
    state = DensityMatrix(padded)
    U = kick_unitary(eps, cutoff)
    want = [state]
    for _ in range(kicks):
        state = apply_kick(state, U)
        want.append(state)
        state = step(state)
        want.append(state)
    assert len(records) == len(want)
    for rec, ref in zip(records, want):
        assert np.array_equal(rec.rho, ref.elements)
        assert (rec.trace, rec.purity, rec.mean_n) == (
            ref.trace, ref.purity, ref.mean_photon_number())
        assert rec.fidelity == truncation_fidelity(ref, rec.kick_index, eps)
        DensityMatrix(rec.rho)


def test_evolve_kicked_validates_final_state(monkeypatch):
    # coherence blocks (x >= 1) scaled by 3 keep the trace, which lives on
    # x = 0, and the mirrored Hermiticity, but break positivity; no record
    # is checked on the way, so the end-of-trajectory check must catch it
    family = nqs._propagator_family

    def inflated(*args):
        stack = family(*args)
        return stack * np.where(np.arange(len(stack)) == 0, 1, 3)[:, None, None]

    monkeypatch.setattr(nqs, "_propagator_family", inflated)
    p = NqsParams(epsilon=0.1, kicks=3, cutoff=12, lam=0.05)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        evolve_kicked(p)
