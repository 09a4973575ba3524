"""Tests for the linear-scissors fidelities and their brute-force oracles."""

import cmath
import math
import re
import sys
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscissors import lqs
from qscissors.lqs import (
    LqsParams,
    env_gram_oracle,
    fidelity_closed_form,
    fidelity_ppb,
    fidelity_unsimplified,
    lqs_projection_oracle,
    normalization_closed_form,
    sweep,
    truncated_state_general_bs,
)
from qscissors.lqs import _domain


def test_params_two_of_three_resolution():
    p = LqsParams(alpha=0.5, gamma_bs=0.02, r_mag=0.7)
    assert abs(p.t - math.sqrt(1 - 0.02 - 0.49)) < 1e-12
    assert p.r == 1j * p.r_mag
    # r_mag^2 + Gamma = 1 up to the rounding of a square root: t = 0
    assert LqsParams(alpha=0.5, gamma_bs=0.3, r_mag=math.sqrt(0.7)).t < 1e-7
    with pytest.raises(TypeError):
        LqsParams(alpha=0.5, gamma_bs=0.02, r_mag=0.7, t=0.7)  # t is derived


def test_params_validation():
    for kw, field in (
        (dict(gamma_bs=0.2, r_mag=0.95), "gamma_bs"),  # r_mag^2 + Gamma > 1
        (dict(gamma_bs=0.02, r_mag=0.7, eta=0.0), "eta"),
        (dict(gamma_bs=0.02, r_mag=0.7, eta=1.2), "eta"),
        (dict(gamma_bs=0.0, r_mag=1.1), "r_mag"),
        (dict(gamma_bs=-0.1, r_mag=0.5), "gamma_bs"),
        (dict(gamma_bs=0.02, r_mag=0.7, alpha=complex(1.0, math.nan)), "alpha"),
        (dict(gamma_bs=0.02, r_mag=0.7, alpha=math.inf), "alpha"),
        (dict(gamma_bs=math.nan, r_mag=0.7), "gamma_bs"),
        (dict(gamma_bs=0.02, r_mag=math.nan), "r_mag"),
        (dict(gamma_bs=0.02, r_mag=0.7, eta=math.nan), "eta"),
    ):
        with pytest.raises(ValueError, match=field):
            LqsParams(**{"alpha": 0.5, **kw})


def test_x_commutator():
    p = LqsParams(alpha=1.0, eta=0.8, gamma_bs=0.1, r_mag=0.6)
    assert abs(p.x - (0.8 * 0.1 + 0.2)) < 1e-15


@pytest.mark.parametrize("alpha", [0.3, 1.0 * cmath.exp(2.1j), 2.5])
def test_normalization_closed_form_matches_exp_form(alpha):
    p = LqsParams(alpha=alpha, eta=0.8, gamma_bs=0.1, r_mag=0.6)
    a2 = abs(alpha) ** 2
    n2_inv = (p.eta * p.r_mag**2 * a2 * math.exp(p.x * a2)
              * (p.t**2 * (1 / a2 + 1) + p.r_mag**2 * p.x + p.gamma_bs))
    assert abs(normalization_closed_form(p) * math.sqrt(n2_inv) - 1.0) < 1e-14
    p0 = LqsParams(alpha=0.0, eta=0.8, gamma_bs=0.1, r_mag=0.6)
    want = (p0.eta * p0.r_mag**2 * p0.t**2) ** -0.5
    assert abs(normalization_closed_form(p0) / want - 1.0) < 1e-14


def test_vacuum_input_is_exact():
    p = LqsParams(alpha=0.0, eta=0.7, gamma_bs=0.05, r_mag=0.6)
    assert fidelity_closed_form(p) == 1.0
    assert fidelity_unsimplified(p) == 1.0


@pytest.mark.parametrize("alpha, eta, gamma_bs", [
    (1.0, 0.9, 0.1), (0.0, 1.0, 0.0), (2.5 * cmath.exp(0.4j), 0.3, 0.5), (0.7, 1.0, 1.0),
])
def test_fidelity_undefined_without_reflection(alpha, eta, gamma_bs):
    # r_mag = 0 sends no photon to the detectors: the herald has probability
    # zero at every alpha, eta and Gamma, so F and N are undefined and
    # LqsParams refuses the point
    with pytest.raises(ValueError, match=r"probability zero \(r_mag = 0,"):
        LqsParams(alpha=alpha, eta=eta, gamma_bs=gamma_bs, r_mag=0.0)


@pytest.mark.parametrize("eta, gamma_bs", [(1.0, 0.3), (0.6, 0.3), (0.8, 0.5), (1.0, 0.1),
                                            (0.6, 0.2)])
def test_fidelity_undefined_at_vacuum_without_transmission(eta, gamma_bs):
    # t = 0 with Gamma > 0: at alpha = 0 the herald's probability
    # eta r^2 t^2 is zero, so LqsParams refuses the point; at Gamma = 0.1
    # and 0.2 the subtraction 1 - Gamma - r_mag^2 leaves +1.1e-16, which is t = 0
    r_mag = math.sqrt(1.0 - gamma_bs)
    assert _domain(0.0, gamma_bs, r_mag, eta)[0] == 0.0
    with pytest.raises(ValueError, match=r"probability zero \(.*, t = 0, \|alpha\| = 0\)"):
        LqsParams(alpha=0.0, eta=eta, gamma_bs=gamma_bs, r_mag=r_mag)


def test_lossless_balanced_reduces_to_ppb():
    for alpha in (0.3, 0.8, 1.5):
        for eta in (0.4, 0.75, 1.0):
            p = LqsParams(alpha=alpha, eta=eta, gamma_bs=0.0, r_mag=math.sqrt(0.5))
            assert abs(fidelity_closed_form(p) - fidelity_ppb(alpha, eta)) < 1e-14


def test_ppb_perfect_detectors():
    for alpha in (0.1, 0.9, 2.0):
        assert fidelity_ppb(alpha, 1.0) == 1.0
    # finite efficiency always costs fidelity for alpha > 0
    assert fidelity_ppb(1.0, 0.5) < 1.0


@pytest.mark.parametrize("alpha", [1.2e77, 1e100, 1.3e154, 1.3e154j])
@pytest.mark.parametrize("eta", [0.05, 0.5, 0.9, 1.0])
def test_ppb_finite_where_alpha_fourth_power_overflows(alpha, eta):
    # |alpha|^4 overflows a float from |alpha| of about 1.2e77, but every
    # alpha LqsParams accepts must still give the closed form's value
    p = LqsParams(alpha=alpha, eta=eta, gamma_bs=0.0, r_mag=math.sqrt(0.5))
    f = fidelity_ppb(alpha, eta)
    assert math.isfinite(f)
    assert abs(f - fidelity_closed_form(p)) < 1e-12


def test_ppb_refuses_alpha_whose_square_overflows():
    with pytest.raises(OverflowError, match=r"overflows a float at \|alpha\| = 1e\+200"):
        fidelity_ppb(1e200, 0.9)


def test_general_bs_degenerate_splitters_raise():
    # reflectionless splitters send no amplitude to either output level
    with pytest.raises(ValueError, match="degenerate beam splitters"):
        truncated_state_general_bs(0.5, 1.0, 0.0, 1.0, 0.0)


def test_general_bs_amplitudes():
    out = truncated_state_general_bs(0.9, math.sqrt(0.6), 1j * math.sqrt(0.4),
                                     math.sqrt(0.3), 1j * math.sqrt(0.7))
    c0, c1 = out.amplitudes
    want = 0.9 * math.sqrt(0.7 * 0.6) / math.sqrt(0.4 * 0.3)
    assert abs(c1 / c0 - want) < 1e-12
    with pytest.raises(ValueError):
        truncated_state_general_bs(0.9, 0.5, 0.5, math.sqrt(0.3), math.sqrt(0.7))


def test_gram_oracle_matches_closed_forms():
    p = LqsParams(alpha=1.0, eta=0.9, gamma_bs=0.02, r_mag=math.sqrt(0.49))
    N, F = env_gram_oracle(p)
    assert abs(N - normalization_closed_form(p)) < 1e-12
    assert abs(F - fidelity_closed_form(p)) < 1e-12
    # frozen values for this parameter point
    assert abs(N - 1.3802299399611027) < 1e-12
    assert abs(F - 0.9632168043712539) < 1e-12


def _env_gram_kron(p):
    """env_gram_oracle with its bundles built as flat vectors from np.kron
    of one-hot mode vectors, the reference for its block-array build."""
    alpha = complex(p.alpha)
    a2 = abs(alpha) ** 2
    x, G = p.x, p.gamma_bs
    beta = alpha * math.sqrt(x)
    b2 = abs(beta) ** 2
    env_cutoff = max(8, math.ceil(b2))
    while lqs._poisson_tail_bound(b2, env_cutoff) > 1e-16:
        env_cutoff += 1
    v3 = lqs.coherent_amplitudes(beta, env_cutoff + 1)
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


def _gram_draws():
    """200 seeded draws over the oracle's domain, then its corners t = 0,
    Gamma = 0 and eta = 1."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        gamma = rng.uniform(0.0, 0.3)
        yield LqsParams(alpha=rng.uniform(0.0, 5.0) * cmath.exp(2j * math.pi * rng.uniform()),
                        eta=rng.uniform(0.05, 1.0), gamma_bs=gamma,
                        r_mag=math.sqrt(rng.uniform(0.05, 1.0 - gamma)))
    yield LqsParams(alpha=0.8j, eta=0.6, gamma_bs=0.3, r_mag=math.sqrt(0.7))  # t = 0
    yield LqsParams(alpha=1.2, eta=0.6, gamma_bs=0.0, r_mag=0.6)
    yield LqsParams(alpha=-0.4, eta=1.0, gamma_bs=0.1, r_mag=0.5)
    yield LqsParams(alpha=2.0, eta=0.8, gamma_bs=0.0, r_mag=1.0)  # t = 0 and Gamma = 0
    yield LqsParams(alpha=2.0, eta=1.0, gamma_bs=0.0, r_mag=0.5)  # Gamma = 0 and eta = 1
    yield LqsParams(alpha=0.0, eta=0.7, gamma_bs=0.2, r_mag=0.5)


def test_gram_oracle_equals_kron_reference_bit_for_bit():
    for p in _gram_draws():
        got = env_gram_oracle(p)
        want = _env_gram_kron(p)
        assert [v.hex() for v in got] == [v.hex() for v in want], p
    # t = 0 with a subnormal |alpha|: both refuse the underflowed Gram norm
    p = LqsParams(alpha=1e-170, eta=0.5, gamma_bs=0.0, r_mag=1.0)
    for route in (env_gram_oracle, _env_gram_kron):
        with pytest.raises(FloatingPointError, match="Gram norm 0.000e\\+00"):
            route(p)


def test_gram_oracle_large_amplitude_cutoff_search():
    # x|alpha|^2 = 65: the search must start past the Poisson peak and
    # bound the tail without subtracting from e^65
    p = LqsParams(alpha=10.0, eta=0.5, gamma_bs=0.3, r_mag=0.5)
    N, F = env_gram_oracle(p)
    assert abs(N / normalization_closed_form(p) - 1.0) < 1e-10
    assert abs(F - fidelity_closed_form(p)) < 1e-10


@pytest.mark.parametrize("alpha", [18.0, 18.0 * cmath.exp(0.7j), 40.0])
def test_gram_oracle_past_float_range_of_exponential(alpha):
    # x|alpha|^2 = 210.6 and 1040; e^{x|alpha|^2} overflows a float at the
    # second, where the closed-form N needs its log-space evaluation
    p = LqsParams(alpha=alpha, eta=0.5, gamma_bs=0.3, r_mag=0.5)
    N, F = env_gram_oracle(p)
    assert abs(N / normalization_closed_form(p) - 1.0) < 1e-10
    assert abs(F - fidelity_closed_form(p)) < 1e-10


def test_gram_oracle_refuses_subnormal_normalization():
    # x|alpha|^2 = 1625: N = e^{-812}/... is not a normal float
    p = LqsParams(alpha=50.0, eta=0.5, gamma_bs=0.3, r_mag=0.5)
    with pytest.raises(FloatingPointError, match="N = .* normal float range"):
        env_gram_oracle(p)
    # t = 0: the bundles' squared norm is eta r^4 x |alpha|^2 = 2.5e-341,
    # which underflows to 0, while the closed-form N is finite
    p = LqsParams(alpha=1e-170, eta=0.5, gamma_bs=0.0, r_mag=1.0)
    with pytest.raises(FloatingPointError, match="Gram norm 0.000e\\+00 is below the normal"):
        env_gram_oracle(p)
    assert math.isfinite(normalization_closed_form(p))


def test_projection_oracle_lossless_matches_two_level_form():
    t, r = math.sqrt(0.5), 1j * math.sqrt(0.5)
    for alpha in (0.2, 0.7, 1.0):
        out, prob = lqs_projection_oracle(alpha, t, r, cutoff=12)
        ideal = truncated_state_general_bs(alpha, t, r, t, r)
        ov = abs(np.vdot(ideal.amplitudes, out.amplitudes))
        assert 1.0 - ov < 1e-10
        assert 0.0 < prob < 1.0


def test_projection_oracle_distinct_pair():
    t1, r1 = math.sqrt(0.6), 1j * math.sqrt(0.4)
    t2, r2 = math.sqrt(0.3), 1j * math.sqrt(0.7)
    out, _ = lqs_projection_oracle(0.9, t1, r1, cutoff=12, t2=t2, r2=r2)
    ideal = truncated_state_general_bs(0.9, t1, r1, t2, r2)
    assert 1.0 - abs(np.vdot(ideal.amplitudes, out.amplitudes)) < 1e-10


def test_projection_oracle_two_level_output_and_probability():
    # photon-number conservation pins the kept output to {|0>, |1>} exactly;
    # the success probability has the closed form e^{-|a|^2} r^2 t^2 (1+|a|^2)
    alpha, t2 = 0.8, 0.5
    out, p = lqs_projection_oracle(alpha, math.sqrt(t2), 1j * math.sqrt(1 - t2),
                                   cutoff=12)
    assert out.dim == 2
    want = math.exp(-alpha**2) * (1 - t2) * t2 * (1 + alpha**2)
    assert abs(p - want) < 1e-12


def test_projection_oracle_zero_probability_herald_raises():
    # t = 0: the photon is reflected into the middle mode and the second
    # splitter swaps it into the last, so <1|, <0| never click
    with pytest.raises(ValueError, match="zero-probability outcome"):
        lqs_projection_oracle(0.5, 0.0, 1j, 10)


def test_general_bs_identical_pair_is_truncated_coherent():
    t, r = math.sqrt(0.35), 1j * math.sqrt(0.65)
    for alpha in (0.4, 1.3, 0.5 - 0.8j):
        out = truncated_state_general_bs(alpha, t, r, t, r)
        ideal = np.array([1.0, alpha]) / np.sqrt(1 + abs(alpha) ** 2)  # (|0> + alpha|1>)/N
        assert 1.0 - abs(np.vdot(ideal, out.amplitudes)) < 1e-14


def test_general_bs_reflectionless_first_splitter():
    # r1 = 0 removes the vacuum amplitude (it carries the factor |r1 t2|),
    # leaving the pure one-photon output; cross-checked against the full
    # three-mode simulation
    out = truncated_state_general_bs(0.7, 1.0, 0.0, math.sqrt(0.6), 1j * math.sqrt(0.4))
    assert abs(out.amplitudes[0]) < 1e-15
    assert abs(abs(out.amplitudes[1]) - 1.0) < 1e-15
    sim, _ = lqs_projection_oracle(0.7, 1.0, 0.0, cutoff=12,
                                   t2=math.sqrt(0.6), r2=1j * math.sqrt(0.4))
    assert 1.0 - abs(np.vdot(out.amplitudes, sim.amplitudes)) < 1e-10


def test_unsimplified_small_alpha_limit():
    p = LqsParams(alpha=1e-4, eta=0.7, gamma_bs=0.05, r_mag=0.6)
    assert abs(fidelity_unsimplified(p) - 1.0) < 1e-9


@pytest.mark.parametrize("alpha", [5.33e-155, 1e-160, 1.5e-154, 1e-150, 1e-170])
def test_unsimplified_tiny_alpha_without_transmission(monkeypatch, alpha):
    # t = 0: N^-2 = eta r^2 e^{x|alpha|^2} x |alpha|^2, so N^2 overflows a
    # float at the first two points, and |alpha|^2 underflows to 0 at the
    # last; the unsimplified route must still give F = 1 without the
    # closed form
    p = LqsParams(alpha=alpha, eta=0.5, gamma_bs=0.0, r_mag=1.0)
    assert p.t == 0.0
    assert fidelity_closed_form(p) == 1.0
    monkeypatch.setattr(lqs, "_closed_form", None)
    assert abs(fidelity_unsimplified(p) - 1.0) < 1e-15


def test_unsimplified_exponential_overflow_names_alpha():
    # x|alpha|^2 = 800: the overlap's e^{x|alpha|^2} is past the float range
    p = LqsParams(alpha=40.0, eta=0.5, gamma_bs=0.0, r_mag=1.0)
    with pytest.raises(FloatingPointError, match=r"\|alpha\|\^2 = 1600, x = 0.5"):
        fidelity_unsimplified(p)


def _decimal_reference(p):
    """(P, N, F) of `p` in 50-digit decimal arithmetic, from its float inputs.

    P is eta r^2 times the bracket of N^-2, the herald's probability up to
    a positive exponential; N and F are None where P is 0.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a2 = Decimal(abs(p.alpha)) ** 2
        eta, r2, t2 = Decimal(p.eta), Decimal(p.r_mag) ** 2, Decimal(p.t) ** 2
        gamma = Decimal(p.gamma_bs)
        x = eta * gamma + 1 - eta
        bracket = t2 * (1 + a2) + a2 * (r2 * x + gamma)
        prob = eta * r2 * bracket
        if prob == 0:
            return prob, None, None
        n = (-x * a2 / 2).exp() / prob.sqrt()
        f = (t2 * (1 + a2) + a2 * (r2 * x + gamma) / (1 + a2)) / bracket
        return prob, n, f


def _rel_dev(got, want):
    return float(abs(Decimal(got) - want) / want)


@pytest.mark.parametrize("alpha, eta, r_mag", [
    (1.0, 1e-158, math.sqrt(1e-158)),
    (1.0, 1e-161, math.sqrt(1e-161)),
    (1.0, 1e-200, 1e-100),
    (100.0, 1.0, 1e-310),
    (1e-160, 0.5, 1.0),
    (1e-170, 0.5, 1.0),
])
def test_herald_of_tiny_eta_and_reflection_matches_decimal(alpha, eta, r_mag):
    # eta r^2, or |alpha|^2 at t = 0, is subnormal or below the float range,
    # while the herald's probability is not zero: N and both fidelity routes
    # keep their digits
    p = LqsParams(alpha=alpha, eta=eta, gamma_bs=0.0, r_mag=r_mag)
    _, n, f = _decimal_reference(p)
    assert _rel_dev(normalization_closed_form(p), n) < 1e-14
    assert _rel_dev(fidelity_unsimplified(p), f) < 1e-14
    assert _rel_dev(fidelity_closed_form(p), f) < 1e-14


def test_normalization_in_log_space_matches_decimal():
    # e^{-x|alpha|^2/2} is subnormal but N is a normal float, formed in log
    # space, where it keeps about |ln N| ulps; the unsimplified fidelity's
    # e^{x|alpha|^2} overflows there, which it reports
    p = LqsParams(alpha=38.0, eta=1e-30, gamma_bs=0.0, r_mag=0.5)
    _, n, _ = _decimal_reference(p)
    got = normalization_closed_form(p)
    assert got >= sys.float_info.min
    assert _rel_dev(got, n) < 1e-12
    with pytest.raises(FloatingPointError, match=r"e\^\(x\|alpha\|\^2\) overflows"):
        fidelity_unsimplified(p)


def test_normalization_overflow_raises():
    # N is about 1e450: no float holds it, though F is defined
    p = LqsParams(alpha=1.0, eta=1e-300, gamma_bs=0.0, r_mag=1e-300)
    for f in (normalization_closed_form, fidelity_unsimplified):
        with pytest.raises(FloatingPointError, match="N overflows a float at eta = 1e-300"):
            f(p)
    assert fidelity_closed_form(p) == 1.0


def test_gram_oracle_noiseless_normalization():
    p = LqsParams(alpha=0.9, eta=1.0, gamma_bs=0.0, r_mag=math.sqrt(0.45))
    N, F = env_gram_oracle(p)
    a2 = abs(p.alpha) ** 2
    want_n2 = 1.0 / (p.eta * p.r_mag**2 * p.t**2 * (1 + a2))
    assert abs(N**2 - want_n2) < 1e-12 * want_n2
    assert abs(F - 1.0) < 1e-12


def test_closed_form_monotone_in_bs_loss():
    # more beam-splitter loss never helps: sweep Gamma upward holding eta,
    # |alpha| and the r^2/t^2 split ratio fixed
    for ratio in (0.25, 1.0, 4.0):
        for eta in (0.3, 0.8, 1.0):
            for amag in (0.4, 1.0, 2.0):
                prev = None
                for G in np.linspace(0.0, 0.5, 26):
                    r2 = (1 - G) * ratio / (1 + ratio)
                    p = LqsParams(alpha=amag, gamma_bs=G, r_mag=math.sqrt(r2), eta=eta)
                    f = fidelity_closed_form(p)
                    assert 0.0 <= f <= 1.0
                    if prev is not None:
                        assert f <= prev + 1e-15
                    prev = f


@pytest.mark.parametrize("alpha", [5.332605467414258e-155, 1e-160, 1.5e-154, 1e-170])
def test_closed_form_is_one_below_the_normal_float_range_at_t_zero(alpha):
    # |alpha|^2 subnormal, just normal or underflowing to 0 with t = 0:
    # 1/|alpha|^2 must not overflow into 0 * inf
    assert fidelity_closed_form(LqsParams(alpha=alpha, eta=0.5, gamma_bs=0.0, r_mag=1.0)) == 1.0


@st.composite
def _lqs_points(draw):
    """(alpha, eta, Gamma, r^2) inside the domain: alpha may be 0 or
    negative, and some points are the lossless 50/50 splitter."""
    alpha = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
    eta = draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):
        return alpha, eta, 0.0, 0.5
    gamma_bs = draw(st.floats(0.0, 0.9))
    r_sq = draw(st.floats(1e-6, 1.0)) * (1.0 - gamma_bs)
    return alpha, eta, gamma_bs, r_sq


@settings(max_examples=200, deadline=None)
@given(points=st.lists(_lqs_points(), min_size=1, max_size=20))
@example(points=[(5.332605467414258e-155, 0.5, 0.0, 1.0)])  # subnormal |alpha|^2 at t = 0
@example(points=[(a, e, 0.0, 0.5) for a, e in ((0.0, 0.3), (-1.5, 1.0), (4.0, 0.7))])
def test_array_closed_forms_equal_scalar_bit_for_bit(points):
    # sweep's columns must be the one-point results exactly, a point
    # LqsParams refuses (its herald has probability zero) must make sweep
    # raise the same message, and a scalar Gamma and r^2 must broadcast
    # against the other axes as the arrays of their values do
    alpha, eta, gamma_bs, r_sq = map(np.array, zip(*points))
    rows = []
    for a, e, g, r2 in zip(alpha.tolist(), eta.tolist(), gamma_bs.tolist(), r_sq.tolist()):
        try:
            p = LqsParams(alpha=a, eta=e, gamma_bs=g, r_mag=math.sqrt(r2))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                sweep(alpha, eta, gamma_bs, r_sq)
            return
        f_ppb = fidelity_ppb(a, e) if g == 0 and abs(r2 - 0.5) < 1e-12 else None
        rows.append([abs(a), e, g, r2, fidelity_closed_form(p), f_ppb])
    columns = sweep(alpha, eta, gamma_bs, r_sq)
    assert list(columns) == ["alpha_abs", "eta", "gamma_bs", "r_sq", "F_closed", "F_ppb"]
    assert [c.tolist() for c in columns.values()] == [list(c) for c in zip(*rows)]
    if len({*gamma_bs.tolist()}) == len({*r_sq.tolist()}) == 1:
        broadcast = sweep(alpha, eta, gamma_bs[0].item(), r_sq[0].item())
        assert [c.tolist() for c in broadcast.values()] == [c.tolist() for c in columns.values()]


def test_sweep_keeps_the_broadcast_shape():
    # a (3, 4) grid gives (3, 4) columns equal, point by point, to the
    # flattened grid's; a refused point is the first in C order, point
    # (0, 2) here and not (2, 0); four scalars give 0-d columns
    def flat(*inputs):
        return sweep(*(np.broadcast_to(v, (3, 4)).ravel() for v in inputs))

    inputs = (np.array([[-1.5], [0.0], [2.0]]), np.array([0.3, 0.6, 0.9, 1.0]),
              np.array([0.0, 0.0, 0.1, 0.0]), 0.5)
    grid, reference = sweep(*inputs), flat(*inputs)
    assert list(grid) == list(reference)
    for name, column in grid.items():
        assert column.shape == (3, 4)
        assert column.tolist() == reference[name].reshape(3, 4).tolist()
    grid["eta"][0, 0] = 0.0  # a broadcast input comes back as a copy
    assert grid["eta"][1, 0] == 0.3 and inputs[1][0] == 0.3
    refused = (inputs[0], 0.9, np.array([0.0, 0.0, 0.6, 0.0]), np.array([[0.5], [0.5], [1.5]]))
    for call in (flat, sweep):
        with pytest.raises(ValueError, match=r"^r_mag\^2 \+ Gamma \(gamma_bs\) = 1.1 exceeds 1$"):
            call(*refused)
    point = sweep(1.0, 0.9, 0.0, 0.5)
    assert [np.shape(c) for c in point.values()] == [()] * 6
    assert point["F_ppb"].item() == fidelity_ppb(1.0, 0.9)


def _tiny(hi):
    """Positive floats up to `hi`, subnormals included."""
    return st.floats(5e-324, hi, allow_subnormal=True)


@st.composite
def _herald_edge_points(draw):
    """(alpha, eta, Gamma, r_mag) inside the domain, drawn at the herald's
    edges: alpha 0, subnormal or with a square below the float range;
    t = 0 (r^2 = 1 - Gamma); Gamma = 0 with eta = 1; tiny r_mag."""
    alpha = draw(st.one_of(st.just(0.0), _tiny(2.2e-308), st.floats(1e-200, 1e-150),
                           st.floats(1e-3, 5.0)))
    alpha *= draw(st.sampled_from([1.0, -1.0, 1j, cmath.exp(0.7j)]))
    eta = draw(st.one_of(st.just(1.0), _tiny(1.0)))
    gamma_bs = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    top = math.sqrt(1.0 - gamma_bs)
    r_mag = draw(st.one_of(st.just(0.0), st.just(top), _tiny(1e-150).map(lambda r: min(r, top)),
                           st.floats(0.0, 1.0).map(lambda u: u * top)))
    return alpha, eta, gamma_bs, r_mag


@settings(max_examples=300, deadline=None)
@given(point=_herald_edge_points())
@example(point=(1e-170, 1.0, 0.3, math.sqrt(0.7)))  # |alpha|^2 underflows at t = 0
@example(point=(0.5, 1.0, 0.0, 1.0))  # t = 0 with lossless splitters and ideal detectors
def test_params_accept_exactly_the_heralded_points(point):
    # LqsParams accepts a point exactly where the herald's probability is
    # positive in exact arithmetic; there the closed form lies in [0, 1], and
    # N, the unsimplified F and the Gram oracle are finite or refuse with a
    # FloatingPointError, never nan, a ZeroDivisionError or the herald error
    alpha, eta, gamma_bs, r_mag = point
    t = float(_domain(alpha, gamma_bs, r_mag, eta)[0])
    prob, _, _ = _decimal_reference(SimpleNamespace(alpha=alpha, eta=eta, gamma_bs=gamma_bs,
                                                    r_mag=r_mag, t=t))
    try:
        p = LqsParams(alpha=alpha, eta=eta, gamma_bs=gamma_bs, r_mag=r_mag)
    except ValueError as exc:
        assert prob == 0
        assert str(exc).startswith("F is undefined: the heralding event has probability zero")
        return
    assert prob > 0
    assert 0.0 <= fidelity_closed_form(p) <= 1.0
    for route in (normalization_closed_form, fidelity_unsimplified, env_gram_oracle):
        try:
            values = route(p)
        except FloatingPointError:
            continue
        assert np.all(np.isfinite(values))
