"""Tests for the linear-scissors fidelities and their brute-force oracles."""

import cmath
import math

import numpy as np
import pytest

from qscissors.fock import CutoffError, truncated_coherent_state
from qscissors.lqs import (
    LqsParams,
    env_gram_oracle,
    fidelity_closed_form,
    fidelity_ppb,
    fidelity_unsimplified,
    lqs_projection_oracle,
    normalization_closed_form,
    truncated_state_general_bs,
)


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
    # zero at every alpha, eta and Gamma, and F is as undefined as N
    p = LqsParams(alpha=alpha, eta=eta, gamma_bs=gamma_bs, r_mag=0.0)
    with pytest.raises(ValueError, match="r_mag = 0"):
        fidelity_closed_form(p)
    with pytest.raises(ValueError, match="probability zero"):
        normalization_closed_form(p)


@pytest.mark.parametrize("eta, gamma_bs", [(1.0, 0.3), (0.6, 0.3), (0.8, 0.5)])
def test_fidelity_undefined_at_vacuum_without_transmission(eta, gamma_bs):
    # t = 0 with Gamma > 0: at alpha = 0 the herald's probability
    # eta r^2 t^2 is zero, so F raises wherever N does
    p = LqsParams(alpha=0.0, eta=eta, gamma_bs=gamma_bs, r_mag=math.sqrt(1.0 - gamma_bs))
    assert p.t == 0.0
    for f in (fidelity_closed_form, fidelity_unsimplified, normalization_closed_form):
        with pytest.raises(ValueError, match="probability zero"):
            f(p)


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


def test_gram_oracle_large_amplitude_cutoff_search():
    # x|alpha|^2 = 65: the search must start past the Poisson peak and
    # bound the tail without subtracting from e^65
    p = LqsParams(alpha=10.0, eta=0.5, gamma_bs=0.3, r_mag=0.5)
    N, F = env_gram_oracle(p)
    assert abs(N / normalization_closed_form(p) - 1.0) < 1e-10
    assert abs(F - fidelity_closed_form(p)) < 1e-10
    # a cutoff below the peak is refused
    with pytest.raises(CutoffError):
        env_gram_oracle(p, env_cutoff=60)


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
    with pytest.raises(FloatingPointError, match="normal float range"):
        env_gram_oracle(p)


def test_gram_oracle_fixed_cutoff():
    p = LqsParams(alpha=0.6, eta=0.8, gamma_bs=0.1, r_mag=0.6)
    _, F_auto = env_gram_oracle(p)
    _, F_fixed = env_gram_oracle(p, env_cutoff=30)
    assert abs(F_auto - F_fixed) < 1e-12


def test_projection_oracle_lossless_matches_two_level_form():
    t, r = math.sqrt(0.5), 1j * math.sqrt(0.5)
    for alpha in (0.2, 0.7, 1.0):
        out, prob = lqs_projection_oracle(alpha, t, r, cutoff=12)
        ideal = truncated_state_general_bs(alpha, t, r, t, r)
        ov = abs(ideal.overlap(out.normalized()))
        assert 1.0 - ov < 1e-10
        assert 0.0 < prob < 1.0


def test_projection_oracle_distinct_pair():
    t1, r1 = math.sqrt(0.6), 1j * math.sqrt(0.4)
    t2, r2 = math.sqrt(0.3), 1j * math.sqrt(0.7)
    out, _ = lqs_projection_oracle(0.9, t1, r1, cutoff=12, t2=t2, r2=r2)
    ideal = truncated_state_general_bs(0.9, t1, r1, t2, r2)
    assert 1.0 - abs(ideal.overlap(out.normalized())) < 1e-10


def test_projection_oracle_two_level_output_and_probability():
    # photon-number conservation pins the kept output to {|0>, |1>} exactly;
    # the success probability has the closed form e^{-|a|^2} r^2 t^2 (1+|a|^2)
    alpha, t2 = 0.8, 0.5
    out, p = lqs_projection_oracle(alpha, math.sqrt(t2), 1j * math.sqrt(1 - t2),
                                   cutoff=12)
    assert out.dim == 2
    want = math.exp(-alpha**2) * (1 - t2) * t2 * (1 + alpha**2)
    assert abs(p - want) < 1e-12


def test_general_bs_identical_pair_is_truncated_coherent():
    t, r = math.sqrt(0.35), 1j * math.sqrt(0.65)
    for alpha in (0.4, 1.3, 0.5 - 0.8j):
        out = truncated_state_general_bs(alpha, t, r, t, r)
        ideal = truncated_coherent_state(alpha)
        assert 1.0 - abs(ideal.overlap(out)) < 1e-14


def test_general_bs_reflectionless_first_splitter():
    # r1 = 0 removes the vacuum amplitude (it carries the factor |r1 t2|),
    # leaving the pure one-photon output; cross-checked against the full
    # three-mode simulation
    out = truncated_state_general_bs(0.7, 1.0, 0.0, math.sqrt(0.6), 1j * math.sqrt(0.4))
    assert abs(out.amplitudes[0]) < 1e-15
    assert abs(abs(out.amplitudes[1]) - 1.0) < 1e-15
    sim, _ = lqs_projection_oracle(0.7, 1.0, 0.0, cutoff=12,
                                   t2=math.sqrt(0.6), r2=1j * math.sqrt(0.4))
    assert 1.0 - abs(out.overlap(sim.normalized())) < 1e-10


def test_unsimplified_small_alpha_limit():
    p = LqsParams(alpha=1e-4, eta=0.7, gamma_bs=0.05, r_mag=0.6)
    assert abs(fidelity_unsimplified(p) - 1.0) < 1e-9


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
