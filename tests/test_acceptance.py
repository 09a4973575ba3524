"""Acceptance gate: end-to-end criteria with stated tolerances and budgets.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible under pytest -s; the -v test names carry the same numbering).
Deviations are measured against independent routes: closed forms against
brute-force oracles, exact propagators against RK4 integration, frozen
reference values against fresh runs.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

from qscissors.cli import main as cli_main
from qscissors.fock import DensityMatrix, annihilation_matrix, coherent_state
from qscissors.lindblad import IntegratorConfig, integrate
from qscissors.lqs import (
    LqsParams,
    env_gram_oracle,
    fidelity_closed_form,
    fidelity_ppb,
    fidelity_unsimplified,
    lqs_projection_oracle,
    truncated_state_general_bs,
)
from qscissors.nqs import (
    NqsParams,
    analytic_damped_step_thermal,
    analytic_damped_step_zero_T,
    evolve_kicked,
    kick_unitary,
    unitary_kerr_step,
)
from qscissors.verify import run_suites

# fidelity trajectory of the reference kicked run (criterion 8):
# lambda = 0.01, nbar = 0, epsilon = 0.1, tau_k = 1, 20 kicks, cutoff 20
FROZEN_TRAJECTORY = [
    (0, 0.0, 1.0),
    (1, 0.0, 0.9999502223009454),
    (1, 1.0, 0.9999503234485129),
    (2, 1.0, 0.9993496231165984),
    (2, 2.0, 0.9993483686370976),
    (3, 2.0, 0.9975566780267722),
    (3, 3.0, 0.9975244809018213),
    (4, 3.0, 0.9948813101952427),
    (4, 4.0, 0.9947127123708631),
    (5, 4.0, 0.9925094047878277),
    (5, 5.0, 0.9920229665208404),
    (6, 5.0, 0.9910546392256407),
    (6, 6.0, 0.9900621558890621),
    (7, 6.0, 0.9894192732600904),
    (7, 7.0, 0.9877878824722475),
    (8, 7.0, 0.9855123252734482),
    (8, 8.0, 0.9831378213515487),
    (9, 8.0, 0.9783582360789134),
    (9, 9.0, 0.975092835910171),
    (10, 9.0, 0.969323321567676),
    (10, 10.0, 0.9649724481789195),
    (11, 10.0, 0.9609667227184449),
    (11, 11.0, 0.9553933053311428),
    (12, 11.0, 0.9544710060177358),
    (12, 12.0, 0.9477078031252436),
    (13, 12.0, 0.9483907755643809),
    (13, 13.0, 0.9406513724632076),
    (14, 13.0, 0.9401307031470394),
    (14, 14.0, 0.9317310005137709),
    (15, 14.0, 0.928810645011557),
    (15, 15.0, 0.9200928418217271),
    (16, 15.0, 0.9164896318949742),
    (16, 16.0, 0.9077982329461248),
    (17, 16.0, 0.9064755293710391),
    (17, 17.0, 0.8981419862226857),
    (18, 17.0, 0.9003420960687369),
    (18, 18.0, 0.8926472428324572),
    (19, 18.0, 0.8967343513424408),
    (19, 19.0, 0.8898802820833521),
    (20, 19.0, 0.8930302266624004),
    (20, 20.0, 0.8871643882771928),
]


def _report(num, label, dev, tol, extra=""):
    ok = dev < tol
    line = (f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}: "
            f"max deviation {dev:.3e} (tolerance {tol:.0e}){extra}")
    print(line)
    assert ok, line


def _draw_params(rng):
    g = rng.uniform(0.0, 0.3)
    return LqsParams(
        alpha=rng.uniform(1e-3, 3.0) * np.exp(2j * np.pi * rng.uniform()),
        eta=rng.uniform(1e-3, 1.0),
        gamma_bs=g,
        r_mag=math.sqrt(rng.uniform(1e-6, 1.0 - g)),
    )


def test_criterion_1_fidelity_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    dev = 0.0
    for _ in range(1000):
        p = _draw_params(rng)
        dev = max(dev, abs(fidelity_closed_form(p) - fidelity_unsimplified(p)))
    elapsed = time.monotonic() - t0
    _report(1, "closed vs unsimplified fidelity, 1000 draws", dev, 1e-12,
            f", {elapsed:.2f} s")
    assert elapsed < 1.0


def test_criterion_2_ppb_reduction():
    dev = 0.0
    for alpha in np.linspace(0.05, 2.0, 21):
        for eta in np.linspace(0.05, 1.0, 11):
            p = LqsParams(alpha=alpha, eta=eta, gamma_bs=0.0, r_mag=math.sqrt(0.5))
            dev = max(dev, abs(fidelity_closed_form(p) - fidelity_ppb(alpha, eta)))
        p1 = LqsParams(alpha=alpha, eta=1.0, gamma_bs=0.0, r_mag=math.sqrt(0.5))
        dev = max(dev, abs(fidelity_closed_form(p1) - 1.0))
    _report(2, "lossless balanced scissors vs projection-synthesis form, 21x11 grid",
            dev, 1e-12)


def test_criterion_3_gram_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    dev = 0.0
    for _ in range(100):
        p = _draw_params(rng)
        N, F = env_gram_oracle(p)
        a2 = abs(p.alpha) ** 2
        n2_inv = (p.eta * p.r_mag**2 * a2 * math.exp(p.x * a2)
                  * (p.t**2 * (1 / a2 + 1) + p.r_mag**2 * p.x + p.gamma_bs))
        dev = max(dev, abs(N - 1 / math.sqrt(n2_inv)))
        dev = max(dev, abs(F - fidelity_closed_form(p)))
    elapsed = time.monotonic() - t0
    _report(3, "environment-mode Gram oracle vs closed N and F, 100 draws",
            dev, 1e-10, f", {elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_4_projection_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    dev = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for _ in range(10):
            t2 = rng.uniform(0.2, 0.8)
            t, r = math.sqrt(t2), 1j * math.sqrt(1 - t2)
            out, _ = lqs_projection_oracle(alpha, t, r, cutoff=15)
            ideal = truncated_state_general_bs(alpha, t, r, t, r)
            dev = max(dev, 1.0 - abs(ideal.overlap(out.normalized())))
    ta, tb = math.sqrt(0.6), math.sqrt(0.3)
    out, _ = lqs_projection_oracle(0.9, ta, 1j * math.sqrt(0.4), cutoff=15,
                                   t2=tb, r2=1j * math.sqrt(0.7))
    ideal = truncated_state_general_bs(0.9, ta, 1j * math.sqrt(0.4), tb,
                                       1j * math.sqrt(0.7))
    dev = max(dev, 1.0 - abs(ideal.overlap(out.normalized())))
    elapsed = time.monotonic() - t0
    _report(4, "full Fock-space projection oracle vs two-level output, cutoff 15",
            dev, 1e-10, f", {elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_5_analytic_limit_chain():
    rng = np.random.default_rng(105)
    A = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = DensityMatrix((A @ A.conj().T) / np.trace(A @ A.conj().T).real)
    p = NqsParams(epsilon=0.1, kicks=1, cutoff=15, lam=0.2, nbar=0.0)
    a = analytic_damped_step_thermal(rho, 1.3, p)
    b = analytic_damped_step_zero_T(rho, 1.3, p)
    dev_thermal = float(np.max(np.abs(a.elements - b.elements)))
    _report(5, "thermal propagator at nbar=0 vs zero-temperature form",
            dev_thermal, 1e-12)
    p2 = NqsParams(epsilon=0.1, kicks=1, cutoff=15, lam=1e-12)
    c = analytic_damped_step_zero_T(rho, 0.7, p2)
    d = unitary_kerr_step(rho, 0.7)
    dev_unitary = float(np.max(np.abs(c.elements - d.elements)))
    _report(5, "zero-temperature propagator at lambda->0 vs unitary Kerr",
            dev_unitary, 1e-8)


def test_criterion_6_analytic_vs_rk4():
    t0 = time.monotonic()
    coh, _ = coherent_state(0.6, 20)
    rho0 = coh.density_matrix()
    dev_zero = 0.0
    for lam in (0.01, 0.05, 0.1):
        p = NqsParams(epsilon=0.1, kicks=1, cutoff=20, lam=lam)
        want = analytic_damped_step_zero_T(rho0, 2.0, p).elements
        got = integrate(rho0, 2.0, p).elements
        dev_zero = max(dev_zero, float(np.max(np.abs(got - want))))
    _report(6, "zero-T exact step vs RK4, coherent(0.6), tau=2", dev_zero, 1e-6)
    coh, _ = coherent_state(0.8, 25)
    rho0 = coh.density_matrix()
    dev_th = 0.0
    for nbar in (0.1, 0.3):
        p = NqsParams(epsilon=0.1, kicks=1, cutoff=25, lam=0.1, nbar=nbar)
        want = analytic_damped_step_thermal(rho0, 1.0, p).elements
        got = integrate(rho0, 1.0, p, IntegratorConfig(dt=5e-4)).elements
        dev_th = max(dev_th, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - t0
    _report(6, "thermal exact step vs RK4, coherent(0.8), tau=1", dev_th, 1e-5,
            f", {elapsed:.1f} s")
    assert elapsed < 30.0


def test_criterion_7_kick_matrix():
    a = annihilation_matrix(30)
    dev = 0.0
    for eps in (0.05, 0.1, 0.5):
        want = expm(-1j * eps * (a + a.conj().T))
        got = kick_unitary(eps, 30)
        dev = max(dev, float(np.max(np.abs(got[:21, :21] - want[:21, :21]))))
    _report(7, "closed-form kick matrix vs expm displacement, interior block",
            dev, 1e-10)
    eps = 0.1
    recs = evolve_kicked(NqsParams(epsilon=eps, kicks=1, cutoff=20))
    want_f = math.exp(-eps**2) * (math.cos(eps) + eps * math.sin(eps)) ** 2
    dev_f = abs(recs[1].fidelity - want_f)
    _report(7, "single kick on vacuum vs closed-form fidelity", dev_f, 1e-12)


def test_criterion_8_reference_trajectory():
    p = NqsParams(epsilon=0.1, kicks=20, cutoff=20, lam=0.01, tau_k=1.0)
    recs = evolve_kicked(p)
    assert len(recs) == len(FROZEN_TRAJECTORY)
    # independent composition: expm kick + RK4 segments
    d = p.cutoff + 1
    a = annihilation_matrix(p.cutoff)
    U = expm(-1j * p.epsilon * (a + a.conj().T))
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    dev_el = float(np.max(np.abs(recs[0].rho.elements - rho)))
    for k in range(1, p.kicks + 1):
        rho = U @ rho @ U.conj().T
        dev_el = max(dev_el, float(np.max(np.abs(recs[2 * k - 1].rho.elements - rho))))
        rho = integrate(rho, p.tau_k, p).elements
        dev_el = max(dev_el, float(np.max(np.abs(recs[2 * k].rho.elements - rho))))
    _report(8, "kicked run vs composed expm-kick + RK4 at all 41 records",
            dev_el, 1e-6)
    dev_f = 0.0
    for rec, (k, tau, f) in zip(recs, FROZEN_TRAJECTORY):
        assert rec.kick_index == k
        assert abs(rec.tau - tau) < 1e-12
        dev_f = max(dev_f, abs(rec.fidelity - f))
    _report(8, "kicked-run fidelities vs frozen reference trajectory", dev_f, 1e-12)


def test_criterion_9_verification_suites(capsys):
    t0 = time.monotonic()
    results = run_suites()
    dev = max(r.max_dev / r.tolerance for r in results)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    rc = cli_main(["verify"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()  # swallow the CLI's own report
    _report(9, f"all {len(results)} invariant suites + CLI verify (exit {rc}), "
            "worst deviation/tolerance ratio", dev, 1.0, f", {elapsed:.1f} s")
    assert rc == 0
    assert elapsed < 60.0
