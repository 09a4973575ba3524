"""Oracle-equivalence suites: the one implementation of each oracle check.

Each suite pits a closed-form expression against an independent route to
the same number (brute-force simulation, matrix exponential, RK4) and
reports the worst deviation.  Every suite takes the seed of its random
draws (suites without draws ignore it).  The command line's ``verify``
subcommand runs the suites of ``SUITES``, and acceptance criteria 1-7 and 9
(``tests/test_acceptance.py``) read the rows of one ``qscissors verify``
run rather than repeating the checks.
"""

from dataclasses import dataclass

import numpy as np

from . import fock, lindblad, lqs, nqs


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_dev: float
    tolerance: float
    detail: str


def _result(name, checks, detail):
    """A suite's row from its sub-checks, a list of (deviations, tolerance).

    The row reports the sub-check with the largest deviation/tolerance
    ratio, so that passed == (max_dev < tolerance) holds; a nan deviation
    fails.
    """
    worst = []
    for devs, tol in checks:
        dev = float(np.max(devs))
        worst.append((np.inf if np.isnan(dev) else dev / tol, dev, tol))
    _, dev, tol = max(worst)
    return SuiteResult(name, dev < tol, dev, tol, detail)


def _random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return fock.DensityMatrix(rho / fock._trace(rho))


def _random_lqs_params(rng):
    """Complex alpha, |alpha| ~ U(1e-3, 3) with uniform phase; lossy BSs and detectors."""
    alpha = rng.uniform(1e-3, 3.0) * np.exp(2j * np.pi * rng.uniform())
    eta = rng.uniform(1e-3, 1.0)
    gamma_bs = rng.uniform(0.0, 0.3)
    r_sq = rng.uniform(1e-6, 1.0 - gamma_bs)
    return lqs.LqsParams(alpha=alpha, eta=eta, gamma_bs=gamma_bs, r_mag=np.sqrt(r_sq))


def suite_lqs_identity(seed):
    """Unsimplified norm/overlap fidelity vs the simplified closed form."""
    rng = np.random.default_rng(seed)
    devs = []
    for _ in range(1000):
        p = _random_lqs_params(rng)
        devs.append(abs(lqs.fidelity_unsimplified(p) - lqs.fidelity_closed_form(p)))
    return _result("lqs-identity", [(devs, 1e-12)], "1000 random complex-alpha draws")


def suite_lqs_ppb(seed):
    """Closed form at Gamma=0, 50/50 split vs the projection-synthesis formula."""
    devs = []
    r = np.sqrt(0.5)
    alphas = np.linspace(0.05, 2.0, 21)
    for alpha in alphas:
        for eta in np.linspace(0.05, 1.0, 11):
            p = lqs.LqsParams(alpha=alpha, eta=eta, gamma_bs=0.0, r_mag=r)
            devs.append(abs(lqs.fidelity_closed_form(p) - lqs.fidelity_ppb(alpha, eta)))
    for alpha in (*alphas, 1.3):
        p = lqs.LqsParams(alpha=alpha, eta=1.0, gamma_bs=0.0, r_mag=r)
        devs.append(abs(lqs.fidelity_closed_form(p) - 1.0))
    return _result("lqs-ppb", [(devs, 1e-12)], "21x11 grid + unity at eta=1 for 22 alphas")


def suite_lqs_gram(seed):
    """Environment-mode Gram oracle vs closed-form N and F."""
    rng = np.random.default_rng(seed)
    devs = []
    for _ in range(100):
        p = _random_lqs_params(rng)
        n_oracle, f_oracle = lqs.env_gram_oracle(p)
        devs.append(abs(n_oracle - lqs.normalization_closed_form(p)))
        devs.append(abs(f_oracle - lqs.fidelity_closed_form(p)))
    return _result("lqs-gram", [(devs, 1e-10)], "100 random complex-alpha draws, N and F")


def suite_lqs_projection(seed):
    """Full Fock-space pipeline vs the two-level closed form, amplitude by amplitude.

    50/50 splitters at four |alpha|, identical splitters with ten random
    t^2 ~ U(0.2, 0.8) at each of four more, and one distinct pair; the
    oracle's global phase is matched before comparing.
    """
    rng = np.random.default_rng(seed)
    r5 = np.sqrt(0.5)
    cases = [(alpha, r5, 1j * r5, r5, 1j * r5) for alpha in (0.2, 0.5, 0.8, 1.0)]
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for t_sq in rng.uniform(0.2, 0.8, 10):
            t, r = np.sqrt(t_sq), 1j * np.sqrt(1.0 - t_sq)
            cases.append((alpha, t, r, t, r))
    cases.append((0.9, np.sqrt(0.6), 1j * np.sqrt(0.4), np.sqrt(0.3), 1j * np.sqrt(0.7)))
    devs = []
    for alpha, t1, r1, t2, r2 in cases:
        psi = lqs.lqs_projection_oracle(alpha, t1, r1, 15, t2, r2)[0].amplitudes
        target = lqs.truncated_state_general_bs(alpha, t1, r1, t2, r2).amplitudes
        devs.append(np.max(np.abs(psi * abs(psi[0]) / psi[0] - target)))
    return _result("lqs-projection", [(devs, 1e-10)],
                   f"{len(cases)} cases, |alpha| <= 1, cutoff 15")


def suite_nqs_limits(seed):
    """Thermal solution at nbar=0 vs zero-T solution vs pure Kerr phases."""
    rng = np.random.default_rng(seed)
    rho = _random_density(rng, 16)
    p0 = nqs.NqsParams(epsilon=0.1, kicks=0, cutoff=15, lam=0.2, nbar=0.0)
    a = nqs.analytic_damped_step_thermal(rho, 1.3, p0)
    b = nqs.analytic_damped_step_zero_T(rho, 1.3, p0)
    dev_a = float(np.max(np.abs(a.elements - b.elements)))
    p_tiny = nqs.NqsParams(epsilon=0.1, kicks=0, cutoff=15, lam=1e-12, nbar=0.0)
    c = nqs.analytic_damped_step_zero_T(rho, 0.7, p_tiny)
    d = nqs.unitary_kerr_step(rho, 0.7)
    dev_b = float(np.max(np.abs(c.elements - d.elements)))
    return _result(
        "nqs-limits", [(dev_a, 1e-12), (dev_b, 1e-8)],
        f"nbar=0 chain {dev_a:.2e} (tol 1e-12), lambda->0 chain {dev_b:.2e} (tol 1e-8)",
    )


def suite_nqs_rk4(seed):
    """Analytic damped steps vs fixed-step RK4 integration of the master equation."""
    dev_zero = []
    coh, _ = fock.coherent_state(0.6, 20)
    rho0 = coh.density_matrix()
    for lam in (0.01, 0.05, 0.1):
        p = nqs.NqsParams(epsilon=0.1, kicks=0, cutoff=20, lam=lam, nbar=0.0)
        ana = nqs.analytic_damped_step_zero_T(rho0, 2.0, p)
        ref = lindblad.integrate(rho0, 2.0, p, lindblad.IntegratorConfig(dt=1e-3))
        dev_zero.append(np.max(np.abs(ana.elements - ref.elements)))
    dev_th = []
    coh8, _ = fock.coherent_state(0.8, 25)
    rho0 = coh8.density_matrix()
    for nbar in (0.1, 0.3):
        p = nqs.NqsParams(epsilon=0.1, kicks=0, cutoff=25, lam=0.1, nbar=nbar)
        ana = nqs.analytic_damped_step_thermal(rho0, 1.0, p)
        ref = lindblad.integrate(rho0, 1.0, p, lindblad.IntegratorConfig(dt=5e-4))
        dev_th.append(np.max(np.abs(ana.elements - ref.elements)))
    return _result(
        "nqs-rk4", [(dev_zero, 1e-6), (dev_th, 1e-5)],
        f"zero-T {np.max(dev_zero):.2e} (tol 1e-6), thermal {np.max(dev_th):.2e} (tol 1e-5)",
    )


def suite_nqs_kick(seed):
    """Closed-form kick matrix vs the exponentiated displacement generator."""
    from scipy.linalg import expm  # deferred: scipy.linalg dominates import time

    dev = []
    cutoff = 30
    a = fock.annihilation_matrix(cutoff)
    interior = slice(0, cutoff - 10 + 1)
    for eps in (0.05, 0.1, 0.5):
        closed = nqs.kick_unitary(eps, cutoff)
        brute = expm(-1j * eps * (a + a.conj().T))
        dev.append(np.max(np.abs(closed[interior, interior] - brute[interior, interior])))
    eps = 0.1
    closed_f = np.exp(-eps**2) * (np.cos(eps) + eps * np.sin(eps)) ** 2
    dev_f = []
    for c in (15, 20):
        rec = nqs.evolve_kicked(nqs.NqsParams(epsilon=eps, kicks=1, cutoff=c, lam=0.0))[1]
        dev_f.append(abs(rec.fidelity - closed_f))
    return _result(
        "nqs-kick", [(dev, 1e-10), (dev_f, 1e-12)],
        f"matrix {np.max(dev):.2e} (tol 1e-10), single-kick fidelity at cutoffs 15 and 20 "
        f"{np.max(dev_f):.2e} (tol 1e-12)",
    )


SUITES = {
    "lqs-identity": suite_lqs_identity,
    "lqs-ppb": suite_lqs_ppb,
    "lqs-gram": suite_lqs_gram,
    "lqs-projection": suite_lqs_projection,
    "nqs-limits": suite_nqs_limits,
    "nqs-rk4": suite_nqs_rk4,
    "nqs-kick": suite_nqs_kick,
}
