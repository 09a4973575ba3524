"""Acceptance gate: end-to-end criteria with stated tolerances and budgets.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible under pytest -s; the -v test names carry the same numbering).
Deviations are measured against independent routes: closed forms against
brute-force oracles, exact propagators against RK4 integration, frozen
reference values against fresh runs.

Criteria 1-7 are the seven suites of ``qscissors verify``, which holds the
only implementation of each check; criterion 9 is that CLI run itself.
All eight read one run, made once per session by the ``verify_run``
fixture, which also times each suite.  Criterion 8 composes its own
reference trajectory.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from qscissors import verify
from qscissors.cli import main as cli_main
from qscissors.fock import annihilation_matrix
from qscissors.lindblad import integrate
from qscissors.nqs import NqsParams, evolve_kicked

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


# criterion -> (verify suite, time budget in seconds)
CRITERIA = {
    1: ("lqs-identity", 1.0),
    2: ("lqs-ppb", math.inf),
    3: ("lqs-gram", 10.0),
    4: ("lqs-projection", 10.0),
    5: ("nqs-limits", math.inf),
    6: ("nqs-rk4", 30.0),
    7: ("nqs-kick", math.inf),
}


def _report(num, label, dev, tol, extra=""):
    ok = dev < tol
    line = (f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}: "
            f"max deviation {dev:.3e} (tolerance {tol:.0e}){extra}")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """One `qscissors verify --format json` run: (exit code, rows, seconds per suite, total)."""
    seconds = {}

    def timed(name, suite):
        def run(seed):
            t0 = time.monotonic()
            result = suite(seed)
            seconds[name] = time.monotonic() - t0
            return result
        return run

    out = tmp_path_factory.mktemp("verify") / "verify.json"
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()):
        for name, suite in list(verify.SUITES.items()):
            mp.setitem(verify.SUITES, name, timed(name, suite))
        t0 = time.monotonic()
        rc = cli_main(["verify", "--format", "json", "--out", str(out)])
        total = time.monotonic() - t0
    rows = json.loads(out.read_text())["rows"]
    return rc, rows, seconds, total


def _criterion(num, verify_run):
    name, budget = CRITERIA[num]
    _, rows, seconds, _ = verify_run
    (row,) = [r for r in rows if r["suite"] == name]
    _report(num, f"{name} ({row['detail']})", row["max_dev"], row["tolerance"],
            f", {seconds[name]:.2f} s")
    assert row["passed"]
    assert seconds[name] < budget


def test_criterion_1_fidelity_identity(verify_run):
    _criterion(1, verify_run)


def test_criterion_2_ppb_reduction(verify_run):
    _criterion(2, verify_run)


def test_criterion_3_gram_oracle(verify_run):
    _criterion(3, verify_run)


def test_criterion_4_projection_oracle(verify_run):
    _criterion(4, verify_run)


def test_criterion_5_analytic_limit_chain(verify_run):
    _criterion(5, verify_run)


def test_criterion_6_analytic_vs_rk4(verify_run):
    _criterion(6, verify_run)


def test_criterion_7_kick_matrix(verify_run):
    _criterion(7, verify_run)


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
    # deviations are collected and reduced by np.max, which keeps a nan
    # (the builtin max(0.0, nan) would drop it)
    dev_el = [np.max(np.abs(recs[0].rho - rho))]
    for k in range(1, p.kicks + 1):
        rho = U @ rho @ U.conj().T
        dev_el.append(np.max(np.abs(recs[2 * k - 1].rho - rho)))
        rho = integrate(rho, p.tau_k, p).elements
        dev_el.append(np.max(np.abs(recs[2 * k].rho - rho)))
    _report(8, "kicked run vs composed expm-kick + RK4 at all 41 records",
            float(np.max(dev_el)), 1e-9)
    dev_f = []
    for rec, (k, tau, f) in zip(recs, FROZEN_TRAJECTORY):
        assert rec.kick_index == k
        assert abs(rec.tau - tau) < 1e-12
        dev_f.append(abs(rec.fidelity - f))
    _report(8, "kicked-run fidelities vs frozen reference trajectory",
            float(np.max(dev_f)), 1e-12)


def test_criterion_9_verification_suites(verify_run):
    rc, rows, _, total = verify_run
    names = [r["suite"] for r in rows]
    assert sorted(names) == sorted(verify.SUITES), names
    assert all(r["passed"] == (r["max_dev"] < r["tolerance"]) for r in rows), rows
    dev = max(r["max_dev"] / r["tolerance"] for r in rows)
    _report(9, f"all {len(rows)} suites in one CLI verify (exit {rc}), "
            "worst deviation/tolerance ratio", dev, 1.0, f", {total:.1f} s")
    assert all(r["passed"] for r in rows), [n for n, r in zip(names, rows) if not r["passed"]]
    assert rc == 0
    assert total < 60.0
