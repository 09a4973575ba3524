"""The benchmark's workloads: seeded inputs, timed calls, output checks.

A workload hands out rounds of operations.  Each operation is a timed call
into the public qscissors API and an untimed check of what the call
returned.  The checks are computations made apart from the route under
test, or properties the method must have; none compares with a saved copy
of earlier output.  A check returns the set of names of the checks that
failed, empty when the output is right.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qscissors import cli, fock, lindblad, lqs, nqs


@dataclass(frozen=True)
class Op:
    """One timed call and the untimed check of its result."""

    call: Callable[[], object]
    check: Callable[[object], set]


def _max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------- lqs-sweep

SWEEP_POINTS = 750      # |alpha| points per table; 4 tables -> 3000 points a call
SWEEP_GRAM_SAMPLES = 4  # rows per call re-derived by the environment-mode oracle
SWEEP_REPEAT_EVERY = 4  # every 4th round repeats its calls to compare the bytes
SWEEP_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class SweepConfig:
    """One `qscissors lqs` configuration: |alpha| swept from 0, Gamma in {0, g}
    and r^2 in {0.5, r} split into four tables, so one table is the lossless
    50/50 case where F_ppb is filled in."""

    alpha_max: float
    eta: float
    gamma: float
    r_sq: float
    samples: tuple  # (table index in combo order, row index) pairs

    def combos(self):
        """(Gamma, r^2) of the four tables, sorted; r < 0.5 by construction."""
        return sorted((g, r) for g in (0.0, self.gamma) for r in (0.5, self.r_sq))


def parse_table(text, fmt):
    """Rows of one `qscissors lqs` output file as dicts of floats (None if empty)."""
    if fmt == "json":
        return json.loads(text)["rows"]
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [dict(zip(header, (float(c) if c else None for c in rec))) for rec in reader]


def check_sweep(cfg, tables):
    """Properties of the four fidelity tables of one sweep call."""
    bad = set()
    combos = cfg.combos()
    if len(tables) != len(combos) or not all(tables):
        return {"files"}
    tables = sorted(tables, key=lambda t: (t[0]["gamma_bs"], t[0]["r_sq"]))
    found = [(t[0]["gamma_bs"], t[0]["r_sq"]) for t in tables]
    if not np.allclose(found, combos, rtol=0.0, atol=1e-12):
        return {"files"}
    for (gamma, r_sq), rows in zip(combos, tables):
        if len(rows) != SWEEP_POINTS:
            bad.add("rows")
        if not any(row["alpha_abs"] == 0 for row in rows):
            bad.add("unity")
        lossless_5050 = gamma == 0.0 and r_sq == 0.5
        for row in rows:
            f, f_ppb = row["F_closed"], row["F_ppb"]
            if not 0.0 <= f <= 1.0 or (f_ppb is not None and not 0.0 <= f_ppb <= 1.0):
                bad.add("range")
            if row["alpha_abs"] == 0 and abs(f - 1.0) > 1e-12:
                bad.add("unity")
            if f_ppb is None:
                if lossless_5050:
                    bad.add("ppb")
            elif abs(f - f_ppb) > 1e-12:
                bad.add("ppb")
    for table, index in cfg.samples:
        rows = tables[table]
        if index >= len(rows):
            bad.add("rows")
            continue
        row = rows[index]
        p = lqs.LqsParams(alpha=row["alpha_abs"], eta=row["eta"],
                          gamma_bs=row["gamma_bs"], r_mag=math.sqrt(row["r_sq"]))
        if abs(lqs.env_gram_oracle(p)[1] - row["F_closed"]) > 1e-10:
            bad.add("gram")
    return bad


def check_repeat(first, second):
    """Identical configuration must give byte-identical files."""
    return set() if first == second else {"repeat"}


class LqsSweep:
    """Each operation is one in-process `qscissors lqs` call over 3000
    fidelity points, written to files; a round is one CSV and one JSON call
    of the same seeded configuration."""

    name = "lqs-sweep"

    def __init__(self, seed, workdir):
        self._rng = np.random.default_rng(seed)
        self._out = workdir / "out"
        self._repeat = workdir / "repeat"
        for d in (self._out, self._repeat):
            d.mkdir(parents=True, exist_ok=True)

    def config(self):
        rng = self._rng
        samples = tuple((int(rng.integers(4)), int(rng.integers(SWEEP_POINTS)))
                        for _ in range(SWEEP_GRAM_SAMPLES))
        # six decimals keep the {v:g} file tags of the two Gamma and the two
        # r^2 values distinct
        return SweepConfig(alpha_max=round(rng.uniform(1.0, 3.0), 6),
                           eta=round(rng.uniform(0.05, 1.0), 6),
                           gamma=round(rng.uniform(0.01, 0.3), 6),
                           r_sq=round(rng.uniform(0.05, 0.45), 6),
                           samples=samples)

    @staticmethod
    def _argv(cfg, fmt, out_dir):
        return ["lqs", "--alpha", f"0:{cfg.alpha_max!r}:{SWEEP_POINTS}", "--eta", repr(cfg.eta),
                "--gamma-bs", f"0:{cfg.gamma!r}:2", "--r-sq", f"0.5:{cfg.r_sq!r}:2",
                "--format", fmt, "--out", str(out_dir / f"sweep.{fmt}")]

    def call(self, cfg, fmt):
        """The timed operation: one `qscissors lqs` call; returns its exit code."""
        return cli.main(self._argv(cfg, fmt, self._out))

    @staticmethod
    def _take(directory):
        """Contents of every file in `directory`, which is then emptied."""
        texts = {}
        for path in sorted(directory.iterdir()):
            texts[path.name] = path.read_bytes()
            path.unlink()
        return texts

    def collect(self, cfg, fmt, repeat=True):
        """Read the files a call wrote and, if asked, repeat the call; returns
        (tables, files, repeated files or None).  Both directories end empty."""
        texts = self._take(self._out)
        again = None
        if repeat:
            status = cli.main(self._argv(cfg, fmt, self._repeat))
            again = self._take(self._repeat)
            if status != 0:
                raise RuntimeError(f"repeated qscissors lqs call exited {status}")
        tables = [parse_table(t.decode(), fmt) for t in texts.values()]
        return tables, texts, again

    def _check(self, cfg, fmt, status, repeat):
        if status != 0:
            self._take(self._out)
            return {"exit"}
        tables, texts, again = self.collect(cfg, fmt, repeat)
        bad = check_sweep(cfg, tables)
        return bad | check_repeat(texts, again) if repeat else bad

    def round(self, i):
        cfg = self.config()
        repeat = i % SWEEP_REPEAT_EVERY == 0
        return [Op(call=lambda fmt=fmt: self.call(cfg, fmt),
                   check=lambda status, fmt=fmt: self._check(cfg, fmt, status, repeat))
                for fmt in SWEEP_FORMATS]


# ---------------------------------------------------------- nqs-map, nqs-long

def check_trajectory(p, records):
    """Properties of a kicked trajectory.

    The Kerr term commutes with n, so every damped free step of length tau_k
    maps <n> to <n> e^{-lambda tau_k} + nbar (1 - e^{-lambda tau_k}) exactly.
    """
    bad = set()
    if len(records) != 2 * p.kicks + 1:
        bad.add("records")
    decay = math.exp(-p.lam * p.tau_k)
    for k in range(1, (len(records) - 1) // 2 + 1):
        before, after = records[2 * k - 1].mean_n, records[2 * k].mean_n
        if abs(after - (before * decay + p.nbar * (1.0 - decay))) > 1e-12:
            bad.add("mean-n")
    for r in records:
        if abs(r.trace - 1.0) > 1e-8:
            bad.add("trace")
        if not 0.0 <= r.fidelity <= 1.0:
            bad.add("fidelity")
    return bad


class NqsMap:
    """Each operation is one short thermal kicked trajectory at its own
    seeded (lambda, nbar, epsilon), so every operation builds a fresh
    propagator family: the parameter-study path."""

    name = "nqs-map"
    CUTOFF, KICKS = 30, 5

    def __init__(self, seed, workdir):
        self._rng = np.random.default_rng(seed)

    def round(self, i):
        rng = self._rng
        p = nqs.NqsParams(epsilon=rng.uniform(0.05, 0.2), kicks=self.KICKS,
                          cutoff=self.CUTOFF, lam=rng.uniform(0.01, 0.2),
                          nbar=rng.uniform(0.05, 0.3))
        return [Op(call=lambda: nqs.evolve_kicked(p),
                   check=lambda records: check_trajectory(p, records))]


class NqsLong:
    """Each operation is one long zero-temperature trajectory at a fixed
    parameter point, so the propagator family built in set-up is reused by
    every operation; the seed picks the coherent initial state."""

    name = "nqs-long"
    CUTOFF, KICKS = 40, 200
    INITIAL_STATES = 8

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.p = nqs.NqsParams(epsilon=0.1, kicks=self.KICKS, cutoff=self.CUTOFF, lam=0.05)
        amps = rng.uniform(0.05, 0.4, self.INITIAL_STATES) * np.exp(
            2j * np.pi * rng.uniform(size=self.INITIAL_STATES))
        self._initial = [fock.coherent_state(a, self.CUTOFF)[0].density_matrix() for a in amps]

    def round(self, i):
        rho0 = self._initial[i % len(self._initial)]
        return [Op(call=lambda: nqs.evolve_kicked(self.p, rho0),
                   check=lambda records: check_trajectory(self.p, records))]


# ------------------------------------------------------------------ oracles

ORACLE_CUTOFF = 12     # lqs_projection_oracle: three modes of dims (2, 14, 14)
GRAM_DRAWS = 4
RK4_CUTOFF, RK4_TAU, RK4_DT = 15, 0.5, 1e-3
TOL_PROJECTION, TOL_GRAM, TOL_RK4 = 1e-10, 1e-10, 1e-6  # as in qscissors verify


@dataclass(frozen=True)
class OracleCase:
    """Outputs of one bundled case: each brute-force route beside its closed form."""

    psi: np.ndarray        # projection-oracle output amplitudes
    target: np.ndarray     # truncated_state_general_bs amplitudes
    gram: tuple            # (LqsParams, N oracle, F oracle, F closed form) per draw
    analytic: np.ndarray   # zero-T analytic damped step
    rk4: np.ndarray        # RK4 integration of the same segment


def closed_form_norm(p):
    """Normalization N of the lossy scissors output, from the closed form."""
    a2 = abs(p.alpha) ** 2
    x = p.eta * p.gamma_bs + 1.0 - p.eta
    t_sq = 1.0 - p.gamma_bs - p.r_mag**2
    return 1.0 / math.sqrt(p.eta * p.r_mag**2 * a2 * math.exp(x * a2)
                           * (t_sq * (1.0 / a2 + 1.0) + p.r_mag**2 * x + p.gamma_bs))


def check_case(case):
    bad = set()
    phase = case.psi[0] / abs(case.psi[0])
    if _max_abs(case.psi / phase, case.target) > TOL_PROJECTION:
        bad.add("projection")
    for p, n_oracle, f_oracle, f_closed in case.gram:
        if abs(n_oracle - closed_form_norm(p)) > TOL_GRAM or abs(f_oracle - f_closed) > TOL_GRAM:
            bad.add("gram")
    if _max_abs(case.analytic, case.rk4) > TOL_RK4:
        bad.add("rk4")
    return bad


class Oracles:
    """Each operation is one bundled case of the checks `qscissors verify`
    runs: the three-mode Fock-space projection, the environment-mode Gram
    oracle and one RK4 segment, each against its closed form."""

    name = "oracles"

    def __init__(self, seed, workdir):
        self._rng = np.random.default_rng(seed)

    def _splitter(self):
        t_sq = self._rng.uniform(0.2, 0.8)
        return math.sqrt(t_sq), 1j * math.sqrt(1.0 - t_sq)

    def _phase(self):
        return np.exp(2j * np.pi * self._rng.uniform())

    def _gram_params(self):
        rng = self._rng
        gamma = rng.uniform(0.0, 0.3)
        return lqs.LqsParams(alpha=rng.uniform(0.1, 3.0) * self._phase(),
                             eta=rng.uniform(0.05, 1.0), gamma_bs=gamma,
                             r_mag=math.sqrt(rng.uniform(0.05, 1.0 - gamma)))

    def round(self, i):
        rng = self._rng
        alpha = rng.uniform(0.1, 1.2) * self._phase()
        (t1, r1), (t2, r2) = self._splitter(), self._splitter()
        gram = [self._gram_params() for _ in range(GRAM_DRAWS)]
        p_rk4 = nqs.NqsParams(epsilon=0.1, kicks=0, cutoff=RK4_CUTOFF,
                              lam=rng.uniform(0.02, 0.1))
        coh, _ = fock.coherent_state(rng.uniform(0.3, 0.6) * self._phase(), RK4_CUTOFF)
        rho0 = coh.density_matrix()

        def call():
            psi, _ = lqs.lqs_projection_oracle(alpha, t1, r1, ORACLE_CUTOFF, t2, r2)
            target = lqs.truncated_state_general_bs(alpha, t1, r1, t2, r2)
            draws = tuple((p, *lqs.env_gram_oracle(p), lqs.fidelity_closed_form(p)) for p in gram)
            analytic = nqs.analytic_damped_step_zero_T(rho0, RK4_TAU, p_rk4)
            rk4 = lindblad.integrate(rho0, RK4_TAU, p_rk4, lindblad.IntegratorConfig(dt=RK4_DT))
            return OracleCase(psi.amplitudes, target.amplitudes, draws,
                              analytic.elements, rk4.elements)

        return [Op(call=call, check=check_case)]


WORKLOADS = {w.name: w for w in (LqsSweep, NqsMap, NqsLong, Oracles)}
