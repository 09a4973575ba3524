"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs a few operations of every workload and shows that each output check
passes on the real output and rejects a deliberately perturbed copy of it.
Then runs bench/run.py for one second per workload, traced and untraced,
and checks that the result line carries exactly the metrics BENCHMARK.json
names; and that run.py fails without a result where there is no package.
Exits 0 when every case passes.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)
from workloads import check_case, check_repeat, check_sweep  # noqa: E402

WORK = BENCH / ".work" / "selftest"
SEED = 7
RESULTS = []


def expect(name, got, wanted):
    """Record a case: `wanted` is the exact set for clean output, else a member."""
    ok = got == wanted if isinstance(wanted, set) else wanted in got
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}: checks failed = {sorted(got) or 'none'}")


def selftest_sweep():
    wl = workloads.LqsSweep(SEED, WORK)
    for fmt in workloads.SWEEP_FORMATS:
        cfg = wl.config()
        status = wl.call(cfg, fmt)
        expect(f"lqs-sweep {fmt} exit code", set() if status == 0 else {"exit"}, set())
        tables, texts, repeat = wl.collect(cfg, fmt)
        expect(f"lqs-sweep {fmt} clean", check_sweep(cfg, tables) | check_repeat(texts, repeat),
               set())
        by_combo = sorted(tables, key=lambda t: (t[0]["gamma_bs"], t[0]["r_sq"]))
        lossless = cfg.combos().index((0.0, 0.5))

        def shifted(table, row, delta):
            """Copy of the tables with one F_closed moved by delta."""
            out = copy.deepcopy(by_combo)
            out[table][row]["F_closed"] += delta
            return out

        s_table, s_row = cfg.samples[0]
        expect(f"lqs-sweep {fmt} one table missing", check_sweep(cfg, by_combo[1:]), "files")
        expect(f"lqs-sweep {fmt} one row missing",
               check_sweep(cfg, [t[:-1] if i == 3 else t for i, t in enumerate(by_combo)]),
               "rows")
        # row 0 of every table is alpha = 0, where F = 1
        expect(f"lqs-sweep {fmt} F = 1 + 1e-6", check_sweep(cfg, shifted(3, 0, 1e-6)), "range")
        expect(f"lqs-sweep {fmt} F(alpha=0) shifted by -1e-6",
               check_sweep(cfg, shifted(3, 0, -1e-6)), "unity")
        expect(f"lqs-sweep {fmt} lossless F shifted by 1e-6",
               check_sweep(cfg, shifted(lossless, 9, 1e-6)), "ppb")
        expect(f"lqs-sweep {fmt} sampled F shifted by 1e-6",
               check_sweep(cfg, shifted(s_table, s_row, 1e-6)), "gram")
        name = next(iter(repeat))
        changed = bytearray(repeat[name])
        changed[len(changed) // 2] ^= 1
        flipped = dict(repeat, **{name: bytes(changed)})
        expect(f"lqs-sweep {fmt} one byte changed in the repeat",
               check_repeat(texts, flipped), "repeat")


def selftest_trajectory(cls):
    wl = cls(SEED, WORK)
    op = wl.round(0)[0]
    records = op.call()
    expect(f"{cls.name} clean", op.check(records), set())

    def with_record(i, **values):
        return [dataclasses.replace(r, **values) if k == i else r for k, r in enumerate(records)]

    check = op.check
    expect(f"{cls.name} one record missing", check(records[:-1]), "records")
    expect(f"{cls.name} trace off by 2e-8",
           check(with_record(3, trace=records[3].trace + 2e-8)), "trace")
    expect(f"{cls.name} fidelity = 1 + 1e-6",
           check(with_record(2, fidelity=1.0 + 1e-6)), "fidelity")
    expect(f"{cls.name} <n> off by 1e-9",
           check(with_record(4, mean_n=records[4].mean_n + 1e-9)), "mean-n")


def selftest_oracles():
    wl = workloads.Oracles(SEED, WORK)
    case = wl.round(0)[0].call()
    expect("oracles clean", check_case(case), set())
    psi = case.psi.copy()
    psi[1] += 1e-9
    expect("oracles projection amplitude off by 1e-9",
           check_case(dataclasses.replace(case, psi=psi)), "projection")
    p, n, f, f_closed = case.gram[0]
    for label, draw in (("N", (p, n + 1e-9, f, f_closed)), ("F", (p, n, f + 1e-9, f_closed))):
        expect(f"oracles Gram {label} off by 1e-9",
               check_case(dataclasses.replace(case, gram=(draw,) + case.gram[1:])), "gram")
    analytic = case.analytic.copy()
    analytic[0, 0] += 2e-6
    expect("oracles RK4 element off by 2e-6",
           check_case(dataclasses.replace(case, analytic=analytic)), "rk4")


def selftest_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                res = {}
            ok = (proc.returncode == 0 and set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                  and set(res["metrics"]) == names[trace]
                  and all(np.isfinite(m["value"]) for m in res["metrics"].values()))
            if trace == 0 and ok:
                ok = all(m["value"] > 0 for m in res["metrics"].values())
            RESULTS.append(ok)
            print(f"{'PASS' if ok else 'FAIL'} run.py {w['name']} --trace {trace}")
    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, str(bare / BENCH.name / "run.py"), "--workload",
                           "oracles", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} run.py without a package exits {proc.returncode}")


def _remove_if_empty(directory):
    try:
        directory.rmdir()
    except OSError:  # missing, or another run still uses it
        pass


def main():
    try:
        selftest_sweep()
        selftest_trajectory(workloads.NqsMap)
        selftest_trajectory(workloads.NqsLong)
        selftest_oracles()
        selftest_run_py()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        _remove_if_empty(WORK.parent)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test cases passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
