"""Benchmark of the qscissors package: one workload, one seed, one run.

    python3 bench/run.py --workload oracles --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qscissors is imported from its
src/ directory.  Every measured process is a fresh interpreter started by
this script with BLAS and OpenMP pinned to one thread.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The exit code is 0 only when a result is printed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5        # fresh interpreters timed to READY; setup_s is their median
RUN_TIMEOUT_S = 170      # workers still running this long after the start are killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    """A worker process failed, hung or printed no result."""


def _worker_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_worker(args, workdir, setup_only, deadline):
    """Start one worker; returns (seconds from start to READY, its stdout after READY).

    The worker is killed if it is still running at `deadline` (time.monotonic()).
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        status = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or status != 0:
        raise WorkerError(f"worker for {args.workload} exited {status} "
                          f"({'after' if ready.strip() == 'READY' else 'before'} set-up)")
    return setup_s, rest


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "qscissors" / "__init__.py").is_file():
        print(f"error: no qscissors package under {SRC}", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / str(os.getpid())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        # set-up is sampled in fresh interpreters; the traced run reports no set-up
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_worker(args, workdir, True, deadline)[0] for _ in range(extra)]
        setup_s, out = run_worker(args, workdir, False, deadline)
        setups.append(setup_s)
        result = json.loads(out.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # missing, or another run still uses it
            pass

    phases = [result["measured"]] + ([result["traced"]] if args.trace else [])
    measured = result["measured"]
    if args.trace:
        traced = result["traced"]
        metrics = {name: _metric(*value) for name, value in result["layers"].items()}
        metrics["trace.untraced_ops_per_s"] = _metric(measured["ops_per_s"], "1/s")
        metrics["trace.traced_ops_per_s"] = _metric(traced["ops_per_s"], "1/s")
        overhead = measured["ops_per_s"] / traced["ops_per_s"] - 1.0 if traced["ops_per_s"] else 0.0
        metrics["trace.overhead_pct"] = _metric(100.0 * overhead, "%")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(measured["ops_per_s"], "1/s"),
            "op_p50_ms": _metric(measured["op_p50_ms"], "ms"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB"),
        }
    print(json.dumps({
        "correct": not any(ph["wrong"] for ph in phases),
        "attempted": sum(ph["attempted"] for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
