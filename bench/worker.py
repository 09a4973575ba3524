"""One benchmark process: set up a workload, then measure it.

Started by run.py in a fresh interpreter.  It imports qscissors, generates
the seeded inputs and runs one untimed warm-up round, then prints READY;
run.py times the interval from process start to that line as one set-up
sample.  With --setup-only it exits there.  Otherwise it runs whole rounds
of operations for --seconds and prints one JSON line of results.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Counts and timings of the operations of one measured phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0        # operations whose output failed a check
        self.ok = 0
        self.busy_s = 0.0     # summed duration of the successful calls
        self.round_ms = []    # per round without failures: mean ms per call

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
                "ops_per_s": self.ok / self.busy_s if self.busy_s else 0.0,
                "op_p50_ms": statistics.median(self.round_ms) if self.round_ms else 0.0}


def _report(what, workload, detail):
    print(f"{workload.name}: {what}: {detail}", file=sys.stderr)


def run_round(workload, i, tally, trace=None):
    """Time each call of round i, check each result; whole round always runs."""
    durations = []
    for op in workload.round(i):
        tally.attempted += 1
        if trace is not None:
            trace.active = True
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # an operation that raises is counted and reported
            tally.failed += 1
            _report("operation raised", workload, traceback.format_exc())
            continue
        finally:
            dt = time.perf_counter() - t0
            if trace is not None:
                trace.active = False
        try:
            bad = op.check(out)
        except Exception:
            bad = {"check raised: " + traceback.format_exc()}
        if bad:
            tally.failed += 1
            tally.wrong += 1
            _report("output failed checks", workload, ", ".join(sorted(bad)))
            continue
        durations.append(dt)
    tally.ok += len(durations)
    tally.busy_s += sum(durations)
    return durations


def measure(workload, seconds, phases):
    """Run whole rounds until `seconds` have passed.

    Round i counts towards phases[i % len(phases)], a (Tally, Tracer or None)
    pair; a tracer is installed for its rounds only.  Alternating round by
    round lets a traced and an untraced phase see the same machine load.
    """
    i = 1  # round 0 is the warm-up
    end = time.perf_counter() + seconds
    while True:
        tally, trace = phases[i % len(phases)]
        before = tally.failed
        if trace is not None:
            trace.install()
        try:
            durations = run_round(workload, i, tally, trace)
        finally:
            if trace is not None:
                trace.uninstall()
        if tally.failed == before:
            tally.round_ms.append(1e3 * statistics.fmean(durations))
        i += 1
        if time.perf_counter() >= end:
            return


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True,
                    help="scratch directory; run.py removes it")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    package = Path(workloads.lqs.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"error: qscissors imported from {package}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    run_round(workload, 0, Tally())  # warm-up; a failure is reported on stderr
    print("READY", flush=True)
    if args.setup_only:
        return 0

    plain = Tally()
    if not args.trace:
        measure(workload, args.seconds, [(plain, None)])
        result = {"measured": plain.summary()}
    else:
        # untraced and traced rounds alternate; the ratio of their rates is
        # the tracing overhead
        traced, trace = Tally(), tracer.Tracer()
        measure(workload, args.seconds, [(plain, None), (traced, trace)])
        result = {"measured": plain.summary(), "traced": traced.summary(),
                  "layers": trace.metrics(max(traced.ok, 1))}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
