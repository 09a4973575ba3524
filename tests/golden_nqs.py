"""Golden `qscissors nqs` outputs: the runs, their files and the comparison.

    PYTHONPATH=src python3 tests/golden_nqs.py

rewrites every file under tests/golden/nqs/ from the qscissors on the path
and prints, per file, the largest numeric change from the file it replaced.
tests/test_golden_nqs.py compares a fresh run with each file cell by cell:
text exactly, numbers within |change| <= REL_TOL * max(1, |value|).
"""

import csv
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "nqs"
REL_TOL = 1e-13
FORMATS = ("csv", "json")

# name -> the `qscissors nqs` arguments of one run
CASES = {
    "readme": ["--epsilon", "0.1", "--lambda", "0.01", "--kicks", "20", "--cutoff", "20"],
    "zero_t_long": ["--epsilon", "0.1", "--lambda", "0.05", "--kicks", "200", "--cutoff", "40"],
    "thermal": ["--epsilon", "0.12", "--lambda", "0.05", "--nbar", "0.1", "--tau-k", "1.3",
                "--kicks", "30", "--cutoff", "30"],
    "lossless": ["--epsilon", "0.2", "--kicks", "25", "--cutoff", "25"],
    "no_kicks": ["--epsilon", "0.1", "--lambda", "0.05", "--kicks", "0", "--cutoff", "8"],
}


def path(name, fmt):
    return GOLDEN / f"{name}.{fmt}"


def run(name, fmt):
    """The stdout of one golden run."""
    from qscissors.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        status = main(["nqs", *CASES[name], "--format", fmt])
    if status != 0:
        raise RuntimeError(f"qscissors nqs {name} exited {status}")
    return out.getvalue()


def _cells(text, fmt):
    """Every cell of an output as (location, value): CSV cells as text,
    JSON leaves as decoded; object keys are part of the location."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        return [((i, j, len(row)), cell) for i, row in enumerate(rows)
                for j, cell in enumerate(row)] + [(("rows",), len(rows))]

    def leaves(value, where):
        if isinstance(value, dict):
            yield where + ("keys",), sorted(value)
            for key in sorted(value):
                yield from leaves(value[key], where + (key,))
        elif isinstance(value, list):
            yield where + ("len",), len(value)
            for i, item in enumerate(value):
                yield from leaves(item, where + (i,))
        else:
            yield where, value

    return list(leaves(json.loads(text), ()))


def _number(value):
    """value as a float if it is a number (CSV cells are text), else None."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def largest_change(want, got, fmt):
    """The largest |change| of a number between two outputs, relative to
    max(1, |wanted value|).  Raises AssertionError where the two differ in
    anything but the value of a number."""
    want_cells, got_cells = _cells(want, fmt), _cells(got, fmt)
    assert [w for w, _ in want_cells] == [w for w, _ in got_cells], "the layouts differ"
    worst = 0.0
    for (where, a), (_, b) in zip(want_cells, got_cells):
        x, y = _number(a), _number(b)
        if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
            assert a == b, f"{where}: {a!r} != {b!r}"
        else:
            worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    return worst


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        for fmt in FORMATS:
            text = run(name, fmt)
            old = path(name, fmt)
            change = largest_change(old.read_bytes().decode(), text, fmt) if old.exists() else None
            old.write_text(text, newline="")
            print(f"{old.name}: largest change "
                  + ("(new file)" if change is None else f"{change:.3e}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
