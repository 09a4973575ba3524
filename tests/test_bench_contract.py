"""The benchmark's contract with the package.

bench/tracer.py wraps named qscissors functions and bench/workloads.py calls
the public API; both are read here, never changed.  A renamed or deleted
traced layer, or a workload whose output no longer passes its own checks,
fails this test instead of the benchmark run.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layers_and_workloads_still_run(tmp_path):
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()  # AttributeError if a traced layer is gone
    finally:
        tracer.uninstall()
    workloads = _load("workloads")
    assert sorted(workloads.WORKLOADS) == ["lqs-sweep", "nqs-long", "nqs-map", "oracles"]
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for op in workload(1, workdir).round(0):
            assert op.check(op.call()) == set(), name
