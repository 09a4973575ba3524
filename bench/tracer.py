"""Per-layer call counts and times for the traced benchmark run.

Each layer is a public qscissors function, wrapped in every qscissors module
namespace that holds it, so a call is counted under the name its caller
looks up (``nqs`` imports ``sqrt_binomial_ratio`` and ``DensityMatrix`` by
name).  Classes are wrapped at ``__init__``, which keeps ``isinstance``
checks in ``lindblad`` true.  Calls are counted only while ``active`` is
set; the worker sets it around each timed operation, so set-up and output
checks never reach the counters.  ``uninstall`` restores the originals.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "cli.main",
    "lqs.LqsParams",
    "lqs.fidelity_closed_form",
    "lqs.lqs_projection_oracle",
    "lqs.env_gram_oracle",
    "fock.beam_splitter_unitary",
    "fock.coherent_state",
    "fock.DensityMatrix",
    "specfun.damping_coefficients",
    "specfun.sqrt_binomial_ratio",
    "nqs.evolve_kicked",
    "nqs.analytic_damped_step_thermal",
    "nqs.analytic_damped_step_zero_T",
    "nqs.kick_unitary",
    "nqs.apply_kick",
    "lindblad.integrate",
    "lindblad.lindblad_rhs",
)

# layers whose self time (own time minus wrapped children) is reported
SELF_TIMED = ("cli.main",)


def metric_names():
    """Per-layer metric names, in the order the traced run reports them."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls_per_op", f"{layer}.ms_per_op"]
    names += [f"{layer}.self_ms_per_op" for layer in SELF_TIMED]
    return names


class Tracer:
    """Counts calls, inclusive time and time spent in wrapped children."""

    def __init__(self):
        self.active = False
        self.calls = dict.fromkeys(LAYERS, 0)
        self.total_s = dict.fromkeys(LAYERS, 0.0)
        self.child_s = dict.fromkeys(LAYERS, 0.0)
        self._stack = []  # per open span: time spent in its wrapped children
        self._saved = []  # (owner, attribute, original) replaced by install()

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.child_s[layer] += self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[layer] += 1
                self.total_s[layer] += dt

        return wrapper

    def install(self):
        """Wrap every layer; raises AttributeError if one no longer exists."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qscissors" or name.startswith("qscissors.")]
        for layer in LAYERS:
            mod_name, attr = layer.split(".")
            target = getattr(importlib.import_module(f"qscissors.{mod_name}"), attr)
            if inspect.isclass(target):
                self._replace(target, "__init__", self._wrap(layer, target.__init__))
                continue
            wrapper = self._wrap(layer, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, key, wrapper):
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        """Put back every original that install() replaced."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def metrics(self, ops):
        """Per-operation counts and times over `ops` traced operations."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = (self.calls[layer] / ops, "calls/op")
            out[f"{layer}.ms_per_op"] = (1e3 * self.total_s[layer] / ops, "ms/op")
        for layer in SELF_TIMED:
            self_s = self.total_s[layer] - self.child_s[layer]
            out[f"{layer}.self_ms_per_op"] = (1e3 * self_s / ops, "ms/op")
        return out
