"""Command-line driver: fidelity sweeps, kicked trajectories, verification.

Subcommands::

    qscissors lqs --alpha 0:2:21 --eta 0.8 --gamma-bs 0.02 --r-sq 0.49
    qscissors nqs --epsilon 0.1 --lambda 0.01 --kicks 20 --cutoff 20
    qscissors verify [--suite NAME] [--seed N]

Ranges use start:stop:count syntax; a bare number is a single value.
Output is CSV (default) or JSON; identical configuration and seed produce
byte-identical files.  Exit codes: 0 success, 1 verification/runtime
failure, 2 usage error.
"""

import argparse
import concurrent.futures
import csv
import io
import json
import sys
from dataclasses import dataclass, field

from . import __version__
from .fock import CutoffError
from .lqs import LqsParams, fidelity_closed_form, fidelity_ppb
from .nqs import NqsParams, evolve_kicked
from .verify import SUITES, run_suites

LQS_COLUMNS = ("alpha_abs", "eta", "gamma_bs", "r_sq", "F_closed", "F_ppb")
NQS_COLUMNS = (
    "kick_index", "tau", "fidelity", "trace", "purity", "mean_n",
    "rho_00", "re_rho_01", "im_rho_01", "rho_11",
)
VERIFY_COLUMNS = ("suite", "passed", "max_dev", "tolerance", "detail")


def parse_range(text):
    """start:stop:count -> evenly spaced values; bare number -> [value]."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError
            if count == 1:
                return [start]
            step = (stop - start) / (count - 1)
            return [start + i * step for i in range(count)]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"malformed range {text!r}; use a number or start:stop:count")


@dataclass
class RunConfig:
    """Resolved invocation: subcommand, parameter values, output sink."""

    subcommand: str
    params: dict = field(default_factory=dict)
    fmt: str = "csv"
    out: str | None = None
    jobs: int = 1
    seed: int = 1234
    suite: str | None = None


def _build_parser():
    ap = argparse.ArgumentParser(prog="qscissors", description=__doc__.split("\n\n")[0])
    ap.add_argument("--version", action="version", version=f"qscissors {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--jobs", type=int, default=None, help="worker processes for sweeps")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized draws")
        p.add_argument("--config", default=None, help="JSON file with defaults; flags override")

    p_lqs = sub.add_parser("lqs", help="linear-scissors fidelity sweep")
    p_lqs.add_argument("--alpha", type=parse_range, default=None, help="|alpha| value or range")
    p_lqs.add_argument("--eta", type=parse_range, default=None, help="detector efficiency")
    p_lqs.add_argument("--gamma-bs", type=parse_range, default=None, dest="gamma_bs",
                       help="BS amplitude dissipation Gamma")
    p_lqs.add_argument("--r-sq", type=parse_range, default=None, dest="r_sq",
                       help="reflection probability r_mag^2")
    common(p_lqs)

    p_nqs = sub.add_parser("nqs", help="kicked Kerr-oscillator trajectory")
    p_nqs.add_argument("--epsilon", type=float, default=None, help="kick strength")
    p_nqs.add_argument("--lambda", type=float, default=None, dest="lam",
                       help="damping/nonlinearity ratio gamma/kappa")
    p_nqs.add_argument("--kappa", type=float, default=None, help="Kerr coupling (raw units)")
    p_nqs.add_argument("--gamma", type=float, default=None, help="damping constant (raw units)")
    p_nqs.add_argument("--nbar", type=float, default=None, help="thermal occupation")
    p_nqs.add_argument("--tau-k", type=float, default=None, dest="tau_k",
                       help="scaled kick period")
    p_nqs.add_argument("--kicks", type=int, default=None)
    p_nqs.add_argument("--cutoff", type=int, default=None)
    common(p_nqs)

    p_ver = sub.add_parser("verify", help="run oracle-equivalence suites")
    p_ver.add_argument("--suite", default=None, help=f"one of: {', '.join(SUITES)} (default: all)")
    common(p_ver)
    return ap


def _merge_config(args):
    """Fill argins left at None from the --config JSON file, then defaults."""
    values = vars(args).copy()
    path = values.pop("config", None)
    if path:
        with open(path) as fh:
            for key, val in json.load(fh).items():
                key = key.replace("-", "_")
                if key == "format":
                    key = "fmt"
                if key == "lambda":
                    key = "lam"
                if key in values and values[key] is None:
                    if key in ("alpha", "eta", "gamma_bs", "r_sq"):
                        val = parse_range(str(val))
                    values[key] = val
    return values


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def _emit(rows, columns, cfg, meta, out_path):
    if cfg.fmt == "json":
        doc = {"meta": meta, "rows": [dict(zip(columns, r)) for r in rows]}
        text = json.dumps(doc, indent=2, sort_keys=True, default=_fmt_cell) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt_cell(v) for v in r])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lqs_point(item):
    alpha, eta, gamma_bs, r_sq = item
    p = LqsParams(alpha=alpha, eta=eta, gamma_bs=gamma_bs, r_mag=r_sq**0.5)
    f_ppb = fidelity_ppb(alpha, eta) if gamma_bs == 0 and abs(r_sq - 0.5) < 1e-12 else None
    return (abs(alpha), eta, gamma_bs, r_sq, fidelity_closed_form(p), f_ppb)


def cmd_lqs(cfg):
    axes = {k: cfg.params.get(k) for k in ("alpha", "eta", "gamma_bs", "r_sq")}
    missing = [k for k, v in axes.items() if v is None]
    if missing:
        raise ValueError(f"missing required lqs parameter(s): {', '.join(missing)}")
    multi = [k for k, v in axes.items() if len(v) > 1]
    # one swept axis per table: the first multi-valued flag sweeps, the rest
    # split the output into one file per fixed combination
    sweep_key = multi[0] if multi else "alpha"
    extra = [k for k in multi if k != sweep_key]
    combos = [()]
    for k in extra:
        combos = [c + (v,) for c in combos for v in axes[k]]
    if len(combos) > 1 and not cfg.out:
        raise ValueError("multi-axis sweep needs --out (one file per combination)")
    out_paths = [cfg.out]
    if extra:
        stem, dot, suffix = cfg.out.rpartition(".") if "." in cfg.out else (cfg.out, "", "")
        out_paths = []
        for combo in combos:
            tag = "_".join(f"{k}{_fmt_cell(v)}" for k, v in zip(extra, combo))
            path = f"{stem}_{tag}{dot}{suffix}"
            if path in out_paths:
                raise ValueError(f"two parameter combinations would both write {path}")
            out_paths.append(path)
    meta_base = {"command": "lqs", "version": __version__, "format": cfg.fmt,
                 "swept_axis": sweep_key,
                 "axes": {k: [_fmt_cell(v) for v in axes[k]] for k in axes}}
    for combo, out_path in zip(combos, out_paths):
        fixed = dict(zip(extra, combo))
        rows = []
        for v in axes[sweep_key]:
            point = {k: fixed.get(k, axes[k][0]) for k in axes}
            point[sweep_key] = v
            rows.append((point["alpha"], point["eta"], point["gamma_bs"], point["r_sq"]))
        if cfg.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as ex:
                out_rows = list(ex.map(_lqs_point, rows, chunksize=8))
        else:
            out_rows = [_lqs_point(r) for r in rows]
        meta = dict(meta_base, fixed={k: _fmt_cell(v) for k, v in fixed.items()})
        _emit(out_rows, LQS_COLUMNS, cfg, meta, out_path)
    return 0


def cmd_nqs(cfg):
    req = {k: cfg.params.get(k) for k in ("epsilon", "kicks", "cutoff")}
    missing = [k for k, v in req.items() if v is None]
    if missing:
        raise ValueError(f"missing required nqs parameter(s): {', '.join(missing)}")
    kw = dict(epsilon=req["epsilon"], kicks=req["kicks"], cutoff=req["cutoff"])
    for k in ("lam", "gamma", "kappa", "nbar", "tau_k"):
        if cfg.params.get(k) is not None:
            kw[k] = cfg.params[k]
    p = NqsParams(**kw)
    records = evolve_kicked(p)
    rows = []
    for r in records:
        el = r.rho.elements
        rows.append((r.kick_index, r.tau, r.fidelity, r.trace, r.purity, r.mean_n,
                     el[0, 0].real, el[0, 1].real, el[0, 1].imag, el[1, 1].real))
    meta = {"command": "nqs", "version": __version__, "format": cfg.fmt,
            "params": {"epsilon": p.epsilon, "lambda": p.lam, "kappa": p.kappa,
                       "gamma": p.gamma, "nbar": p.nbar, "tau_k": p.tau_k,
                       "kicks": p.kicks, "cutoff": p.cutoff}}
    _emit(rows, NQS_COLUMNS, cfg, meta, cfg.out)
    return 0


def cmd_verify(cfg):
    names = [cfg.suite] if cfg.suite else None
    try:
        results = run_suites(names, seed=cfg.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    rows = [(r.name, bool(r.passed), float(r.max_dev), float(r.tolerance), r.detail)
            for r in results]
    meta = {"command": "verify", "version": __version__, "seed": cfg.seed,
            "suites": [r.name for r in results]}
    _emit(rows, VERIFY_COLUMNS, cfg, meta, cfg.out)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max deviation {r.max_dev:.3e} "
              f"(tolerance {r.tolerance:.0e}) - {r.detail}", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        values = _merge_config(args)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sub = values.pop("subcommand")
    seed = values.pop("seed", None)
    jobs = values.pop("jobs", None)
    if jobs is not None and jobs < 1:
        print(f"error: --jobs must be at least 1, got {jobs}", file=sys.stderr)
        return 2
    cfg = RunConfig(
        subcommand=sub,
        fmt=values.pop("fmt", None) or "csv",
        out=values.pop("out", None),
        jobs=jobs or 1,
        seed=1234 if seed is None else seed,
        suite=values.pop("suite", None),
    )
    cfg.params = values
    try:
        if sub == "lqs":
            return cmd_lqs(cfg)
        if sub == "nqs":
            return cmd_nqs(cfg)
        return cmd_verify(cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CutoffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
