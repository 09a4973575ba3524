"""Command-line driver: fidelity sweeps, kicked trajectories, verification.

Subcommands::

    qscissors lqs --alpha 0:2:21 --eta 0.8 --gamma-bs 0.02 --r-sq 0.49
    qscissors nqs --epsilon 0.1 --lambda 0.01 --kicks 20 --cutoff 20
    qscissors verify [--suite NAME] [--seed N]

Each subcommand also takes --format csv|json, --out PATH and --config
FILE.  Ranges use start:stop:count syntax; a bare number is a single
value.  A --config file is a JSON object whose keys are the subcommand's
flag names (``-`` or ``_``); each entry is parsed as ``--key=value`` ahead
of the command line, so explicit flags win and a bad key or value is a
usage error like a bad flag.  Output is CSV (default) or JSON; identical
configuration and seed produce byte-identical files.  Exit codes: 0
success, 1 verification/runtime failure, 2 usage error.
"""

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .fock import CutoffError
from .lqs import LqsParams, fidelity_closed_form, fidelity_ppb
from .nqs import NqsParams, evolve_kicked
from .verify import SUITES

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


def parse_seed(text):
    """A non-negative integer seed, as numpy's generators take."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, not {text!r}")
    return int(text)


def _build_parser():
    """The top-level parser and its subparsers by name."""
    ap = argparse.ArgumentParser(prog="qscissors", description=__doc__.split("\n\n")[0],
                                 allow_abbrev=False)
    ap.add_argument("--version", action="version", version=f"qscissors {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None,
                       help="JSON object of flag names and values; flags override")

    p_lqs = sub.add_parser("lqs", help="linear-scissors fidelity sweep", allow_abbrev=False)
    p_lqs.add_argument("--alpha", type=parse_range, default=None, help="|alpha| value or range")
    p_lqs.add_argument("--eta", type=parse_range, default=None, help="detector efficiency")
    p_lqs.add_argument("--gamma-bs", type=parse_range, default=None, dest="gamma_bs",
                       help="BS amplitude dissipation Gamma")
    p_lqs.add_argument("--r-sq", type=parse_range, default=None, dest="r_sq",
                       help="reflection probability r_mag^2")
    common(p_lqs)

    p_nqs = sub.add_parser("nqs", help="kicked Kerr-oscillator trajectory", allow_abbrev=False)
    p_nqs.add_argument("--epsilon", type=float, default=None, help="kick strength")
    p_nqs.add_argument("--lambda", type=float, default=None, dest="lam",
                       help="damping rate in units of the Kerr coupling")
    p_nqs.add_argument("--nbar", type=float, default=None, help="thermal occupation")
    p_nqs.add_argument("--tau-k", type=float, default=None, dest="tau_k",
                       help="scaled kick period")
    p_nqs.add_argument("--kicks", type=int, default=None)
    p_nqs.add_argument("--cutoff", type=int, default=None)
    common(p_nqs)

    p_ver = sub.add_parser("verify", help="run oracle-equivalence suites", allow_abbrev=False)
    p_ver.add_argument("--suite", choices=tuple(SUITES), default=None,
                       help="one suite (default: all)")
    p_ver.add_argument("--seed", type=parse_seed, default=1234, help="seed for randomized draws")
    common(p_ver)
    return ap, sub.choices


def _config_tokens(path, parser):
    """The entries of a JSON config file as --key=value tokens for `parser`.

    Keys must name one of the parser's flags exactly (``_`` for ``-``);
    values must be strings or numbers.  Floats go through repr, which
    round-trips.  Raises OSError or ValueError.
    """
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ValueError("must hold a JSON object of flag names and values")
    flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help", "--config"}
    tokens = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"unknown key {key!r}; {parser.prog} takes "
                             + ", ".join(sorted(f[2:] for f in flags)))
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"{key!r} must be a string or a number, "
                             f"not {json.dumps(value)}")
        tokens.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return tokens


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def _check_out(path):
    """Raise ValueError unless --out `path` can be written: not a directory,
    in an existing, writable directory.  Called before any computation."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "Is a directory"
    elif not os.path.isdir(parent):
        reason = "No such file or directory"
    elif not os.access(parent, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        reason = "Permission denied"
    else:
        return
    raise ValueError(f"cannot write --out {path}: {reason}")


def _emit(rows, columns, fmt, meta, out_path):
    if fmt == "json":
        doc = {"meta": meta, "rows": [dict(zip(columns, r)) for r in rows]}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt_cell(v) for v in r])
        text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _lqs_point(alpha, eta, gamma_bs, r_sq):
    if not 0.0 <= r_sq <= 1.0:
        raise ValueError(f"--r-sq must lie in [0, 1], got {r_sq}")
    p = LqsParams(alpha=alpha, eta=eta, gamma_bs=gamma_bs, r_mag=r_sq**0.5)
    f_ppb = fidelity_ppb(alpha, eta) if gamma_bs == 0 and abs(r_sq - 0.5) < 1e-12 else None
    return (abs(alpha), eta, gamma_bs, r_sq, fidelity_closed_form(p), f_ppb)


def cmd_lqs(args):
    axes = {k: getattr(args, k) for k in ("alpha", "eta", "gamma_bs", "r_sq")}
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
    if len(combos) > 1 and not args.out:
        raise ValueError("multi-axis sweep needs --out (one file per combination)")
    out_paths = [args.out]
    if extra:
        stem, dot, suffix = args.out.rpartition(".") if "." in args.out else (args.out, "", "")
        out_paths = []
        for combo in combos:
            tag = "_".join(f"{k}{_fmt_cell(v)}" for k, v in zip(extra, combo))
            path = f"{stem}_{tag}{dot}{suffix}"
            if path in out_paths:
                raise ValueError(f"two parameter combinations would both write {path}")
            out_paths.append(path)
    for path in out_paths:
        if path:
            _check_out(path)
    meta_base = {"command": "lqs", "version": __version__, "format": args.fmt,
                 "swept_axis": sweep_key,
                 "axes": {k: [_fmt_cell(v) for v in axes[k]] for k in axes}}
    # every table is built before the first is written, so a bad point
    # leaves no partial output
    tables = []
    for combo in combos:
        fixed = dict(zip(extra, combo))
        rows = []
        for v in axes[sweep_key]:
            point = {k: fixed.get(k, axes[k][0]) for k in axes}
            point[sweep_key] = v
            rows.append(_lqs_point(**point))
        tables.append((rows, dict(meta_base, fixed={k: _fmt_cell(v) for k, v in fixed.items()})))
    for (rows, meta), out_path in zip(tables, out_paths):
        _emit(rows, LQS_COLUMNS, args.fmt, meta, out_path)
    return 0


def cmd_nqs(args):
    kw = {k: getattr(args, k) for k in ("epsilon", "kicks", "cutoff", "lam", "nbar", "tau_k")
          if getattr(args, k) is not None}
    missing = [k for k in ("epsilon", "kicks", "cutoff") if k not in kw]
    if missing:
        raise ValueError(f"missing required nqs parameter(s): {', '.join(missing)}")
    p = NqsParams(**kw)
    if args.out:
        _check_out(args.out)
    records = evolve_kicked(p)
    rows = [(r.kick_index, r.tau, r.fidelity, r.trace, r.purity, r.mean_n,
             r.rho[0, 0].real, r.rho[0, 1].real, r.rho[0, 1].imag, r.rho[1, 1].real)
            for r in records]
    meta = {"command": "nqs", "version": __version__, "format": args.fmt,
            "params": {"epsilon": p.epsilon, "lambda": p.lam, "nbar": p.nbar,
                       "tau_k": p.tau_k, "kicks": p.kicks, "cutoff": p.cutoff}}
    _emit(rows, NQS_COLUMNS, args.fmt, meta, args.out)
    return 0


def cmd_verify(args):
    if args.out:
        _check_out(args.out)
    results = [SUITES[name](args.seed) for name in ([args.suite] if args.suite else SUITES)]
    rows = [(r.name, r.passed, r.max_dev, r.tolerance, r.detail) for r in results]
    meta = {"command": "verify", "version": __version__, "seed": args.seed,
            "suites": [r.name for r in results]}
    _emit(rows, VERIFY_COLUMNS, args.fmt, meta, args.out)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max deviation {r.max_dev:.3e} "
              f"(tolerance {r.tolerance:.0e}) - {r.detail}", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap, subparsers = _build_parser()
    args = ap.parse_args(argv)
    if args.config:
        try:
            tokens = _config_tokens(args.config, subparsers[args.subcommand])
        except (OSError, ValueError) as exc:
            print(f"error: --config {args.config}: {exc}", file=sys.stderr)
            return 2
        # argv[0] is the subcommand; config entries go before the flags so
        # that the flags, parsed later, win
        args = ap.parse_args(argv[:1] + tokens + argv[1:])
    command = {"lqs": cmd_lqs, "nqs": cmd_nqs, "verify": cmd_verify}[args.subcommand]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CutoffError, FloatingPointError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
