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
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .fock import CutoffError
from .lqs import sweep
from .nqs import NqsParams, _trajectory
from .verify import SUITES, _row


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


@functools.cache
def _build_parser():
    """The top-level parser and its subparsers by name, built on the first
    call and reused, since argparse keeps no state between parse_args
    calls."""
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
    """One CSV cell as csv.writer writes it: floats to 15 significant
    digits, None empty, booleans lower case, a str as _csv_field quotes it,
    anything else through str."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    return _csv_field(v) if isinstance(v, str) else str(v)


def _csv_field(text):
    """`text` as csv.writer's QUOTE_MINIMAL rule writes it: in double quotes,
    each one doubled, if it holds a comma, a double quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_cell(v):
    """One JSON value as json.dumps writes it."""
    if v is None:
        return "null"
    if type(v) is float and math.isfinite(v):
        return repr(v)
    return json.dumps(v)


def _json_text(value, depth):
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested
    `depth` objects deep in a document."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


_CELL_TEXT = {"csv": _fmt_cell, "json": _json_cell}


def _column_text(values, fmt):
    """The cells of one column as `fmt` writes them.

    A float array is formatted once per distinct value, told apart by its
    bits so that -0.0 keeps its sign: a fixed parameter's column holds one
    value.  Values are formatted as Python objects, since numpy 2 prints a
    float64 as np.float64(...).
    """
    if isinstance(values, np.ndarray) and values.dtype == float:
        bits, where = np.unique(values.view(np.int64), return_inverse=True)
        return np.array(_column_text(bits.view(float).tolist(), fmt), dtype=object)[where].tolist()
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return list(map(_CELL_TEXT[fmt], values))


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


def _emit(columns, fmt, meta, out_path):
    """Write a table, {name: column of values}, to `out_path` or stdout.

    CSV is byte for byte what csv.writer writes: each row is its cells
    joined by commas plus CRLF, a cell or header name quoted as _csv_field
    says, and a line that comes out empty written as "", csv.writer's text
    for one empty field.  JSON is byte for byte json.dumps({"meta": meta,
    "rows": [{name: value, ...}, ...]}, indent=2, sort_keys=True) plus a
    newline.
    """
    cells = {k: _column_text(v, fmt) for k, v in columns.items()}
    _write_table(cells, fmt, _json_text(meta, 1) if fmt == "json" else None, out_path)


def _write_table(cells, fmt, meta_text, out_path):
    """_emit's text from formatted cells, {name: [cell text]}, and, for
    JSON, meta as _json_text(meta, 1) encodes it.  Each JSON row fills one
    template of the sorted names."""
    if fmt == "json":
        names = sorted(cells)
        template = "    {\n" + ",\n".join(
            "      " + json.dumps(k).replace("%", "%%") + ": %s" for k in names) + "\n    }"
        rows = ",\n".join(template % row for row in zip(*(cells[k] for k in names)))
        text = (f'{{\n  "meta": {meta_text},\n  "rows": '
                + (f"[\n{rows}\n  ]" if rows else "[]") + "\n}\n")
    else:
        lines = itertools.chain([map(_csv_field, cells)], zip(*cells.values()))
        text = "\r\n".join([",".join(line) or '""' for line in lines]) + "\r\n"
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


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
    combos = list(itertools.product(*(axes[k] for k in extra)))
    if len(combos) > 1 and not args.out:
        raise ValueError("multi-axis sweep needs --out (one file per combination)")
    out_paths = [args.out]
    if extra:
        stem, suffix = os.path.splitext(args.out)
        out_paths = []
        for combo in combos:
            tag = "_".join(f"{k}{_fmt_cell(v)}" for k, v in zip(extra, combo))
            path = f"{stem}_{tag}{suffix}"
            if path in out_paths:
                raise ValueError(f"two parameter combinations would both write {path}")
            out_paths.append(path)
    for path in out_paths:
        if path:
            _check_out(path)
    fixed = [dict(zip(extra, combo)) for combo in combos]
    # the swept axis along each row, one row per table; a bad point leaves no output
    columns = sweep(*(v if k == sweep_key else [[f.get(k, v[0])] for f in fixed]
                      for k, v in axes.items()))
    # every table shares the text of the swept column and, in JSON, of the
    # axes, which are encoded once and spliced in where a null holds their place
    swept = "alpha_abs" if sweep_key == "alpha" else sweep_key
    swept_text = _column_text(columns[swept][0], args.fmt)
    meta = {"command": "lqs", "version": __version__, "format": args.fmt,
            "swept_axis": sweep_key, "axes": None}
    if args.fmt == "json":
        axes_text = _json_text({k: [_fmt_cell(v) for v in axes[k]] for k in axes}, 2)
    meta_text = None
    for i, (table_fixed, out_path) in enumerate(zip(fixed, out_paths)):
        cells = {k: swept_text if k == swept else _column_text(v[i], args.fmt)
                 for k, v in columns.items()}
        if args.fmt == "json":
            meta_text = _json_text(dict(meta, fixed={k: _fmt_cell(v) for k, v in
                                                     table_fixed.items()}), 1)
            meta_text = meta_text.replace('"axes": null', '"axes": ' + axes_text, 1)
        _write_table(cells, args.fmt, meta_text, out_path)
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
    states, columns = _trajectory(p)
    columns.update(rho_00=states[:, 0, 0].real, re_rho_01=states[:, 0, 1].real,
                   im_rho_01=states[:, 0, 1].imag, rho_11=states[:, 1, 1].real)
    meta = {"command": "nqs", "version": __version__, "format": args.fmt,
            "params": {"epsilon": p.epsilon, "lambda": p.lam, "nbar": p.nbar,
                       "tau_k": p.tau_k, "kicks": p.kicks, "cutoff": p.cutoff}}
    _emit(columns, args.fmt, meta, args.out)
    return 0


def cmd_verify(args):
    if args.out:
        _check_out(args.out)
    names = [args.suite] if args.suite else SUITES
    rows = [_row(name, SUITES[name](args.seed)) for name in names]
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    meta = {"command": "verify", "version": __version__, "seed": args.seed,
            "suites": columns["suite"]}
    _emit(columns, args.fmt, meta, args.out)
    for row in rows:
        print(f"{'PASS' if row['passed'] else 'FAIL'} {row['suite']}: max deviation "
              f"{row['max_dev']:.3e} (tolerance {row['tolerance']:.0e}) - {row['detail']}",
              file=sys.stderr)
    return 0 if all(columns["passed"]) else 1


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
