"""Command-line driver.

Subcommands: table1, table2, figures, experiment3, verify, report.
Exit codes: 0 all good, 1 verification failure, 2 configuration error,
3 numerical non-convergence, 4 any other error (an exception no handler
expects, reported on one stderr line instead of a traceback).  Output is
CSV (header row always present) or JSON, to stdout or --out, and is
byte-stable for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

from .bounds import bound_report
from .eigenvalues import MatchFailure
from .experiments import (EXP3_HEADER, FIGURE_HEADER, TABLE1_HEADER,
                          TABLE2_HEADER, TABLE_C, VERIFY_C, VERIFY_HEADER,
                          RunConfig, decay_figure_rows, experiment1, experiment2,
                          experiment3, failed_rows, rows_to_csv, rows_to_json,
                          verify_all)
from .spectrum import ProlateContext, TruncationNotConverged


_FORMATS = ("csv", "json")
# below this band limit the log route's forward/backward match fails even at
# small n (at c = 0.05 and 0.01 for n = 12), so the commands refuse it as a
# configuration error; the same check rejects zero, negative and non-finite
# band limits.  The floor does not guarantee the match at high n: at c = 0.1
# it fails at 71 of the indices 41 .. 120 (exit 3; ROADMAP.md, item 1)
_MIN_BAND_LIMIT = 0.1


def _parse_c_list(text):
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad band-limit list: {text!r}")
    return values


def _parse_eps_list(text):
    """Accept 'e-50' style exponents or plain floats; store natural logs.

    Every target must lie strictly between 0 and 1, so an exponent must be
    finite and negative.
    """
    logs = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            if tok.startswith("e"):
                v = float(tok[1:])
                if not -math.inf < v < 0.0:
                    raise ValueError
                logs.append(v)
            else:
                v = float(tok)
                if not 0.0 < v < 1.0:
                    raise ValueError
                logs.append(math.log(v))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad eps value: {tok!r} (a number in (0, 1), or e<x> "
                "with x finite and negative)")
    return tuple(logs)


def _parse_finite(text):
    try:
        v = float(text)
        if math.isfinite(v):
            return v
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _parse_int_list(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}")


def _parse_n_range(text):
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("n-range must look like START:STOP")


def _add_common(sub):
    sub.add_argument("--c", type=_parse_c_list, default=None,
                     help="comma-separated band limits")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", dest="fmt", choices=_FORMATS, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prolate",
        description="Prolate spheroidal eigenvalue tables, bounds, and checks.")
    parser.add_argument("--config", default=None,
                        help="JSON file with defaults for the flags below")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, desc in (("table1", "eigenvalue magnitudes at n ~ 0, c/pi, 2c/pi"),
                       ("table2", "threshold indices n1/n2 for target eps"),
                       ("figures", "decay-curve rows over the plunge window"),
                       ("experiment3", "bound ordering at large band limit"),
                       ("verify", "run every verification suite"),
                       ("report", "full bound report at given (c, n)")):
        sub = subs.add_parser(name, help=desc)
        _add_common(sub)
        # --large extends the default band limits of the four experiment
        # commands; verify builds its own contexts, which a pinned
        # dimension would never reach
        if name not in ("verify", "report"):
            sub.add_argument("--large", action="store_true",
                             help="include c = 1e5")
        if name != "verify":
            sub.add_argument("--truncation-dim", type=int, default=None, metavar="N",
                             help="pin the matrix dimension (2 to 1048576) instead "
                                  "of sizing it from the coefficient decay")
        if name == "table2":
            sub.add_argument("--eps", type=_parse_eps_list, default=None,
                             help="targets, e.g. 'e-50,e-100' or plain floats")
        if name == "figures":
            sub.add_argument("--n-range", type=_parse_n_range, default=None,
                             help="restrict rows to START:STOP in n")
        if name == "verify":
            sub.add_argument("--quick", action="store_true",
                             help="reduced grids for a fast smoke check")
        if name == "report":
            sub.add_argument("--n", type=_parse_int_list, required=True,
                             help="comma-separated mode indices")
            sub.add_argument("--delta", type=_parse_finite, default=None,
                             help="pin the depth parameter for the chi-free bound")
    return parser


def _config_format(v):
    if v not in _FORMATS:
        raise ValueError(f"expected one of {_FORMATS}, got {v!r}")
    return v


def _config_flag(v):
    # bool("false") is True, so a JSON string must not pass as a flag
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


def _config_c_list(v):
    # tuple(float(x) for x in "55") is (5.0, 5.0), so only a list of numbers
    if not isinstance(v, list) or not v or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ValueError(f"expected a non-empty list of numbers, got {v!r}")
    return tuple(float(x) for x in v)


def _config_path(v):
    # str(None) is "None", so null and numbers would name files
    if not isinstance(v, str):
        raise ValueError(f"expected a file path, got {v!r}")
    return v


def _config_int(v):
    # int(2.9) is 2 and int(True) is 1, so only whole numbers may pass
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _apply_config(args, parser):
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        parser.error(f"cannot read config file: {err}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    mapping = {
        "c_list": ("c", _config_c_list),
        "eps": ("eps", lambda v: _parse_eps_list(v if isinstance(v, str) else ",".join(map(str, v)))),
        "format": ("fmt", _config_format),
        "out": ("out", _config_path),
        "truncation_dim": ("truncation_dim", _config_int),
        "large": ("large", _config_flag),
    }
    unknown = sorted(set(data) - set(mapping))
    if unknown:
        parser.error(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    for key, (attr, conv) in mapping.items():
        if key not in data:
            continue
        # argparse sets every flag the command has, so a missing attribute
        # is a key the command would silently ignore
        if not hasattr(args, attr):
            parser.error(f"config key {key!r} does not apply to {args.command}")
        if getattr(args, attr) in (None, False):
            try:
                setattr(args, attr, conv(data[key]))
            except (TypeError, ValueError, argparse.ArgumentTypeError) as err:
                parser.error(f"bad config value for {key!r}: {err}")
    return args


def _emit(rows, header, args):
    text = rows_to_csv(rows, header) if args.fmt == "csv" else rows_to_json(rows, header)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write output: {err}") from err
    else:
        sys.stdout.write(text)


def _config_from_args(args, default_c):
    c_list = args.c if args.c is not None else default_c
    for c in c_list:
        if not _MIN_BAND_LIMIT <= c < math.inf:
            raise ValueError(f"band limit c = {c:g} is outside the supported "
                             f"range: finite c >= {_MIN_BAND_LIMIT:g}")
    return RunConfig(
        c_list=c_list,
        eps_logs=getattr(args, "eps", None) or RunConfig.eps_logs,
        truncation_dim=getattr(args, "truncation_dim", None),
        large=getattr(args, "large", False),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args, parser)
    args.fmt = args.fmt or "csv"
    try:
        if args.command == "table1":
            cfg = _config_from_args(args, TABLE_C)
            rows = experiment1(cfg)
            _emit(rows, TABLE1_HEADER, args)
            bad = failed_rows(rows)
            if bad:
                print(f"numerical non-convergence in {len(bad)} row(s): "
                      f"{bad[0]['error']}", file=sys.stderr)
                return 3
        elif args.command == "table2":
            cfg = _config_from_args(args, TABLE_C)
            _emit(experiment2(cfg), TABLE2_HEADER, args)
        elif args.command == "figures":
            cfg = _config_from_args(args, (100.0,))
            rows = []
            for ctx in cfg.contexts():
                rows.extend(decay_figure_rows(ctx))
            if args.n_range is not None:
                lo, hi = args.n_range
                rows = [r for r in rows if lo <= r["n"] <= hi]
            _emit(rows, FIGURE_HEADER, args)
        elif args.command == "experiment3":
            cfg = _config_from_args(args, (1.0e4,))
            rows = experiment3(cfg)
            _emit(rows, EXP3_HEADER, args)
            bad = failed_rows(rows)
            if bad:
                print(f"numerical non-convergence in {len(bad)} row(s): "
                      f"{bad[0]['error']}", file=sys.stderr)
                return 3
            if not all(r["ordered"] for r in rows):
                return 1
        elif args.command == "verify":
            cfg = _config_from_args(args, VERIFY_C)
            checks = verify_all(cfg, quick=args.quick)
            _emit(checks, VERIFY_HEADER, args)
            failed = sum(not c["passed"] for c in checks)
            print(f"# {len(checks) - failed}/{len(checks)} checks passed",
                  file=sys.stderr)
            if failed:
                return 1
        elif args.command == "report":
            cfg = _config_from_args(args, (100.0,))
            rows = []
            for c in cfg.c_list:
                ctx = ProlateContext(c, truncation_dim=cfg.truncation_dim)
                for n in args.n:
                    rep = bound_report(ctx, n, delta=args.delta)
                    rows.append({
                        "c": c,
                        "n": n,
                        "chi": rep.chi,
                        "log_abs_lambda": rep.lambda_abs.log_abs,
                        "log_nu": rep.nu.log_abs,
                        "log_zeta": None if rep.zeta is None else rep.zeta.log_abs,
                        "log_eta": None if rep.eta is None else rep.eta.log_abs,
                        "log_xi": None if rep.xi is None else rep.xi.log_abs,
                        "log_p0": None if rep.p0 is None else rep.p0.log_abs,
                        "delta_n": rep.delta_n,
                        "flags": ";".join(k for k, v in sorted(rep.hypotheses.items()) if v),
                    })
            header = ["c", "n", "chi", "log_abs_lambda", "log_nu", "log_zeta",
                      "log_eta", "log_xi", "log_p0", "delta_n", "flags"]
            _emit(rows, header, args)
    except (TruncationNotConverged, MatchFailure) as err:
        print(f"numerical non-convergence: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        # the command boundary: no traceback, but name where it was raised
        where = traceback.extract_tb(err.__traceback__)[-1]
        print(f"internal error: {type(err).__name__}: {err} "
              f"(in {where.name}, {os.path.basename(where.filename)}:{where.lineno})",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
