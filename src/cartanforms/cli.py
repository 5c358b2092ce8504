"""Command-line entry point: verify / eval / holonomy.

All I/O is JSON; rationals travel as "p/q" strings.  Reports from `verify`
are byte-deterministic across runs unless --timings is given.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import actions, cartan, suites
from .algebra import invariant_form
from .calculus import CalculusError, load_fields, _json_rational
from .cartan import CartanConnection


def _frac(text):
    """A "p/q" rational with an optional sign, read as a field file reads
    one; decimals and exponents are refused."""
    try:
        return _json_rational(text, "")
    except CalculusError:
        raise argparse.ArgumentTypeError(
            f"not a rational p/q: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads "-p/q" as a value, as it reads "-1", so
    `--mu -1/2` works like `--mu=-1/2`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern of a negative number, plus -p/q; a token
        # that matches is a value unless an option looks like a number
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _seed_range(text):
    """'a..b' or 'a' -> (a, b), refusing non-integers and reversed ranges."""
    lo, sep, hi = text.partition("..")
    try:
        start, end = int(lo), int(hi if sep else lo)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a seed range a..b: {text!r}") from exc
    if end < start:
        raise argparse.ArgumentTypeError(
            f"empty seed range {text!r}: {end} < {start}")
    return start, end


def _out_path(text):
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def build_parser():
    parser = _Parser(
        prog="cartanforms",
        description="Exact verification of symmetric-space gravity actions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--config", help="suite config JSON file")
    p_verify.add_argument("--seeds", type=_seed_range,
                          help="seed range a..b (overrides config)")
    p_verify.add_argument("--out", type=_out_path, help="report output path")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall_time_ms (breaks byte determinism)")

    p_eval = sub.add_parser("eval", help="evaluate an action on stored fields")
    p_eval.add_argument("--fields", required=True, help="field file (JSON)")
    p_eval.add_argument("--action", required=True,
                        choices=["cs", "palatini", "cs_omega_torsion", "tmg", "mm"])
    p_eval.add_argument("--c0", type=_frac, default=Fraction(1))
    p_eval.add_argument("--c1", type=_frac, default=Fraction(0))
    p_eval.add_argument("--mu", type=_frac)
    p_eval.add_argument("--gamma", type=_frac)
    p_eval.add_argument("--grid", type=_positive_int, default=32)
    p_eval.add_argument("--out", type=_out_path,
                        help="optional JSON output path")

    p_hol = sub.add_parser("holonomy", help="transport along a stored path")
    p_hol.add_argument("--model", required=True,
                       help="sphere | sphere_rolling | zero | mc_<algebra>")
    p_hol.add_argument("--path", required=True, help="path spec (JSON)")
    p_hol.add_argument("--steps", type=_positive_int, required=True)
    return parser


def _cmd_verify(args):
    try:
        cfg = (suites.load_config(args.config) if args.config
               else suites.default_config())
        if args.seeds:
            cfg.seed_start, cfg.seed_end = args.seeds
        if args.out:
            cfg.out = args.out
        suites.validate_config(cfg)
    except suites.SuiteConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        try:    # refused before any check runs
            suites.report_path(cfg.out)
        except OSError as exc:
            print(exc, file=sys.stderr)
            return 2
    results, ok = suites.run_suite(cfg)
    text = suites.emit_report(results, cfg, timings=args.timings)
    if cfg.out:
        try:
            path = suites.write_report(text, cfg.out)
        except OSError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"report written to {path}")
    else:
        print(text, end="")
    if cfg.suites and not results:
        print("FAILED: the requested suites ran no checks", file=sys.stderr)
        return 1
    if not ok:
        for r in results:
            if not r.passed:
                print(f"FAILED: {r.inputs_digest} residual={r.residual}",
                      file=sys.stderr)
        return 1
    return 0


def _eval_action(args, alg, forms):
    name = args.action
    if name == "cs":
        if "A" not in forms:
            raise ValueError("action cs needs a form named 'A'")
        form = invariant_form(alg, args.c0, args.c1)
        return actions.cs_action(forms["A"], form)
    if name in ("palatini", "cs_omega_torsion", "mm"):
        missing = [k for k in ("omega", "e") if k not in forms]
        if missing:
            raise ValueError(f"action {name} needs forms named 'omega' and 'e'")
        omega, e = forms["omega"], forms["e"]
        if name == "palatini":
            return actions.palatini_action(omega, e)
        if name == "cs_omega_torsion":
            return actions.cs_omega_torsion_action(omega, e)
        couplings = (actions.CouplingConstants(args.c0, args.c1)
                     if args.gamma is None
                     else actions.couplings_from_immirzi(args.gamma))
        form_h = invariant_form(alg, couplings.c0, couplings.c1)
        return actions.mm_action(CartanConnection(omega, e), form_h)
    # tmg
    if "e" not in forms:
        raise ValueError("action tmg needs a form named 'e'")
    if args.mu is None:
        raise ValueError("action tmg needs --mu")
    return actions.tmg_action(forms["e"], args.mu, grid=args.grid)


def _cmd_eval(args):
    try:
        alg, forms = load_fields(args.fields)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read field file: {exc}", file=sys.stderr)
        return 2
    try:
        value = _eval_action(args, alg, forms)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: the value overflows a float: {exc}", file=sys.stderr)
        return 2
    doc = {
        "action": args.action,
        "algebra": alg.name,
        "torus_dim": value.torus_dim,
        "mode": value.mode,
        "exact": None if value.exact is None else str(value.exact),
        "numeric": value.numeric,
        "quadrature_grid": value.quadrature_grid,
        "min_abs_det": value.min_abs_det,
        "units": f"(2pi)^{value.torus_dim}",
    }
    print(value.render())
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            path = suites.write_report(text, args.out)
        except OSError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"written to {path}")
    else:
        print(text, end="")
    return 0


def _cmd_holonomy(args):
    try:
        path = cartan.load_path(args.path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read path file: {exc}", file=sys.stderr)
        return 2
    try:
        model = cartan.get_model(args.model)
        result = cartan.holonomy(model, path, args.steps)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with np.printoptions(formatter={"float_kind": lambda v: f"{v:.12g}"}):
        print(result.matrix)
    print(f"steps: {result.steps} (requested {args.steps})")
    print(f"group drift: {result.drift:.3e}")
    return 0


_COMMANDS = {"verify": _cmd_verify, "eval": _cmd_eval,
             "holonomy": _cmd_holonomy}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # flush here, not at interpreter exit, so a closed pipe is caught
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so
        # the flush at exit cannot fail again, and report the lost output
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
