"""Command-line surface: spectra, actions, poles, determinants, zetas,
predictions, the verification harness, and the two figure datasets.

All numeric output is emitted with repr round-tripping so repeated runs
with the same arguments are byte-identical.  ``verify`` and ``fig2`` take
a coupling grid and nothing else that changes what is measured.
"""

from __future__ import annotations

import argparse
import csv
import json
# argparse translates its messages with gettext, which imports locale while
# the first parser is built: imported here, so that its 1-2 ms fall on
# import oscdet.cli and not on the first command
import locale  # noqa: F401
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .actions import binomial_action, improper_action, trinomial_action_asymptotic
from .errors import AccuracyError, DivergenceError, DomainError
from .mellin import contributing_poles, enumerate_poles
from .potential import PotentialSpec, symanzik_map
from .predictions import GRID, fig2_rows, predict_det_ratio_g, predict_Z1, verify
from .spectral import harmonic_det, shooting_det, zeta_full, zeta_skew
from .spectrum import eigenvalues

_OUTDIR_ENV = "OSCDET_OUTDIR"


def _out_path(args, default_name):
    if args.out:
        return args.out
    outdir = os.environ.get(_OUTDIR_ENV)
    if outdir:
        return os.path.join(outdir, default_name)
    return None   # stdout


def _emit_rows(rows, path):
    if path is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        print(path)


def _emit_text(text, path):
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(path)


def _strict(obj):
    """obj with every non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(payload) -> str:
    """RFC 8259 JSON: a non-finite float (a determinant beyond double range,
    a log at an eigenvalue) is written as null."""
    return json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)


def cmd_spectrum(args):
    spec = PotentialSpec.from_text(args.spec)
    result = eigenvalues(spec, args.count, args.tol)
    rows = [["k", "parity", "value", "err_est"]]
    rows += [[str(e.k), e.parity, repr(e.value), repr(e.err_est)]
             for e in result.entries]
    _emit_rows(rows, _out_path(args, "spectrum.csv"))
    return 0


def cmd_action(args):
    spec = PotentialSpec.from_text(args.spec)
    out = {"spec": spec.to_text()}
    if args.method == "closed":
        if spec.lam != 0.0:
            raise DomainError("the closed form takes lambda = 0; use --method numeric")
        a = binomial_action(spec.u, spec.v, spec.N, spec.M)
        out.update(value=a.value, method=a.method, level=a.level)
    elif args.method == "asymptotic":
        if spec.u != 1.0:
            raise DomainError("the asymptotic form takes u = 1; use --method numeric")
        out.update(value=trinomial_action_asymptotic(spec.N, spec.M, spec.v, spec.lam),
                   method="asymptotic")
    else:
        a = improper_action(spec)
        out.update(value=a.value, method=a.method, residue=a.residue)
    _emit_text(_json_text(out), _out_path(args, "action.json"))
    return 0


def cmd_poles(args):
    window = (Fraction(args.window_lo), Fraction(args.window_hi))
    poles = enumerate_poles(args.N, args.M, window)
    lead, sub = contributing_poles(args.N, args.M)

    def encode(p):
        return {
            "sigma0": str(p.sigma0),
            "mobile": p.mobile,
            "source": p.source,
            "index": p.index,
            "d_v": str(p.d_v),
            "d_lambda": str(p.d_lambda),
            "d_g": str(p.d_g),
            "confluent": p.is_confluent,
            "pinching": p.is_pinching,
            "double": p.is_double,
        }

    out = {
        "N": args.N,
        "M": args.M,
        "poles": [encode(p) for p in poles],
        "contributing": {"leading": encode(lead), "subleading": encode(sub)},
    }
    _emit_text(_json_text(out), _out_path(args, "poles.json"))
    return 0


def cmd_det(args):
    spec = PotentialSpec.from_text(args.spec)
    work = spec.with_shift(args.shift)
    if spec.N == 2:   # u q^2 + v + lam + shift: the constant takes the closed form
        d = harmonic_det(work.u, work.v + work.lam)
    else:
        d = shooting_det(work)
    out = {
        "spec": spec.to_text(),
        "shift": args.shift,
        "method": d.method,
        "log_abs": {"even": d.log_abs_even, "odd": d.log_abs_odd,
                    "full": d.log_abs_full, "skew": d.log_abs_skew},
        "sign": {"even": d.sign_even, "odd": d.sign_odd},
        "value": {"even": d.even, "odd": d.odd, "full": d.full, "skew": d.skew},
    }
    _emit_text(_json_text(out), _out_path(args, "det.json"))
    return 0


def cmd_zeta(args):
    spec = PotentialSpec.from_text(args.spec)
    zeta = zeta_skew if args.skew else zeta_full
    z = zeta(spec, args.s, args.E, count=args.count, tol=args.tol)
    out = {"spec": spec.to_text(), "s": z.s, "E": args.E, "skew": args.skew,
           "value": z.value, "tail_fraction": z.tail_fraction}
    _emit_text(_json_text(out), _out_path(args, "zeta.json"))
    return 0


def cmd_predict(args):
    out = {
        "family": {"N": args.N, "M": 2},
        "g": args.g,
        "E": args.E,
        "v": symanzik_map(2, args.N, args.g, args.E)[0],
        "Z1": predict_Z1(args.N, args.g, args.E),
        "log_det_ratio": predict_det_ratio_g(args.N, 2, args.g, args.E),
    }
    _emit_text(_json_text(out), _out_path(args, "predict.json"))
    return 0


def _grid_from_args(args) -> tuple[float, ...]:
    if not args.grid or args.grid == "default":
        return GRID
    try:
        return tuple(float(x) for x in args.grid.split(","))
    except ValueError as exc:
        raise DomainError(f"bad --grid value: {exc}") from exc


def cmd_verify(args):
    report = verify(args.N, _grid_from_args(args))
    if args.format == "csv":
        _emit_rows(report.to_csv_rows(), _out_path(args, "verify.csv"))
    else:
        _emit_text(_json_text(report.payload()), _out_path(args, "verify.json"))
    return 0 if report.passed else 1


def cmd_fig2(args):
    grid = _grid_from_args(args)
    outdir = args.outdir or os.environ.get(_OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    try:
        families = tuple(int(x) for x in args.families.split(","))
    except ValueError as exc:
        raise DomainError(f"bad --families value: {exc}") from exc
    for name, rows in zip(("fig2_left.csv", "fig2_right.csv"), fig2_rows(families, grid)):
        _emit_rows(rows, os.path.join(outdir, name))
    return 0


_COMMANDS = ("spectrum", "action", "poles", "det", "zeta", "predict", "verify", "fig2")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, where ``command`` names one, of that
    one alone, so that a run builds only the subparser it parses with."""
    ap = argparse.ArgumentParser(
        prog="oscdet",
        description="Regularized actions, spectra, and spectral determinants "
                    "of even anharmonic oscillators.")
    ap.add_argument("--version", action="version", version=__version__)
    # a one-command parser lists every command in its usage line, as the
    # whole one does, and an unrecognized argument prints that line
    one = command in _COMMANDS
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", default="4 2 1.0 1.0 0.0", help="potential as 'N M u v lambda'")

    def add(name, func, help, parents=()):   # None where the parser leaves it out
        if name == command or not one:
            p = sub.add_parser(name, parents=parents, help=help)
            p.set_defaults(func=func)
            return p

    if p := add("spectrum", cmd_spectrum, "parity-split eigenvalues as CSV", [spec]):
        p.add_argument("--count", type=int, default=16)
        p.add_argument("--tol", type=float, default=1e-6)

    if p := add("action", cmd_action, "regularized improper action integral", [spec]):
        p.add_argument("--method", choices=("closed", "numeric", "asymptotic"),
                       default="closed")

    if p := add("poles", cmd_poles, "Mellin pole table as JSON"):
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--M", type=int, required=True)
        p.add_argument("--window-lo", type=int, default=-3)
        p.add_argument("--window-hi", type=int, default=3)

    if p := add("det", cmd_det, "spectral determinants (shooting or closed)", [spec]):
        p.add_argument("--shift", type=float, default=0.0,
                       help="additional constant added to the potential")

    if p := add("zeta", cmd_zeta, "spectral zeta values", [spec]):
        p.add_argument("--s", type=int, default=2)
        p.add_argument("--E", type=float, default=0.0)
        p.add_argument("--skew", action="store_true")
        p.add_argument("--count", type=int, default=160)
        p.add_argument("--tol", type=float, default=1e-7)

    if p := add("predict", cmd_predict, "closed-form small-g predictions"):
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--g", type=float, required=True)
        p.add_argument("--E", type=float, default=0.0)

    if p := add("verify", cmd_verify, "run the prediction-vs-numerics harness"):
        p.add_argument("--N", type=int, default=4)
        p.add_argument("--grid", help="comma-separated couplings, or 'default'")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    if p := add("fig2", cmd_fig2, "emit both figure datasets as CSV"):
        p.add_argument("--families", default="4,6")
        p.add_argument("--grid", help="comma-separated couplings, or 'default'")
        p.add_argument("--outdir")

    for name, p in sub.choices.items():   # fig2 writes to its --outdir
        if name != "fig2":
            p.add_argument("--out")

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv else None)
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (AccuracyError, DivergenceError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, AccuracyError) and exc.err_est is not None:
            diag["err_est"] = exc.err_est
        print(_json_text(diag))
        return 3
    except DomainError as exc:
        ap.exit(2, f"{ap.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
