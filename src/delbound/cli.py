"""Command-line front end.

Subcommands: bound (one parameter point), table (sweep), verify
(certificate audit of a supplied polynomial), lp (exact oracle), nrt
(shape tables). All numeric work happens in the library modules; this
file only parses configuration and serializes results. JSON output is
strict: a NaN or infinite float is written as null. Only bound, table
and verify load the numpy-backed modules, inside their handlers; lp and
nrt, like argument errors, run without them.

Exit codes: 0 success, 2 validation error, 3 no certified bound,
4 internal numeric failure. A table prints every row, marking a row that
hit a numeric failure with status "numeric: ...", and then exits 4 if
any row did. The DELBOUND_TOL environment variable, when set to a
positive finite float, overrides the coefficient and sign tolerances of
every certificate produced by the run (the strict positivity floor for
fhat_0 stays at its default).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from . import lp_oracle, nrt
from .errors import (
    DegreeBudgetError,
    DelboundError,
    NotCertifiedError,
    NumericError,
    SingularOperatorError,
    ValidationError,
)
from .strictjson import strict_json

if TYPE_CHECKING:
    from .feasibility import Tolerances
    from .spaces import MeasureSpec

# the refusals that mean "no certified bound" (exit 3, or a table row's status)
_REFUSALS = (NotCertifiedError, DegreeBudgetError, SingularOperatorError)

_TABLE_COLUMNS = [
    "space", "d", "s", "method", "degree", "bound", "certificate_id", "lp", "status",
]


def _parse_space(text: str) -> MeasureSpec:
    from .spaces import hamming_space, sphere_space

    parts = text.split(":")
    if len(parts) == 2 and parts[0] == "hamming" and parts[1].isdigit():
        return hamming_space(int(parts[1]))
    if len(parts) == 2 and parts[0] == "sphere" and parts[1].isdigit():
        return sphere_space(int(parts[1]))
    raise ValidationError(
        "space descriptor must be hamming:N or sphere:D, got %r" % (text,)
    )


def _tolerances() -> Tolerances | None:
    from .feasibility import Tolerances

    raw = os.environ.get("DELBOUND_TOL")
    if raw is None:
        return None
    try:
        val = float(raw)
    except ValueError:
        raise ValidationError("DELBOUND_TOL must be a float, got %r" % (raw,))
    if not (math.isfinite(val) and val > 0):
        raise ValidationError("DELBOUND_TOL must be a positive finite float, got %r" % (raw,))
    return Tolerances(coeff=val, sign=val)


def _print_json(payload):
    """Every JSON output goes through here: strict JSON, with NaN and
    infinities written as null."""
    print(json.dumps(strict_json(payload), sort_keys=True, allow_nan=False))


def _emit(args, payload):
    if args.format == "json":
        _print_json(payload)
    elif args.format == "text":
        _emit_text(payload)
    else:
        _emit_csv(payload)


def _emit_text(payload, indent=""):
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                print("%s%s:" % (indent, key))
                _emit_text(value, indent + "  ")
            else:
                print("%s%s: %s" % (indent, key, value))
    elif isinstance(payload, list):
        for item in payload:
            _emit_text(item, indent)
            print()
    else:
        print("%s%s" % (indent, payload))


def _result_row(res: dict) -> list:
    if res.get("method") == "lp":
        # as in a table row: the LP optimum in the lp column, s = 1 - 2d/n,
        # and "ok" for a solved LP
        n, d = res["n"], res["d"]
        res = res | {"lp": res["value"], "s": (n - 2 * d) / n,
                     "status": "ok" if res["status"] == "optimal" else res["status"]}
    return [res.get(col, "ok" if col == "status" else "") for col in _TABLE_COLUMNS]


def _emit_csv(payload):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    rows = payload if isinstance(payload, list) else payload.get("results", [payload])
    for res in rows:
        writer.writerow(_result_row(res))


def cmd_bound(args) -> int:
    from . import constructions

    spec = _parse_space(args.space)
    tol = _tolerances()
    has_d, has_s = args.d is not None, args.s is not None
    if has_d == has_s:
        raise ValidationError("supply exactly one of --d and --s")
    if has_d and spec.kind != "hamming":
        raise ValidationError("--d applies to Hamming spaces only; use --s")
    if has_d and args.k is not None:
        raise ValidationError("--k applies with --s only; for distance d use --s 1-2d/n")

    if args.method == "all":
        methods = ["mrrw", "lev", "spectral"]
        if has_d and spec.params[0] <= lp_oracle.MAX_N:
            methods.append("lp")
    else:
        methods = [args.method]

    results, failures = [], []
    for method in methods:
        try:
            if method == "lp":
                if not has_d:
                    raise ValidationError("the lp method needs --d")
                sol = lp_oracle.delsarte_lp(spec.params[0], args.d, mode=args.mode)
                results.append(sol.to_json() | {"method": "lp", "space": spec.label()})
            elif has_d:
                res = constructions.bound_for_distance(
                    spec, args.d, method=method, tolerances=tol
                )
                results.append(res.to_json())
            else:
                res = constructions.bound_for_s(
                    spec, args.s, method=method, k=args.k, tolerances=tol
                )
                results.append(res.to_json())
        except _REFUSALS as exc:
            failures.append({"method": method, "error": str(exc)})

    if not results:
        _print_json({"schema": 1, "error": "no method certified",
                     "failures": failures})
        return 3
    if len(methods) == 1:
        _emit(args, results[0])
    elif args.format == "csv":
        # a refused method is a row whose status gives the reason, as in a table
        point = {"space": spec.label(), "d": args.d if has_d else "",
                 "s": spec.nodes[args.d] if has_d else args.s}
        refused = [point | {"method": f["method"], "status": "uncertified: " + f["error"]}
                   for f in failures]
        _emit_csv(results + refused)
    else:
        _emit(args, {"schema": 1, "results": results, "failures": failures})
    return 0


def _table_row(row: dict, bound_fn, *args, **kwargs) -> dict:
    """Fill one table row from bound_fn(*args, **kwargs); a refusal or a
    numeric failure becomes the row's status instead of ending the table."""
    try:
        res = bound_fn(*args, **kwargs)
    except _REFUSALS as exc:
        row["status"] = "uncertified: %s" % exc
    except NumericError as exc:
        row["status"] = "numeric: %s" % exc
    else:
        row.update(method=res.method, degree=res.degree, bound=res.bound,
                   certificate_id=res.certificate.certificate_id)
    return row


def _s_grid(args) -> list:
    """The --s-count evenly spaced points from --s-min to --s-max, checked
    before any row is computed: at least one point, both ends in [-1, 1)."""
    if args.s_count < 1:
        raise ValidationError("--s-count must be at least 1, got %d" % (args.s_count,))
    for name, value in (("--s-min", args.s_min), ("--s-max", args.s_max)):
        # NaN fails this comparison too
        if not -1.0 <= value < 1.0:
            raise ValidationError("%s must lie in [-1, 1), got %r" % (name, value))
    import numpy as np

    return [float(s) for s in np.linspace(args.s_min, args.s_max, args.s_count)]


def cmd_table(args) -> int:
    from . import constructions

    spec = _parse_space(args.space)
    tol = _tolerances()
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValidationError("--methods names no method, got %r" % (args.methods,))
    for m in methods:
        if m not in ("mrrw", "lev", "spectral"):
            raise ValidationError("unknown table method %r" % (m,))
    rows = []
    if spec.kind == "hamming":
        n = spec.params[0]
        for d in range(1, n + 1):
            lp_val = ""
            if n <= lp_oracle.MAX_N:
                lp_val = lp_oracle.delsarte_lp(n, d).value_float
            for method in methods:
                row = {"space": spec.label(), "d": d, "s": spec.nodes[d],
                       "method": method, "lp": lp_val, "status": "ok"}
                rows.append(_table_row(row, constructions.bound_for_distance,
                                       spec, d, method=method, tolerances=tol))
    else:
        for s in _s_grid(args):
            for method in methods:
                row = {"space": spec.label(), "d": "", "s": s,
                       "method": method, "lp": "", "status": "ok"}
                rows.append(_table_row(row, constructions.bound_for_s,
                                       spec, s, method=method, tolerances=tol))
    if args.format == "json":
        _print_json({"schema": 1, "rows": rows})
    else:
        _emit_csv(rows)
    return 4 if any(r["status"].startswith("numeric:") for r in rows) else 0


def cmd_verify(args) -> int:
    from . import constructions
    from .feasibility import cone_certificate

    spec = _parse_space(args.space)
    tol = _tolerances()
    if args.file:
        try:
            with open(args.file) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ValidationError("cannot read %s: %s" % (args.file, exc))
        except json.JSONDecodeError as exc:
            raise ValidationError(
                "malformed JSON in %s at line %d column %d: %s"
                % (args.file, exc.lineno, exc.colno, exc.msg)
            )
        if not isinstance(data, dict) or "coeffs" not in data or "s" not in data:
            raise ValidationError(
                "%s must be an object with fields 'coeffs' and 's'" % (args.file,)
            )
        poly = constructions.polynomial_from_fourier(spec, data["coeffs"], data["s"])
    else:
        if args.method is None or args.k is None or args.s is None:
            raise ValidationError(
                "verify needs either --file or all of --method, --k, --s"
            )
        builders = {
            "mrrw": constructions.mrrw_poly,
            "lev_odd": constructions.lev_odd_poly,
            "lev_even": constructions.lev_even_poly,
        }
        poly = builders[args.method](spec, args.k, args.s)
    cert = cone_certificate(spec, poly, poly.s, tol)
    payload = cert.to_json() | {"certificate_id": cert.certificate_id,
                                "space": spec.label()}
    if args.format == "json":
        _print_json(payload)
    else:
        print("verdict: %s" % cert.verdict)
        if cert.reason:
            print("reason: %s" % cert.reason)
        print("certificate_id: %s" % cert.certificate_id)
        print("fhat_0: %r" % (cert.fhat[0],))
        print("min coefficient: fhat_%d = %r" % (cert.min_coeff_index,
                                                 cert.min_coeff_value))
        print("max on [-1, s]: %r at x = %r" % (cert.max_on_audit, cert.argmax))
    return 0 if cert.passed else 3


def cmd_lp(args) -> int:
    sol = lp_oracle.delsarte_lp(args.n, args.d, mode=args.mode)
    _print_json(sol.to_json())
    return 0


def cmd_nrt(args) -> int:
    shapes = nrt.enumerate_shapes(args.r, args.n)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["e%d" % i for i in range(1, args.r + 1)]
    writer.writerow(header + ["e0", "metric_weight", "weight", "weight_float"])
    for shape in shapes:
        w = nrt.shape_weight(shape, args.q)
        metric = sum(i * shape.e[i - 1] for i in range(1, args.r + 1))
        writer.writerow(
            list(shape.e) + [shape.e0, metric, str(w), float(w)]
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delbound",
        description="Universal upper bounds on codes from extremal polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="certified bound at one parameter point")
    p_bound.add_argument("--space", required=True, help="hamming:N or sphere:D")
    p_bound.add_argument("--method", default="all",
                         choices=["mrrw", "lev", "spectral", "lp", "all"])
    p_bound.add_argument("--d", type=int, help="minimum distance (Hamming)")
    p_bound.add_argument("--s", type=float, help="maximal inner product")
    p_bound.add_argument("--k", type=int, help="kernel degree override")
    p_bound.add_argument("--mode", default="float", choices=["float", "exact"],
                         help="LP arithmetic")
    p_bound.add_argument("--format", default="json",
                         choices=["json", "csv", "text"])
    p_bound.set_defaults(func=cmd_bound)

    p_table = sub.add_parser("table", help="sweep distances or an s grid")
    p_table.add_argument("--space", required=True)
    p_table.add_argument("--methods", default="mrrw,lev,spectral",
                         help="comma-separated method list")
    p_table.add_argument("--s-min", type=float, default=-0.5, dest="s_min")
    p_table.add_argument("--s-max", type=float, default=0.5, dest="s_max")
    p_table.add_argument("--s-count", type=int, default=11, dest="s_count")
    p_table.add_argument("--format", default="csv", choices=["csv", "json"])
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="audit a polynomial against the cone")
    p_verify.add_argument("--space", required=True)
    p_verify.add_argument("--file", help="JSON file with fields coeffs and s")
    p_verify.add_argument("--method", choices=["mrrw", "lev_odd", "lev_even"])
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--s", type=float)
    p_verify.add_argument("--format", default="json", choices=["json", "text"])
    p_verify.set_defaults(func=cmd_verify)

    p_lp = sub.add_parser("lp", help="exact Delsarte LP oracle")
    p_lp.add_argument("--n", type=int, required=True)
    p_lp.add_argument("--d", type=int, required=True)
    p_lp.add_argument("--mode", default="float", choices=["float", "exact"])
    p_lp.set_defaults(func=cmd_lp)

    p_nrt = sub.add_parser("nrt", help="ordered Hamming shape tables")
    p_nrt.add_argument("--r", type=int, required=True)
    p_nrt.add_argument("--n", type=int, required=True)
    p_nrt.add_argument("--q", type=int, default=2)
    p_nrt.set_defaults(func=cmd_nrt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _print_json({"schema": 1, "error": str(exc)})
        return 2
    except _REFUSALS as exc:
        _print_json({"schema": 1, "error": str(exc)})
        return 3
    except (NumericError, DelboundError) as exc:
        _print_json({"schema": 1, "error": str(exc)})
        return 4


if __name__ == "__main__":
    sys.exit(main())
