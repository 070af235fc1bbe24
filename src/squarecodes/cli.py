"""Batch front end: construct families, inspect parameters, verify square
designs, certify distances, and emit comparison tables.

Every output is deterministic byte-for-byte: JSON is emitted with sorted
keys, CSV uses one fixed column order, and all numeric inputs are decimal
integers or "p/q" rationals — floats are rejected everywhere, so no value
ever depends on rounding.

Exit codes: 0 success; 1 a verification that ran and failed; 2 invalid
parameters or malformed input (the diagnostic names the violated
precondition on standard error).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial

from .bounds import (
    CSV_HEADER,
    best_wrm_square_design,
    footprint_bound,
    params_csv_row,
    params_report,
    wrm_design_region,
)
from .certify import certified_min_distance
from .errors import EmptySet, RangeError, SquareCodesError
from .expsets import MonomialSet, reduce_exponent, square_support
from .families import (
    ConvexRegion,
    algorithm1_verify,
    half_hyperbolic_set,
    hyperbolic_set,
    reed_muller_set,
    square_design_violation,
    weighted_rm_set,
    wrm_even_optimal_set,
)
from .gf import _prime_power  # InvalidOrder unless q is a field order; builds no field

COMPARE_HEADER = CSV_HEADER + ",alg1,winner"


def _rational(text: str) -> Fraction:
    """Parse a decimal integer or p/q rational; floats are refused."""
    if "." in text:
        raise RangeError(f"no floats accepted, write {text!r} as p/q")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise RangeError(f"not an integer or p/q rational: {text!r}")


def _parse_weights(text: str, m: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != m:
        raise RangeError(f"need {m} comma-separated weights, got {len(parts)}")
    return tuple(_rational(p) for p in parts)


def _load_set(path: str) -> MonomialSet:
    with open(path) as fh:
        obj = json.load(fh)
    try:
        A = MonomialSet.from_json(obj)
    except (KeyError, TypeError) as exc:
        raise RangeError(f"file {path!r} does not match the exponent-set schema: {exc}")
    _prime_power(A.q)
    return A


def _need(args, name):
    value = getattr(args, name, None)
    if value is None:
        raise RangeError(f"--family {args.family} requires --{name}")
    return value


def _rm(q, m, s):
    if s.denominator != 1:
        raise RangeError(f"--family rm needs an integer --s, got {s}")
    return reed_muller_set(q, m, int(s))


def _wrm(q, m, s, weights):
    return weighted_rm_set(q, m, s, _parse_weights(weights, m))


# --family name -> (the selector flags it needs, a constructor taking their
# values in that order).  A family without --d is designed by the footprint
# bound of its set, and one without --m lives in two variables.
FAMILIES = {
    "rm": (("q", "m", "s"), _rm),
    "wrm": (("q", "m", "s", "weights"), _wrm),
    "hyp": (("q", "m", "d"), hyperbolic_set),
    "halfhyp": (("q", "m", "d"), half_hyperbolic_set),
    "wrm-even-b1": (("q", "d"), partial(wrm_even_optimal_set, variant="b1")),
    "wrm-even-b2": (("q", "d"), partial(wrm_even_optimal_set, variant="b2")),
}


def _resolve_family(family: str, values: dict) -> tuple[MonomialSet, object]:
    """A registry family's set and designed distance, from its flag values."""
    needs, build = FAMILIES[family]
    A = build(*[values[flag] for flag in needs])
    if "d" in needs:
        return A, values["d"]
    return A, footprint_bound(A) if len(A) else ""


def build_selected_set(args) -> tuple[MonomialSet, str, object]:
    """Resolve the selector flags into (set, family name, designed distance).

    For rm/wrm the designed distance is the footprint bound of the set; for
    the distance-parameterized families it is the --d argument itself.
    """
    family = args.family
    if family == "file":
        return _load_set(_need(args, "file")), family, ""
    needs = FAMILIES[family][0]
    if "m" not in needs and getattr(args, "m", None) not in (None, 2):
        raise RangeError(f"--family {family} is defined for m=2 only")
    A, d_design = _resolve_family(family, {flag: _need(args, flag) for flag in needs})
    _prime_power(A.q)
    return A, family, d_design


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, sort_keys=True))


def cmd_construct(args) -> int:
    A, _, _ = build_selected_set(args)
    _emit_json(A.to_json())
    return 0


def cmd_square(args) -> int:
    A, _, _ = build_selected_set(args)
    _emit_json(square_support(A).to_json())
    return 0


def cmd_params(args) -> int:
    A, family, d_design = build_selected_set(args)
    report = params_report(A, effort=args.effort, budget=args.budget)
    if args.format == "csv":
        _emit(CSV_HEADER)
        _emit(params_csv_row(family, A.q, A.m, d_design, report))
    elif args.format == "text":
        lines = [f"family {family}", f"q {A.q}", f"m {A.m}", f"d_design {d_design}"]
        js = report.to_json()
        for key in ("n", "k", "fb", "d_exact", "d_source"):
            lines.append(f"{key} {js[key]}")
        lines.append(f"square_k {js['square']['k']}")
        lines.append(f"square_fb {js['square']['fb']}")
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "family": family,
                "q": A.q,
                "m": A.m,
                "d_design": str(d_design),
                "report": report.to_json(),
            }
        )
    return 0


def cmd_certify(args) -> int:
    A, _, _ = build_selected_set(args)
    res = certified_min_distance(A)
    _emit_json({"d": res.d, "exact": res.exact, "certificate": res.certificate.to_json()})
    return 0


def cmd_verify(args) -> int:
    A = _load_set(args.a)
    if len(A) == 0:
        raise EmptySet("verify needs a nonempty set --a")
    if (args.b is None) == (args.hyp is None):
        raise RangeError("verify needs exactly one of --b FILE or --hyp D")
    if args.b is not None:
        B = _load_set(args.b)
    else:
        B = hyperbolic_set(A.q, A.m, args.hyp)
    violation = square_design_violation(A, B)
    sq_fb = footprint_bound(square_support(A))
    if violation is None:
        _emit(f"pass: square support is contained in the target (square fb = {sq_fb})")
        return 0
    pair = next(
        (a, b)
        for a in A
        for b in A
        if tuple(reduce_exponent(x + y, A.q) for x, y in zip(a, b))
        == violation
    )
    _emit(
        f"fail: square exponent {violation} = fold of {pair[0]} + {pair[1]} "
        f"escapes the target (square fb = {sq_fb})"
    )
    return 1


def _compare_rows(q: int, d: int, effort: str, budget):
    if not isinstance(d, int) or not 1 <= d < q * q:
        raise RangeError(f"need 1 <= d < q^2, got d={d!r}")
    _prime_power(q)
    B = hyperbolic_set(q, 2, d)
    rows = [("halfhyp", half_hyperbolic_set(q, 2, d), ConvexRegion(2, (), None, d))]
    if d < q:
        rows.append(("wrm", best_wrm_square_design(q, d), wrm_design_region(q, d)))
    out = []
    for family, A, region in rows:
        report = params_report(A, effort=effort, budget=budget)
        alg1 = "pass" if algorithm1_verify(region, B) else "fail"
        out.append((family, A, report, alg1))
    best_k = max(len(A) for _, A, _, _ in out)
    return [(f, A, rep, alg1, len(A) == best_k) for f, A, rep, alg1 in out]


def cmd_compare(args) -> int:
    rows = _compare_rows(args.q, args.d, args.effort, args.budget)
    if args.format == "json":
        _emit_json(
            {
                "q": args.q,
                "d": args.d,
                "rows": [
                    {
                        "family": family,
                        "report": rep.to_json(),
                        "alg1": alg1,
                        "winner": win,
                    }
                    for family, _, rep, alg1, win in rows
                ],
            }
        )
        return 0
    _emit(COMPARE_HEADER)
    for family, A, rep, alg1, win in rows:
        base = params_csv_row(family, args.q, 2, args.d, rep)
        _emit(f"{base},{alg1},{'yes' if win else ''}")
    return 0


# hand-checked reference instances; every quoted parameter triple appears here
REFERENCE_PRESET = (
    ("rm", dict(q=11, m=2, s=6)),
    ("rm", dict(q=11, m=2, s=7)),
    ("wrm", dict(q=11, m=2, s=15, weights="5,3")),
    ("hyp", dict(q=11, m=2, d=6)),
    ("hyp", dict(q=11, m=2, d=55)),
    ("halfhyp", dict(q=11, m=2, d=6)),
    ("halfhyp", dict(q=11, m=2, d=12)),
    ("wrm-even-b1", dict(q=11, d=6)),
    ("wrm-even-b2", dict(q=11, d=6)),
)


def cmd_table(args) -> int:
    if args.preset != "reference":
        raise RangeError(f"unknown preset {args.preset!r}")
    rows = []
    for family, params in REFERENCE_PRESET:
        A, d_design = _resolve_family(family, params)
        report = params_report(A, effort=args.effort, budget=args.budget)
        rows.append((family, A, d_design, report))
    if args.format == "json":
        _emit_json(
            [
                {
                    "family": family,
                    "q": A.q,
                    "m": A.m,
                    "d_design": str(d_design),
                    "report": rep.to_json(),
                }
                for family, A, d_design, rep in rows
            ]
        )
        return 0
    _emit(CSV_HEADER)
    for family, A, d_design, rep in rows:
        _emit(params_csv_row(family, A.q, A.m, d_design, rep))
    return 0


def _add_selector(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=(*FAMILIES, "file"))
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=_rational)
    p.add_argument("--weights", help="comma-separated integers or p/q rationals")
    p.add_argument("--file", help="path to an exponent-set JSON file")


def _add_effort(p: argparse.ArgumentParser) -> None:
    p.add_argument("--effort", default="certify", choices=("fb_only", "certify", "exhaustive"))
    p.add_argument("--budget", type=int, default=None, help="class budget, an integer >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squarecodes",
        description="monomial evaluation codes with designed square distance",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="emit a family's exponent set as JSON")
    _add_selector(p)
    p.set_defaults(run=cmd_construct)

    p = sub.add_parser("square", help="emit the folded square support as JSON")
    _add_selector(p)
    p.set_defaults(run=cmd_square)

    p = sub.add_parser("params", help="report n, k, footprint bound, exact distance")
    _add_selector(p)
    _add_effort(p)
    p.add_argument("--format", default="json", choices=("json", "csv", "text"))
    p.set_defaults(run=cmd_params)

    p = sub.add_parser("certify", help="produce a verified distance certificate")
    _add_selector(p)
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser("verify", help="check that a square support stays inside a target set")
    p.add_argument("--a", required=True, help="exponent-set JSON file for A")
    p.add_argument("--b", help="exponent-set JSON file for the target B")
    p.add_argument("--hyp", type=int, help="use the hyperbolic target of this designed distance")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("compare", help="half-hyperbolic vs weighted staircase at (q, d)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_effort(p)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("table", help="emit a preset parameter table")
    p.add_argument("--preset", default="reference")
    _add_effort(p)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(run=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SquareCodesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
