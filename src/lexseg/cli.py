"""Command-line front end.

Subcommands: ass, oracle-ass, decompose, depth, filtration, stanley,
sweep. Exit codes: 0 success, 1 verification mismatch, 2 usage or parse
error, 3 internal error (a broken structural guarantee or any other
uncaught exception, always a bug).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import serialize
from .closed_form import associated_primes_lexsegment
from .decompose import associated_primes_oracle, irreducible_decomposition
from .depth import _require_prime, depth_class, depth_exact
from .filtration import (
    sdepth_lower_bound,
    staged_filtration,
    stanley_certificate,
    stanley_decomposition,
)
from .monomials import (
    InternalConsistencyError,
    LexSpec,
    MonomialIdeal,
    SpecKind,
    classify,
    lexsegment_generators,
    reduce_fully,
)
from .sweep import DEFAULT_CAP, DEFAULT_PRIMES, depth_mismatch, filtration_reports, sweep

USAGE_ERROR = 2
MISMATCH = 1
INTERNAL_ERROR = 3


_RANGE = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")


def _integer(text: str) -> int:
    """An integer flag in ASCII digits, with an optional leading minus: no
    blank, plus sign, underscore or other Unicode digit."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    """"<lo>..<hi>" or "<k>" in ASCII digits: no sign, blank or underscore."""
    m = _RANGE.fullmatch(text)
    if not m:
        raise ValueError(f"range {text!r} is not <lo>..<hi> or <k> in ASCII digits")
    return int(m.group(1)), int(m.group(2) or m.group(1))


def _load_spec(args) -> LexSpec:
    u = serialize.parse_monomial(args.u, args.n)
    v = serialize.parse_monomial(args.v, args.n)
    return LexSpec(args.n, args.d, u, v)


def _load_ideal(path: str) -> MonomialIdeal:
    with open(path) as fh:
        return serialize.ideal_from_json(json.load(fh))


def _emit(payload, as_json: bool) -> None:
    """The payload as indented JSON, or one "key: value" line per key."""
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_ass(args) -> int:
    spec = _load_spec(args)
    out: dict = {"n": spec.n, "d": spec.d, "u": args.u, "v": args.v}
    if args.method in ("closed", "both"):
        out["closed"] = serialize.primes_to_json(associated_primes_lexsegment(spec))
    if args.method in ("oracle", "both"):
        ideal = lexsegment_generators(spec)
        out["oracle"] = serialize.primes_to_json(
            associated_primes_oracle(ideal).primes
        )
    if args.method == "both" and out["closed"] != out["oracle"]:
        out["mismatch"] = True
    _emit(out, args.json)
    return MISMATCH if "mismatch" in out else 0


def _cmd_oracle_ass(args) -> int:
    ideal = _load_ideal(args.ideal)
    result = associated_primes_oracle(ideal)
    out = {
        "ideal": serialize.ideal_to_json(ideal),
        "primes": serialize.primes_to_json(result.primes),
        "witnesses": [
            {"prime": list(p.vars), "witness": list(w)} for p, w in result.witnesses
        ],
    }
    _emit(out, True)
    return 0


def _cmd_decompose(args) -> int:
    ideal = _load_ideal(args.ideal)
    comps = irreducible_decomposition(ideal)
    out = {
        "ideal": serialize.ideal_to_json(ideal),
        "components": sorted(
            [[list(pair) for pair in c.powers] for c in comps]
        ),
    }
    _emit(out, True)
    return 0


def _cmd_depth(args) -> int:
    _require_prime(args.p)
    if args.ideal:
        ideal = _load_ideal(args.ideal)
        out = {"ideal": serialize.ideal_to_json(ideal)}
        out["depth_exact"] = depth_exact(ideal, args.p)
        _emit(out, True)
        return 0
    spec = _load_spec(args)
    out = {"n": spec.n, "d": spec.d, "u": args.u, "v": args.v}
    work = reduce_fully(spec)[0]
    kind = classify(work)
    out["class"] = kind.value
    case = None
    if kind == SpecKind.ARBITRARY:
        case = depth_class(work)
        out["depth_class"] = case.depth.name
        if case.subcase:
            out["subcase"] = case.subcase
    if args.exact:
        exact = depth_exact(lexsegment_generators(spec), args.p)
        out["depth_exact"] = exact
        detail = case and depth_mismatch(spec, work, case, exact)
        if detail:
            out["mismatch"] = detail
    _emit(out, True)
    return MISMATCH if "mismatch" in out else 0


def _cmd_filtration(args) -> int:
    spec = _load_spec(args)
    filtration = staged_filtration(spec)
    out = serialize.filtration_to_json(filtration)
    status = 0
    if args.verify:
        reports = filtration_reports(filtration)
        out["verification"] = {
            name: {"ok": r.ok, "violations": list(r.violations)}
            for name, r in reports.items()
        }
        if not all(r.ok for r in reports.values()):
            status = MISMATCH
    _emit(out, True)
    return status


def _cmd_stanley(args) -> int:
    spec = _load_spec(args)
    ideal = lexsegment_generators(spec)
    filtration = staged_filtration(spec)
    decomposition = stanley_decomposition(filtration)
    cover = stanley_certificate(ideal, decomposition)
    out = {
        "spaces": [
            {"witness": list(w), "free_vars": sorted(free)}
            for w, free in decomposition.spaces
        ],
        "sdepth_lower_bound": sdepth_lower_bound(decomposition),
        "cover_ok": cover.ok,
        "cover_violations": list(cover.violations),
    }
    _emit(out, True)
    return 0 if cover.ok else MISMATCH


def _cmd_sweep(args) -> int:
    report = sweep(
        _parse_range(args.n),
        _parse_range(args.d),
        primes=args.p,
        jobs=args.jobs,
        cap=args.cap,
    )
    payload = report.to_json()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
    summary = {
        "specs_tested": report.specs_tested,
        "agreements": report.agreements,
        "mismatches": report.specs_tested - report.agreements,
        "seconds": round(report.seconds, 3),
    }
    _emit(summary, False)
    for m in report.mismatches:
        print(f"mismatch: n={m.n} d={m.d} u={m.u} v={m.v} [{m.family}] {m.detail}")
    return 0 if report.ok else MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexseg",
        description="Associated primes and pretty clean filtrations of lexsegment ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p, required=True):
        p.add_argument("--n", type=_integer, required=required)
        p.add_argument("--d", type=_integer, required=required)
        p.add_argument("--u", required=required)
        p.add_argument("--v", required=required)

    p = sub.add_parser("ass", help="associated primes of a lexsegment ideal")
    add_spec_args(p)
    p.add_argument("--method", choices=["closed", "oracle", "both"], default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ass)

    p = sub.add_parser("oracle-ass", help="associated primes of any monomial ideal")
    p.add_argument("--ideal", required=True, help="ideal JSON file")
    p.set_defaults(func=_cmd_oracle_ass)

    p = sub.add_parser("decompose", help="irreducible decomposition")
    p.add_argument("--ideal", required=True, help="ideal JSON file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("depth", help="depth classification / exact depth")
    add_spec_args(p, required=False)
    p.add_argument("--ideal", help="ideal JSON file (implies --exact)")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--p", type=_integer, default=32003)
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("filtration", help="prime filtration of S/I")
    add_spec_args(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_filtration)

    p = sub.add_parser("stanley", help="Stanley decomposition and sdepth bound")
    add_spec_args(p)
    p.set_defaults(func=_cmd_stanley)

    p = sub.add_parser("sweep", help="exhaustive verification sweep")
    p.add_argument("--n", required=True, help="range LO..HI")
    p.add_argument("--d", required=True, help="range LO..HI")
    p.add_argument("--jobs", type=_integer, default=1)
    p.add_argument("--p", type=lambda text: tuple(map(_integer, text.split(","))),
                   default=",".join(str(p) for p in DEFAULT_PRIMES))
    p.add_argument("--cap", type=_integer, default=DEFAULT_CAP)
    p.add_argument("--json", help="write the full report to this file")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.command == "depth" and not args.ideal:
        if args.n is None or args.d is None or not args.u or not args.v:
            print("depth needs --ideal or all of --n/--d/--u/--v", file=sys.stderr)
            return USAGE_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse, spec and domain errors too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:  # a crash is a bug, never a mismatch (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
