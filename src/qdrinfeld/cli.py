"""Command line front end.

Every command takes a spec argument that is either a bundled fixture name
(ex1, ex2, ex3, ex4, gl11, zero-kappa) or a path to a spec file.  Exit
codes: 0 when every requested check passes, 2 when a mathematical check
fails (certificates are printed or serialized), 1 on input errors, 3 when
two computations that must agree did not (a bug in this package).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .algebra import AlgebraSpec, normal_form
from .colorlie import (
    build_color_lie_ring,
    build_N_and_quotient,
    check_braiding_compatibility,
    check_color_axioms,
    generic_color_lie_ring,
)
from .errors import HypothesisNotMet, InternalInconsistency, ParseError, QdrinfeldError
from .hopf import check_hopf_axioms
from .pbw import check_pbw, check_vanishing  # noqa: F401  (bench/tracing.py patches this binding)
from .scalar import parse_scalar
from .specfile import (
    GenericLieData,
    fixture_names,
    fixture_path,
    format_spec,
    parse_nc_expression,
    parse_spec_file,
)
from .uea import converse_construct, dimension_oracle, iso_check

SOFT_DEGREE_LIMIT = 6


def _load(argument: str):
    if argument in fixture_names():
        return parse_spec_file(fixture_path(argument))
    path = Path(argument)
    if not path.exists():
        raise ParseError(
            f"{argument!r} is neither a fixture name {fixture_names()} nor a file"
        )
    return parse_spec_file(path)


def _algebra_spec(obj, command: str) -> AlgebraSpec:
    if isinstance(obj, AlgebraSpec):
        return obj
    raise ParseError(f"the {command} command needs a deformation spec, not a generic ring")


def _emit(report: dict, as_json: bool, human) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        human(report)


def _certificate_lines(certificates) -> list[str]:
    return ["  " + json.dumps(cert) for cert in certificates]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    spec = _algebra_spec(_load(args.spec), "check")
    report = check_pbw(spec).as_dict()
    report = {"command": "check", "spec": args.spec, **report}

    def human(rep):
        for key in ("cond1", "cond2", "cond3"):
            print(f"{key}: {'pass' if rep[key] else 'FAIL'}")
        print(f"vanishing: {rep['vanishing']}  strong: {rep['strong_vanishing']}")
        print(f"verdict: {'PBW' if rep['verdict'] else 'not PBW'}")
        for group in ("cond1_violations", "cond2_violations", "cond3_violations"):
            for line in _certificate_lines(rep[group]):
                print(line)

    _emit(report, args.json, human)
    return 0 if report["verdict"] else 2


def _cmd_lie(args) -> int:
    loaded = _load(args.spec)
    if isinstance(loaded, GenericLieData):
        if args.quotient:
            raise ParseError("--quotient applies to deformation specs only")
        ring = generic_color_lie_ring(loaded)
        axioms = check_color_axioms(ring)
        report = {"command": "lie", "spec": args.spec, "mode": "generic", **axioms.as_dict()}
    else:
        ring = build_color_lie_ring(loaded)
        quotient = None
        descent = None
        if args.quotient:
            quotient, descent, extra = build_N_and_quotient(loaded)
        axioms = check_color_axioms(ring, quotient=quotient)
        report = {"command": "lie", "spec": args.spec, "mode": "from_spec", **axioms.as_dict()}
        if args.quotient:
            report["epsilon_descends"] = descent
            report["quotient_generators"] = [str(a) for a in quotient.generators]
            if not descent:
                report["descent_certificates"] = extra

    def human(rep):
        for key in ("antisymmetry", "jacobi", "bimodule", "yetter_drinfeld", "grading"):
            if rep.get(key) is not None:
                print(f"{key}: {'pass' if rep[key] else 'FAIL'}")
        if "epsilon_descends" in rep:
            print(f"epsilon descends to the quotient grading: {rep['epsilon_descends']}")
        for line in _certificate_lines(rep.get("certificates", [])):
            print(line)

    _emit(report, args.json, human)
    failed = not axioms.passed or report.get("epsilon_descends") is False
    return 2 if failed else 0


def _cmd_uea(args) -> int:
    spec = _algebra_spec(_load(args.spec), "uea")
    values = {}
    for item in args.instantiate:
        name, _, expr = item.partition("=")
        if not _:
            raise ParseError(f"--instantiate wants name=expr, got {item!r}")
        values[name.strip()] = parse_scalar(expr.strip(), spec.ctx)
    ring = build_color_lie_ring(spec)
    iso_ok, certificates = iso_check(spec, ring)
    pbw_count, quotient_dim = dimension_oracle(spec, args.degree, values or None)
    report = {
        "command": "uea",
        "spec": args.spec,
        "degree": args.degree,
        "iso": iso_ok,
        "pbw_count": pbw_count,
        "quotient_dim": quotient_dim,
        "dimensions_match": pbw_count == quotient_dim,
        "certificates": list(certificates),
    }

    def human(rep):
        print(f"enveloping algebra comparison: {'pass' if rep['iso'] else 'FAIL'}")
        print(
            f"degree {rep['degree']}: closed-form count {rep['pbw_count']}, "
            f"quotient slice {rep['quotient_dim']}"
        )
        for line in _certificate_lines(rep["certificates"]):
            print(line)

    _emit(report, args.json, human)
    return 0 if iso_ok and pbw_count == quotient_dim else 2


def _cmd_hopf(args) -> int:
    spec = _algebra_spec(_load(args.spec), "hopf")
    rep = check_hopf_axioms(spec, args.degree)
    report = {"command": "hopf", "spec": args.spec, **rep.as_dict()}
    report["braiding_compatible"] = check_braiding_compatibility(spec)

    def human(r):
        for key in (
            "strong_vanishing",
            "delta_well_defined",
            "coassociative",
            "counit_laws",
            "antipode_law",
            "braiding_compatible",
        ):
            print(f"{key}: {r[key]}")
        for line in _certificate_lines(r["certificates"]):
            print(line)

    _emit(report, args.json, human)
    return 0 if rep.passed else 2


def _cmd_converse(args) -> int:
    spec = _algebra_spec(_load(args.spec), "converse")
    ring = build_color_lie_ring(spec)
    rebuilt = converse_construct(ring)
    text = format_spec(rebuilt)
    round_trip = text == format_spec(spec)
    report = {
        "command": "converse",
        "spec": args.spec,
        "round_trip": round_trip,
        "canonical": text,
    }

    def human(rep):
        sys.stdout.write(rep["canonical"])
        print(f"round trip: {rep['round_trip']}")

    _emit(report, args.json, human)
    return 0 if round_trip else 2


def _cmd_normal_form(args) -> int:
    spec = _algebra_spec(_load(args.spec), "normal-form")
    element = parse_nc_expression(args.expr, spec)
    reduced = normal_form(element)
    report = {
        "command": "normal-form",
        "spec": args.spec,
        "input": args.expr,
        "normal_form": str(reduced),
    }
    _emit(report, args.json, lambda rep: print(rep["normal_form"]))
    return 0


def _cmd_fmt(args) -> int:
    text = format_spec(_load(args.spec))
    if args.json:
        print(json.dumps({"command": "fmt", "spec": args.spec, "canonical": text}, indent=2))
    else:
        sys.stdout.write(text)
    return 0


def run_all(argument: str, degree: int = 3) -> dict:
    """check, lie, uea and hopf in order with one aggregated report.

    When strong vanishing fails the hopf sweep is marked exploratory: its
    failures are reported but the structure was never claimed to exist.
    """
    started = time.monotonic()
    loaded = _load(argument)
    verdicts = {}
    certificates = {}
    if isinstance(loaded, GenericLieData):
        ring = generic_color_lie_ring(loaded)
        axioms = check_color_axioms(ring)
        verdicts["lie"] = axioms.passed
        certificates["lie"] = list(axioms.certificates)
    else:
        spec = loaded
        pbw = check_pbw(spec)
        verdicts["check"] = pbw.verdict
        certificates["check"] = [
            *pbw.cond1_violations,
            *pbw.cond2_violations,
            *pbw.cond3_violations,
        ]
        strong = pbw.strong_vanishing
        verdicts["strong_vanishing"] = strong

        ring = build_color_lie_ring(spec, force=not (pbw.verdict and pbw.vanishing))
        axioms = check_color_axioms(ring)
        verdicts["lie"] = axioms.passed
        certificates["lie"] = list(axioms.certificates)

        iso_ok, iso_certs = iso_check(spec, ring)
        pbw_count, quotient_dim = dimension_oracle(spec, degree)
        verdicts["uea"] = iso_ok and pbw_count == quotient_dim
        certificates["uea"] = list(iso_certs)

        hopf = check_hopf_axioms(spec, degree)
        verdicts["hopf"] = hopf.passed
        verdicts["hopf_exploratory"] = not strong
        certificates["hopf"] = list(hopf.certificates)
        if not strong:
            certificates["strong_vanishing"] = pbw.strong_vanishing_violations

    passed = all(
        value for key, value in verdicts.items() if key != "hopf_exploratory"
    )
    return {
        "command": "all",
        "spec": argument,
        "degree": degree,
        "verdicts": verdicts,
        "certificates": certificates,
        "passed": passed,
        "exit_code": 0 if passed else 2,
        "timing": round(time.monotonic() - started, 3),
    }


def _cmd_all(args) -> int:
    report = run_all(args.spec, args.degree)

    def human(rep):
        for key, value in rep["verdicts"].items():
            print(f"{key}: {value}")
        print(f"overall: {'pass' if rep['passed'] else 'FAIL'}")

    _emit(report, args.json, human)
    return report["exit_code"]


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdrinfeld",
        description="exact checks for PBW deformations of skew group algebras "
        "and the bracket rings they envelop",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, degree=False, expr=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="fixture name or spec file path")
        if expr:
            p.add_argument("expr", help="element expression, e.g. 'v2*v1*g(1)'")
        if degree:
            p.add_argument("--degree", type=int, default=3, help="degree bound (default 3)")
        p.add_argument("--json", action="store_true", help="machine readable output")
        p.set_defaults(handler=handler)
        return p

    add("check", _cmd_check, "PBW conditions and verdict")
    lie = add("lie", _cmd_lie, "bracket ring and its axioms")
    lie.add_argument("--quotient", action="store_true", help="also check the quotient grading")
    uea = add("uea", _cmd_uea, "enveloping algebra comparison and dimensions", degree=True)
    uea.add_argument(
        "--instantiate",
        action="append",
        default=[],
        metavar="NAME=EXPR",
        help="parameter value for the dimension count (repeatable)",
    )
    add("hopf", _cmd_hopf, "coalgebra laws on a degree-bounded slice", degree=True)
    add("converse", _cmd_converse, "rebuild the spec from its bracket ring")
    add("normal-form", _cmd_normal_form, "reduce an element expression", expr=True)
    add("fmt", _cmd_fmt, "echo the canonical spec text")
    add("all", _cmd_all, "run check, lie, uea and hopf in order", degree=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    degree = getattr(args, "degree", None)
    if degree is not None:
        if degree < 0:
            print("the degree bound must be nonnegative", file=sys.stderr)
            return 1
        if degree > SOFT_DEGREE_LIMIT:
            print(
                f"note: degree {degree} exceeds the soft limit {SOFT_DEGREE_LIMIT}; "
                "sweeps grow quickly from here",
                file=sys.stderr,
            )
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except HypothesisNotMet as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except QdrinfeldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
