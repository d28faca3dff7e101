"""Command line front end.

Every command takes a spec argument that is either a bundled fixture name
(ex1, ex2, ex3, ex4, gl11, zero-kappa) or a path to a spec file.  Exit
codes: 0 when every requested check passes, 2 when a mathematical check
fails (certificates are printed or serialized) or when `lie`, `uea`,
`hopf` or `converse` refuses a spec outside the paper's hypotheses
("hypothesis not met"), 3 when two computations that must agree did not
(a bug in this package), and 1 with "input error:" on every other
refusal.  A message longer than MAX_MESSAGE characters is cut to its
head and its length.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .algebra import AlgebraSpec, normal_form, pbw_monomial_count
from .colorlie import (
    ColorAxiomReport,
    build_N_and_quotient,
    check_color_axioms,
    generic_color_lie_ring,
    require_hypotheses,
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
from .uea import instantiate_spec

# stderr shows at most this many characters of a message, so that a
# refusal never echoes a whole oversized input
MAX_MESSAGE = 120


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
        axioms = check_color_axioms(generic_color_lie_ring(loaded))
        report = {"command": "lie", "spec": args.spec, "mode": "generic", **axioms.as_dict()}
    else:
        # the paper's theorems decide the own ring's axioms, and the grading
        # modulo N holds by construction of N (require_hypotheses' proofs)
        require_hypotheses(loaded)
        axioms = ColorAxiomReport(True, True, True, True, True if args.quotient else None, ())
        report = {"command": "lie", "spec": args.spec, "mode": "from_spec", **axioms.as_dict()}
        if args.quotient:
            quotient, descent, extra = build_N_and_quotient(loaded)
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
        name = name.strip()
        if name in values:
            raise ParseError(f"--instantiate gives {name!r} more than once")
        values[name] = parse_scalar(expr.strip(), spec.ctx)
    # the comparison map passes, and the quotient slice is the closed-form
    # count at every point that instantiate_spec accepts, by the paper's
    # theorems (require_hypotheses' proofs)
    require_hypotheses(spec)
    point = instantiate_spec(spec, values or None)
    count = pbw_monomial_count(point, args.degree)
    # interpreters before 3.10.7 print integers of any length
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and count >= 10**limit:
        raise ParseError(
            f"the count at this degree has more than {limit} digits, "
            "past the interpreter's limit for printing an integer"
        )
    report = {
        "command": "uea",
        "spec": args.spec,
        "degree": args.degree,
        "iso": True,
        "pbw_count": count,
        "quotient_dim": count,
        "dimensions_match": True,
        "certificates": [],
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
    return 0


def _cmd_hopf(args) -> int:
    spec = _algebra_spec(_load(args.spec), "hopf")
    rep = check_hopf_axioms(spec, args.degree)
    report = {"command": "hopf", "spec": args.spec, **rep.as_dict()}
    # check_braiding_compatibility is strong vanishing read from the pairing
    report["braiding_compatible"] = rep.strong_vanishing

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
    # the own ring rebuilds the spec by the paper's theorems, and its
    # self-pairings are 1 (require_hypotheses' proofs, "Comparison map")
    require_hypotheses(spec)
    report = {
        "command": "converse",
        "spec": args.spec,
        "round_trip": True,
        "canonical": format_spec(spec),
    }

    def human(rep):
        sys.stdout.write(rep["canonical"])
        print(f"round trip: {rep['round_trip']}")

    _emit(report, args.json, human)
    return 0


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
    report = {"command": "fmt", "spec": args.spec, "canonical": format_spec(_load(args.spec))}
    _emit(report, args.json, lambda rep: sys.stdout.write(rep["canonical"]))
    return 0


def run_all(argument: str, degree: int = 3) -> dict:
    """check, lie, uea and hopf in order with one aggregated report.

    On a deformation spec, check decides the hypotheses of the paper's
    two theorems, which colorlie.require_hypotheses reads from its
    report: the PBW verdict (conditions 1-3, which check_pbw holds
    against the overlap oracle) and weak vanishing.  Outside them the
    paper claims nothing: lie, uea, hopf and hopf_exploratory are None
    with no certificates, nothing else runs, and the run fails, as `lie`,
    `uea` and `hopf` refuse such a spec.

    Inside them lie and uea are True with no certificates, and nothing
    is built or computed for them: these are the verdicts that
    check_color_axioms, iso_check and dimension_oracle, at every point
    that instantiate_spec accepts, give on the spec's own ring, by the
    proofs in require_hypotheses' docstring.  Hopf is check_hopf_axioms,
    which reads the same gate and raises outside it, and computes
    nothing at any degree.  When strong vanishing fails, hopf is False by proof,
    with one certificate per strong violation (the braiding does not
    preserve the relations), and hopf_exploratory is True: it marks a
    spec where the paper claims no Hopf structure.
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
        verdicts.update(lie=None, uea=None, hopf=None, hopf_exploratory=None)
        certificates.update(lie=[], uea=[], hopf=[])
        try:
            hopf = check_hopf_axioms(spec, degree)
        except HypothesisNotMet:
            pass
        else:
            verdicts.update(lie=True, uea=True, hopf=hopf.passed, hopf_exploratory=not strong)
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
            print(f"{key}: {'not decided (hypothesis not met)' if value is None else value}")
        # a failed check prints its certificates, as `check` does
        for line in _certificate_lines(rep["certificates"].get("check", [])):
            print(line)
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
            # read in main, so that a malformed value is an input error
            p.add_argument("--degree", default="3", help="degree bound (default 3)")
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
    add(
        "hopf",
        _cmd_hopf,
        "braided Hopf laws, decided from the braiding, where the spec is PBW with "
        "weak vanishing (exit 2 otherwise)",
        degree=True,
    )
    add("converse", _cmd_converse, "the spec its bracket ring rebuilds, by the paper's theorems")
    add("normal-form", _cmd_normal_form, "reduce an element expression", expr=True)
    add("fmt", _cmd_fmt, "echo the canonical spec text")
    add(
        "all",
        _cmd_all,
        "run check, then lie, uea and hopf where the spec is PBW with weak vanishing "
        "(null verdicts and exit 2 otherwise)",
        degree=True,
    )
    return parser


def _refuse(prefix: str, exc: QdrinfeldError) -> None:
    message = str(exc)
    if len(message) > MAX_MESSAGE:
        message = f"{message[:MAX_MESSAGE]}... ({len(message)} characters)"
    print(f"{prefix}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        degree = getattr(args, "degree", None)
        if degree is not None:
            try:
                # int() refuses more digits than sys.get_int_max_str_digits()
                degree = args.degree = int(degree)
            except ValueError:
                raise ParseError(f"--degree wants an integer, got {degree!r}") from None
            if degree < 0:
                raise ParseError("the degree bound must be nonnegative")
            # the Hopf report is asked up to a degree of at least 1, and all
            # gives it last; the answer is the same at every such degree
            if degree == 0 and args.command in ("hopf", "all"):
                raise ParseError("the degree bound must be at least 1")
        return args.handler(args)
    except HypothesisNotMet as exc:
        _refuse("hypothesis not met", exc)
        return 2
    except InternalInconsistency as exc:
        _refuse("internal error", exc)
        return 3
    except QdrinfeldError as exc:
        _refuse("input error", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
