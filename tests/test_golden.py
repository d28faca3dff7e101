"""Byte-for-byte outputs of the CLI, the PBW and Hopf reports and the generic rewriter.

The files under tests/golden/ hold the exact output of a known-good
revision.  Refactors must leave every one of them unchanged.  When an
output change is intended, regenerate them from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import io
import itertools
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qdrinfeld.cli import main
from qdrinfeld.colorlie import generic_color_lie_ring
from qdrinfeld.errors import HypothesisNotMet
from qdrinfeld.hopf import check_hopf_axioms
from qdrinfeld.pbw import check_pbw
from qdrinfeld.scalar import Scalar
from qdrinfeld.specfile import fixture_names, load_fixture
from qdrinfeld.uea import build_uea

from randspec import corpus

GOLDEN = Path(__file__).resolve().parent / "golden"

# case name -> (subcommand, extra options); every fixture is run through each
COMMANDS = {
    "check": ("check", ()),
    "lie": ("lie", ()),
    "lie-quotient": ("lie", ("--quotient",)),
    "uea-d2": ("uea", ("--degree", "2")),
    "hopf-d2": ("hopf", ("--degree", "2")),
    "converse": ("converse", ()),
    "fmt": ("fmt", ()),
}

# case name -> (subcommand, extra options); human-readable stdout on every fixture
HUMAN = {
    "human-check": ("check", ()),
    "human-lie": ("lie", ()),
    "human-uea-d2": ("uea", ("--degree", "2")),
    "human-hopf-d2": ("hopf", ("--degree", "2")),
    "human-all-d2": ("all", ("--degree", "2")),
}

# case name -> (subcommand, extra options, fixtures): slower runs on a few fixtures
SELECTED = {
    "hopf-d3": ("hopf", ("--degree", "3"), ("ex1", "ex2")),
    "hopf-d4": ("hopf", ("--degree", "4"), ("ex1",)),
}

# one descending word of degree >= 3 with a group letter per algebra fixture
NORMAL_FORMS = {
    "ex1": "v3*v2*v1*g(1,2)",
    "ex2": "v3*v2*v1*g(1)",
    "ex3": "v3*v2*v1*g(2)",
    "ex4": "v4*v3*v2*v1*g(1,1)",
    "zero-kappa": "v2*v2*v1*g(1)",
}


def _run(argv) -> str:
    """Exit code plus stdout, or plus the stderr line when nothing was printed."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    body = out.getvalue() or "stderr: " + err.getvalue()
    return f"exit {code}\n{body}"


def cli_outputs() -> dict[str, str]:
    outputs = {}
    for case, (command, options) in COMMANDS.items():
        for fixture in fixture_names():
            argv = [command, fixture, *options, "--json"]
            outputs[f"{case}__{fixture}"] = _run(argv)
    for fixture, expr in NORMAL_FORMS.items():
        outputs[f"normal-form__{fixture}"] = _run(["normal-form", fixture, expr, "--json"])
    return outputs


def human_outputs() -> dict[str, str]:
    outputs = {}
    for case, (command, options) in HUMAN.items():
        for fixture in fixture_names():
            outputs[f"{case}__{fixture}"] = _run([command, fixture, *options])
    return outputs


def all_json_outputs() -> dict[str, str]:
    """all --json --degree 2 per fixture, without the wall-clock timing key."""
    outputs = {}
    for fixture in fixture_names():
        head, body = _run(["all", fixture, "--degree", "2", "--json"]).split("\n", 1)
        report = json.loads(body)
        del report["timing"]
        outputs[f"all-d2__{fixture}"] = f"{head}\n{json.dumps(report, indent=2)}\n"
    return outputs


def selected_outputs() -> dict[str, str]:
    outputs = {}
    for case, (command, options, fixtures) in SELECTED.items():
        for fixture in fixtures:
            outputs[f"{case}__{fixture}"] = _run([command, fixture, *options, "--json"])
    return outputs


def pbw_corpus_output() -> str:
    lines = [json.dumps(check_pbw(spec).as_dict()) for spec in corpus(60)]
    return "\n".join(lines) + "\n"


def _hopf_line(spec) -> str:
    """The Hopf report at degree 3, or the refusal as `hopf` prints it."""
    try:
        return json.dumps(check_hopf_axioms(spec, 3).as_dict())
    except HypothesisNotMet as exc:
        return f"hypothesis not met: {exc}"


def hopf_corpus_output() -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lines = [_hopf_line(spec) for spec in corpus(60)]
    return "\n".join(lines) + "\n"


def generic_reduce_output() -> str:
    ring = generic_color_lie_ring(load_fixture("gl11"))
    pres = build_uea(ring)
    one = Scalar.one(ring.epsilon.ctx)
    lines = []
    for length in range(5):
        for word in itertools.product(range(ring.size), repeat=length):
            # sorted, since the key order of the engine's result is not a contract
            reduced = pres.reduce({word: one})
            in_order = {key: reduced[key] for key in sorted(reduced)}
            lines.append(f"{word} -> {in_order}")
    return "\n".join(lines) + "\n"


def all_outputs() -> dict[str, str]:
    outputs = {f"cli/{case}.txt": text for case, text in cli_outputs().items()}
    outputs.update({f"cli/{case}.txt": text for case, text in selected_outputs().items()})
    outputs.update({f"cli/{case}.txt": text for case, text in human_outputs().items()})
    outputs.update({f"cli/{case}.txt": text for case, text in all_json_outputs().items()})
    outputs["pbw_corpus.txt"] = pbw_corpus_output()
    outputs["hopf_corpus.txt"] = hopf_corpus_output()
    outputs["gl11_reduce.txt"] = generic_reduce_output()
    return outputs


def _assert_golden(relative: str, text: str) -> None:
    expected = (GOLDEN / relative).read_text()
    assert text == expected, f"{relative} differs from its golden output"


def test_cli_outputs_match_golden():
    outputs = cli_outputs()
    assert len(outputs) == len(COMMANDS) * len(fixture_names()) + len(NORMAL_FORMS)
    for case, text in outputs.items():
        _assert_golden(f"cli/{case}.txt", text)


def test_human_outputs_match_golden():
    outputs = human_outputs()
    assert len(outputs) == len(HUMAN) * len(fixture_names())
    for case, text in outputs.items():
        _assert_golden(f"cli/{case}.txt", text)


def test_all_json_outputs_match_golden():
    outputs = all_json_outputs()
    assert len(outputs) == len(fixture_names())
    for case, text in outputs.items():
        _assert_golden(f"cli/{case}.txt", text)


def test_degree_three_hopf_sweeps_match_golden():
    outputs = selected_outputs()
    assert len(outputs) == sum(len(fixtures) for _, _, fixtures in SELECTED.values())
    for case, text in outputs.items():
        _assert_golden(f"cli/{case}.txt", text)


def test_pbw_reports_on_the_corpus_match_golden():
    _assert_golden("pbw_corpus.txt", pbw_corpus_output())


def test_hopf_reports_on_the_corpus_match_golden():
    _assert_golden("hopf_corpus.txt", hopf_corpus_output())


def test_generic_rewriter_matches_golden():
    _assert_golden("gl11_reduce.txt", generic_reduce_output())


if __name__ == "__main__":
    for relative, text in all_outputs().items():
        path = GOLDEN / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
