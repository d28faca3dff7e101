"""The two benchmark workloads and their reference answers.

Each workload is a closed loop with one caller: it hands the package one
input, waits for the verdict, checks it against a reference answer that
does not come from the code under test, and only then sends the next.

Reference answers:

* fixtures-all-d2: a hand-written table of expected verdicts, taken from
  the README's fixture table and the acceptance criteria (ex1: PBW holds,
  strong identity fails, Hopf obstructed and exploratory; ex2, ex3, ex4
  and zero-kappa fully green; gl11: axioms pass).
* check-corpus: the overlap-rewriting oracle, complete by the diamond
  lemma (Bergman, Adv. Math. 29, 1978).

A closed-form verdict that says "not PBW" while the oracle says
confluent, with conditions 1 and 2 passing, condition 3 failing and
corrections on two or more group letters, is the known multi-letter
defect (ROADMAP item 4).  It counts as a wrong verdict in ``failed`` like
any other; it is told apart only so that ``correct`` stays reserved for
failures nobody has explained yet: any other wrong verdict, a verdict that
raises and one past its deadline.
"""

from __future__ import annotations

import importlib
import random

# Degree 2, not the ROADMAP's 3: a degree-3 pass over the six fixtures
# takes 30-40 s, so no fixture could be timed twice in a run; a degree-2
# pass takes about 4 s and the Hopf sweep is still most of it.
FIXTURE_DEGREE = 2

_GREEN = {
    "check": True,
    "strong_vanishing": True,
    "lie": True,
    "uea": True,
    "hopf": True,
    "hopf_exploratory": False,
}
EXPECTED_FIXTURES = {
    "ex1": {
        "check": True,
        "strong_vanishing": False,
        "lie": True,
        "uea": True,
        "hopf": False,
        "hopf_exploratory": True,
    },
    "ex2": _GREEN,
    "ex3": _GREEN,
    "ex4": _GREEN,
    "zero-kappa": _GREEN,
    "gl11": {"lie": True},
}

# Outcomes of one verdict.
OK = "ok"
WRONG = "wrong"
KNOWN_DEFECT = "known_defect"


def _package(name: str):
    return importlib.import_module(f"qdrinfeld.{name}")


def _is_known_defect(spec, report) -> bool:
    letters = {
        g.exps for i, j in spec.kappa_support() for _, g, _ in spec.kappa_pairs(i, j)
    }
    return (
        not report.verdict
        and report.oracle_confluent
        and report.cond1
        and report.cond2
        and not report.cond3
        and len(letters) >= 2
    )


def _pbw_outcome(spec, report) -> str:
    """Closed-form verdict against the overlap oracle."""
    if report.verdict == report.oracle_confluent:
        return OK
    return KNOWN_DEFECT if _is_known_defect(spec, report) else WRONG


class Workload:
    """A fixed list of inputs made from a seed, and one verdict per input.

    ``setup`` makes every input of the run into ``items``; a run then
    decides all of them in rounds, the same items in the same order each
    round, so each item is timed several times.
    """

    name = ""
    deadline_s = 60.0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def decide(self, item) -> str:
        raise NotImplementedError


class FixturesAllD2(Workload):
    name = "fixtures-all-d2"
    deadline_s = 90.0

    def setup(self, seed: int) -> None:
        specfile = _package("specfile")
        self.items = list(specfile.fixture_names())
        random.Random(seed).shuffle(self.items)
        # every fixture must parse before the first verdict
        for name in self.items:
            specfile.load_fixture(name)

    def decide(self, name: str) -> str:
        report = _package("cli").run_all(name, FIXTURE_DEGREE)
        expected = EXPECTED_FIXTURES[name]
        expected_pass = all(v for k, v in expected.items() if k != "hopf_exploratory")
        if report["verdicts"] == expected and report["passed"] == expected_pass:
            return OK
        return WRONG


class CheckCorpus(Workload):
    """Canonical spec texts rendered from seeded generated specs."""

    name = "check-corpus"
    deadline_s = 10.0

    def setup(self, seed: int) -> None:
        specgen = importlib.import_module("specgen")
        rng = random.Random(seed)
        format_spec = _package("specfile").format_spec
        # four specs of each corpus shape
        self.items = [
            format_spec(specgen.corpus_spec(rng, index))
            for index in range(4 * len(specgen.CORPUS_SHAPES))
        ]

    def decide(self, text: str) -> str:
        spec = _package("specfile").parse_spec_text(text)
        return _pbw_outcome(spec, _package("pbw").check_pbw(spec))


WORKLOADS = {w.name: w for w in (FixturesAllD2, CheckCorpus)}
