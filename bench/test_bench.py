"""Tests of the benchmark itself: inputs, tracing, deadlines and output names.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import importlib
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

HOPF_COUNTERS = (
    "hopf.check_hopf_axioms_s",
    "hopf.coproduct_s",
    "hopf.coproduct_calls",
    "hopf.coproduct_distinct_ratio",
    "hopf.braided_product_calls",
    "hopf.antipode_calls",
)

MULTI_LETTER_DEFECT = """\
[field]
conductor = 6
[group]
orders = [2, 2]
[action]
characters = [[0, 0], [0, 1], [0, 0]]
[q]
1 2 = 1
1 3 = 1
2 3 = -1 + zeta(6)
[kappa]
1 2 -> 2 (1,0) 1 - zeta(6)
2 3 -> 2 (1,0) 1 - zeta(6) ; 2 (1,1) zeta(6)
"""


def _texts(workload_cls, seed: int) -> list[str]:
    workload = workload_cls()
    workload.setup(seed)
    return workload.items


def _run(argv) -> tuple[dict, dict]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert run.main(argv) == 0
    lines = buffer.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture
def small_traced_work(monkeypatch):
    """Traced runs over 40 corpus specs."""
    specgen = importlib.import_module("specgen")
    monkeypatch.setattr(specgen, "CORPUS_SHAPES", specgen.CORPUS_SHAPES[:10])
    monkeypatch.setattr(run, "_fresh_import", lambda: None)


def test_same_seed_gives_identical_texts():
    first = _texts(workloads.CheckCorpus, 7)
    again = _texts(workloads.CheckCorpus, 7)
    assert [t.encode() for t in first] == [t.encode() for t in again]
    assert first != _texts(workloads.CheckCorpus, 8)


def test_corpus_texts_identical_across_processes():
    code = (
        "import sys; sys.path[:0] = ['src', 'bench']; import hashlib, workloads; "
        "w = workloads.CheckCorpus(); w.setup(5); "
        "print(hashlib.sha256(''.join(w.items).encode()).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    }
    assert len(digests) == 1


def test_corpus_has_the_wider_shapes():
    specgen = importlib.import_module("specgen")
    import random

    rng = random.Random(3)
    specs = [specgen.corpus_spec(rng, i) for i in range(4 * len(specgen.CORPUS_SHAPES))]
    assert {spec.n for spec in specs} == {2, 3, 4}
    assert {spec.group.orders for spec in specs} >= {(3, 3), (2, 4)}
    assert any(
        len(spec.kappa_pairs(i, j)) == 2 for spec in specs for i, j in spec.kappa_support()
    )


def test_spans_nest_without_orphans():
    tracer = Tracer()
    tracer.install()
    try:
        workload = workloads.CheckCorpus()
        workload.setup(2)
        for spec_id, text in enumerate(workload.items[:15]):
            tracer.begin_spec(spec_id)
            tracer.span("bench.verdict", workload.decide, text)
            tracer.end_spec()
        tracer.begin_spec(99)
        tracer.span("bench.verdict", importlib.import_module("qdrinfeld.cli").run_all, "zero-kappa", 2)
        tracer.end_spec()
    finally:
        tracer.remove()
    spans = {span[0]: span for span in tracer.spans}
    assert len(spans) == len(tracer.spans)
    names = {span[2] for span in tracer.spans}
    assert {"pbw.check_pbw", "algebra.normal_form", "hopf.coproduct", "cli.run_all"} <= names
    for span_id, parent, name, start, end, spec_id in tracer.spans:
        assert start <= end
        if parent is None:
            assert name in ("bench.verdict", "specfile.format_spec")
            continue
        assert parent in spans, f"orphan span {name}"
        _, _, _, p_start, p_end, p_spec = spans[parent]
        assert p_start <= start and end <= p_end
        assert p_spec == spec_id
    assert all(own >= -1e-9 for own in tracer.self_times().values())


def test_tracer_patches_every_binding_and_restores_them():
    pbw = importlib.import_module("qdrinfeld.pbw")
    hopf = importlib.import_module("qdrinfeld.hopf")
    scalar = importlib.import_module("qdrinfeld.scalar")
    original = importlib.import_module("qdrinfeld.algebra").normal_form
    original_mul = scalar.Scalar.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("algebra", "pbw", "hopf", "uea", "cli"):
            assert importlib.import_module(f"qdrinfeld.{name}").normal_form is not original
        for name in ("colorlie", "hopf", "uea", "cli"):
            module = importlib.import_module(f"qdrinfeld.{name}")
            assert module.check_vanishing.__wrapped__ is pbw.check_vanishing.__wrapped__
        assert scalar.Scalar.__mul__ is not original_mul
        assert hopf.normal_form.__wrapped__ is original
    finally:
        tracer.remove()
    assert pbw.normal_form is original and hopf.normal_form is original
    assert scalar.Scalar.__mul__ is original_mul


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_every_fixture_matches_its_expected_verdicts():
    workload = workloads.FixturesAllD2()
    workload.setup(1)
    assert sorted(workload.items) == sorted(workloads.EXPECTED_FIXTURES)
    assert [workload.decide(name) for name in workload.items] == [workloads.OK] * 6


def test_known_multi_letter_defect_is_classified():
    specfile = importlib.import_module("qdrinfeld.specfile")
    spec = specfile.parse_spec_text(MULTI_LETTER_DEFECT)
    report = importlib.import_module("qdrinfeld.pbw").check_pbw(spec)
    assert workloads._pbw_outcome(spec, report) == workloads.KNOWN_DEFECT


def test_deadline_counts_as_failed():
    class Sleeper(workloads.Workload):
        items = [1.0, 1.0]
        deadline_s = 0.05

        def decide(self, seconds):
            time.sleep(seconds)
            return workloads.OK

    import signal

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        times, outcomes = run._measure(Sleeper(), 0.0, None, time.perf_counter())
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes == [run.DEADLINE, run.DEADLINE]
    assert max(map(max, times)) < 0.5
    assert [len(item_times) for item_times in times] == [1, 1]


def test_rounds_repeat_every_item_and_keep_its_worst_outcome():
    calls = []

    class Flaky(workloads.Workload):
        items = ["steady", "flaky"]

        def decide(self, item):
            calls.append(item)
            time.sleep(0.01)
            if len(calls) == 4:
                return workloads.KNOWN_DEFECT
            return workloads.OK

    times, outcomes = run._measure(Flaky(), 0.15, None, time.perf_counter())
    rounds = len(times[0])
    assert 3 <= rounds and len(times[1]) == rounds
    # a round is about 0.02 s, and none starts that would end past 0.15 s
    assert sum(map(sum, times)) < 0.15 + 0.03
    assert outcomes == [workloads.OK, workloads.KNOWN_DEFECT]


def test_each_item_counts_its_fastest_round():
    values = run.end_to_end_metrics([0.5, 0.1, 0.2], [[0.003, 0.001], [0.002, 0.004]])
    assert values["setup_s"] == 0.2
    assert values["specs_per_s"] == pytest.approx(2 / 0.003)
    assert values["verdict_ms.p50"] == pytest.approx(1.5)


@pytest.mark.parametrize("error", [AssertionError, ValueError])
def test_raising_verdicts_make_the_run_incorrect(monkeypatch, error):
    def decide(self, text):
        raise error("broken")

    monkeypatch.setattr(workloads.CheckCorpus, "setup", lambda self, seed: setattr(self, "items", [""] * 5))
    monkeypatch.setattr(workloads.CheckCorpus, "decide", decide)
    info, result = _run(["--workload", "check-corpus", "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 5
    assert info["failures"]["raised"] == 5


def test_known_defect_alone_keeps_the_run_correct(monkeypatch):
    monkeypatch.setattr(workloads.CheckCorpus, "setup", lambda self, seed: setattr(self, "items", [""] * 4))
    monkeypatch.setattr(workloads.CheckCorpus, "decide", lambda self, text: workloads.KNOWN_DEFECT)
    _, result = _run(["--workload", "check-corpus", "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] == 4


def test_end_to_end_names_match_benchmark_json():
    info, result = _run(["--workload", "check-corpus", "--seed", "1", "--seconds", "0.2", "--trace", "0"])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert info["context"]["seed"] == 1 and info["context"]["python"]


def test_traced_names_and_zero_hopf_counters(small_traced_work):
    _, result = _run(["--workload", "check-corpus", "--seed", "3", "--seconds", "1", "--trace", "1"])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name in HOPF_COUNTERS:
        assert result["metrics"][name]["value"] == 0, name
    assert result["metrics"]["scalar.mul_calls"]["value"] > 0


def test_traced_counts_repeat_for_a_seed(small_traced_work):
    argv = ["--workload", "check-corpus", "--seed", "4", "--seconds", "1", "--trace", "1"]
    runs = [_run(argv)[1]["metrics"] for _ in range(2)]
    for name, unit in ((m["name"], m["unit"]) for m in BENCHMARK["per_layer"]):
        if unit in ("count", "ratio"):
            assert runs[0][name] == runs[1][name], name


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
