"""Benchmark for qdrinfeld: one closed-loop workload per run.

Usage, from the repository root:

    python3 bench/run.py --workload check-corpus --seed 1 --seconds 50 --trace 0

A run makes a fixed list of inputs from the seed and decides them in
rounds, one verdict at a time.  ``--trace 0`` measures the end-to-end
metrics: it sets up several times and reports the median set-up time,
then repeats rounds for about ``--seconds`` (at least one round); each
input's verdict time is the fastest of its rounds.  ``--trace 1`` wraps
the package's public functions (see ``tracing.py``) and runs one round,
so that every count repeats exactly for a seed, and reports the
per-layer metrics.  Every verdict is checked against its reference
answer (see ``workloads.py``); a verdict past the per-spec deadline,
which ``signal.setitimer`` enforces in this process, counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is
the number of inputs and ``failed`` the number whose verdict, in any
round, raised, passed its deadline or disagreed with its reference;
``correct`` is false when any did, unless the disagreement is the known
multi-letter defect (see ``workloads.py``).  The line before it records
the context (Python version, cores, seed, commit), the failure breakdown
and the item and round counts.  Traced runs also write their spans and
results under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 9
# every run must end well inside three minutes, whatever the deadlines
RUN_BUDGET_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "specs_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.run_all_s": "s",
    "specfile.parse_s": "s",
    "specfile.parse_calls": "count",
    "specfile.format_s": "s",
    "pbw.check_pbw_self_s": "s",
    "pbw.overlap_oracle_s": "s",
    "pbw.check_vanishing_calls": "count",
    "algebra.normal_form_s": "s",
    "algebra.normal_form_calls": "count",
    "algebra.normal_form_terms_out": "count",
    "algebra.normal_form_distinct_ratio": "ratio",
    "colorlie.build_ring_s": "s",
    "colorlie.check_color_axioms_s": "s",
    "colorlie.bicharacter_eval_calls": "count",
    "uea.iso_check_s": "s",
    "uea.dimension_oracle_s": "s",
    "hopf.check_hopf_axioms_s": "s",
    "hopf.coproduct_s": "s",
    "hopf.coproduct_calls": "count",
    "hopf.coproduct_distinct_ratio": "ratio",
    "hopf.braided_product_calls": "count",
    "hopf.antipode_calls": "count",
    "scalar.mul_calls": "count",
    "scalar.add_calls": "count",
    "scalar.inv_calls": "count",
    "scalar.one_calls": "count",
    "cyclotomic.mul_calls": "count",
    "cyclotomic.inverse_calls": "count",
    "groups.char_eval_calls": "count",
    "cli.self_s": "s",
    "specfile.self_s": "s",
    "pbw.self_s": "s",
    "algebra.self_s": "s",
    "colorlie.self_s": "s",
    "uea.self_s": "s",
    "hopf.self_s": "s",
    "fail_share": "ratio",
    "fail_share.raised": "count",
    "fail_share.wrong": "count",
    "fail_share.deadline": "count",
    "fail_share.base": "count",
    "trace.specs_per_s": "1/s",
}

# stages of run_all, as in the ROADMAP baseline table
BASELINE_STAGES = {
    "pbw.check_pbw": "pbw",
    "colorlie.build_color_lie_ring": "ring",
    "colorlie.check_color_axioms": "axioms",
    "uea.iso_check": "iso",
    "uea.dimension_oracle": "dims",
    "hopf.check_hopf_axioms": "hopf",
}

RAISED = "raised"
DEADLINE = "deadline"
# an item's outcome is the worst of its rounds
_SEVERITY = {"ok": 0, "known_defect": 1, "wrong": 2, RAISED: 3, DEADLINE: 3}


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so no `except Exception` eats it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _is_fresh(key: str) -> bool:
    """Modules a set-up imports afresh: the package and the generators."""
    return key == "qdrinfeld" or key.startswith("qdrinfeld.") or key == "specgen"


def _forget() -> None:
    """Drop the package and the generators from the module cache."""
    for key in [key for key in sys.modules if _is_fresh(key)]:
        del sys.modules[key]


def _fresh_import() -> None:
    """Import the package anew, as a new process would."""
    _forget()
    package = importlib.import_module("qdrinfeld")
    importlib.import_module("qdrinfeld.cli")
    if Path(package.__file__).resolve().parent != SRC / "qdrinfeld":
        raise SystemExit(f"imported qdrinfeld from {package.__file__}, not from {SRC}")


def _set_up_aside(set_up) -> None:
    """One more timed set-up; the verdicts keep the modules they ran on."""
    kept = {key: module for key, module in sys.modules.items() if _is_fresh(key)}
    set_up()
    _forget()
    sys.modules.update(kept)
    # the set-up's modules hold reference cycles; free them before the next verdict
    gc.collect()


def _measure(workload, seconds: float, tracer, started: float, set_up=None):
    """Rounds of verdicts over the workload's items, one caller, closed loop.

    Each round decides every item once, in order.  Another round starts
    only if it should end within ``seconds`` of the start, judged by the
    last round's time; a run has at least one round, a traced run exactly
    one.  ``set_up``, when given, is called between two verdicts whenever
    ``seconds / SETUP_REPEATS`` have passed since the last call, so that
    set-ups are spread over the run.  Returns each item's verdict times
    (one per round) and its worst outcome over the rounds.
    """
    from workloads import OK

    times: list[list[float]] = [[] for _ in workload.items]
    outcomes = [OK] * len(workload.items)
    loop_start = last_set_up = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for index, item in enumerate(workload.items):
            if set_up is not None and time.perf_counter() - last_set_up >= seconds / SETUP_REPEATS:
                set_up()
                last_set_up = time.perf_counter()
            limit = min(workload.deadline_s, RUN_BUDGET_S - (time.perf_counter() - started))
            if tracer is not None:
                tracer.begin_spec(index)
            begin = time.perf_counter()
            try:
                if limit <= 0:
                    raise DeadlineExceeded
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    if tracer is None:
                        outcome = workload.decide(item)
                    else:
                        outcome = tracer.span("bench.verdict", workload.decide, item)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded:
                outcome = DEADLINE
            except Exception:
                # the run goes on; the first traceback shows what broke
                if RAISED not in outcomes:
                    traceback.print_exc()
                outcome = RAISED
            times[index].append(time.perf_counter() - begin)
            if _SEVERITY[outcome] > _SEVERITY[outcomes[index]]:
                outcomes[index] = outcome
            if tracer is not None:
                tracer.end_spec()
        now = time.perf_counter()
        if tracer is not None or (now - loop_start) + (now - round_start) > seconds:
            return times, outcomes


def _failures(outcomes: list[str]) -> dict:
    from workloads import KNOWN_DEFECT, WRONG

    counts = Counter(outcomes)
    wrong = counts[WRONG] + counts[KNOWN_DEFECT]
    failed = counts[RAISED] + wrong + counts[DEADLINE]
    return {
        "failed": failed,
        "fail_share": failed / len(outcomes),
        "raised": counts[RAISED],
        "wrong": wrong,
        "known_defect": counts[KNOWN_DEFECT],
        "deadline": counts[DEADLINE],
        "base": len(outcomes),
    }


def _tail_percentile(count: int) -> float:
    """Highest percentile up to 90 with at least ten samples beyond it, never below 50."""
    return max(50.0, min(90.0, 100.0 * (1 - 10 / count)))


def _percentile(times: list[float], pct: float) -> float:
    """Linear interpolation between order statistics (the "inclusive" method)."""
    ordered = sorted(times)
    position = (len(ordered) - 1) * pct / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end_metrics(setup_times, times) -> dict:
    """Each item's verdict time is the fastest of its rounds."""
    best = [min(item_times) for item_times in times]
    return {
        "setup_s": statistics.median(setup_times),
        "specs_per_s": len(best) / sum(best),
        "verdict_ms.p50": statistics.median(best) * 1e3,
        "verdict_ms.p90": _percentile(best, _tail_percentile(len(best))) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tracer, specs_per_s, failures) -> dict:
    inclusive, own, layer = tracer.totals()
    counts = tracer.counts

    def ratio(name: str) -> float:
        return tracer.distinct[name] / counts[name] if counts[name] else 0.0

    values = {
        "cli.run_all_s": inclusive["cli.run_all"],
        "specfile.parse_s": inclusive["specfile.parse_spec_text"],
        "specfile.parse_calls": counts["specfile.parse_spec_text"],
        "specfile.format_s": inclusive["specfile.format_spec"],
        "pbw.check_pbw_self_s": own["pbw.check_pbw"],
        "pbw.overlap_oracle_s": inclusive["pbw.overlap_oracle"],
        "pbw.check_vanishing_calls": counts["pbw.check_vanishing"],
        "algebra.normal_form_s": inclusive["algebra.normal_form"],
        "algebra.normal_form_calls": counts["algebra.normal_form"],
        "algebra.normal_form_terms_out": tracer.normal_form_terms_out,
        "algebra.normal_form_distinct_ratio": ratio("algebra.normal_form"),
        "colorlie.build_ring_s": inclusive["colorlie.build_color_lie_ring"],
        "colorlie.check_color_axioms_s": inclusive["colorlie.check_color_axioms"],
        "colorlie.bicharacter_eval_calls": counts["colorlie.bicharacter_eval"],
        "uea.iso_check_s": inclusive["uea.iso_check"],
        "uea.dimension_oracle_s": inclusive["uea.dimension_oracle"],
        "hopf.check_hopf_axioms_s": inclusive["hopf.check_hopf_axioms"],
        "hopf.coproduct_s": inclusive["hopf.coproduct"],
        "hopf.coproduct_calls": counts["hopf.coproduct"],
        "hopf.coproduct_distinct_ratio": ratio("hopf.coproduct"),
        "hopf.braided_product_calls": counts["hopf.braided_product"],
        "hopf.antipode_calls": counts["hopf.antipode"],
        "scalar.mul_calls": counts["scalar.mul"],
        "scalar.add_calls": counts["scalar.add"],
        "scalar.inv_calls": counts["scalar.inv"],
        "scalar.one_calls": counts["scalar.one"],
        "cyclotomic.mul_calls": counts["cyclotomic.mul"],
        "cyclotomic.inverse_calls": counts["cyclotomic.inverse"],
        "groups.char_eval_calls": counts["groups.char_eval"],
        "fail_share": failures["fail_share"],
        "fail_share.raised": failures["raised"],
        "fail_share.wrong": failures["wrong"],
        "fail_share.deadline": failures["deadline"],
        "fail_share.base": failures["base"],
        "trace.specs_per_s": specs_per_s,
    }
    for name in ("cli", "specfile", "pbw", "algebra", "colorlie", "uea", "hopf"):
        values[f"{name}.self_s"] = layer[name]
    return values


def baseline_table(tracer, names: dict[int, str]) -> dict:
    """Per fixture, the time of each run_all stage (its span, children included)."""
    spans = {span[0]: span for span in tracer.spans}
    table: dict = {}
    for span_id, parent, name, start, end, spec_id in tracer.spans:
        if name not in BASELINE_STAGES or parent is None:
            continue
        if spans[parent][2] != "cli.run_all":
            continue
        row = table.setdefault(names[spec_id], {})
        stage = BASELINE_STAGES[name]
        row[stage] = row.get(stage, 0.0) + (end - start)
    return table


def layer_self_times(tracer) -> dict:
    _, _, layer = tracer.totals()
    total = sum(layer.values())
    return {
        name: {"self_s": seconds, "share": seconds / total if total else 0.0}
        for name, seconds in layer.most_common()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "qdrinfeld" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    warnings.simplefilter("ignore")
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    setup_times: list[float] = []

    def set_up():
        """Fresh import, then the workload's inputs; untraced set-ups are timed."""
        start = time.perf_counter()
        _fresh_import()
        if tracer is not None:
            tracer.install()
        workload = workload_cls()
        workload.setup(args.seed)
        if tracer is None:
            setup_times.append(time.perf_counter() - start)
        return workload

    def one_more_set_up() -> None:
        if len(setup_times) < SETUP_REPEATS:
            _set_up_aside(set_up)

    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        workload = set_up()
        # the traced run sets up once; the untraced one spreads its set-ups over the run
        more_set_ups = None if tracer is not None else one_more_set_up
        times, outcomes = _measure(workload, args.seconds, tracer, started, more_set_ups)
        while tracer is None and len(setup_times) < SETUP_REPEATS:
            _set_up_aside(set_up)
    finally:
        if tracer is not None:
            tracer.remove()
        signal.signal(signal.SIGALRM, previous_handler)

    attempted = len(times)
    failures = _failures(outcomes)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }
    best = [min(item_times) for item_times in times]
    tail = _tail_percentile(attempted)
    info = {
        "context": context,
        "failures": failures,
        "items": attempted,
        "rounds": min(len(item_times) for item_times in times),
        "setup_times_s": setup_times,
        "verdict_ms.p90": {
            "percentile": tail,
            "items_beyond": sum(t > _percentile(best, tail) for t in best),
        },
    }
    if tracer is None:
        values = end_to_end_metrics(setup_times, times)
        units = END_TO_END
    else:
        values = per_layer_metrics(tracer, attempted / sum(best), failures)
        units = PER_LAYER
        info["layer_self_time"] = layer_self_times(tracer)
        if args.workload == "fixtures-all-d2":
            info["baseline_table"] = baseline_table(tracer, dict(enumerate(workload.items)))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    result = {
        "correct": failures["failed"] == failures["known_defect"],
        "attempted": attempted,
        "failed": failures["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if tracer is not None:
        with open(OUT / f"result-{args.workload}-trace.json", "w") as out:
            json.dump({"info": info, "result": result}, out, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
