"""Spans and call counts recorded around the package's public functions.

The tracer patches functions from outside the package: it replaces every
module-level binding of a traced function in the loaded ``qdrinfeld``
modules (a function imported by name into several modules has one
binding per module) and patches traced methods on their class.  Nothing
under ``src/`` changes.

A span is ``(span_id, parent_id, name, start, end, spec_id)``; spans are
kept in memory and written out by ``write_spans`` when the run ends.
The layer of a span is the module prefix of its name, and a layer's self
time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, "span" or "count")
FUNCTIONS = (
    ("cli", "run_all", "span"),
    ("specfile", "parse_spec_text", "span"),
    ("specfile", "format_spec", "span"),
    ("pbw", "check_pbw", "span"),
    ("pbw", "overlap_oracle", "span"),
    ("pbw", "check_vanishing", "count"),
    ("algebra", "normal_form", "span"),
    ("colorlie", "build_color_lie_ring", "span"),
    ("colorlie", "check_color_axioms", "span"),
    ("uea", "iso_check", "span"),
    ("uea", "dimension_oracle", "span"),
    ("hopf", "check_hopf_axioms", "span"),
    ("hopf", "coproduct", "span"),
    ("hopf", "braided_product", "count"),
    ("hopf", "antipode", "count"),
    ("groups", "char_eval", "count"),
)

# (module, class, attribute, counter name)
METHODS = (
    ("scalar", "Scalar", "__mul__", "scalar.mul"),
    ("scalar", "Scalar", "__add__", "scalar.add"),
    ("scalar", "Scalar", "inv", "scalar.inv"),
    ("scalar", "Scalar", "one", "scalar.one"),
    ("cyclotomic", "CyclotomicNumber", "__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CyclotomicNumber", "inverse", "cyclotomic.inverse"),
    ("colorlie", "Bicharacter", "eval", "colorlie.bicharacter_eval"),
)

# spans whose inputs are fingerprinted to count distinct inputs per spec
DISTINCT = ("algebra.normal_form", "hopf.coproduct")

def _element_key(element, extra) -> int:
    """Hash of one call's input element and its other arguments."""
    return hash(
        (
            id(element.spec),
            extra,
            frozenset(
                (word, g.exps, frozenset(coeff.terms.items()))
                for (word, g), coeff in element.terms.items()
            ),
        )
    )


class Tracer:
    """Records spans and counts while installed; restores everything on remove."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.distinct: Counter = Counter()
        self.normal_form_terms_out = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._seen: dict[str, set] = defaultdict(set)
        self._specs_alive: dict[int, object] = {}
        self._spec_id: int | None = None
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin_spec(self, spec_id: int) -> None:
        """Start one verdict; distinct-input sets are per spec."""
        self._spec_id = spec_id
        self._seen.clear()
        self._specs_alive.clear()

    def end_spec(self) -> None:
        self._spec_id = None
        self._seen.clear()
        self._specs_alive.clear()
        # a verdict stopped by its deadline may leave spans open
        self._stack.clear()

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call fn, recording a span; spans are appended as they end."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        self._stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, self._spec_id))

    def _note_input(self, name: str, element, extra) -> None:
        # hold the spec so its id cannot be reused while this verdict runs
        self._specs_alive[id(element.spec)] = element.spec
        seen = self._seen[name]
        key = _element_key(element, extra)
        if key not in seen:
            seen.add(key)
            self.distinct[name] += 1

    # -- patching ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        distinct = name in DISTINCT

        def traced(*args, **kwargs):
            tracer.counts[name] += 1
            if distinct:
                # normal_form's second argument is its rewrite strategy
                extra = args[1] if len(args) > 1 and isinstance(args[1], str) else kwargs.get("strategy")
                tracer._note_input(name, args[0], extra)
            result = tracer.span(name, fn, *args, **kwargs)
            if name == "algebra.normal_form":
                tracer.normal_form_terms_out += len(result.terms)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Patch every binding of the traced functions and methods."""
        for module_name, *_ in FUNCTIONS + METHODS:
            importlib.import_module(f"qdrinfeld.{module_name}")
        modules = [m for key, m in sys.modules.items() if key == "qdrinfeld" or key.startswith("qdrinfeld.")]
        for module_name, func_name, kind in FUNCTIONS:
            original = getattr(sys.modules[f"qdrinfeld.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            if kind == "span":
                wrapper = self._span_wrapper(name, original)
            else:
                wrapper = self._count_wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        for module_name, class_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"qdrinfeld.{module_name}"], class_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._count_wrapper(name, original.__func__))
            else:
                wrapper = self._count_wrapper(name, original)
            setattr(cls, attr, wrapper)
            self._undo.append((cls, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        child_time: Counter = Counter()
        for span_id, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return {
            span_id: (end - start) - child_time[span_id]
            for span_id, _, _, start, end, _ in self.spans
        }

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Inclusive time per span name, self time per span name, self time per layer."""
        inclusive: Counter = Counter()
        own: Counter = Counter()
        layer: Counter = Counter()
        selfs = self.self_times()
        for span_id, _, name, start, end, _ in self.spans:
            inclusive[name] += end - start
            own[name] += selfs[span_id]
            layer[name.split(".", 1)[0]] += selfs[span_id]
        return inclusive, own, layer

    def write_spans(self, path) -> None:
        """One JSON array per line: span_id, parent_id, name, start, end, spec_id."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
