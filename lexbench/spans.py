"""Spans around the public functions of lexsel, recorded by the benchmark.

``Tracer.patched()`` replaces module attributes with wrappers for the
duration of a ``with`` block and puts the originals back afterwards.  A
wrapper records one span per call -- name, start, end, parent span and
clause id -- in an in-memory list; nothing is written until the run ends.
Untraced runs never enter the block, so they run the program unpatched.

Self time is a span's duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children never
overlap and their durations add up to the time they cover.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator

NAME, START, END, PARENT, CLAUSE, COUNT, SIZE = range(7)

# (module, attribute, span name, record len(result)) -- every lookup site
# the program goes through, so each call is seen exactly once.
SPANNED = (
    ("lexsel.selector", "translate", "selector.translate", False),
    ("lexsel.cli", "translate", "selector.translate", False),
    ("lexsel.selector", "disambiguate", "lexicon.disambiguate", False),
    ("lexsel.selector", "build_inter_rep", "lexicon.build_inter_rep", False),
    ("lexsel.selector", "rank_candidates", "selector.rank_candidates", True),
    ("lexsel.selector", "decide_action", "selector.decide_action", False),
    ("lexsel.selector", "rerank_by_action", "selector.rerank_by_action", False),
    ("lexsel.selector", "neighborhood", "taxonomy.neighborhood", True),
    ("lexsel.selector", "inexact_match", "matcher.inexact_match", False),
    ("lexsel.matcher", "constraint_satisfaction", "matcher.constraint_satisfaction", False),
    ("lexsel.matcher", "constraint_degrees", "matcher.constraint_degrees", False),
    ("lexsel.matcher", "word_sim_breakdown", "matcher.word_sim_breakdown", False),
    ("lexsel.matcher", "con_sim", "taxonomy.con_sim", False),
    ("lexsel.corpus", "to_argument_structure", "corpus.to_argument_structure", False),
    ("lexsel.cli", "main", "cli.main", False),
    ("lexsel.cli", "cmd_select", "cli.cmd_select", False),
    ("lexsel.bundled", "load_bundled_store", "cli.load", False),
    ("lexsel.bundled", "load_bundled_lexicon", "cli.load", False),
    ("lexsel.bundled", "load_bundled_tree", "cli.load", False),
    ("lexsel.bundled", "load_taxonomy", "taxonomy.load_taxonomy", False),
    ("lexsel.bundled", "load_lexicon", "lexicon.load_lexicon", False),
    ("lexsel.bundled", "load_decision_tree", "selector.load_decision_tree", False),
)
# ``neighborhood`` calls ``con_sim`` once per concept of the domain; those
# calls are counted on the enclosing span instead of getting a span each.
COUNTED = (("lexsel.taxonomy", "con_sim"),)
LOADERS = ("taxonomy.load_taxonomy", "lexicon.load_lexicon", "selector.load_decision_tree")


@dataclass
class Tracer:
    spans: list[list] = field(default_factory=list)
    clause: int = -1  # id of the clause being run; set by the caller
    _stack: list[int] = field(default_factory=list)

    def _span(self, fn: Callable, name: str, sized: bool) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.clause, 0, 0])
            stack.append(index)
            span = spans[index]
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if sized:
                span[SIZE] = len(result)
            return result

        return traced

    def _count(self, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][COUNT] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        import importlib

        saved = []
        try:
            for module_name, attr, name, sized in SPANNED:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._span(getattr(module, attr), name, sized))
            for module_name, attr in COUNTED:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._count(getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order; parent is a line index."""
        path.parent.mkdir(exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "clause", "con_sim_calls", "result_len")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def span_cost_ns(calls: int = 20000) -> float:
    """What one span adds to a call, measured on a function that does nothing."""
    probe = Tracer()
    traced = probe._span(lambda: None, "probe", False)
    plain = lambda: None  # noqa: E731
    start = perf_counter_ns()
    for _ in range(calls):
        plain()
    bare = perf_counter_ns() - start
    start = perf_counter_ns()
    for _ in range(calls):
        traced()
    return max(0, perf_counter_ns() - start - bare) / calls


def self_times(spans: list[list]) -> list[int]:
    """Per span: duration minus the durations of its direct children (ns)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def unattributed_check(spans: list[list], cost_ns: float) -> tuple[int, int]:
    """Clauses whose translate span is covered by its children up to tracing cost.

    Per clause, the self times of the spans under ``selector.translate``
    add up to its duration less the translate span's own self time; that
    remainder must not exceed what the clause's spans cost to record.
    Returns (clauses within, clauses checked).
    """
    own = self_times(spans)
    per_clause: dict[int, int] = {}
    for span in spans:
        per_clause[span[CLAUSE]] = per_clause.get(span[CLAUSE], 0) + 1
    checked = within = 0
    for span, mine in zip(spans, own):
        if span[NAME] == "selector.translate":
            checked += 1
            within += mine <= per_clause[span[CLAUSE]] * cost_ns
    return within, checked


def layer_split(spans: list[list]) -> list[tuple[str, float]]:
    """Share of all traced time that each module spends itself, largest first."""
    by_layer: dict[str, int] = {}
    for span, mine in zip(spans, self_times(spans)):
        layer = span[NAME].split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0) + mine
    total = sum(by_layer.values()) or 1
    return sorted(((k, v / total) for k, v in by_layer.items()), key=lambda kv: -kv[1])


def layer_metrics(spans: list[list], clauses: int, gaps: int) -> dict[str, float]:
    """Per-clause layer figures from the spans of ``clauses`` clauses."""
    own = self_times(spans)
    total: dict[str, int] = {}
    self_total: dict[str, int] = {}
    calls: dict[str, int] = {}
    ms = 1e-6 / clauses
    neighborhood_ns: list[int] = []
    kept = con_sims = candidates = 0
    for span, mine in zip(spans, own):
        name = span[NAME]
        duration = span[END] - span[START]
        total[name] = total.get(name, 0) + duration
        self_total[name] = self_total.get(name, 0) + mine
        calls[name] = calls.get(name, 0) + 1
        if name == "taxonomy.neighborhood":
            neighborhood_ns.append(duration)
            kept += span[SIZE]
            con_sims += span[COUNT]
        elif name == "selector.rank_candidates":
            candidates += span[SIZE]
    matcher_self = sum(v for k, v in self_total.items() if k.startswith("matcher."))
    n_calls = len(neighborhood_ns)
    return {
        "taxonomy.neighborhood.calls": n_calls / clauses,
        "taxonomy.neighborhood.ms_total": total.get("taxonomy.neighborhood", 0) * ms,
        "taxonomy.neighborhood.ms_p50":
            statistics.median(neighborhood_ns) * 1e-6 if n_calls else 0.0,
        "taxonomy.neighborhood.con_sim_calls": con_sims / n_calls if n_calls else 0.0,
        "taxonomy.neighborhood.kept_ratio": kept / con_sims if con_sims else 0.0,
        "taxonomy.con_sim.calls": calls.get("taxonomy.con_sim", 0) / clauses,
        "taxonomy.con_sim.self_ms": self_total.get("taxonomy.con_sim", 0) * ms,
        "lexicon.disambiguate.ms": total.get("lexicon.disambiguate", 0) * ms,
        "lexicon.build_inter_rep.ms": total.get("lexicon.build_inter_rep", 0) * ms,
        "matcher.inexact_match.calls": calls.get("matcher.inexact_match", 0) / clauses,
        "matcher.inexact_match.self_ms": self_total.get("matcher.inexact_match", 0) * ms,
        "matcher.word_sim_breakdown.self_ms": self_total.get("matcher.word_sim_breakdown", 0) * ms,
        "matcher.constraint_degrees.calls": calls.get("matcher.constraint_degrees", 0) / clauses,
        "matcher.self_ms": matcher_self * ms,
        "selector.translate.ms": total.get("selector.translate", 0) * ms,
        "selector.translate.self_ms": self_total.get("selector.translate", 0) * ms,
        "selector.rank_candidates.self_ms": self_total.get("selector.rank_candidates", 0) * ms,
        "selector.candidates_per_clause": candidates / clauses,
        "selector.gap_ratio": gaps / clauses,
        "selector.decide_action.ms": total.get("selector.decide_action", 0) * ms,
        "selector.rerank_by_action.ms": total.get("selector.rerank_by_action", 0) * ms,
        "corpus.to_argument_structure.ms": total.get("corpus.to_argument_structure", 0) * ms,
        "cli.main.ms": total.get("cli.main", 0) * ms,
        "cli.load.ms": total.get("cli.load", 0) * ms,
        "cli.format.self_ms": self_total.get("cli.cmd_select", 0) * ms,
        # loaders that run inside each command, on cli-select only
        **{f"{name}.ms": total[name] * ms for name in LOADERS if name in total},
    }
