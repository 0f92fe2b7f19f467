"""In-process tracer for one CLI job, installed from outside the package.

Spans wrap the layer boundaries of ``divzeta`` where the callers look them
up: ``cli`` imports its layer entry points by name, ``strata`` calls
``stable_pairs`` and ``stratum_class`` through its own globals, and methods
are patched on their classes (``RingElem.__rmul__`` aliases ``__mul__``, so
both are wrapped under one name).  ``SymbolicIdentity`` overrides
``of_elem``, so patching the base class leaves symbolic runs at zero calls.

A span is ``[name, start, end, parent, hot_s]``; every span of one process
belongs to one job.  ``RingElem.__mul__`` is called hundreds of thousands of
times by the oracle, so it is a hot leaf: it keeps only a call count and a
total, and adds its time to the enclosing span's ``hot_s``.  A span's self
time is its duration minus its child spans' durations minus ``hot_s``.
"""

from __future__ import annotations

import functools
import json
import time

clock = time.perf_counter


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hot: dict[str, list] = {}
        self.counters = {"strata.stable_pairs.pairs": 0, "ring.max_coeff_terms": 0}

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0]
            spans.append(record)
            stack.append(index)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                record[1], record[2] = start, clock()
                stack.pop()
            if on_result is not None:
                on_result(return_value)
            return return_value

        return wrapper

    def hot_leaf(self, name, fn):
        spans, stack = self.spans, self.stack
        totals = self.hot.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            return_value = fn(*args)
            elapsed = clock() - start
            totals[0] += 1
            totals[1] += elapsed
            if stack:
                spans[stack[-1]][4] += elapsed
            return return_value

        return wrapper

    def _count_pairs(self, pairs) -> None:
        self.counters["strata.stable_pairs.pairs"] += len(pairs)

    def _count_terms(self, series) -> None:
        widest = max(sum(1 for _ in c.terms()) for c in series.coefficients())
        counters = self.counters
        counters["ring.max_coeff_terms"] = max(counters["ring.max_coeff_terms"], widest)

    def install(self) -> None:
        from divzeta import cli, measures, ring, strata

        patches = [
            (cli, "main", self.span("cli.main", cli.main)),
            (cli, "load_graph", self.span("graph.load_graph", cli.load_graph)),
            (cli, "zeta_series", self.span("zeta.zeta_series", cli.zeta_series, self._count_terms)),
            (cli, "zeta_rational", self.span("zeta.zeta_rational", cli.zeta_rational)),
            (
                cli,
                "divisor_class_from_strata",
                self.span("strata.divisor_class_from_strata", cli.divisor_class_from_strata),
            ),
            (cli, "stable_pair_count", self.span("strata.stable_pair_count", cli.stable_pair_count)),
            (strata, "stable_pairs", self.span("strata.stable_pairs", strata.stable_pairs, self._count_pairs)),
            (strata, "stratum_class", self.span("strata.stratum_class", strata.stratum_class)),
            (measures.MotivicMeasure, "of_elem", self.span("measures.of_elem", measures.MotivicMeasure.of_elem)),
            (ring.TruncSeries, "__mul__", self.span("ring.TruncSeries.mul", ring.TruncSeries.__mul__)),
            (ring.TruncSeries, "inverse", self.span("ring.TruncSeries.inverse", ring.TruncSeries.inverse)),
            (ring.RingElem, "__str__", self.span("ring.RingElem.str", ring.RingElem.__str__)),
        ]
        mul = self.hot_leaf("ring.RingElem.mul", ring.RingElem.__mul__)
        patches += [(ring.RingElem, "__mul__", mul), (ring.RingElem, "__rmul__", mul)]
        for owner, attribute, wrapper in patches:
            setattr(owner, attribute, wrapper)

    def dump(self, path: str) -> None:
        from divzeta import strata

        cache = strata.punctured_sym_class.cache_info()
        document = {
            "job": self.job_id,
            "spans": self.spans,
            "hot": self.hot,
            "counters": self.counters,
            "cache": {"hits": cache.hits, "misses": cache.misses},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# -- aggregation, in the benchmark process ---------------------------------------


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] - hot for i, (_, start, end, _, hot) in enumerate(spans)]


# Per-layer metric -> (span name, statistic over the span's calls, unit).
SPAN_METRICS = {
    "ring.RingElem.str.calls": ("ring.RingElem.str", "calls", "count"),
    "ring.RingElem.str.self_s": ("ring.RingElem.str", "self_s", "s"),
    "ring.RingElem.mul.calls": ("ring.RingElem.mul", "calls", "count"),
    "ring.RingElem.mul.self_s": ("ring.RingElem.mul", "self_s", "s"),
    "ring.TruncSeries.mul.calls": ("ring.TruncSeries.mul", "calls", "count"),
    "ring.TruncSeries.mul.self_s": ("ring.TruncSeries.mul", "self_s", "s"),
    "ring.TruncSeries.inverse.self_s": ("ring.TruncSeries.inverse", "self_s", "s"),
    "zeta.zeta_series.s": ("zeta.zeta_series", "s", "s"),
    "zeta.zeta_rational.s": ("zeta.zeta_rational", "s", "s"),
    "measures.of_elem.calls": ("measures.of_elem", "calls", "count"),
    "measures.of_elem.self_s": ("measures.of_elem", "self_s", "s"),
    "strata.stable_pairs.s": ("strata.stable_pairs", "s", "s"),
    "strata.stratum_class.calls": ("strata.stratum_class", "calls", "count"),
    "strata.stratum_class.self_s": ("strata.stratum_class", "self_s", "s"),
    "strata.divisor_class_from_strata.s": ("strata.divisor_class_from_strata", "s", "s"),
    "graph.load_graph.s": ("graph.load_graph", "s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}
UNITS = {metric: unit for metric, (_, _, unit) in SPAN_METRICS.items()} | {
    "ring.max_coeff_terms": "count",
    "strata.stable_pairs.pairs": "count",
    "strata.punctured_sym_class.hit_ratio": "ratio",
}


def layer_metrics(documents: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass: sums over its jobs' trace documents."""
    stats = {"calls": {}, "s": {}, "self_s": {}}

    def add(name, calls, seconds, own):
        for key, value in (("calls", calls), ("s", seconds), ("self_s", own)):
            stats[key][name] = stats[key].get(name, 0) + value

    pairs = widest = hits = lookups = 0
    for doc in documents:
        spans = doc["spans"]
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            add(name, 1, end - start, own)
        for name, (calls, seconds) in doc["hot"].items():
            add(name, calls, seconds, seconds)
        pairs += doc["counters"]["strata.stable_pairs.pairs"]
        widest = max(widest, doc["counters"]["ring.max_coeff_terms"])
        hits += doc["cache"]["hits"]
        lookups += doc["cache"]["hits"] + doc["cache"]["misses"]
    metrics = {
        metric: stats[statistic].get(span, 0)
        for metric, (span, statistic, _) in SPAN_METRICS.items()
    }
    metrics["ring.max_coeff_terms"] = widest
    metrics["strata.stable_pairs.pairs"] = pairs
    metrics["strata.punctured_sym_class.hit_ratio"] = hits / lookups if lookups else 0.0
    return metrics
