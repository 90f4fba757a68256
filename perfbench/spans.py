"""Traced run: spans around calls into each minregime module, recorded from
benchmark code.

Each module's public functions are wrapped and the wrapper is rebound at
every import site (every ``minregime.*`` module attribute bound to the
original function, and ``ReturnSeries.__post_init__``). Nothing under
``src/`` changes. Spans (name, module, start, end, parent id, call id)
stay in memory and are written out at the end. A module's self time is
its spans' durations minus the time their child spans cover.

Work done in ``--jobs 2`` worker processes is not traced: wrappers pass
straight through outside the tracing process, and the pooled call's
whole duration is reported as ``analytics.pool_s``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from minregime import analytics, bias, cli, engine, ingest, series
from minregime.series import ReturnSeries

TARGETS = {
    "ingest": (ingest, ["load_csv"]),
    "series": (series, ["build_prefix_sums", "metric_many", "sharpe_many",
                        "segment_metric", "series_metric", "max_drawdown",
                        "rolling_sharpe_volatility"]),
    "engine": (engine, ["mrp_fast", "mrp_one_split", "mrp_brute_force"]),
    "analytics": (analytics, ["factor_report", "frontier", "sensitivity_grid",
                              "robustness_correlations", "portfolio_mrp",
                              "block_bootstrap_mrp"]),
    # _std_expected_min is the quadrature behind every exact expectation
    "bias": (bias, ["bias_exact", "bias_asymptotic", "expected_min_exact",
                    "_std_expected_min", "simulate_min_model",
                    "gumbel_limit_diagnostic"]),
    "cli": (cli, ["main"]),
}
SCORING = {"metric_many", "sharpe_many"}
UNITS = {
    **{f"{module}.busy_s": "s" for module in TARGETS},
    "ingest.rows": "count", "ingest.cells_per_s": "1/s",
    "series.segments": "count", "series.sortino_segments": "count",
    "series.ns_per_segment": "ns", "series.prefix_builds": "count",
    "engine.calls.one_split": "count", "engine.calls.fast": "count",
    "engine.calls.brute_force": "count", "engine.fallbacks": "count",
    "engine.fallback_ratio": "ratio", "engine.partitions": "count",
    "engine.windows": "count", "engine.peak_alloc_mb": "MB",
    "analytics.grid_cells": "count", "analytics.pool_s": "s",
    "analytics.replicates": "count",
    "bias.quad_calls": "count", "bias.quad_s": "s", "bias.sim_s": "s",
    "bias.sim_trials": "count", "bias.sim_normals": "count",
    "cli.invocations": "count", "cli.stdout_bytes": "bytes",
    "series.max_rel_err": "ratio", "trace.overhead_s": "s",
}
NAME, MODULE, START, END, PARENT, CALL = range(6)


def rebind(wrap) -> list[tuple[object, str, object]]:
    """Replace every target function by ``wrap(module, name, fn)`` at each
    of its import sites; returns what ``restore`` needs to undo it."""
    sites = [m for k, m in sys.modules.items()
             if k == "minregime" or k.startswith("minregime.")]
    saved = []
    for module, (mod, names) in TARGETS.items():
        for name in names:
            original = getattr(mod, name)
            wrapper = wrap(module, name, original)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        saved.append((site, attr, value))
                        setattr(site, attr, wrapper)
    post_init = ReturnSeries.__post_init__
    saved.append((ReturnSeries, "__post_init__", post_init))
    ReturnSeries.__post_init__ = wrap("series", "ReturnSeries", post_init)
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for site, attr, value in reversed(saved):
        setattr(site, attr, value)


class AllocProbe:
    """Peak traced allocation inside engine calls.

    tracemalloc slows allocation-heavy Python code several-fold (the
    brute-force enumeration most), so it runs in a pass of its own and
    the traced pass's timings stay clean.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.peak = 0

    def wrap(self, module: str, name: str, fn):
        if module != "engine":
            return fn
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != probe.pid or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.peak = max(probe.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call_id = -1
        self.counts: Counter = Counter()

    # ------------------------------------------------------------ spans

    def ancestors(self, span_id: int):
        parent = self.spans[span_id][PARENT]
        while parent is not None:
            yield self.spans[parent][NAME]
            parent = self.spans[parent][PARENT]

    def wrap(self, module: str, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)
        hook = getattr(self, f"_on_{name.strip('_')}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, module, 0.0, 0.0, parent, tracer.call_id]
            tracer.spans.append(span)
            tracer.stack.append(span_id)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span_id, bound.arguments, result)
            return result

        return wrapper

    # ------------------------------------------------------------ hooks

    def _on_load_csv(self, span_id, args, result):
        self.counts["ingest.rows"] += max((len(s) for s in result), default=0)
        self.counts["ingest.cells"] += sum(len(s) for s in result)

    def _on_metric_many(self, span_id, args, result):
        ancestors = set(self.ancestors(span_id))
        if ancestors & SCORING:
            return  # counted by the outer scoring call
        count = len(result)
        self.counts["series.segments"] += count
        if args["kind"].name == "sortino":
            self.counts["series.sortino_segments"] += count
        if "mrp_fast" in ancestors and "mrp_brute_force" not in ancestors:
            self.counts["engine.windows"] += count

    def _on_sharpe_many(self, span_id, args, result):
        if not set(self.ancestors(span_id)) & SCORING:
            self.counts["series.segments"] += len(result)

    def _on_build_prefix_sums(self, span_id, args, result):
        self.counts["series.prefix_builds"] += 1

    def _on_mrp_fast(self, span_id, args, result):
        self.counts["engine.calls.fast"] += 1

    def _on_mrp_one_split(self, span_id, args, result):
        self.counts["engine.calls.one_split"] += 1

    def _on_mrp_brute_force(self, span_id, args, result):
        self.counts["engine.calls.brute_force"] += 1
        if "mrp_fast" in set(self.ancestors(span_id)):
            self.counts["engine.fallbacks"] += 1
        n = len(args["series"])
        self.counts["engine.partitions"] += engine.count_valid_partitions(
            n, args["s"], args["d"])

    def _on_sensitivity_grid(self, span_id, args, result):
        self.counts["analytics.grid_cells"] += result.cells.size
        self._pool(span_id, args)

    def _on_block_bootstrap_mrp(self, span_id, args, result):
        self.counts["analytics.replicates"] += args["replicates"]
        self._pool(span_id, args)

    def _pool(self, span_id, args):
        if args["jobs"] > 1:
            span = self.spans[span_id]
            self.counts["analytics.pool_s"] += span[END] - span[START]

    def _on_std_expected_min(self, span_id, args, result):
        span = self.spans[span_id]
        self.counts["bias.quad_calls"] += 1
        self.counts["bias.quad_s"] += span[END] - span[START]

    def _on_simulate_min_model(self, span_id, args, result):
        span = self.spans[span_id]
        self.counts["bias.sim_s"] += span[END] - span[START]
        self.counts["bias.sim_trials"] += args["trials"]
        self.counts["bias.sim_normals"] += args["trials"] * args["model"].N

    def _on_main(self, span_id, args, result):
        self.counts["cli.invocations"] += 1

    # ---------------------------------------------------------- results

    def self_times(self) -> list[float]:
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-module self time and counts of the traced pass
        (engine.peak_alloc_mb comes from AllocProbe, in a pass of its own)."""
        busy = Counter()
        for span, own in zip(self.spans, self.self_times()):
            busy[span[MODULE]] += own
        c = self.counts
        scoring = sum(span[END] - span[START] for span_id, span
                      in enumerate(self.spans)
                      if span[NAME] in SCORING
                      and not set(self.ancestors(span_id)) & SCORING)
        fast = c["engine.calls.fast"]
        out = {f"{module}.busy_s": busy[module] for module in TARGETS}
        out.update({
            "ingest.rows": c["ingest.rows"],
            "ingest.cells_per_s": (c["ingest.cells"] / busy["ingest"]
                                   if busy["ingest"] else 0.0),
            "series.segments": c["series.segments"],
            "series.sortino_segments": c["series.sortino_segments"],
            "series.ns_per_segment": (1e9 * scoring / c["series.segments"]
                                      if c["series.segments"] else 0.0),
            "series.prefix_builds": c["series.prefix_builds"],
            "engine.calls.one_split": c["engine.calls.one_split"],
            "engine.calls.fast": fast,
            "engine.calls.brute_force": c["engine.calls.brute_force"],
            "engine.fallbacks": c["engine.fallbacks"],
            "engine.fallback_ratio": c["engine.fallbacks"] / fast if fast else 0.0,
            "engine.partitions": c["engine.partitions"],
            "engine.windows": c["engine.windows"],
            "analytics.grid_cells": c["analytics.grid_cells"],
            "analytics.pool_s": c["analytics.pool_s"],
            "analytics.replicates": c["analytics.replicates"],
            "bias.quad_calls": c["bias.quad_calls"],
            "bias.quad_s": c["bias.quad_s"],
            "bias.sim_s": c["bias.sim_s"],
            "bias.sim_trials": c["bias.sim_trials"],
            "bias.sim_normals": c["bias.sim_normals"],
            "cli.invocations": c["cli.invocations"],
            "cli.stdout_bytes": stdout_bytes,
        })
        return out

    def write(self, path: Path, call_names: list[str]) -> None:
        """Write the spans as JSON: one record per span."""
        keys = ("name", "module", "start", "end", "parent", "call")
        records = [dict(zip(keys, span)) for span in self.spans]
        path.write_text(json.dumps({"calls": call_names, "spans": records}))
