"""Span recorder for the benchmark's traced run.

The recorder wraps the package's public functions at the names their
callers look them up by (``cli`` binds ``simulate`` at import, so the
wrapper replaces ``lightwalk.cli.simulate``, not the function in
``lightwalk.dynamics``). Each call becomes a span: name, start, end and the
index of its parent span. Spans are kept in memory and written out when
the run ends. Per-bisection-step helpers such as ``packet_width`` are not
wrapped: they run about 118 times per pair and would swamp the trace.
Calls that are only counted, not timed, go to ``counts``.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Checks of the acceptance suite, timed one at a time in the traced run.
CHECK_NAMES = (
    "table1-speeds",
    "oracle-equivalence",
    "strong-coupling-forms",
    "conservation",
    "figure3-gaps",
    "resonant-rabi",
    "catalog-roundtrip",
    "cli-determinism",
)

# Per-layer metrics in report order, with units. Times are self times per
# op, except ``validation.<check>_s``, which is the whole check per op.
# Counts marked "computed" are derived from call arguments and results.
LAYER_METRICS = (
    ("dynamics.simulate_s", "s"),
    ("dynamics.simulate_calls", "count"),
    ("dynamics.block_samples", "count"),
    ("dynamics.ns_per_block_sample", "ns"),
    ("dynamics.evolve_block_analytic_s", "s"),
    ("dynamics.evolve_block_analytic_calls", "count"),
    ("dynamics.average_speed_calls", "count"),
    ("oracle.rk4_propagate_s", "s"),
    ("oracle.rk4_propagate_calls", "count"),
    ("oracle.rk4_steps_computed", "count"),
    ("oracle.evolve_block_numeric_s", "s"),
    ("planner.separation_report_s", "s"),
    ("planner.pairs", "count"),
    ("planner.us_per_pair", "us"),
    ("planner.member_speed_calls", "count"),
    ("catalog.load_catalog_s", "s"),
    ("catalog.parse_catalog_calls", "count"),
    ("catalog.get_s", "s"),
    ("catalog.get_calls", "count"),
    ("catalog.serialize_catalog_s", "s"),
    *((f"validation.{name}_s", "s") for name in CHECK_NAMES),
    ("validation.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.rows_out", "count"),
    ("cli.bytes_out", "bytes"),
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.overhead_s", "s"),
)
COMPUTED = {
    "dynamics.block_samples", "oracle.rk4_steps_computed", "planner.pairs",
    "cli.rows_out", "cli.bytes_out",
}


class Recorder:
    """In-memory spans ``[name, start, end, parent index]`` and call counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, fn, name, tally=None):
        """Wrap ``fn`` so each call records a span; ``name`` may be a function
        of the call's arguments. ``tally(counts, arguments, result)`` adds the
        counts computed from one call."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(signature.bind(*args, **kwargs).arguments) if callable(name) else name
            record = [label, 0.0, 0.0, self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
            if tally is not None:
                try:
                    tally(self.counts, signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, AttributeError, KeyError, ValueError):
                    # The call's interface changed; the count is missing, the run goes on.
                    self.counts["trace.tally_errors"] += 1
            return result

        return wrapper

    def counter(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self, within: str | None = None) -> tuple[dict, dict, Counter]:
        """Per span name: summed self time, summed inclusive time, call count;
        with ``within``, only over spans named so and their descendants."""
        covered = [0.0] * len(self.spans)
        inside = [within is None] * len(self.spans)
        for index, (label, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                covered[parent] += end - start
                inside[index] = inside[index] or inside[parent]  # parents come first
            inside[index] = inside[index] or label == within
        own, whole, calls = defaultdict(float), defaultdict(float), Counter()
        for (label, start, end, _), children, counted in zip(self.spans, covered, inside):
            if counted:
                own[label] += end - start - children
                whole[label] += end - start
                calls[label] += 1
        return own, whole, calls

    def dominant(self, within: str | None = None, top: int = 3) -> list[tuple[str, float]]:
        """The ``top`` span names by summed self time."""
        own, _, _ = self.self_times(within)
        return sorted(own.items(), key=lambda item: -item[1])[:top]


def _tally_block_samples(counts, arguments, result):
    counts["dynamics.block_samples"] += arguments["grid"].n_points * len(arguments["times"])


def _tally_rk4_steps(counts, arguments, result):
    ratio = np.asarray(arguments["t"], dtype=float) / np.asarray(arguments["dt"], dtype=float)
    counts["oracle.rk4_steps_computed"] += math.ceil(float(np.max(ratio)))


def _tally_pairs(counts, arguments, result):
    counts["planner.pairs"] += len(result.pairs)


def _check_span_name(arguments):
    names = arguments.get("names")
    return f"validation.{names[0]}" if names and len(names) == 1 else "validation.run_checks"


def _resolve(package, dotted: str):
    """``"catalog.Catalog"`` -> the ``Catalog`` class of ``package.catalog``, or None."""
    owner = package
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return owner


@contextmanager
def installed(recorder: Recorder, package):
    """Wrap the package's layer entry points for the duration of the block.

    A name the package no longer has is skipped and its metrics read 0.
    """
    simulate = ("dynamics.simulate", _tally_block_samples)
    rk4 = ("oracle.rk4_propagate", _tally_rk4_steps)
    spans = [
        ("cli", "run", ("cli.run", None)),
        ("cli", "simulate", simulate),
        ("validation", "simulate", simulate),
        ("cli", "separation_report", ("planner.separation_report", _tally_pairs)),
        ("cli", "load_catalog", ("catalog.load_catalog", None)),
        ("catalog.Catalog", "get", ("catalog.get", None)),
        ("validation", "serialize_catalog", ("catalog.serialize_catalog", None)),
        ("validation", "run_checks", (_check_span_name, None)),
        ("validation", "evolve_block_analytic", ("dynamics.evolve_block_analytic", None)),
        ("validation", "rk4_propagate", rk4),
        ("oracle", "rk4_propagate", rk4),
        ("validation", "evolve_block_numeric", ("oracle.evolve_block_numeric", None)),
    ]
    counters = [
        ("catalog", "parse_catalog", "catalog.parse_catalog_calls"),
        ("validation", "parse_catalog", "catalog.parse_catalog_calls"),
        ("planner", "average_speed", "dynamics.average_speed_calls"),
        ("validation", "average_speed", "dynamics.average_speed_calls"),
        ("planner", "member_speed", "planner.member_speed_calls"),
    ]
    originals = []
    try:
        for owner_name, attr, spec in spans + counters:
            owner = _resolve(package, owner_name)
            if owner is None or not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.counter(original, spec) if isinstance(spec, str)
                    else recorder.span(original, *spec))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(recorder: Recorder, ops: int) -> dict[str, float]:
    """Per-op layer metrics of a traced phase of ``ops`` ops (``cli.rows_out``,
    ``cli.bytes_out`` and the ``process``/``trace`` metrics come from the
    caller)."""
    own, whole, calls = recorder.self_times()
    counts = recorder.counts
    totals = {
        "dynamics.simulate_s": own["dynamics.simulate"],
        "dynamics.simulate_calls": calls["dynamics.simulate"],
        "dynamics.block_samples": counts["dynamics.block_samples"],
        "dynamics.evolve_block_analytic_s": own["dynamics.evolve_block_analytic"],
        "dynamics.evolve_block_analytic_calls": calls["dynamics.evolve_block_analytic"],
        "dynamics.average_speed_calls": counts["dynamics.average_speed_calls"],
        "oracle.rk4_propagate_s": own["oracle.rk4_propagate"],
        "oracle.rk4_propagate_calls": calls["oracle.rk4_propagate"],
        "oracle.rk4_steps_computed": counts["oracle.rk4_steps_computed"],
        "oracle.evolve_block_numeric_s": own["oracle.evolve_block_numeric"],
        "planner.separation_report_s": own["planner.separation_report"],
        "planner.pairs": counts["planner.pairs"],
        "planner.member_speed_calls": counts["planner.member_speed_calls"],
        "catalog.load_catalog_s": own["catalog.load_catalog"],
        "catalog.parse_catalog_calls": counts["catalog.parse_catalog_calls"],
        "catalog.get_s": own["catalog.get"],
        "catalog.get_calls": calls["catalog.get"],
        "catalog.serialize_catalog_s": own["catalog.serialize_catalog"],
        **{f"validation.{name}_s": whole[f"validation.{name}"] for name in CHECK_NAMES},
        "validation.self_s": sum(t for label, t in own.items() if label.startswith("validation.")),
        "cli.self_s": own["cli.run"],
    }
    values = {name: total / ops for name, total in totals.items()}
    values["dynamics.ns_per_block_sample"] = (
        1e9 * totals["dynamics.simulate_s"] / totals["dynamics.block_samples"]
        if totals["dynamics.block_samples"] else 0.0
    )
    values["planner.us_per_pair"] = (
        1e6 * totals["planner.separation_report_s"] / totals["planner.pairs"]
        if totals["planner.pairs"] else 0.0
    )
    return values
