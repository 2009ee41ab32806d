"""Spans around the calls into each layer, installed from outside.

Nothing under ``src/`` is edited: :func:`instrument` replaces the
layer entry points (class methods and the module-level names other
modules look up at call time) with wrappers that open a span, call
the original, and close the span. Spans stay in memory until the run
ends; :meth:`Tracer.dump` writes them out.

A span records its name, start and end (``time.perf_counter``), the
span open when it started (its parent), the id of the benchmark phase
it belongs to (``run``: one setup or one timed repetition) and a
``count`` of work done at that boundary (lanes x ticks, trials,
1 per store read, ...). Self time is a span's duration minus the
part of it its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span stack and span list for one process."""

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._stack: "list[dict]" = []
        self.run = None

    def open(self, name: str, count: int = 0) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "count": count,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, name: str, fn, count=None, hit=None):
        """``fn`` with a span around every call.

        ``count(args, kwargs, result)`` gives the span's work count;
        ``hit(result)`` marks a store read that found its entry.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span["count"] = 1 if count is None else count(args, kwargs, result)
            if hit is not None:
                span["hit"] = hit(result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Span id -> duration minus the duration of its direct children.

    Children nest strictly inside their parent (one thread, a stack),
    so subtracting direct children's durations is exact.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_table(spans: "list[dict]") -> "dict[str, dict]":
    """Per span name: calls, summed count, total and self seconds.

    ``execute_batched`` drains its grid through ``execute_stream``;
    that stream is the batch executor's own round loop, so it is
    tabled as ``campaign.batch.stream``, apart from scalar streams.
    """
    own = self_times(spans)
    names = {s["id"]: s["name"] for s in spans}
    table: "dict[str, dict]" = defaultdict(
        lambda: {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
    )
    for s in spans:
        name = s["name"]
        if name == "campaign.stream" and names.get(s["parent"]) == "campaign.batch":
            name = "campaign.batch.stream"
        row = table[name]
        row["calls"] += 1
        row["count"] += s["count"]
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
        row["hits"] += int(bool(s.get("hit")))
    return dict(table)


def _n_trials(args, kwargs, result):
    return len(args[0].trials)


def _lane_ticks(args, kwargs, result):
    batch, program = args[0], args[1]
    return batch.n_lanes * program.n_ticks


def _rounds(args, kwargs, result):
    return len(result.rounds)


def _n_rows(args, kwargs, result):
    return len(args[1])


def instrument(tracer: Tracer, reports: list) -> None:
    """Wrap every layer boundary the benchmark reports on.

    ``reports`` receives each :class:`repro.parallel.ParallelReport`
    the campaign engine gets back from the pool layer.
    """
    import repro.adaptive.sampler as sampler
    import repro.campaign.engine as engine
    import repro.campaign.spec as spec
    import repro.campaign.store as store
    import repro.campaign.stream as stream
    import repro.fleet as fleet
    import repro.fleet.engine as fleet_engine
    import repro.ml as ml
    import repro.sim.batch as batch

    batch.BatchMachines.run = tracer.wrap(
        "sim.batch.run", batch.BatchMachines.run, count=_lane_ticks
    )
    store.TrialStore.put = tracer.wrap("campaign.store.put", store.TrialStore.put)
    store.TrialStore.get = tracer.wrap(
        "campaign.store.get", store.TrialStore.get, hit=lambda r: r is not None
    )
    spec.Campaign.specs = tracer.wrap(
        "campaign.specs", spec.Campaign.specs, count=_n_trials
    )
    # ``execute`` and ``execute_batched`` import ``execute_stream``
    # from the stream module at call time, so one patch covers them.
    stream.execute_stream = tracer.wrap(
        "campaign.stream", stream.execute_stream, count=_rounds
    )

    pmap_report = engine.pmap_report

    def pmap_with_report(*args, **kwargs):
        report = pmap_report(*args, **kwargs)
        reports.append(report)
        return report

    engine.pmap_report = tracer.wrap(
        "parallel.pmap", pmap_with_report,
        count=lambda a, k, r: len(r.timings),
    )

    fleet_engine.calibrate_fleet = tracer.wrap(
        "fleet.calibrate", fleet_engine.calibrate_fleet
    )
    fleet.calibrate_fleet = fleet_engine.calibrate_fleet
    fleet_engine.execute = tracer.wrap(
        "fleet.scalar", fleet_engine.execute, count=_n_trials
    )
    fleet_engine.execute_batched = tracer.wrap(
        "campaign.batch", fleet_engine.execute_batched, count=_n_trials
    )
    fleet_engine.build_report = tracer.wrap(
        "fleet.report", fleet_engine.build_report
    )
    fleet.run_fleet = tracer.wrap("fleet.run", fleet_engine.run_fleet)

    sampler.AdaptiveSource.next_round = tracer.wrap(
        "adaptive.next_round", sampler.AdaptiveSource.next_round
    )
    sampler.AdaptiveSource.estimate = tracer.wrap(
        "adaptive.estimate", sampler.AdaptiveSource.estimate
    )
    ml.RandomForest.fit = tracer.wrap(
        "ml.fit", ml.RandomForest.fit, count=_n_rows
    )
