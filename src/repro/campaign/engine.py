"""The campaign executor: run a declared grid, skip what's done.

:func:`execute` is the one way any experiment's trials reach
:func:`repro.parallel.pmap`: the campaign becomes the trivial
one-round :class:`~repro.campaign.stream.GridSource` and drains
through :func:`~repro.campaign.stream.execute_stream`, the same core
that runs adaptive streams (:mod:`repro.adaptive`) and lockstep batch
rounds (:func:`~repro.campaign.batch.execute_batched`).

:func:`run_round` is the only round lifecycle, four steps in order:

1. **scan** — read each trial's fingerprint from the
   :class:`~repro.campaign.store.TrialStore` (if given); stored trials
   are **skipped**, defective entries quarantined and counted;
2. **dispatch** — with a ``batch_fn``, pending trials first run in
   lockstep groups (:mod:`repro.campaign.batch`); the rest (the
   ``Diverged`` lanes, or all of them) run through ``pmap``, each with
   its own :func:`~repro.campaign.spec.trial_rng` generator and (when
   tracing) a fresh :class:`~repro.obs.TraceRecorder`;
3. **absorb** — canonicalise each result through ``encode -> JSON ->
   decode`` (the exact object a store hit yields, so resumed and cold
   runs aggregate **byte-identically**) and persist it *as it lands*,
   so a run killed mid-grid keeps every completed trial;
4. **assemble** — decode every slot into the round's
   :class:`CampaignResult` (:func:`~repro.campaign.stream.replay_round`
   rebuilds fully stored rounds through the same step).

Store accounting lands in the caller's
:class:`~repro.obs.metrics.MetricsRegistry` under
``campaign.store.hits`` / ``campaign.store.misses`` /
``campaign.store.corrupt`` / ``campaign.trials.executed`` — the
counters CI uses to prove a resume actually skipped completed work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..parallel import ParallelReport, pmap_report
from .spec import Campaign, TrialSpec, jsonify, trial_rng
from .store import STORE_SCHEMA, TrialStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ground.supervision import QuarantinedTrial

__all__ = ["CampaignResult", "CampaignStatus", "execute", "status"]


def _execute_trial(payload):
    """Run one trial in a worker; top-level so the pool can pickle it.

    Returns ``(value, records)`` where ``records`` is the trial's
    trace (``None`` when tracing is off). The tracer is created here —
    not by ``pmap`` — so the records can ride into the store and a
    resumed run can replay them without re-executing the trial.
    """
    fn, item, seed_root, seed_index, with_tracer = payload
    tracer = None
    if with_tracer:
        from ..obs import TraceRecorder

        tracer = TraceRecorder(ring_size=None)
    value = fn(item, trial_rng(seed_root, seed_index), tracer)
    return value, (tracer.drain() if tracer is not None else None)


@dataclass(frozen=True)
class CampaignStatus:
    """How much of a campaign a store already holds.

    ``corrupt`` counts defective entries (bad checksum, truncation,
    stale schema) the scan quarantined — they show as pending because
    they will be re-run. A fast scan (``status(..., fast=True)``)
    never reads entries, so it always reports ``corrupt=0``.
    """

    name: str
    total: int
    completed: int
    corrupt: int = 0

    @property
    def pending(self) -> int:
        return self.total - self.completed


@dataclass
class CampaignResult:
    """Everything one campaign (or stream round) produced, grid order.

    ``quarantined`` is non-empty only for supervised runs
    (``supervision=``): trials that exhausted their retry budget, as
    :class:`repro.ground.supervision.QuarantinedTrial` entries. Their
    slots in ``values`` hold ``None``; the campaign still completed.
    """

    name: str
    values: "list[object]"
    specs: "list[TrialSpec]"
    executed: int
    store_hits: int
    report: "ParallelReport | None"
    quarantined: "tuple[QuarantinedTrial, ...]" = ()

    @property
    def fingerprints(self) -> "list[str]":
        return [spec.fingerprint for spec in self.specs]


@dataclass
class RoundExecution:
    """One executed round, before the stream folds it.

    ``canonical`` holds the JSON-safe (pre-``decode``) values the
    outcome digest — and therefore the next round's seeds — derive
    from. ``records`` carries per-trial trace-record lists in grid
    order (``None`` when tracing is off); the stream merges them
    across rounds into one file.
    """

    result: CampaignResult
    canonical: "list[object]"
    records: "list[list] | None"


def _canonical_result(campaign: Campaign, value):
    """Encode + JSON round-trip: the exact object a store hit yields."""
    encoded = campaign.encode(value) if campaign.encode is not None else value
    return json.loads(json.dumps(jsonify(encoded)))


def _scan(
    store: "TrialStore | None", specs: "list[TrialSpec]"
) -> "tuple[dict[int, dict], int]":
    """Scan step: the stored entries by grid index, and how many
    defective entries the reads quarantined (their trials re-run)."""
    if store is None:
        return {}, 0
    kinds = ("corrupt", "stale", "unreadable")
    before = sum(store.counters[k] for k in kinds)
    hits = {}
    for index, spec in enumerate(specs):
        entry = store.get(spec.fingerprint)
        if entry is not None:
            hits[index] = entry
    return hits, sum(store.counters[k] for k in kinds) - before


def _assemble(campaign: Campaign, specs, canonical, **fields) -> CampaignResult:
    """Assemble step: decode every canonical slot, grid order, into the
    round's result; quarantined slots stay ``None``."""
    decode = campaign.decode if campaign.decode is not None else lambda v: v
    skipped = {q.index for q in fields.get("quarantined", ())}
    values = [
        None if i in skipped else decode(value)
        for i, value in enumerate(canonical)
    ]
    return CampaignResult(
        name=campaign.name, values=values, specs=specs, **fields
    )


def run_round(
    campaign: Campaign,
    *,
    workers: "int | None" = 1,
    store: "TrialStore | None" = None,
    with_tracer: bool = False,
    metrics=None,
    force_pool: bool = False,
    chunksize: "int | None" = None,
    supervision=None,
    batch_fn=None,
    group_size: "int | None" = None,
) -> RoundExecution:
    """Execute one round (a fully resolved grid): scan, dispatch,
    absorb, assemble.

    Records are *returned* (``RoundExecution.records``) so the stream
    can merge every round into one trace file. With ``batch_fn`` the
    pending trials first run in lockstep groups of at most
    ``group_size`` lanes; lanes that return
    :class:`~repro.campaign.batch.Diverged` join the ordinary ``pmap``
    dispatch, and a round whose lanes all stay in lockstep makes no
    pool call (``report`` is ``None``). Callers outside the stream
    machinery want :func:`execute` /
    :func:`~repro.campaign.batch.execute_batched` /
    :func:`~repro.campaign.stream.execute_stream`.
    """
    store = TrialStore.coerce(store)
    specs = campaign.specs()

    # 1. Scan.
    hits, defect_count = _scan(store, specs)
    pending = [i for i in range(len(specs)) if i not in hits]

    # 3. Absorb (called by the dispatch step as each trial lands).
    canonical: "dict[int, object]" = {}
    record_dicts: "dict[int, list | None]" = {}

    def _absorb(i: int, value, records) -> None:
        """Canonicalise and persist one trial the moment it lands —
        incremental, so a run killed mid-grid keeps its progress."""
        canonical[i] = _canonical_result(campaign, value)
        record_dicts[i] = (
            None if records is None else [r.to_dict() for r in records]
        )
        if store is not None:
            spec = specs[i]
            store.put(
                spec.fingerprint,
                {
                    "schema": STORE_SCHEMA,
                    "fingerprint": spec.fingerprint,
                    "campaign": campaign.name,
                    "params": spec.params,
                    "seed_root": spec.seed_root,
                    "seed_index": spec.seed_index,
                    "result": canonical[i],
                    "records": record_dicts[i],
                },
            )

    # 2. Dispatch: lockstep groups first, then the pool for the rest.
    scalar = pending
    if batch_fn is not None:
        from .batch import dispatch_lockstep

        scalar = dispatch_lockstep(
            campaign, specs, pending, batch_fn,
            group_size=group_size, absorb=_absorb, metrics=metrics,
        )
    report = None
    if batch_fn is None or scalar:
        payloads = [
            (campaign.trial_fn, campaign.trials[i].item,
             specs[i].seed_root, specs[i].seed_index, with_tracer)
            for i in scalar
        ]
        report = pmap_report(
            _execute_trial,
            payloads,
            workers=workers,
            force_pool=force_pool,
            chunksize=chunksize,
            on_result=lambda pos, outcome: _absorb(scalar[pos], *outcome),
            supervision=supervision,
            metrics=metrics if supervision is not None else None,
        )

    # Resolve pmap-level quarantines (positions in `scalar`) to their
    # campaign identities, and splice ground events into trial traces.
    quarantined: "list[QuarantinedTrial]" = []
    if report is not None and report.quarantined:
        from ..ground.supervision import QuarantinedTrial

        for q in report.quarantined:
            i = scalar[q.index]
            canonical[i] = record_dicts[i] = None
            quarantined.append(
                QuarantinedTrial(
                    index=i, fingerprint=specs[i].fingerprint,
                    params=specs[i].params, attempts=q.attempts,
                    error=q.error,
                )
            )
    if with_tracer and report is not None:
        for position, events in enumerate(report.ground_events):
            if events:
                i = scalar[position]
                record_dicts[i] = [r.to_dict() for r in events] + (
                    record_dicts[i] or []
                )

    # 4. Assemble.
    trace_missing = 0
    for i, entry in hits.items():
        canonical[i] = entry["result"]
        record_dicts[i] = entry.get("records")
        if with_tracer and record_dicts[i] is None:
            trace_missing += 1

    records = None
    if with_tracer:
        from ..obs import TraceRecord

        records = [
            [TraceRecord.from_dict(d) for d in (record_dicts[i] or [])]
            for i in range(len(specs))
        ]

    if metrics is not None:
        metrics.counter("campaign.trials.total").inc(len(specs))
        metrics.counter("campaign.trials.executed").inc(len(pending))
        if quarantined:
            metrics.counter("campaign.trials.quarantined").inc(
                len(quarantined)
            )
        if store is not None:
            metrics.counter("campaign.store.hits").inc(len(hits))
            metrics.counter("campaign.store.misses").inc(len(pending))
            if defect_count:
                metrics.counter("campaign.store.corrupt").inc(defect_count)
        if trace_missing:
            metrics.counter("campaign.trace.missing").inc(trace_missing)

    ordered = [canonical[i] for i in range(len(specs))]
    result = _assemble(
        campaign, specs, ordered, executed=len(pending) - len(quarantined),
        store_hits=len(hits), report=report, quarantined=tuple(quarantined),
    )
    return RoundExecution(result=result, canonical=ordered, records=records)


def execute(
    campaign: Campaign,
    *,
    workers: "int | None" = 1,
    store=None,
    trace_path: "str | None" = None,
    metrics=None,
    force_pool: bool = False,
    chunksize: "int | None" = None,
    supervision=None,
) -> CampaignResult:
    """Run ``campaign``, skipping trials the store already holds.

    The static grid is the trivial one-round trial stream: this wraps
    the campaign in a :class:`~repro.campaign.stream.GridSource` and
    drains it through :func:`~repro.campaign.stream.execute_stream` —
    byte-identical to the historical one-shot executor (same
    fingerprints, same store entries, same trace bytes).

    With ``supervision`` (a :class:`repro.ground.GroundPolicy`) the
    missing trials run under the fault-tolerant ground executor:
    crashed/hung workers are replaced, failing trials retried with
    byte-identical seeds, and poison trials quarantined — the campaign
    then *completes* with ``result.quarantined`` naming the survivors'
    missing peers instead of the whole run dying.
    """
    from .stream import GridSource, execute_stream

    stream = execute_stream(
        GridSource(campaign),
        workers=workers,
        store=store,
        trace_path=trace_path,
        metrics=metrics,
        force_pool=force_pool,
        chunksize=chunksize,
        supervision=supervision,
    )
    return stream.rounds[0].result


def status(campaign: Campaign, store, *, fast: bool = False) -> CampaignStatus:
    """How many of ``campaign``'s trials ``store`` already holds.

    The default scan reads and checksums every held entry: defective
    entries found along the way are quarantined, counted in
    ``corrupt``, and reported as pending (they will re-run). With
    ``fast=True`` the scan is a pure existence probe
    (:meth:`TrialStore.contains`) — no reads, no checksum verification
    — which is O(stat) per trial on multi-thousand-trial grids; the
    full verify still happens on :func:`execute`'s hit path before any
    stored value is trusted.
    """
    store = TrialStore.coerce(store)
    specs = campaign.specs()
    if fast:
        completed = 0 if store is None else sum(
            1 for spec in specs if store.contains(spec.fingerprint)
        )
        corrupt = 0
    else:
        hits, corrupt = _scan(store, specs)
        completed = len(hits)
    return CampaignStatus(
        name=campaign.name,
        total=len(specs),
        completed=completed,
        corrupt=corrupt,
    )
