"""Lockstep dispatch through the SoA tick engine.

:func:`execute_batched` is the campaign-layer entry point for the
structure-of-arrays backend (:mod:`repro.sim.batch`). It runs the same
round lifecycle as :func:`repro.campaign.engine.execute` —
:func:`~repro.campaign.engine.run_round`: scan, dispatch, absorb,
assemble — with one extra dispatch step in front of the pool:
:func:`dispatch_lockstep` hands *groups* of pending trials to one
``batch_fn(items, rngs)`` call that advances all of them in lockstep —
one :class:`~repro.sim.batch.BatchMachines` sweep instead of N scalar
tick loops.

The determinism contract is unchanged. Each lane receives exactly the
generator the scalar engine would have built —
``trial_rng(seed_root, seed_index)`` — and the batch engine's RNG lane
discipline (see ``docs/batch.md``) guarantees the draws it takes from
that generator are byte-identical to the scalar ones. Lockstep and
pooled results are absorbed, stored and assembled by the same code, so
a store written by a batched run resumes a scalar run byte-identically
and vice versa.

Divergence is the escape hatch: trials that leave lockstep (a
power-cycle, a reboot, any per-lane control flow the SoA engine cannot
express) return the :class:`Diverged` sentinel for their lane and join
the round's ordinary ``pmap`` dispatch, which re-runs the whole trial
through the scalar ``campaign.trial_fn`` with a fresh ``trial_rng``.
Because a trial's stream depends only on ``(seed_root, seed_index)``,
the scalar re-run is the same trial the scalar engine would have
produced, not an approximation.

Tracing and supervision are deliberately unsupported here: a batched
sweep has no per-trial tracer to thread through lockstep lanes.
Campaigns that need them use the scalar
:func:`~repro.campaign.engine.execute`.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .engine import CampaignResult
from .spec import Campaign, TrialSpec, trial_rng

__all__ = ["Diverged", "execute_batched"]


class Diverged:
    """Per-lane sentinel: this trial left lockstep, run it scalar.

    A batch function returns ``Diverged(reason)`` in a lane's result
    slot instead of a value; the round then re-runs that trial through
    the scalar ``campaign.trial_fn`` with its own ``trial_rng``.
    ``reason`` is free-form ("power-cycle", "reboot", ...) and lands
    only in metrics-side accounting, never in results.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = "") -> None:
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Diverged({self.reason!r})"


def _groups(indices: "list[int]", group_size: "int | None"):
    """Shard pending trial indices into batch groups, grid order."""
    if group_size is None:
        if indices:
            yield indices
        return
    for start in range(0, len(indices), group_size):
        yield indices[start : start + group_size]


def dispatch_lockstep(
    campaign: Campaign,
    specs: "list[TrialSpec]",
    pending: "list[int]",
    batch_fn,
    *,
    group_size: "int | None",
    absorb,
    metrics=None,
) -> "list[int]":
    """Run ``pending`` (grid indices) through ``batch_fn`` in groups.

    Every lane that stays in lockstep goes to ``absorb(i, value,
    None)`` as its group lands; the grid indices of the
    :class:`Diverged` lanes are returned, in grid order, for the
    round's pool dispatch.
    """
    if not callable(batch_fn):
        raise ConfigurationError("execute_batched needs a callable batch_fn")
    if group_size is not None and group_size < 1:
        raise ConfigurationError("group_size must be >= 1")
    diverged: "list[int]" = []
    n_groups = 0
    for group in _groups(pending, group_size):
        n_groups += 1
        items = [campaign.trials[i].item for i in group]
        rngs = [trial_rng(specs[i].seed_root, specs[i].seed_index) for i in group]
        outcomes = list(batch_fn(items, rngs))
        if len(outcomes) != len(group):
            raise ConfigurationError(
                f"batch_fn returned {len(outcomes)} results for a "
                f"{len(group)}-lane group"
            )
        for i, value in zip(group, outcomes):
            if isinstance(value, Diverged):
                diverged.append(i)
            else:
                absorb(i, value, None)
    if metrics is not None:
        if n_groups:
            metrics.counter("campaign.batch.groups").inc(n_groups)
            metrics.counter("campaign.batch.lanes").inc(len(pending))
        if diverged:
            metrics.counter("campaign.batch.diverged").inc(len(diverged))
    return diverged


def execute_batched(
    campaign: Campaign,
    batch_fn,
    *,
    store=None,
    metrics=None,
    group_size: "int | None" = None,
) -> CampaignResult:
    """Run ``campaign`` in lockstep groups, skipping stored trials.

    ``batch_fn(items, rngs)`` receives the pending trials' ``item``
    payloads and their per-lane generators (grid order within the
    group) and must return one result per lane — a trial value, or
    :class:`Diverged` for lanes that left lockstep and need the
    scalar fallback. ``group_size`` caps how many lanes ride in one
    batch call (``None`` = all pending trials in a single group).

    Like :func:`~repro.campaign.engine.execute`, this drains the
    campaign as the trivial one-round stream through
    :func:`~repro.campaign.stream.execute_stream`.
    """
    from .stream import GridSource, execute_stream

    stream = execute_stream(
        GridSource(campaign),
        store=store,
        metrics=metrics,
        batch_fn=batch_fn,
        group_size=group_size,
    )
    return stream.rounds[0].result
