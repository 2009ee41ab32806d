"""The one round lifecycle: scan, dispatch, absorb, assemble.

Every round — scalar, supervised, traced or lockstep-batched — runs
through :func:`repro.campaign.engine.run_round`, and every store read
(`run_round`, `replay_round`, `status`, `stream_status`) goes through
its scan step. These tests pin the parity that follows:

* defective store entries are quarantined *and counted* on every path,
  the batched one and the stream status included;
* lockstep lanes never touch the pool, and ``Diverged`` lanes join the
  ordinary ``pmap`` dispatch with byte-identical results;
* ``run_fleet`` reads each stored entry exactly once;
* the fork pool records a fallback to the serial path.
"""

import dataclasses
import json

import pytest

import repro.parallel as parallel
from repro.__main__ import main
from repro.campaign import (
    Campaign,
    Diverged,
    GridSource,
    Trial,
    TrialStore,
    execute,
    execute_batched,
    stream_status,
)
from repro.fleet import PRESETS, BandSpec, FleetSpec, OrbitBandPreset, run_fleet
from repro.fleet.calibration import calibration_campaign
from repro.obs import MetricsRegistry
from repro.radiation.environment import LOW_EARTH_ORBIT


def _draw_trial(item, rng, tracer=None):
    return {"i": item["i"], "draw": float(rng.random())}


def _draw_batch_fn(items, rngs):
    """The lockstep twin of ``_draw_trial``; odd items leave lockstep."""
    return [
        Diverged("odd") if item["i"] % 2 else _draw_trial(item, rng)
        for item, rng in zip(items, rngs)
    ]


def _grid(n=4) -> Campaign:
    return Campaign(
        name="lifecycle-grid",
        trial_fn=_draw_trial,
        trials=[Trial(params={"i": i}, item={"i": i}) for i in range(n)],
        seed=11,
    )


def _truncate(store: TrialStore, fingerprint: str) -> None:
    path = store.path(fingerprint)
    path.write_bytes(path.read_bytes()[:20])


class TestScanParity:
    def test_stream_status_counts_a_truncated_entry(self, tmp_path):
        store = TrialStore(tmp_path)
        execute(_grid(), store=store)
        _truncate(store, _grid().specs()[2].fingerprint)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            st = stream_status(GridSource(_grid()), store)
        assert st.rounds_complete == 0 and not st.exhausted
        assert st.current is not None
        assert (st.current.completed, st.current.corrupt) == (3, 1)
        assert st.trials_stored == 3

    def test_batched_round_counts_store_defects(self, tmp_path):
        store = TrialStore(tmp_path)
        cold = execute_batched(_grid(), _draw_batch_fn, store=store)
        _truncate(store, _grid().specs()[0].fingerprint)
        metrics = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="corrupt"):
            warm = execute_batched(
                _grid(), _draw_batch_fn, store=store, metrics=metrics
            )
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.store.corrupt"] == 1
        assert (warm.executed, warm.store_hits) == (1, 3)
        assert warm.values == cold.values


class TestLockstepDispatch:
    def test_lockstep_round_makes_no_pool_call(self):
        camp = _grid()
        camp.trials = [t for t in camp.trials if t.item["i"] % 2 == 0]
        result = execute_batched(camp, _draw_batch_fn)
        assert result.report is None
        assert result.executed == len(camp.trials)

    def test_diverged_lanes_join_the_pool_dispatch(self):
        metrics = MetricsRegistry()
        batched = execute_batched(
            _grid(6), _draw_batch_fn, group_size=4, metrics=metrics
        )
        assert batched.values == execute(_grid(6)).values
        assert batched.report is not None
        assert len(batched.report.timings) == 3
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.batch.groups"] == 2
        assert counters["campaign.batch.lanes"] == 6
        assert counters["campaign.batch.diverged"] == 3
        assert counters["campaign.trials.executed"] == 6


# ----------------------------------------------------------------------
# Fleet: one store read per stored entry
# ----------------------------------------------------------------------

_STORM = OrbitBandPreset(
    name="lifecycle-storm",
    rationale="test band: LEO upset rates with a ~1000x latchup flux",
    environment=dataclasses.replace(
        LOW_EARTH_ORBIT,
        name="lifecycle-storm",
        sel_per_year=2000.0,
        sel_delta_amps_range=(0.05, 1.0),
    ),
)


def _fleet_spec() -> FleetSpec:
    return FleetSpec(
        name="lifecycle",
        seed=5,
        dt=60.0,
        calibration_runs=1,
        bands=(
            BandSpec(preset="lifecycle-storm", craft=2,
                     schemes=("none", "emr"), days=0.5),
            BandSpec(preset="leo-equatorial", craft=1,
                     schemes=("none",), days=0.5),
        ),
    )


@pytest.fixture
def storm_preset(monkeypatch):
    monkeypatch.setitem(PRESETS, _STORM.name, _STORM)


class _CountingStore(TrialStore):
    def __init__(self, root) -> None:
        super().__init__(root)
        self.gets = 0

    def get(self, fingerprint):
        self.gets += 1
        return super().get(fingerprint)


class TestFleetStoreReads:
    def test_warm_replay_reads_each_entry_once(self, tmp_path, storm_preset):
        spec = _fleet_spec()
        cold = run_fleet(spec, store=tmp_path, workers=1)
        assert cold.executed == 5
        store = _CountingStore(tmp_path)
        warm = run_fleet(spec, store=store, workers=1)
        assert warm.executed == 0 and warm.store_hits == 5
        assert warm.values == cold.values
        n_calibration = len(calibration_campaign(spec).trials)
        assert store.gets == 5 + n_calibration

    def test_cli_warns_about_quarantined_entries(
        self, tmp_path, storm_preset, capsys
    ):
        spec_path = tmp_path / "fleet.json"
        spec_path.write_text(json.dumps(_fleet_spec().to_dict()))
        argv = ["fleet", "run", "--spec", str(spec_path),
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        assert "defective" not in capsys.readouterr().out
        store = TrialStore(tmp_path / "store")
        _truncate(store, next(store.root.glob("??/*.json")).stem)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "warning: 1 defective store entry" in out
        assert "count as pending and re-run" in out
        assert '"counters"' not in out  # the snapshot is --metrics only


# ----------------------------------------------------------------------
# The fork pool records its fallback to the serial path
# ----------------------------------------------------------------------

def _square(x):
    return x * x


class TestPoolFallback:
    def test_unusable_pool_is_recorded(self, monkeypatch):
        monkeypatch.setattr(parallel, "_pool_usable", lambda: False)
        report = parallel.pmap_report(_square, [1, 2, 3], workers=2)
        assert report.values == [1, 4, 9]
        assert report.mode == "serial" and report.serial_fallback

    def test_pool_that_fails_to_start_is_recorded(self, monkeypatch):
        context = parallel.multiprocessing.get_context("fork")

        def _refuse(*args, **kwargs):
            raise OSError("no pool (injected)")

        monkeypatch.setattr(type(context), "Pool", _refuse)
        report = parallel.pmap_report(
            _square, [1, 2, 3], workers=2, force_pool=True
        )
        assert report.values == [1, 4, 9]
        assert report.mode == "serial" and report.serial_fallback

    def test_serial_by_request_is_not_a_fallback(self, monkeypatch):
        monkeypatch.setattr(parallel, "_pool_usable", lambda: False)
        assert not parallel.pmap_report(_square, [1, 2], workers=1).serial_fallback
        assert not parallel.pmap_report(_square, [1], workers=2).serial_fallback
