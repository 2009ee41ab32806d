"""One benchmark process: set up a workload, then time repetitions.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/workload.py --workload NAME --seed N \\
        --until T --trace 0|1 --tmp DIR --out FILE

The process imports ``repro`` and sets the workload up (what a CLI
user pays on every run), stamps ``time.monotonic()`` just before the
first timed trial, then repeats the workload's timed section until
the next repetition would end after ``--until`` (a
``time.monotonic()`` reading, which every process on the host
shares), at least once. Every repetition's output digest is recorded
so ``run.py`` can check it. The result is one JSON object written to
``--out``.

Each workload drives the program through its public entry points
only; with ``--trace 1`` the layer calls are wrapped by
:mod:`tracing` and the spans go to ``<out>.spans.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path


# Input sizes. A timed repetition takes 0.6-2.3 s on a 2-CPU x86
# host: short against the seconds-long phases in which a shared host
# runs slower, so most repetitions fall inside one phase.
#: fleet-survey: craft per smoke band are multiplied by this.
FLEET_SCALE = 2
#: fleet-survey: mission length of every band.
FLEET_DAYS = 1.0
#: fleet-survey: SEL-bearing craft (scalar shard) in every input.
FLEET_SEL_CRAFT = 4
#: table7-inject: injections per scheme (x4 schemes incl. EMR+MBU).
T7_RUNS_PER_SCHEME = 4
T7_WORKERS = 2
#: adaptive-stream: wave size x rounds.
STREAM_WAVE = 32
STREAM_ROUNDS = 16


def _smoke_fleet(seed: int):
    """``smoke_spec()``'s bands, FLEET_SCALE times the craft, each on
    FLEET_DAYS-day missions.

    ``--seed`` shuffles the band order and moves one craft from one
    band to another; that hands every craft a different grid slot and
    with it a different random stream, at 128 +- 1 craft. The
    fleet's own seed stays the smoke seed, so the SEU calibration is
    the same for every input. Which craft draw a latchup is Poisson,
    and the scalar shard costs far more per craft than the batch
    shard, so of the fleets drawn the first whose latchup sky holds
    exactly FLEET_SEL_CRAFT craft is taken: every input has the same
    shard mix. The probe is the one ``run_fleet`` uses to shard craft.
    """
    import numpy as np
    from repro.campaign import trial_rng
    from repro.fleet import fleet_campaign, get_preset, smoke_spec

    base = smoke_spec()
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        order = rng.permutation(len(base.bands))
        crafts = [base.bands[i].craft * FLEET_SCALE for i in order]
        donor, taker = rng.choice(len(crafts), size=2, replace=False)
        crafts[donor] -= 1
        crafts[taker] += 1
        bands = tuple(
            replace(base.bands[i], craft=n, days=FLEET_DAYS)
            for i, n in zip(order, crafts)
        )
        spec = replace(base, name="perfbench", bands=bands)
        sel = 0
        for index, trial in enumerate(fleet_campaign(spec, {}).trials):
            env = get_preset(trial.params["preset"]).environment
            duration_s = trial.params["days"] * 86400.0
            if env.sample_sel_events(duration_s, trial_rng(spec.seed, index)):
                sel += 1
        if sel == FLEET_SEL_CRAFT:
            return spec
    raise RuntimeError(f"seed {seed}: no fleet drawn has the target shard mix")


class FleetSurvey:
    """``run_fleet(workers=1)``: batch tick kernel + scalar SEL shard."""

    def imports(self) -> None:
        import repro.campaign  # noqa: F401
        import repro.fleet  # noqa: F401

    def inputs(self, seed: int) -> None:
        self.spec = _smoke_fleet(seed)
        self.trials = self.spec.total_craft

    def setup(self, tmp: Path) -> None:
        from repro import fleet
        from repro.campaign import TrialStore

        self.calib_root = tmp / "calibration"
        # Cold SEU calibration into an empty store, as a first run pays.
        fleet.calibrate_fleet(
            self.spec, store=TrialStore(self.calib_root), workers=1
        )
        self.tmp = tmp

    def prepare(self, rep: int) -> None:
        # Each repetition starts from a store holding only calibration.
        self.root = self.tmp / f"fleet-{rep}"
        shutil.copytree(self.calib_root, self.root)

    def timed(self) -> dict:
        from repro import fleet

        result = fleet.run_fleet(self.spec, store=self.root, workers=1)
        return {"result": result}

    def check(self, out: dict) -> dict:
        from repro.fleet import report_json

        result = out["result"]
        shutil.rmtree(self.root)
        scalar = sum(1 for v in result.values if v["sels"]["total"] > 0)
        return {
            "digest": hashlib.sha256(
                report_json(result.report).encode("utf-8")
            ).hexdigest(),
            "quarantined": len(result.quarantined),
            "ok": scalar == FLEET_SEL_CRAFT
            and result.executed == self.trials,
        }


class Table7Inject:
    """Table 7 campaign through the fork pool at 2 workers."""

    def imports(self) -> None:
        import repro.campaign  # noqa: F401
        import repro.experiments.table7_fault_injection  # noqa: F401

    def inputs(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tmp: Path) -> None:
        from repro.experiments import table7_fault_injection

        self.campaign = table7_fault_injection.campaign(
            runs_per_scheme=T7_RUNS_PER_SCHEME, seed=self.seed
        )
        self.trials = len(self.campaign.trials)
        self.tmp = tmp

    def prepare(self, rep: int) -> None:
        self.root = self.tmp / f"t7-{rep}"

    def timed(self) -> dict:
        from repro import campaign

        result = campaign.execute(
            self.campaign, workers=T7_WORKERS, store=self.root
        )
        return {"result": result}

    def check(self, out: dict) -> dict:
        from repro.campaign import jsonify, values_digest

        result = out["result"]
        shutil.rmtree(self.root)
        canonical = [
            json.loads(json.dumps(jsonify(self.campaign.encode(v))))
            for v in result.values
        ]
        per_scheme: "dict[str, list]" = {}
        for timing in result.report.timings:
            params = result.specs[timing.index].params
            scheme = params["scheme"]
            if params["stage"] == "mbu":
                scheme = f"{scheme}_mbu"
            per_scheme.setdefault(scheme, []).append(timing.seconds)
        return {
            "digest": values_digest(canonical),
            "quarantined": len(result.quarantined),
            "ok": result.executed == self.trials,
            "trial_s": {k: sum(v) / len(v) for k, v in per_scheme.items()},
        }


def _smoke_source(seed: int):
    from repro.adaptive import build_source

    source, _ = build_source(
        "smoke", seed=seed, target_width=0,
        wave_size=STREAM_WAVE, max_rounds=STREAM_ROUNDS,
    )
    return source


class AdaptiveStream:
    """Closed-form smoke trials: store writes, stream, RF refits."""

    trials = STREAM_WAVE * STREAM_ROUNDS

    def imports(self) -> None:
        import repro.adaptive  # noqa: F401
        import repro.campaign  # noqa: F401

    def inputs(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tmp: Path) -> None:
        self.tmp = tmp

    def prepare(self, rep: int) -> None:
        self.root = self.tmp / f"stream-{rep}"

    def timed(self) -> dict:
        from repro.campaign import stream

        source = _smoke_source(self.seed)
        result = stream.execute_stream(source, store=self.root)
        final = source.estimate(stream.StreamHistory(rounds=list(result.rounds)))
        return {"result": result, "estimate": final.estimate}

    def check(self, out: dict) -> dict:
        result = out["result"]
        shutil.rmtree(self.root)
        return {
            "digest": result.digest,
            "quarantined": len(result.quarantined),
            "ok": result.executed == self.trials
            and result.trials == self.trials
            and math.isfinite(out["estimate"]),
        }


WORKLOADS = {
    "fleet-survey": FleetSurvey,
    "table7-inject": Table7Inject,
    "adaptive-stream": AdaptiveStream,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = reports = None
    if args.trace:
        from tracing import Tracer, instrument

        tracer, reports = Tracer(), []
        instrument(tracer, reports)
        tracer.run = "setup"
        setup_span = tracer.open("bench.setup")

    tmp = Path(tempfile.mkdtemp(dir=args.tmp))
    workload = WORKLOADS[args.workload]()
    # The modules a CLI run of this workload imports count as set-up.
    workload.imports()
    # Making the inputs is the benchmark's work, not the program's:
    # it is timed apart and left out of setup_s. The collection after
    # it starts setup from the same heap state whatever the inputs
    # cost to draw, so the collector runs at the same points.
    started = time.monotonic()
    workload.inputs(args.seed)
    gc.collect()
    input_s = time.monotonic() - started
    workload.setup(tmp)
    if tracer is not None:
        tracer.close(setup_span)

    reps = []
    first = None
    # Stop before a repetition that would end after --until, so a
    # run's length does not depend on how the last repetition lands.
    while not reps or time.monotonic() + reps[-1]["seconds"] <= args.until:
        workload.prepare(len(reps))
        n_reports = 0 if reports is None else len(reports)
        if tracer is not None:
            tracer.run = len(reps)
            span = tracer.open("bench.rep")
        start = time.monotonic()
        first = start if first is None else first
        try:
            out = workload.timed()
        except Exception:  # a raised trial fails its repetition
            traceback.print_exc()
            out = None
        finally:
            seconds = time.monotonic() - start
            if tracer is not None:
                tracer.close(span)
        rep = {
            "start": start,
            "seconds": seconds,
            "trials": workload.trials,
        }
        if out is None:
            rep.update(digest=None, quarantined=0, ok=False)
        else:
            rep.update(workload.check(out))
        if reports is not None:
            rep["reports"] = [
                {
                    "mode": r.mode,
                    "workers": r.workers,
                    "wall": r.wall_seconds,
                    "timings": [[t.seconds, t.pid] for t in r.timings],
                    "retries": r.retries,
                    "timeouts": r.timeouts,
                    "worker_losses": r.worker_losses,
                }
                for r in reports[n_reports:]
            ]
        reps.append(rep)
        if out is None:
            break

    shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "first_timed": first,
        "input_s": input_s,
        "reps": reps,
    }
    if tracer is not None:
        spans_path = args.out + ".spans.json"
        tracer.dump(spans_path)
        result["spans"] = spans_path
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
