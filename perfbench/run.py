"""The repository benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-survey --seed 0 \\
        --seconds 40 --trace 0

Each run starts ``CHILDREN`` workload processes one after another
(``perfbench/workload.py``) and ends about ``--seconds`` after it
starts: process *k* sets up and repeats its timed section until the
*k*-th of ``CHILDREN`` equal slices of ``--seconds`` is spent. With
``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics:

* ``setup_s``: process start (incl. ``import repro``) to the first
  timed trial; the lower quartile over the processes;
* ``trials_per_s``: trials per second of a timed repetition; the
  upper quartile over all repetitions;
* ``peak_rss_mb``: per repetition, the largest sum over the workload
  process and its live pool workers of each one's proportional set
  size (PSS, so pages shared after a fork count once), sampled every
  ``POLL_S``; the median over all repetitions.

The quartiles lean on the host's fast phases: on a shared
2-CPU host a fixed CPU-bound loop runs up to 1.8x slower (CPU time
as well as wall time, with little or no steal time) for 5-15 s at a time,
and the share of time in slow phases changes from minute to minute,
so a median over repetitions follows that share. A change to the
program moves every repetition, and so the quartile, alike.

With ``--trace 1`` the run alternates untraced and traced processes;
the JSON holds the per-layer metrics from the traced ones, the
per-layer self-time table is printed above it, and spans are written
under ``.perfbench_run/traces/``.

Every repetition's output digest is compared with the one recorded in
``perfbench/digests.json`` for that seed (when there is one) and with
every other repetition of the run; a mismatch, a quarantined trial or
a crashed process makes ``correct`` false and the exit code 1.
``--record`` stores the run's digest as the recorded one.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("fleet-survey", "table7-inject", "adaptive-stream")
#: Workload processes per run (per kind with --trace 1): setup_s is a
#: quartile over them, and the timed repetitions are spread over them
#: so no single process's placement on the host decides the run.
CHILDREN = 5
#: A run, traced or not, ends within this many seconds: a process
#: still running then is killed and counts as failed.
RUN_TIMEOUT_S = 170.0
POLL_S = 0.1
DIGESTS = HERE / "digests.json"
POOL_MODES = ("fork-pool", "ground-pool")
SCHEMES = ("none", "3mr", "emr", "emr_mbu")

END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


def host_probe() -> float:
    """Seconds for a fixed numpy + pure-Python loop; no repo code.

    Context only: it tells host drift apart from program drift.
    """
    import numpy as np

    start = time.perf_counter()
    a = np.random.default_rng(0).random((256, 256))
    for _ in range(40):
        a = a @ a
        a /= a.max()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    return time.perf_counter() - start


def _tree(root_pid: int) -> "list[int]":
    """``root_pid`` and all its live descendants.

    Only PIDs above ``root_pid`` are read: descendants are forked
    after it, and reading every process's stat on each poll would
    take CPU from the workload.
    """
    parents: "dict[int, int]" = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) <= root_pid:
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [root_pid], [root_pid]
    while frontier:
        frontier = [pid for pid, ppid in parents.items() if ppid in frontier]
        tree.extend(frontier)
    return tree


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def quartiles(values) -> "tuple[float, float]":
    """Lower and upper quartile (inclusive method: within the data)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_child(root: Path, tmp: Path, workload: str, seed: int,
              until: float, trace: int, tag: str, deadline: float) -> dict:
    """One workload process; returns its result plus setup and PSS."""
    if time.monotonic() >= deadline:
        return {"crashed": True}
    out = tmp / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--until", repr(until), "--trace", str(trace),
        "--tmp", str(tmp), "--out", str(out),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
    samples = []  # (time, summed PSS of the live process tree in kB)
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                proc.kill()
                break
            kb = sum(_pss_kb(p) for p in _tree(proc.pid))
            samples.append((time.monotonic(), kb))
            time.sleep(POLL_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.exists():
        return {"crashed": True}
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_s"] = result["first_timed"] - spawned - result["input_s"]
    # Each repetition forks its own pool workers, so the peak is taken
    # per repetition; the samples one poll either side of it count.
    for rep in result["reps"]:
        lo, hi = rep["start"] - POLL_S, rep["start"] + rep["seconds"] + POLL_S
        window = [kb for t, kb in samples if lo <= t <= hi] or [
            min(samples, key=lambda s: abs(s[0] - lo))[1]
        ]
        rep["peak_rss_mb"] = max(window) / 1024.0
    return result


def check(children: "list[dict]", expected: "str | None") -> dict:
    """Failure accounting over every repetition of every process."""
    reps = [rep for c in children if not c.get("crashed") for rep in c["reps"]]
    reference = expected if expected is not None else (
        reps[0]["digest"] if reps else None
    )
    attempted = failed = 0
    for rep in reps:
        attempted += rep["trials"]
        if not rep["ok"] or rep["digest"] != reference:
            failed += rep["trials"]
        else:
            failed += rep["quarantined"]
    crashed = sum(1 for c in children if c.get("crashed"))
    # A process that died took at least one trial with it.
    attempted += crashed
    failed += crashed
    return {
        "correct": failed == 0 and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "digest": reference,
    }


def end_to_end(children: "list[dict]") -> dict:
    alive = [c for c in children if not c.get("crashed")]
    if not alive:
        return {}
    rates = [r["trials"] / r["seconds"] for c in alive for r in c["reps"]]
    values = {
        "setup_s": quartiles(c["setup_s"] for c in alive)[0],
        "trials_per_s": quartiles(rates)[1],
        "peak_rss_mb": statistics.median(
            r["peak_rss_mb"] for c in alive for r in c["reps"]
        ),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


PER_LAYER_UNITS = {
    "sim.batch.run_n": "lane_ticks",
    "sim.batch.run_s": "s",
    "fleet.scalar_craft": "count",
    "fleet.batch_craft": "count",
    "fleet.scalar_s": "s",
    "fleet.calibrate_s": "s",
    "fleet.report_s": "s",
    "campaign.batch.self_s": "s",
    "campaign.store.put_n": "count",
    "campaign.store.put_s": "s",
    "campaign.store.get_n": "count",
    "campaign.store.get_s": "s",
    "campaign.store.hit_ratio": "ratio",
    "campaign.specs_s": "s",
    "campaign.stream.rounds": "count",
    "campaign.stream.self_s": "s",
    "parallel.tasks": "count",
    "parallel.task_s": "s",
    "parallel.util": "ratio",
    "parallel.overhead_s": "s",
    "parallel.mode": "pool_share",
    "parallel.retries": "count",
    "parallel.timeouts": "count",
    "parallel.worker_losses": "count",
    **{f"injector.trial_s.{s}": "s" for s in SCHEMES},
    "adaptive.next_round_s": "s",
    "adaptive.estimate_s": "s",
    "ml.fit_n": "count",
    "ml.fit_s": "s",
    "trace.rep_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
    "host.probe_s": "s",
}


def _parallel(reports: "list[dict]") -> dict:
    tasks = sum(len(r["timings"]) for r in reports)
    task_s = sum(t[0] for r in reports for t in r["timings"])
    capacity = sum(r["workers"] * r["wall"] for r in reports)
    overhead = 0.0
    for r in reports:
        by_pid: "dict[int, float]" = {}
        for seconds, pid in r["timings"]:
            by_pid[pid] = by_pid.get(pid, 0.0) + seconds
        overhead += r["wall"] - max(by_pid.values(), default=0.0)
    return {
        "parallel.tasks": tasks,
        "parallel.task_s": task_s,
        "parallel.util": task_s / capacity if capacity else 0.0,
        "parallel.overhead_s": overhead,
        "parallel.mode": (
            sum(1 for r in reports if r["mode"] in POOL_MODES) / len(reports)
            if reports else 0.0
        ),
        "parallel.retries": sum(r["retries"] for r in reports),
        "parallel.timeouts": sum(r["timeouts"] for r in reports),
        "parallel.worker_losses": sum(r["worker_losses"] for r in reports),
    }


_IDLE = {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}


def rep_layers(rep: dict, table: dict, setup: dict) -> dict:
    """Per-layer metrics of one traced repetition."""

    def row(name):
        return table.get(name, _IDLE)

    gets = row("campaign.store.get")
    values = {
        "sim.batch.run_n": row("sim.batch.run")["count"],
        "sim.batch.run_s": row("sim.batch.run")["total_s"],
        "fleet.scalar_craft": row("fleet.scalar")["count"],
        "fleet.batch_craft": row("campaign.batch")["count"],
        "fleet.scalar_s": row("fleet.scalar")["total_s"],
        "fleet.calibrate_s": setup.get("fleet.calibrate", _IDLE)["total_s"],
        "fleet.report_s": row("fleet.report")["total_s"],
        "campaign.batch.self_s": row("campaign.batch")["self_s"]
        + row("campaign.batch.stream")["self_s"],
        "campaign.store.put_n": row("campaign.store.put")["count"],
        "campaign.store.put_s": row("campaign.store.put")["total_s"],
        "campaign.store.get_n": gets["count"],
        "campaign.store.get_s": gets["total_s"],
        "campaign.store.hit_ratio": (
            gets["hits"] / gets["count"] if gets["count"] else 0.0
        ),
        "campaign.specs_s": row("campaign.specs")["total_s"],
        "campaign.stream.rounds": row("campaign.stream")["count"],
        "campaign.stream.self_s": row("campaign.stream")["self_s"],
        "adaptive.next_round_s": row("adaptive.next_round")["total_s"],
        "adaptive.estimate_s": row("adaptive.estimate")["total_s"],
        "ml.fit_n": row("ml.fit")["calls"],
        "ml.fit_s": row("ml.fit")["total_s"],
        "trace.rep_s": rep["seconds"],
        # Time in the timed section outside every named layer: the
        # benchmark's own frame and the entry point's glue code.
        "trace.unattributed_s": row("bench.rep")["self_s"]
        + row("fleet.run")["self_s"],
    }
    values.update(_parallel(rep["reports"]))
    trial_s = rep.get("trial_s", {})
    for scheme in SCHEMES:
        values[f"injector.trial_s.{scheme}"] = trial_s.get(scheme, 0.0)
    return values


def traced_layers(traced: "list[dict]", untraced: "list[dict]",
                  probe_s: float, out_dir: Path, label: str) -> dict:
    from tracing import layer_table

    per_rep = []
    tables = []
    for k, child in enumerate(traced):
        if child.get("crashed"):
            continue
        spans = json.loads(Path(child["spans"]).read_text(encoding="utf-8"))
        setup = layer_table([s for s in spans if s["run"] == "setup"])
        for index, rep in enumerate(child["reps"]):
            table = layer_table([s for s in spans if s["run"] == index])
            tables.append(table)
            per_rep.append(rep_layers(rep, table, setup))
        shutil.copy(child["spans"], out_dir / f"{label}-{k}.spans.json")
    if not per_rep:
        return {}
    values = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    rate = [
        r["trials"] / r["seconds"]
        for c in untraced if not c.get("crashed") for r in c["reps"]
    ]
    traced_rate = [
        r["trials"] / r["seconds"]
        for c in traced if not c.get("crashed") for r in c["reps"]
    ]
    values["trace.overhead"] = (
        1.0 - quartiles(traced_rate)[1] / quartiles(rate)[1]
        if rate and traced_rate else 0.0
    )
    values["host.probe_s"] = probe_s

    lines = [f"per-layer self time, mean per timed repetition ({len(tables)} reps)",
             f"{'span':28s} {'calls':>8s} {'count':>10s} {'total_s':>9s} {'self_s':>9s} {'share':>6s}"]
    names = sorted({n for t in tables for n in t})
    rep_s = statistics.mean(r["trace.rep_s"] for r in per_rep)
    rows = []
    for name in names:
        agg = {k: sum(t.get(name, {}).get(k, 0) for t in tables) / len(tables)
               for k in ("calls", "count", "total_s", "self_s")}
        rows.append((name, agg))
    for name, agg in sorted(rows, key=lambda r: -r[1]["self_s"]):
        lines.append(
            f"{name:28s} {agg['calls']:8.1f} {agg['count']:10.0f} "
            f"{agg['total_s']:9.4f} {agg['self_s']:9.4f} "
            f"{agg['self_s'] / rep_s:6.1%}"
        )
    lines.append(
        f"unattributed remainder: {values['trace.unattributed_s']:.4f} s of "
        f"{values['trace.rep_s']:.4f} s per repetition; tracing overhead "
        f"{values['trace.overhead']:+.1%} of trials_per_s"
    )
    text = "\n".join(lines)
    (out_dir / f"{label}.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digest as the recorded one")
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps its workload process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    compileall.compile_dir(root / "src", quiet=1)
    work = root / ".perfbench_run"
    tmp = work / f"tmp-{os.getpid()}"
    traces = work / "traces"
    tmp.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = None if args.record else (
        recorded.get(args.workload, {}).get(str(args.seed))
    )

    deadline = time.monotonic() + RUN_TIMEOUT_S
    probe_s = host_probe()
    started = time.monotonic()
    kinds = (0, 1) if args.trace else (0,)
    slices = CHILDREN * len(kinds)
    untraced, traced = [], []
    try:
        for k in range(slices):
            kind = kinds[k % len(kinds)]
            until = started + args.seconds * (k + 1) / slices
            child = run_child(root, tmp, args.workload, args.seed, until,
                              kind, f"{'ut'[kind]}{k}", deadline)
            (traced if kind else untraced).append(child)
        status = check(untraced + traced, expected)
        label = f"{args.workload}-seed{args.seed}"
        metrics = (
            traced_layers(traced, untraced, probe_s, traces, label)
            if args.trace else end_to_end(untraced)
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.record and status["correct"]:
        recorded.setdefault(args.workload, {})[str(args.seed)] = status["digest"]
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"{args.workload} seed={args.seed} digest={status['digest']} "
          f"recorded={'none' if expected is None else 'match' if expected == status['digest'] else 'MISMATCH'} "
          f"host.probe_s={probe_s:.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = status["correct"] and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, status["attempted"]),
        "failed": status["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
