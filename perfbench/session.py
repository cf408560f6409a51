"""One fresh benchmark process ("session"), started by ``run.py``.

A session imports ``repro``, sets its workload up, and then, by mode:

- ``setup``: stops; its set-up time is one ``setup_s`` sample, which
  ``run.py`` scales to the reference host speed;
- ``timed``: runs a warm-up rep, reads peak RSS, then runs reps against
  the reference walk until its budget is spent, untraced;
- ``traced``: runs three reps, untraced, with spans, and under
  cProfile, and reports the per-layer table (see ``layers.py``);
- ``prepare``: runs the workload's untimed one-off work (filling the
  half cache of ``sweep-parallel``).

It prints one JSON object as the last line of its standard output.
``setup_s`` runs from the parent's clock reading taken just before it
started this process (``--spawned-at``; ``time.monotonic`` is one clock
for every process of the machine) to the start of the first timed rep.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict

from hostspeed import HostSpeed


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run_timed(workload, budget_s: float) -> Dict:
    """A warm-up rep, then reps against the reference walk for *budget_s*.

    Peak RSS is read after the warm-up rep, before the reference walk's
    table exists.  At least one rep is measured.
    """
    reps = [workload.run_rep().summary()]
    rss = peak_rss_mib()
    probe = HostSpeed().measure
    start = time.monotonic()
    while len(reps) < 2 or time.monotonic() - start < budget_s:
        reps.append(workload.run_rep(probe).summary())
    return {"reps": reps, "peak_rss_mb": rss}


def run_traced(workload, spool_dir: Path) -> Dict:
    """Untraced, span-traced and profiled reps of *workload*."""
    from layers import (
        LAYERS,
        Tracer,
        harness_times,
        profile_layers,
        self_times,
    )
    from repro.experiments.executor import ResultCache, make_executor
    from repro.systems import registry

    untraced = workload.run_rep()
    executor_cls = type(make_executor(jobs=workload.jobs))
    with Tracer(spool_dir, executor_cls, ResultCache) as tracer:
        spanned = workload.run_rep()
    spans = tracer.collect()
    profiled, profiled_wall, layer_self = profile_layers(workload.run_rep)

    table = self_times(spans)
    overhead, tail_idle = harness_times(spans, workload.jobs)
    points = [s for s in spans if s.name == "experiments.point"]
    gets = [s for s in spans if s.name == "experiments.cache_get"]
    hits = sum(1 for s in gets if s.meta["hit"])
    summary = spanned.summary()

    def total(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    metrics: Dict[str, float] = {
        f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    layer_sum = sum(layer_self.values())
    run_s = total("sim.run")
    metrics.update({
        "sim.run_s": run_s,
        "sim.events": summary["events"],
        "sim.events_per_s": summary["events"] / run_s if run_s else 0.0,
        "sim.events_per_req": (summary["events"] / summary["completed"]
                               if summary["completed"] else 0.0),
        "systems.build_s": total("systems.build"),
        "metrics.summarize_s": total("metrics.summarize"),
        "experiments.run_points_s": total("experiments.run_points"),
        "experiments.cache_get_s": total("experiments.cache_get"),
        "experiments.cache_put_s": total("experiments.cache_put"),
        "experiments.cache_hits": hits,
        "experiments.cache_misses": len(gets) - hits,
        "experiments.cache_hit_ratio": hits / len(gets) if gets else 0.0,
        "experiments.overhead_s": overhead,
        "experiments.tail_idle_s": tail_idle,
        "model.requests_completed": summary["completed"],
        "model.preemptions": summary["preemptions"],
        "trace.total_s": profiled_wall,
        "trace.layer_sum_s": layer_sum,
        "trace.conservation_err": abs(layer_sum - profiled_wall)
                                  / profiled_wall,
        "trace.overhead_s": profiled_wall - untraced.wall_s,
        "trace.spans_overhead_s": spanned.wall_s - untraced.wall_s,
    })
    for entry in registry.list_systems():
        mine = [p.meta for p in points if p.meta["system"] == entry.name]
        completed = sum(m["completed"] for m in mine)
        metrics[f"sim.events_per_req.{entry.name}"] = (
            sum(m["events"] for m in mine) / completed if completed else 0.0)
    return {
        "metrics": metrics,
        "reps": [untraced.summary(), summary, profiled.summary()],
        "points_traced": len(points),
        "spans": {name: list(row) for name, row in sorted(table.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced", "prepare"))
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.mode == "prepare":
        workload.prepare()
        print(json.dumps({"prepared": args.workload}))
        return 0
    workload.setup()
    out: Dict = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "timed":
        out.update(run_timed(workload, args.budget))
    elif args.mode == "traced":
        out.update(run_traced(workload, args.workdir / "spool"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
