"""The benchmark's three workloads, each a repeatable unit of work ("rep").

Every workload is built from ``--seed`` alone and drives the program
only through its public surface: ``figure2()``, ``make_executor()``,
``PointSpec`` and ``ConfiguredFactory``.  A rep returns the
``RunMetrics`` of every point it delivered plus its host wall time; the
caller turns those into rates and checks the point images against the
committed goldens (see ``goldens.json``).

- ``fig2-exact``: the Figure 2 sweep, exact DES, serial, no cache.
  Kernel and preemption path dominate; the harness is ~0%.
- ``systems-mix``: one point per registered system at 200 kRPS, fixed
  2 us service, no preemption, serial.  Events per request spread ~7x
  across systems, so hop and polling-loop event cuts show here.
- ``sweep-parallel``: the executor the CLI builds for ``--jobs 2
  --cache-dir DIR`` over a grid of short points, half of them already
  cached.  The only workload where the harness (pool start, spec
  pickling, SHA-256 cache read/verify/write, ordering, balance) is a
  large share of wall time.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from hostspeed import REFERENCE_S
from repro.bench.recorder import metrics_digest
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    make_executor,
    metrics_to_jsonable,
)
from repro.experiments.figures import figure2
from repro.experiments.harness import RunConfig
from repro.experiments.progress import COMPLETED
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.systems import registry
from repro.units import us
from repro.workload.distributions import Fixed

#: Offered load and service time of the per-system points: below every
#: system's knee, so each point measures the model's event cost, not
#: queue growth.
POINT_RPS = 200e3
SERVICE_US = 2.0
#: systems-mix runs twice the default horizon: ~3200 measured requests
#: per point, so the seed moves a point's work by ~1.8%, not ~2.5%.
MIX_SCALE = 2.0
#: The sweep grid: nine systems x these rates, at a quarter of the
#: default horizon, so points are short and the harness share is large.
SWEEP_RATES = (50e3, 100e3, 150e3, 200e3)
SWEEP_SCALE = 0.25
SWEEP_JOBS = 2
#: Horizon scale of the two throwaway points that start the first pool.
POOL_WARMUP_SCALE = 0.01


def point_digest(metrics) -> str:
    """Short SHA-256 of one point's exact ``RunMetrics`` JSON image."""
    payload = json.dumps(metrics_to_jsonable(metrics), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass
class Rep:
    """What one rep delivered, in point order."""

    wall_s: float
    labels: List[str] = field(default_factory=list)
    metrics: list = field(default_factory=list)
    #: Per point: True when it was simulated in this rep (not a cache hit).
    simulated: List[bool] = field(default_factory=list)
    #: Simulator events executed (``ExecutorStats.events_executed``).
    events: int = 0
    #: Points the executor served from its cache.
    cache_hits: int = 0
    #: Rep-relative clock readings at each point's completion (serial reps).
    marks: List[float] = field(default_factory=list)
    #: Reference walk times (``hostspeed``): at the start, after each mark,
    #: and at the end when the last mark did not close the rep.  Empty
    #: when the rep ran without the reference.
    refs: List[float] = field(default_factory=list)
    #: Traceback when the rep raised; its points then all count as failed.
    error: Optional[str] = None

    def summary(self) -> Dict:
        """The JSON image a session reports for this rep."""
        sim = [m for m, s in zip(self.metrics, self.simulated) if s]
        return {
            "wall_s": self.wall_s,
            "ref_wall_s": self.reference_wall(),
            "labels": self.labels,
            "point_digests": [point_digest(m) for m in self.metrics],
            "digest": metrics_digest(self.metrics)[:16],
            "points": len(self.metrics),
            "completed": sum(m.throughput.completed for m in sim),
            "preemptions": sum(m.preemptions for m in sim),
            "events": self.events,
            "cache_hits": self.cache_hits,
            "error": self.error,
        }

    def slices(self) -> List[float]:
        """The rep's wall time cut at each point's completion.

        The last slice runs to the rep's end, so the slices sum to
        ``wall_s``.  A rep without completion marks is one slice.
        """
        bounds = [0.0] + self.marks[:-1] + [self.wall_s]
        return [hi - lo for lo, hi in zip(bounds, bounds[1:])]

    def reference_wall(self) -> Optional[float]:
        """``wall_s`` in host seconds at the reference speed.

        Each slice is scaled by ``REFERENCE_S`` over the mean of the
        reference walks at its two ends.
        """
        if not self.refs:
            return None
        return sum(
            width * REFERENCE_S / ((self.refs[k] + self.refs[k + 1]) / 2)
            for k, width in enumerate(self.slices()))


def _system_specs(names, rates, config: RunConfig) -> List[PointSpec]:
    distribution = Fixed(us(SERVICE_US))
    return [PointSpec(factory=ConfiguredFactory.by_name(
                          name, registry.default_config(name)),
                      rate_rps=rate, distribution=distribution,
                      config=config, label=f"{name}@{rate / 1e3:g}k")
            for name in names for rate in rates]


class Workload:
    """Base: set-up builds every system once; subclasses define a rep."""

    name = ""
    #: Points one rep delivers.
    expected_points = 0
    #: Worker processes of the executor (``jobs``).
    jobs = 1

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.workdir = Path(workdir)
        #: Horizon scale; the benchmark always runs 1.0, tests shrink it.
        self.scale = scale

    def systems(self) -> List[str]:
        return [entry.name for entry in registry.list_systems()]

    def prepare(self) -> None:
        """Untimed one-off work before any session (default: none)."""

    def setup(self) -> None:
        """Build every system the workload runs, on a throwaway simulator."""
        config = RunConfig(seed=self.seed)
        for name in self.systems():
            sim = Simulator()
            metrics = MetricsCollector(sim, warmup_ns=config.warmup_ns)
            ConfiguredFactory.by_name(name, registry.default_config(name))(
                sim, RngRegistry(config.seed), metrics)
            sim.close()

    def run_rep(self, probe: Optional[Callable[[], float]] = None) -> Rep:
        """One timed rep; exceptions become a failed rep, not a crash.

        With *probe* (``HostSpeed.measure``), the reference walk runs at
        the start, after every point completion and at the end; its own
        time is left out of the rep's wall time.
        """
        self.before_rep()
        marks: List[float] = []
        refs: List[float] = []
        paused = 0.0
        if probe is not None:
            refs.append(probe())
        start = time.monotonic()

        def mark(event) -> None:
            nonlocal paused
            if event.kind != COMPLETED:
                return
            now = time.monotonic()
            marks.append(now - start - paused)
            if probe is not None:
                refs.append(probe())
                paused += time.monotonic() - now

        try:
            rep = self._rep(mark)
            rep.wall_s = time.monotonic() - start - paused
        except Exception:
            return Rep(wall_s=time.monotonic() - start - paused,
                       error=traceback.format_exc())
        finally:
            self.after_rep()
        rep.marks = marks
        if probe is not None:
            if len(refs) < len(rep.slices()) + 1:
                refs.append(probe())
            rep.refs = refs
        return rep

    def reference(self) -> Rep:
        """One rep of the points run serially, without a cache.

        This is the source of ``goldens.json``.
        """
        self.setup()
        return self.run_rep()

    def before_rep(self) -> None:
        """Untimed per-rep preparation (default: none)."""

    def after_rep(self) -> None:
        """Untimed per-rep clean-up (default: none)."""

    def _rep(self, on_event) -> Rep:
        """Run the points, passing *on_event* to the executor.

        ``run_rep`` fills in the wall time.
        """
        raise NotImplementedError


class Fig2Exact(Workload):
    name = "fig2-exact"
    expected_points = 18

    def systems(self) -> List[str]:
        return ["shinjuku", "shinjuku-offload"]

    def _rep(self, on_event) -> Rep:
        executor = make_executor(jobs=1, on_event=on_event)
        figure = figure2(config=RunConfig(seed=self.seed), scale=self.scale,
                         executor=executor)
        points = [(f"{sweep.system_name}@{point.offered_rps / 1e3:g}k",
                   point.metrics)
                  for sweep in figure.sweeps for point in sweep.points]
        return Rep(wall_s=0.0, labels=[label for label, _ in points],
                   metrics=[m for _, m in points],
                   simulated=[True] * len(points),
                   events=executor.stats.events_executed)


class SystemsMix(Workload):
    name = "systems-mix"
    expected_points = 9

    def setup(self) -> None:
        super().setup()
        self.specs = _system_specs(
            self.systems(), [POINT_RPS],
            RunConfig(seed=self.seed).scaled(MIX_SCALE * self.scale))

    def _rep(self, on_event) -> Rep:
        executor = make_executor(jobs=1, on_event=on_event)
        results = executor.run_points(self.specs)
        return Rep(wall_s=0.0, labels=[s.label for s in self.specs],
                   metrics=results, simulated=[True] * len(results),
                   events=executor.stats.events_executed)


class SweepParallel(Workload):
    name = "sweep-parallel"
    expected_points = 9 * len(SWEEP_RATES)
    jobs = SWEEP_JOBS

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        super().__init__(seed, workdir, scale)
        self.specs = _system_specs(
            self.systems(), SWEEP_RATES,
            RunConfig(seed=seed).scaled(SWEEP_SCALE * scale))
        # The seed picks, per system, which rate pair is cached: the
        # outer (50k, 200k) or the inner (100k, 150k).  Both pairs offer
        # the same load, so every seed simulates the same amount of work.
        draw = random.Random(seed)
        per_system = len(SWEEP_RATES)
        self.cached = [base + offset
                       for base in range(0, len(self.specs), per_system)
                       for offset in draw.choice(((0, 3), (1, 2)))]
        self.pristine = self.workdir / "cache-half"
        self.rep_cache = self.workdir / "cache-rep"

    def prepare(self) -> None:
        """Fill the pristine cache with the chosen half of the grid."""
        shutil.rmtree(self.pristine, ignore_errors=True)
        make_executor(jobs=1, cache_dir=self.pristine).run_points(
            [self.specs[i] for i in self.cached])

    def setup(self) -> None:
        super().setup()
        # Start the first pool of the process on two throwaway points:
        # its one-off cost belongs to set-up, not to the timed reps.
        warm = RunConfig(seed=self.seed).scaled(POOL_WARMUP_SCALE)
        make_executor(jobs=self.jobs).run_points(
            _system_specs(self.systems()[:2], SWEEP_RATES[:1], warm))

    def reference(self) -> Rep:
        """Every point serially, bypassing both the pool and the cache.

        A golden taken from it checks what the parallel, half-cached rep
        delivers.
        """
        start = time.monotonic()
        executor = make_executor(jobs=1)
        results = executor.run_points(self.specs)
        return Rep(wall_s=time.monotonic() - start,
                   labels=[s.label for s in self.specs], metrics=results,
                   simulated=[True] * len(results),
                   events=executor.stats.events_executed)

    def before_rep(self) -> None:
        shutil.rmtree(self.rep_cache, ignore_errors=True)
        shutil.copytree(self.pristine, self.rep_cache)

    def after_rep(self) -> None:
        shutil.rmtree(self.rep_cache, ignore_errors=True)

    def _rep(self, on_event) -> Rep:
        # No progress subscriber: the harness is measured as the CLI runs
        # it, and the rep stays one slice (completion order varies).
        executor = make_executor(jobs=self.jobs, cache_dir=self.rep_cache)
        results = executor.run_points(self.specs)
        stats = executor.stats
        if stats.points_cached != len(self.cached):
            raise RuntimeError(
                f"expected {len(self.cached)} cache hits, "
                f"got {stats.points_cached}")
        hits = set(self.cached)
        return Rep(wall_s=0.0, labels=[s.label for s in self.specs],
                   metrics=results,
                   simulated=[i not in hits for i in range(len(results))],
                   events=stats.events_executed,
                   cache_hits=stats.points_cached)


WORKLOADS = {cls.name: cls for cls in (Fig2Exact, SystemsMix, SweepParallel)}
