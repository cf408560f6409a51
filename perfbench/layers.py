"""Per-layer attribution for the traced run, installed from outside ``src/``.

Two instruments, used on separate reps so neither inflates the other:

- :class:`Tracer` wraps a few public functions at layer boundaries
  (factory build, ``Simulator.run``, ``MetricsCollector.summarize``,
  ``ResultCache.get``/``put``, ``run_points`` and the per-point
  ``run_point_with_events``) and records one span per call: name,
  process, start, end and the span that caused it.  Spans stay in
  memory; a forked pool worker has no end-of-life hook, so it appends
  its own spans to a spool file as each of its points finishes, and
  :meth:`Tracer.collect` merges everything once at the end.
- :func:`profile_layers` runs a rep under ``cProfile`` and sums each
  function's self time into the ``repro`` package that defines it.
  C functions (heapq, generator ``send``, ...) form ``builtins``; the
  stdlib and everything outside ``repro`` form ``other``.  Only this
  process is profiled: a forked pool worker drops the profiler it
  inherits, whose data it could not hand back and which would slow it
  several times over.
"""

from __future__ import annotations

import cProfile
import functools
import itertools
import json
import os
import pstats
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.experiments import harness
from repro.experiments.executor import ConfiguredFactory
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator

#: Layers of the self-time table: ``repro``'s packages, ``repro`` for
#: its top-level modules, C builtins and everything else.
LAYERS = ("sim", "builtins", "core", "net", "hw", "runtime", "systems",
          "workload", "metrics", "experiments", "faults", "analysis",
          "bench", "repro", "other")

_REPRO_DIR = str(Path(repro.__file__).resolve().parent) + os.sep

os.register_at_fork(after_in_child=lambda: sys.setprofile(None))


def layer_of(filename: str) -> str:
    """The layer a profiled function belongs to, from its source file."""
    if filename == "~":
        return "builtins"
    path = str(Path(filename).resolve())
    if not path.startswith(_REPRO_DIR):
        return "other"
    head, sep, _rest = path[len(_REPRO_DIR):].partition(os.sep)
    return head if sep else "repro"


def profile_layers(run: Callable[[], object]) -> Tuple[object, float,
                                                       Dict[str, float]]:
    """Run *run* under cProfile: ``(result, wall_s, self_s by layer)``.

    ``wall_s`` is read outside the profiler, so the layer sum can be
    checked against it (the conservation check of the traced run).
    """
    profiler = cProfile.Profile()
    start = time.monotonic()
    profiler.enable()
    try:
        result = run()
    finally:
        profiler.disable()
    wall = time.monotonic() - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        self_s[layer_of(filename)] += row[2]
    return result, wall, self_s


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "pid", "seq", "parent", "start", "end", "meta")

    def __init__(self, name, pid, seq, parent, start, end, meta):
        self.name = name
        self.pid = pid
        self.seq = seq
        #: ``(pid, seq)`` of the enclosing span, or None.
        self.parent = parent
        self.start = start
        self.end = end
        self.meta = meta

    @property
    def key(self) -> Tuple[int, int]:
        return (self.pid, self.seq)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.pid, self.seq, self.parent, self.start,
                self.end, self.meta]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        name, pid, seq, parent, start, end, meta = row
        return cls(name, pid, seq, tuple(parent) if parent else None,
                   start, end, meta)


def _system_name(factory) -> str:
    system = getattr(factory, "system", None)
    if isinstance(system, str):
        return system
    return getattr(system, "__name__", type(factory).__name__)


class Tracer:
    """Spans around layer-boundary calls; see the module docstring.

    ``install`` patches classes and modules in place and ``uninstall``
    restores them, so a tracer is used as a context manager around the
    reps it should observe.
    """

    def __init__(self, spool_dir: Path, executor_cls: type,
                 cache_cls: type):
        self.spool_dir = Path(spool_dir)
        self.executor_cls = executor_cls
        self.cache_cls = cache_cls
        self.owner = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[Tuple[str, Tuple[int, int]]] = []
        self._seq = itertools.count()
        self._restore: List[Tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, func, name: str, meta: Optional[Callable] = None,
              spool: bool = False):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if any(open_name == name and key[0] == pid
                   for open_name, key in tracer._stack):
                return func(*args, **kwargs)  # a subclass calling super()
            key = (pid, next(tracer._seq))
            parent = tracer._stack[-1][1] if tracer._stack else None
            tracer._stack.append((name, key))
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                tracer._stack.pop()
            tracer.spans.append(Span(
                name, pid, key[1], parent, start, end,
                meta(args, result) if meta is not None else None))
            if spool and pid != tracer.owner:
                tracer._spool(pid)
            return result

        return wrapper

    def _spool(self, pid: int) -> None:
        mine = [span for span in self.spans if span.pid == pid]
        self.spans = [span for span in self.spans if span.pid != pid]
        with open(self.spool_dir / f"spans-{pid}.jsonl", "a") as out:
            for span in mine:
                out.write(json.dumps(span.to_json()) + "\n")

    def install(self) -> "Tracer":
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._patch(Simulator, "run",
                    self._wrap(Simulator.run, "sim.run"))
        self._patch(ConfiguredFactory, "__call__",
                    self._wrap(ConfiguredFactory.__call__, "systems.build"))
        self._patch(MetricsCollector, "summarize",
                    self._wrap(MetricsCollector.summarize,
                               "metrics.summarize"))
        self._patch(self.cache_cls, "get", self._wrap(
            self.cache_cls.get, "experiments.cache_get",
            meta=lambda args, result: {"hit": result is not None}))
        self._patch(self.cache_cls, "put",
                    self._wrap(self.cache_cls.put, "experiments.cache_put"))
        for cls in self.executor_cls.__mro__:
            if "run_points" in cls.__dict__:
                self._patch(cls, "run_points", self._wrap(
                    cls.__dict__["run_points"], "experiments.run_points"))
        # Module functions are patched wherever a repro module bound them.
        original = harness.run_point_with_events
        point = self._wrap(original, "experiments.point", spool=True,
                           meta=lambda args, result: {
                               "system": _system_name(args[0]),
                               "events": result[1],
                               "completed": result[0].throughput.completed})
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    module.__dict__.get("run_point_with_events") is original:
                self._patch(module, "run_point_with_events", point)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def collect(self) -> List[Span]:
        """This process's spans plus every worker's spooled spans."""
        spans = list(self.spans)
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as spool:
                spans.extend(Span.from_json(json.loads(line))
                             for line in spool)
            path.unlink()
        spans.sort(key=lambda span: span.start)
        return spans


def self_times(spans: List[Span]) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (count, total_s, self_s)`` over *spans*.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (the union, so children running in
    parallel workers are not subtracted twice).
    """
    children: Dict[Tuple[int, int], List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    table: Dict[str, Tuple[int, float, float]] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.key, ()),
                            key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        count, total, own = table.get(span.name, (0, 0.0, 0.0))
        table[span.name] = (count + 1, total + span.duration,
                            own + span.duration - covered)
    return table


def harness_times(spans: List[Span], jobs: int) -> Tuple[float, float]:
    """``(overhead_s, tail_idle_s)`` summed over every ``run_points`` call.

    Overhead is the call's wall time minus the in-worker point time
    divided by the jobs.  Tail idle is the time from the first worker
    running out of points to the call's return.
    """
    overhead = tail_idle = 0.0
    points = [s for s in spans if s.name == "experiments.point"]
    for call in (s for s in spans if s.name == "experiments.run_points"):
        inside = [p for p in points
                  if p.start >= call.start and p.end <= call.end]
        overhead += call.duration - sum(p.duration for p in inside) / jobs
        last_end: Dict[int, float] = {}
        for p in inside:
            last_end[p.pid] = max(last_end.get(p.pid, 0.0), p.end)
        if last_end:
            tail_idle += call.end - min(last_end.values())
    return overhead, tail_idle
