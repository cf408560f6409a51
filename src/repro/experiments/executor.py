"""Sweep execution: one executor, in process or in worker processes, cached.

Every figure and study in this repro bottoms out in ``run_point`` calls
that each build a fresh, independently seeded :class:`Simulator` — so
points are embarrassingly parallel, and identical inputs always produce
identical :class:`RunMetrics`.  This module exploits both facts:

- :class:`SweepExecutor` runs a batch of points.  With ``jobs=1``, no
  per-point deadline and no retries, points run in this process, in
  order.  Otherwise they run in at most ``jobs`` worker processes,
  forked at the start of each batch; each worker runs many points, and
  the parent kills and replaces a worker only when it crashes or passes
  its per-point deadline.  Failed attempts retry with bounded
  exponential backoff.
- :class:`ResultCache` is an on-disk content-addressed store keyed by a
  stable SHA-256 over (system name, factory fingerprint, offered rate,
  distribution parameters, :class:`RunConfig`), so re-running a figure
  or resuming an interrupted sweep skips already-measured points.
- ``resume_from`` (a replayed :class:`~repro.experiments.progress.
  LedgerReplay`) serves points an interrupted run already settled,
  repairing missing or quarantined cache entries from the ledger.

Failures follow one model wherever points run: a point whose every
attempt fails becomes a typed :class:`~repro.errors.SweepPointError`
(crash / timeout / exception) and a ``failed`` progress event; every
other point still runs and lands in the cache; then
:class:`~repro.errors.SweepFailure` reports the casualties.
``BaseException`` interrupts such as Ctrl-C abort at once.

Determinism is the contract that makes all of this safe; the
differential suite in ``tests/integration/test_executor_equivalence.py``
enforces bit-identical in-process/worker/cached results for every
system.  Every wall-clock read below times the *host* (deadlines,
backoff); nothing it produces feeds simulated state or cached results.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.errors import (
    ConfigError,
    ExperimentError,
    PointCrashError,
    PointExecutionError,
    PointTimeoutError,
    SweepFailure,
    SweepPointError,
)
from repro.experiments.progress import (
    CACHE_HIT,
    COMPLETED,
    FAILED,
    STARTED,
    PointEvent,
    ProgressCallback,
)
from repro.metrics.summary import (
    FaultSummary,
    LatencySummary,
    Provenance,
    RunMetrics,
    ThroughputSummary,
)
from repro.systems import registry
from repro.workload.distributions import ServiceTimeDistribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.harness import RunConfig, SystemFactory
    from repro.experiments.progress import LedgerReplay

#: Bump when the cache key payload or the stored schema changes shape;
#: old entries then simply miss instead of deserializing wrongly.
#: Schema 2: fault plans join the key payload and fault summaries the
#: stored metrics.
#: Schema 3: the fast-path config joins the key payload (approximate
#: and exact results must never share an entry) and provenance tags
#: join the stored metrics.
#: Schema 4: a content checksum joins the stored entry, verified on
#: every read; entries that fail it are quarantined, never trusted.
CACHE_SCHEMA = 4


# ---------------------------------------------------------------------------
# Point specifications and cache keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSpec:
    """One (system, rate) point, fully specified and self-contained.

    A spec is the unit handed to executors: everything needed to run the
    point in any process, plus the identity used for cache lookups.
    """

    factory: SystemFactory
    rate_rps: float
    distribution: ServiceTimeDistribution
    config: RunConfig
    #: Display / cache-key name of the system under test.
    label: str = "system"


@dataclass(frozen=True)
class ConfiguredFactory:
    """A picklable, fingerprintable system factory.

    All served systems share the ``(sim, rngs, metrics, config=...)``
    constructor shape, so a (class, config) pair is a complete recipe.
    Classes pickle by reference and configs are plain dataclasses, and
    the deterministic dataclass ``repr`` of the config is what lets the
    cache fingerprint them.

    ``system`` may also be a registry name (see :meth:`by_name`); the
    name resolves through :mod:`repro.systems.registry` at call and
    fingerprint time, so a by-name factory pickles as a short string
    and produces the *same* cache token as the equivalent by-class
    factory — switching construction styles never invalidates a cache.
    """

    system: Union[Type, str]
    config: Any = None

    @classmethod
    def by_name(cls, name: str, config: Any = None) -> "ConfiguredFactory":
        """A factory keyed by registry name, validated eagerly.

        Unknown names and config-type mismatches raise
        :class:`ConfigError` here, at construction — not minutes later
        inside a worker process.
        """
        entry = registry.get(name)
        if config is not None:
            if entry.config_cls is None:
                raise ConfigError(
                    f"system {name!r} takes no config, "
                    f"got {type(config).__name__}")
            if not isinstance(config, entry.config_cls):
                raise ConfigError(
                    f"system {name!r} expects {entry.config_cls.__name__}, "
                    f"got {type(config).__name__}")
        return cls(system=name, config=config)

    def resolve(self) -> Type:
        """The concrete system class (resolving a registry name)."""
        if isinstance(self.system, str):
            return registry.get(self.system).cls
        return self.system

    def __call__(self, sim, rngs, metrics):
        system = self.resolve()
        if self.config is None:
            return system(sim, rngs, metrics)
        return system(sim, rngs, metrics, config=self.config)

    def cache_token(self) -> str:
        """Deterministic fingerprint: qualified class plus config repr."""
        cls = self.resolve()
        return f"{cls.__module__}.{cls.__qualname__}(config={self.config!r})"


def factory_token(factory: SystemFactory) -> Optional[str]:
    """A stable textual fingerprint of *factory*, or None if opaque.

    Factories advertise cacheability by exposing a ``cache_token()``
    method (see :class:`ConfiguredFactory`).  Closures and other opaque
    callables return None: their points always run, never cache —
    correctness over convenience.
    """
    token = getattr(factory, "cache_token", None)
    if callable(token):
        return token()
    return None


def spec_cache_key(spec: PointSpec) -> Optional[str]:
    """Content hash identifying *spec*'s result, or None if uncacheable.

    The payload hashes exact values: floats go in as ``float.hex()`` so
    two rates that differ in the last ulp never share a key, and the
    distribution contributes its parameter-bearing ``repr``.
    """
    token = factory_token(spec.factory)
    if token is None:
        return None
    config = spec.config
    payload = json.dumps({
        "schema": CACHE_SCHEMA,
        "system": spec.label,
        "factory": token,
        "rate_rps": float(spec.rate_rps).hex(),
        "distribution": repr(spec.distribution),
        "config": {
            "seed": config.seed,
            "horizon_ns": float(config.horizon_ns).hex(),
            "warmup_ns": float(config.warmup_ns).hex(),
            "max_events": config.max_events,
            # Frozen-dataclass reprs: deterministic, value-complete.
            "faults": repr(config.faults),
            "fastpath": repr(config.fastpath),
        },
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# RunMetrics <-> JSON (exact float round-trip via repr)
# ---------------------------------------------------------------------------

def metrics_to_jsonable(metrics: RunMetrics) -> Dict[str, Any]:
    """A plain-dict image of *metrics* suitable for ``json.dumps``."""
    data = {
        "latency": (None if metrics.latency is None
                    else dataclasses.asdict(metrics.latency)),
        "throughput": dataclasses.asdict(metrics.throughput),
        "preemptions": metrics.preemptions,
        "mean_slowdown": metrics.mean_slowdown,
        "worker_wait_fraction": metrics.worker_wait_fraction,
    }
    if metrics.faults is not None:
        # Emitted only for faulted runs, so fault-free entries keep
        # their historical shape byte for byte.
        data["faults"] = dataclasses.asdict(metrics.faults)
    if metrics.provenance is not None:
        # Same pattern: only fast-path points carry the tag, so plain
        # exact runs serialize exactly as they always have.
        data["provenance"] = dataclasses.asdict(metrics.provenance)
    return data


def metrics_from_jsonable(data: Dict[str, Any]) -> RunMetrics:
    """Rebuild the exact :class:`RunMetrics` stored by
    :func:`metrics_to_jsonable`."""
    latency = (None if data["latency"] is None
               else LatencySummary(**data["latency"]))
    faults = (FaultSummary(**data["faults"])
              if data.get("faults") is not None else None)
    provenance = (Provenance(**data["provenance"])
                  if data.get("provenance") is not None else None)
    return RunMetrics(
        latency=latency,
        throughput=ThroughputSummary(**data["throughput"]),
        preemptions=data["preemptions"],
        mean_slowdown=data["mean_slowdown"],
        worker_wait_fraction=data["worker_wait_fraction"],
        faults=faults,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

#: Where corrupt entries are moved inside a cache root (their suffix is
#: changed so they never count as, or collide with, live entries).
QUARANTINE_DIRNAME = "quarantine"


@dataclass(frozen=True)
class QuarantineRecord:
    """One corrupt cache entry that was moved aside instead of trusted."""

    key: str
    reason: str
    #: Where the corrupt bytes now live (None if the move itself failed
    #: and the entry was unlinked instead).
    path: Optional[Path]


def _entry_checksum(metrics_jsonable: Dict[str, Any]) -> str:
    """The integrity checksum stored beside a cache entry's metrics."""
    payload = json.dumps(metrics_jsonable, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of point results under one directory.

    Layout: ``<root>/<key[:2]>/<key>.json`` — two-level fanout keeps
    directories small for big sweeps.  Writes are atomic (tempfile +
    rename) so interrupted runs never leave half-written entries.

    Every entry carries a SHA-256 checksum over its metrics image,
    verified on read: a torn, truncated, bit-flipped, or otherwise
    corrupt entry is *quarantined* — moved to ``<root>/quarantine/``
    with a ``.corrupt`` suffix — and read as a miss, so the sweep
    recomputes the point transparently instead of crashing on (or
    silently trusting) damaged bytes.  Entries from an older schema
    read as plain misses without quarantine — they are honest
    old-format files, not corruption.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: Every corrupt entry this instance has quarantined, in
        #: detection order (the executor reports these).
        self.quarantine_log: List[QuarantineRecord] = []
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ExperimentError(
                f"cache dir {self.root} exists and is not a directory") \
                from exc

    def path_for(self, key: str) -> Path:
        """Where *key*'s entry lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (may not exist yet)."""
        return self.root / QUARANTINE_DIRNAME

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move the corrupt entry at *path* aside and log the incident."""
        destination: Optional[Path] = None
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            destination = self.quarantine_dir / f"{key}.corrupt"
            n = 0
            while destination.exists():
                n += 1
                destination = self.quarantine_dir / f"{key}.corrupt.{n}"
            os.replace(path, destination)
        except OSError:
            # Quarantine is best-effort; a cache that cannot even move
            # the entry still must not trust or crash on it.
            destination = None
            try:
                os.unlink(path)
            except OSError:
                pass
        self.quarantine_log.append(
            QuarantineRecord(key=key, reason=reason, path=destination))

    def get(self, key: str) -> Optional[RunMetrics]:
        """The cached metrics for *key*, or None on any kind of miss.

        A missing entry is a plain miss; an unreadable, unparseable,
        checksum-mismatched, or malformed entry is quarantined first
        (see the class docstring) and then misses.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            return None
        except ValueError:  # UnicodeDecodeError: not even text
            self._quarantine(path, key, "undecodable bytes")
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
        except ValueError:
            self._quarantine(path, key, "unparseable JSON "
                                        "(torn or truncated write)")
            return None
        schema = entry.get("schema")
        if schema != CACHE_SCHEMA:
            if isinstance(schema, int) and 0 < schema < CACHE_SCHEMA \
                    and "metrics" in entry:
                return None  # honest old-format entry: miss, re-run
            self._quarantine(path, key, f"unrecognized schema {schema!r}")
            return None
        stored = entry.get("checksum")
        if "metrics" not in entry or \
                stored != _entry_checksum(entry["metrics"]):
            self._quarantine(path, key, "checksum mismatch "
                                        "(bit-flip or partial write)")
            return None
        try:
            return metrics_from_jsonable(entry["metrics"])
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, key, "malformed metrics payload")
            return None

    def put(self, key: str, metrics: RunMetrics) -> None:
        """Store *metrics* under *key*, atomically, with its checksum."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        image = metrics_to_jsonable(metrics)
        payload = json.dumps({"schema": CACHE_SCHEMA,
                              "checksum": _entry_checksum(image),
                              "metrics": image})
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        # Quarantined files end in .corrupt, so they never count here.
        return sum(1 for _ in self.root.glob("*/*.json"))


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------

#: Backoff schedule before retry *n*: base * factor**(n-1), capped.
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_FACTOR = 2.0
DEFAULT_BACKOFF_MAX_S = 2.0
#: How long to wait for a finished or killed worker to be reaped.
_REAP_TIMEOUT_S = 5.0


def backoff_delay(attempt: int, base_s: float = DEFAULT_BACKOFF_BASE_S,
                  factor: float = DEFAULT_BACKOFF_FACTOR,
                  max_s: float = DEFAULT_BACKOFF_MAX_S) -> float:
    """Seconds to wait before retry number *attempt* (1-based).

    Bounded exponential: ``min(max_s, base_s * factor**(attempt-1))``.
    Deterministic on purpose — no jitter — so test runs are exactly
    reproducible; sweep points are independent, so synchronized retries
    cannot contend with each other the way RPC storms do.
    """
    if attempt < 1:
        raise ExperimentError(f"attempt must be >= 1: {attempt}")
    return min(max_s, base_s * (factor ** (attempt - 1)))


@dataclass
class ExecutorStats:
    """Tallies across every ``run_points`` call on one executor."""

    points_total: int = 0
    #: Points actually simulated (cache misses or uncacheable).
    points_run: int = 0
    #: Points served straight from the cache.
    points_cached: int = 0
    #: Simulator events executed across all fresh runs (0 on a fully
    #: cached re-run — the "no simulation happened" witness).
    events_executed: int = 0
    #: Points that permanently failed (every attempt exhausted).
    points_failed: int = 0
    #: Extra attempts made beyond each point's first.
    points_retried: int = 0
    #: Points served from a previous run's progress ledger (--resume).
    points_resumed: int = 0
    #: Corrupt cache entries quarantined while serving lookups.
    points_quarantined: int = 0

    def reset(self) -> None:
        """Zero every tally (fresh measurement window)."""
        self.points_total = 0
        self.points_run = 0
        self.points_cached = 0
        self.events_executed = 0
        self.points_failed = 0
        self.points_retried = 0
        self.points_resumed = 0
        self.points_quarantined = 0


def _execute_spec(spec: PointSpec) -> Tuple[RunMetrics, int]:
    """Run one spec, returning (metrics, events).

    Calls ``run_point_with_events`` through the harness module's global
    (imported here, since the harness builds on this module), so a
    wrapper installed there also runs inside worker processes.
    """
    from repro.experiments import harness
    return harness.run_point_with_events(spec.factory, spec.rate_rps,
                                         spec.distribution, spec.config)


def _portable(exc: BaseException) -> Optional[BaseException]:
    """*exc* if it survives a pickle round trip, else None."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _worker_main(specs: Sequence[PointSpec], conn) -> None:
    """Worker-process loop: run each spec index the parent sends.

    The worker is forked, so it inherits *specs* (picklable or not) and
    receives only indices.  It replies ``("ok", metrics, events)`` or
    ``("error", cause, message, traceback)``, and returns on ``None``
    or when the parent's end closes.  A crash (SIGKILL, segfault, OOM)
    replies nothing; the parent sees the pipe drop and classifies the
    point from the exit code.
    """
    # Ctrl-C reaches the whole process group; the parent alone handles
    # it, by killing every worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        if index is None:
            return
        try:
            metrics, events = _execute_spec(specs[index])
        except Exception as exc:
            conn.send(("error", _portable(exc),
                       f"{type(exc).__name__}: {exc}",
                       traceback.format_exc()))
            continue
        conn.send(("ok", metrics, events))


@dataclass
class _Attempt:
    """One scheduled (or running) execution attempt of one spec."""

    index: int
    attempt: int
    #: Wall-clock instant before which this attempt must not start
    #: (backoff); 0.0 starts immediately.
    not_before: float = 0.0


@dataclass
class _Worker:
    """Bookkeeping for one live worker process."""

    process: "multiprocessing.process.BaseProcess"
    conn: "multiprocessing.connection.Connection"
    #: The attempt the worker is running; None while idle.
    task: Optional[_Attempt] = None
    #: Wall-clock kill deadline of that attempt (None = no deadline).
    kill_after: Optional[float] = None


class SweepExecutor:
    """Runs batches of points: cache, resume, and where points execute.

    Cached points (and, with ``resume_from``, points a replayed progress
    ledger settled) are served without simulating; the rest run in this
    process when ``jobs == 1``, no ``point_timeout_s`` is set and
    ``max_retries == 0``, and otherwise in at most ``jobs`` worker
    processes (see the module docstring).  A worker that dies without a
    result is a *crash*, one that outlives ``point_timeout_s`` on a
    point is killed as a *timeout*, and an exception inside the point
    is an *exception*; each retries up to ``max_retries`` times.

    Every executor emits one typed
    :class:`~repro.experiments.progress.PointEvent` stream — started /
    completed / cache-hit / failed, completions carrying the point's
    :class:`RunMetrics` — from *this* process, even when the points
    themselves ran in workers.  Results are bit-identical wherever
    points run: they are independent and slot into the result list by
    index, so neither completion order, retries, nor resume can move a
    single measured bit.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 on_event: Optional[ProgressCallback] = None,
                 point_timeout_s: Optional[float] = None,
                 max_retries: int = 0,
                 resume_from: Optional["LedgerReplay"] = None):
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1: {jobs}")
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ExperimentError(
                f"point timeout must be positive: {point_timeout_s}")
        if max_retries < 0:
            raise ExperimentError(f"max retries must be >= 0: {max_retries}")
        self.jobs = jobs
        self.cache = cache
        #: Persistent progress subscriber (every ``run_points`` call).
        self.on_event = on_event
        self.point_timeout_s = point_timeout_s
        self.max_retries = max_retries
        self.resume_from = resume_from
        self.stats = ExecutorStats()
        self._seq = 0
        self._batches = 0
        #: Injectable for tests; host-side pacing only.
        self._sleep: Callable[[float], None] = time.sleep

    @property
    def in_process(self) -> bool:
        """Do points run in this process (nothing to isolate)?"""
        return (self.jobs == 1 and self.point_timeout_s is None
                and self.max_retries == 0)

    def run_points(self, specs: Sequence[PointSpec],
                   on_event: Optional[ProgressCallback] = None,
                   ) -> List[RunMetrics]:
        """Run every spec, returning metrics in the order given.

        Cached (or resumed) points are served without simulating; the
        rest run in this process or in workers.  Each fresh point is
        written back to the cache the moment it completes — not at the
        end of the batch — so an interrupted sweep resumes from every
        finished point.  If any point permanently fails, the rest still
        run before :class:`~repro.errors.SweepFailure` raises.

        *on_event* subscribes to this batch's progress stream on top of
        the executor-wide :attr:`on_event`; both see every event.
        """
        specs = list(specs)
        self.stats.points_total += len(specs)
        batch = self._batches
        self._batches += 1
        subscribers = [callback for callback in (self.on_event, on_event)
                       if callback is not None]

        def emit(kind: str, i: int, metrics: Optional[RunMetrics] = None,
                 error: Optional[str] = None, attempts: int = 0) -> None:
            if not subscribers:
                return
            self._seq += 1
            event = PointEvent(
                kind=kind, seq=self._seq, batch=batch, index=i,
                total=len(specs), label=specs[i].label,
                rate_rps=specs[i].rate_rps, metrics=metrics, error=error,
                attempts=attempts)
            for callback in subscribers:
                callback(event)

        results: List[Optional[RunMetrics]] = [None] * len(specs)
        misses: List[int] = []
        keys: List[Optional[str]] = [None] * len(specs)
        quarantined_before = (len(self.cache.quarantine_log)
                              if self.cache is not None else 0)
        for i, spec in enumerate(specs):
            key = spec_cache_key(spec) if self.cache is not None else None
            keys[i] = key
            hit = self.cache.get(key) if key is not None else None
            if hit is None and self.resume_from is not None:
                # Only consulted on a cache miss, so a healthy cache
                # entry always wins; the ledger covers uncacheable
                # specs, lost entries, and quarantined corruption.
                hit = self.resume_from.lookup(spec.label, spec.rate_rps)
                if hit is not None:
                    self.stats.points_resumed += 1
                    if key is not None:
                        self.cache.put(key, hit)
            if hit is not None:
                results[i] = hit
                self.stats.points_cached += 1
                emit(CACHE_HIT, i, metrics=hit)
            else:
                misses.append(i)
        if self.cache is not None:
            self.stats.points_quarantined += \
                len(self.cache.quarantine_log) - quarantined_before

        failures: List[SweepPointError] = []

        def record(batch_index: int, outcome: Tuple[RunMetrics, int]) -> None:
            i = misses[batch_index]
            metrics, events = outcome
            results[i] = metrics
            self.stats.points_run += 1
            self.stats.events_executed += events
            if keys[i] is not None:
                self.cache.put(keys[i], metrics)
            emit(COMPLETED, i, metrics=metrics)

        def started(batch_index: int) -> None:
            emit(STARTED, misses[batch_index])

        def failed(batch_index: int, error: SweepPointError) -> None:
            failures.append(error)
            self.stats.points_failed += 1
            emit(FAILED, misses[batch_index], error=str(error),
                 attempts=error.attempts)

        if misses:
            run = (self._run_in_process if self.in_process
                   else self._run_in_workers)
            run([specs[i] for i in misses], record, started, failed)
        if failures:
            raise SweepFailure(failures)
        return results

    def run_point(self, spec: PointSpec) -> RunMetrics:
        """Convenience wrapper for a single point."""
        return self.run_points([spec])[0]

    @staticmethod
    def _now() -> float:
        """Host wall clock for deadlines/backoff (never simulated time)."""
        return time.monotonic()  # repro: allow[wall-clock]

    def _run_in_process(self, specs: Sequence[PointSpec],
                        record: Callable[[int, Tuple[RunMetrics, int]], None],
                        started: Callable[[int], None],
                        failed: Callable[[int, SweepPointError], None],
                        ) -> None:
        """Run *specs* here, in order; a raising point fails alone."""
        for j, spec in enumerate(specs):
            started(j)
            try:
                outcome = _execute_spec(spec)
            except Exception as exc:
                error = _point_error(
                    PointExecutionError, spec, 1,
                    f"{type(exc).__name__}: {exc}", cause=exc)
                error.worker_traceback = traceback.format_exc()
                failed(j, error)
                continue
            record(j, outcome)

    def _run_in_workers(self, specs: Sequence[PointSpec],
                        record: Callable[[int, Tuple[RunMetrics, int]], None],
                        started: Callable[[int], None],
                        failed: Callable[[int, SweepPointError], None],
                        ) -> None:
        """Run *specs* in supervised worker processes (see the class
        docstring)."""
        context = multiprocessing.get_context("fork")
        ready = collections.deque(_Attempt(index=j, attempt=1)
                                  for j in range(len(specs)))
        delayed: List[_Attempt] = []
        workers: Dict[Any, _Worker] = {}

        def spawn() -> _Worker:
            conn, child_conn = context.Pipe()
            process = context.Process(target=_worker_main,
                                      args=(specs, child_conn), daemon=True)
            process.start()
            # Close the parent's copy of the worker's end so the pipe
            # drops — and the watchdog wakes — the instant it dies.
            child_conn.close()
            worker = _Worker(process=process, conn=conn)
            workers[conn] = worker
            return worker

        def retire(worker: _Worker) -> None:
            del workers[worker.conn]
            worker.process.kill()  # a no-op for one already dead
            worker.process.join(_REAP_TIMEOUT_S)
            worker.conn.close()

        def attempt_failed(task: _Attempt, kind: Type[SweepPointError],
                           message: str, cause: Optional[BaseException] = None,
                           worker_traceback: Optional[str] = None) -> None:
            if task.attempt <= self.max_retries:
                self.stats.points_retried += 1
                delayed.append(_Attempt(
                    index=task.index, attempt=task.attempt + 1,
                    not_before=self._now() + backoff_delay(task.attempt)))
                return
            error = _point_error(kind, specs[task.index], task.attempt,
                                 message, cause=cause)
            error.worker_traceback = worker_traceback
            failed(task.index, error)

        def dispatch(worker: _Worker, task: _Attempt) -> None:
            if task.attempt == 1:
                started(task.index)
            worker.task = task
            worker.kill_after = (self._now() + self.point_timeout_s
                                 if self.point_timeout_s is not None
                                 else None)
            try:
                worker.conn.send(task.index)
            except OSError:
                pass  # the worker is gone; receive() classifies it

        def receive(worker: _Worker) -> None:
            task = worker.task
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                retire(worker)
                if task is not None:
                    code = worker.process.exitcode
                    detail = (f"killed by signal {-code}" if code is not None
                              and code < 0 else f"exit code {code}")
                    attempt_failed(
                        task, PointCrashError,
                        f"worker process died without a result ({detail})")
                return
            worker.task = worker.kill_after = None
            if ready:
                # Hand the worker its next point before the bookkeeping
                # below (cache write, progress events) so it never
                # waits on them.
                dispatch(worker, ready.popleft())
            if message[0] == "ok":
                _tag, metrics, events = message
                record(task.index, (metrics, events))
                return
            _tag, cause, text, worker_traceback = message
            attempt_failed(task, PointExecutionError, text, cause=cause,
                           worker_traceback=worker_traceback)

        try:
            while ready or delayed or any(w.task is not None
                                          for w in workers.values()):
                now = self._now()
                ready.extend(t for t in delayed if t.not_before <= now)
                delayed = [t for t in delayed if t.not_before > now]
                idle = [w for w in workers.values() if w.task is None]
                while ready and (idle or len(workers) < self.jobs):
                    dispatch(idle.pop() if idle else spawn(), ready.popleft())
                busy = [w for w in workers.values() if w.task is not None]
                if not busy:
                    # Only backoff-delayed retries remain.
                    wake = min(t.not_before for t in delayed)
                    self._sleep(max(0.0, wake - self._now()))
                    continue
                horizons = [w.kill_after - now for w in busy
                            if w.kill_after is not None]
                horizons.extend(t.not_before - now for t in delayed)
                timeout = max(0.0, min(horizons)) if horizons else None
                for conn in multiprocessing.connection.wait(list(workers),
                                                            timeout=timeout):
                    if conn in workers:
                        receive(workers[conn])
                now = self._now()
                for worker in [w for w in workers.values()
                               if w.kill_after is not None
                               and now >= w.kill_after]:
                    task = worker.task
                    retire(worker)
                    attempt_failed(
                        task, PointTimeoutError,
                        f"point exceeded its {self.point_timeout_s:g}s "
                        f"wall-clock deadline and was killed")
        except BaseException:
            # Ctrl-C or an unexpected supervisor bug: never orphan live
            # workers.  Completed points are already recorded and cached,
            # so a re-run (or --resume) picks up from them.
            for worker in list(workers.values()):
                worker.process.kill()
                worker.conn.close()
            raise
        idle = list(workers.values())
        for worker in idle:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in idle:
            worker.process.join(_REAP_TIMEOUT_S)
            retire(worker)


def _point_error(kind: Type[SweepPointError], spec: PointSpec,
                 attempts: int, message: str,
                 cause: Optional[BaseException] = None) -> SweepPointError:
    """A typed failure of *spec* after *attempts* attempts."""
    return kind(message, label=spec.label, rate_rps=spec.rate_rps,
                attempts=attempts, config=spec.config, cause=cause)


#: The executor every sweep entry point defaults to: in process, no
#: cache.  Shared, so successive default sweeps feeding one subscriber
#: keep distinct ``(batch, index)`` keys.
IN_PROCESS = SweepExecutor()


def make_executor(jobs: int = 1,
                  cache_dir: Optional[Union[str, Path]] = None,
                  on_event: Optional[ProgressCallback] = None,
                  point_timeout_s: Optional[float] = None,
                  max_retries: int = 0,
                  resume_from: Optional["LedgerReplay"] = None,
                  ) -> SweepExecutor:
    """The executor the CLI/benches ask for.

    ``cache_dir`` (optional) enables the on-disk result cache; every
    other argument passes straight to :class:`SweepExecutor`.
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return SweepExecutor(jobs=jobs, cache=cache, on_event=on_event,
                         point_timeout_s=point_timeout_s,
                         max_retries=max_retries, resume_from=resume_from)
