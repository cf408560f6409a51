"""Benchmark recording: measured perf runs -> ``BENCH_<name>.json``.

Every optimization PR needs a measured before/after, and every bench
needs a correctness witness alongside its timing — a faster engine that
drifts a single metric bit is a regression, not a win.  A *record* is
one measured run of a named suite (see :mod:`repro.bench.suites`):

- **throughput counters** — simulator events executed, sweep points
  run, wall seconds, and the derived events/sec and points/sec;
- **an environment fingerprint** — interpreter, platform, CPU count,
  package version, and the knobs (scale/seed/jobs/sanitize/fast path)
  and event kernel that make two records comparable or not;
- **a metrics digest** — SHA-256 over the exact
  :class:`~repro.metrics.summary.RunMetrics` JSON images of every point
  the suite ran, the bit-identical-speedup contract in one hex string.

Records append to a per-suite *artifact* (``BENCH_<name>.json``) whose
``runs`` list is the perf trajectory; :mod:`repro.bench.compare` reads
the last two entries to flag slowdowns and metric drift.

Wall-clock reads here are sanctioned: they time the *host*, never the
simulation, and nothing they produce feeds simulated state or caches.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ExperimentError
from repro.metrics.summary import RunMetrics
from repro.version import __version__

#: Bump when the artifact layout changes shape; old artifacts are then
#: reported as invalid instead of being misread.
ARTIFACT_SCHEMA = 1

#: Record fields that legitimately differ between two otherwise
#: identical runs (they time the host, not the simulation).  Everything
#: else in a record is deterministic for fixed suite knobs on one host.
TIMING_FIELDS = ("recorded_at", "wall_s", "events_per_sec",
                 "points_per_sec")

#: Environment keys that must match for two records to be comparable
#: (same simulated work, so events/sec ratios are meaningful).
COMPARABLE_ENV_KEYS = ("scale", "seed", "jobs", "sanitize", "cached",
                       "fastpath", "kernel")


def artifact_filename(name: str) -> str:
    """The canonical artifact filename for suite *name*."""
    safe = name.replace(":", "-").replace("/", "-")
    return f"BENCH_{safe}.json"


def metrics_digest(metrics: Iterable[RunMetrics]) -> str:
    """SHA-256 over the exact JSON images of *metrics*, in order.

    Uses the same :func:`~repro.experiments.executor.metrics_to_jsonable`
    image as the result cache, so the digest covers every measured bit
    (floats via ``repr`` round-trip exactly in JSON).
    """
    from repro.experiments.executor import metrics_to_jsonable
    payload = json.dumps([metrics_to_jsonable(m) for m in metrics],
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def values_digest(values: Iterable[Any]) -> str:
    """SHA-256 over plain JSON-able *values* (microbench witnesses)."""
    payload = json.dumps(list(values), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BenchOptions:
    """The knobs a suite runs under (and is fingerprinted by)."""

    scale: float = 1.0
    seed: int = 42
    jobs: int = 1
    cache_dir: Optional[str] = None
    #: Calibrated fast-path mode ("off", "auto", "force"); part of the
    #: comparability fingerprint because approx points do less
    #: simulated work than exact ones.
    fastpath: str = "off"
    #: Stream progress events while the suite runs.  Deliberately NOT
    #: part of the comparability fingerprint: events observe the sweep
    #: without changing the simulated work, so progress-on and
    #: progress-off records stay comparable (the bench-guard suite
    #: verifies the overhead stays inside the slowdown threshold).
    progress: bool = False
    #: Retry budget per sweep point; above 0, points run in supervised
    #: worker processes.  Like ``progress``, NOT part of the
    #: comparability fingerprint: supervision restarts the same
    #: deterministic points, so such a record must reproduce the
    #: unsupervised metrics digest bit-for-bit and stay inside the
    #: slowdown threshold against the committed trajectory — that
    #: identity is exactly what the bench guard asserts.
    max_retries: int = 0

    def __post_init__(self):
        if self.scale <= 0:
            raise ExperimentError(f"scale must be positive: {self.scale}")
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1: {self.jobs}")
        from repro.experiments.fastpath import MODES
        if self.fastpath not in MODES:
            raise ExperimentError(
                f"fastpath must be one of {MODES}: {self.fastpath!r}")


@dataclass
class SuiteResult:
    """What one suite run measured (besides wall time).

    ``payload`` carries the suite's full in-memory result (e.g. the
    regenerated :class:`~repro.experiments.figures.FigureResult`) to
    callers like the pytest benches; it is never serialized.
    """

    points: int
    events: int
    metrics_digest: str
    detail: Dict[str, Any] = field(default_factory=dict)
    payload: Any = None


def capture_environment(options: BenchOptions) -> Dict[str, Any]:
    """The host + knob fingerprint stored with every record."""
    from repro.analysis.sanitizer import sanitize_enabled
    from repro.experiments.harness import kernel_name
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_version": __version__,
        "sanitize": sanitize_enabled(),
        "jobs": options.jobs,
        "cached": options.cache_dir is not None,
        "scale": options.scale,
        "seed": options.seed,
        "fastpath": options.fastpath,
        #: The event kernel the points ran on: a compiled-kernel record
        #: is never judged against a pure-Python one.
        "kernel": kernel_name(),
    }


@dataclass
class BenchRecord:
    """One measured run of one suite: counters, rates, fingerprints."""

    name: str
    recorded_at: str
    environment: Dict[str, Any]
    points: int
    events: int
    wall_s: float
    events_per_sec: float
    points_per_sec: float
    metrics_digest: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, Any]:
        """This record as the plain dict stored in the artifact."""
        return {
            "name": self.name,
            "recorded_at": self.recorded_at,
            "environment": dict(self.environment),
            "points": self.points,
            "events": self.events,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "points_per_sec": self.points_per_sec,
            "metrics_digest": self.metrics_digest,
            "detail": dict(self.detail),
        }


@dataclass
class RecordedRun:
    """A freshly recorded run: the record, where it landed, the payload."""

    record: BenchRecord
    path: Path
    artifact: Dict[str, Any]
    payload: Any = None


def measure_suite(name: str, options: Optional[BenchOptions] = None,
                  ) -> Tuple[BenchRecord, Any]:
    """Run suite *name* under *options*; return (record, suite payload).

    Pure measurement — nothing is written to disk.  The wall-clock
    reads are the sanctioned operator-facing kind (they never feed
    simulated state).
    """
    from repro.bench.suites import get_suite
    if options is None:
        options = BenchOptions()
    suite = get_suite(name)
    recorded_at = datetime.now(timezone.utc).isoformat()  # repro: allow[wall-clock]
    start = time.perf_counter()  # repro: allow[wall-clock]
    result = suite.run(options)
    wall_s = time.perf_counter() - start  # repro: allow[wall-clock]
    record = BenchRecord(
        name=name,
        recorded_at=recorded_at,
        environment=capture_environment(options),
        points=result.points,
        events=result.events,
        wall_s=wall_s,
        events_per_sec=(result.events / wall_s) if wall_s > 0 else 0.0,
        points_per_sec=(result.points / wall_s) if wall_s > 0 else 0.0,
        metrics_digest=result.metrics_digest,
        detail=dict(result.detail),
    )
    return record, result.payload


def record_suite(name: str, options: Optional[BenchOptions] = None,
                 artifact_dir: Union[str, Path, None] = None) -> RecordedRun:
    """Run suite *name* and append the record to its artifact.

    The artifact (``<artifact_dir>/BENCH_<name>.json``) accumulates a
    ``runs`` trajectory; writes are atomic so an interrupted bench never
    corrupts history.
    """
    record, payload = measure_suite(name, options)
    directory = Path(artifact_dir) if artifact_dir is not None \
        else default_artifact_dir()
    path = directory / artifact_filename(name)
    artifact = append_record(path, record)
    return RecordedRun(record=record, path=path, artifact=artifact,
                       payload=payload)


#: Environment variable overriding where artifacts land (the bench
#: conftest and the CLI both honor it, so both write the same files).
ARTIFACT_DIR_ENV = "REPRO_BENCH_DIR"


def default_artifact_dir() -> Path:
    """``$REPRO_BENCH_DIR`` or ``./benchmarks/artifacts``."""
    override = os.environ.get(ARTIFACT_DIR_ENV)
    if override:
        return Path(override)
    return Path.cwd() / "benchmarks" / "artifacts"


# ---------------------------------------------------------------------------
# Artifact I/O and validation
# ---------------------------------------------------------------------------

def empty_artifact(name: str) -> Dict[str, Any]:
    """A fresh artifact dict for *name* with no recorded runs."""
    return {"schema": ARTIFACT_SCHEMA, "name": name, "runs": []}


def load_artifact(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The artifact at *path*, or None when absent/unreadable/invalid."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if validate_artifact(data):
        return None
    return data


def save_artifact(path: Union[str, Path], artifact: Dict[str, Any]) -> None:
    """Atomically write *artifact* to *path* (tempfile + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(artifact, indent=1, sort_keys=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def append_record(path: Union[str, Path],
                  record: BenchRecord) -> Dict[str, Any]:
    """Append *record* to the artifact at *path* (created if missing)."""
    artifact = load_artifact(path)
    if artifact is None or artifact.get("name") != record.name:
        artifact = empty_artifact(record.name)
    artifact["runs"].append(record.to_jsonable())
    save_artifact(path, artifact)
    return artifact


_RECORD_FIELDS: Dict[str, type] = {
    "name": str,
    "recorded_at": str,
    "environment": dict,
    "points": int,
    "events": int,
    "wall_s": (int, float),  # type: ignore[dict-item]
    "events_per_sec": (int, float),  # type: ignore[dict-item]
    "points_per_sec": (int, float),  # type: ignore[dict-item]
    "metrics_digest": str,
    "detail": dict,
}


def validate_artifact(data: Any) -> List[str]:
    """Problems with *data* as a bench artifact; empty means valid."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"artifact must be an object, got {type(data).__name__}"]
    if data.get("schema") != ARTIFACT_SCHEMA:
        problems.append(
            f"schema must be {ARTIFACT_SCHEMA}, got {data.get('schema')!r}")
    if not isinstance(data.get("name"), str) or not data.get("name"):
        problems.append("name must be a non-empty string")
    runs = data.get("runs")
    if not isinstance(runs, list):
        return problems + ["runs must be a list"]
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            problems.append(f"runs[{i}] must be an object")
            continue
        for fname, ftype in _RECORD_FIELDS.items():
            if fname not in run:
                problems.append(f"runs[{i}] missing field {fname!r}")
            elif not isinstance(run[fname], ftype) \
                    or isinstance(run[fname], bool):
                problems.append(
                    f"runs[{i}].{fname} has wrong type "
                    f"{type(run[fname]).__name__}")
        if isinstance(run.get("name"), str) and \
                isinstance(data.get("name"), str) and \
                run["name"] != data["name"]:
            problems.append(
                f"runs[{i}].name {run['name']!r} != artifact name "
                f"{data['name']!r}")
        for counter in ("points", "events"):
            if isinstance(run.get(counter), int) and run[counter] < 0:
                problems.append(f"runs[{i}].{counter} is negative")
        digest = run.get("metrics_digest")
        if isinstance(digest, str) and (
                len(digest) != 64
                or any(c not in "0123456789abcdef" for c in digest)):
            problems.append(f"runs[{i}].metrics_digest is not sha256 hex")
    return problems
