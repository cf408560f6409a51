"""Trajectory comparison: the last two runs of a bench artifact.

``repro bench <suite> --compare`` appends a fresh record and then holds
it against the previous one:

- **regression** — events/sec dropped by more than the threshold
  (default 20%) between two *comparable* runs (same scale, seed, jobs,
  sanitize, cache setting, fast-path mode, event kernel, and
  point/event counts);
- **drift** — the metrics digests differ between comparable runs: the
  simulation itself changed, which no speedup excuses.

Runs with different knobs are reported but never flagged — comparing a
``--scale 0.1`` smoke run against a full-scale baseline is noise, not
signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.bench.recorder import COMPARABLE_ENV_KEYS

#: Fractional events/sec drop that flags a regression by default.
DEFAULT_THRESHOLD = 0.2

#: Host fingerprint keys: mismatches never block a verdict (the work
#: is identical), but they are surfaced as a caveat because wall-clock
#: ratios across hosts or interpreters are weak evidence.
HOST_ENV_KEYS = ("python", "implementation", "platform", "machine",
                 "cpu_count")


def _env(record: Dict[str, Any], key: str) -> Any:
    """An env key, with legacy defaults for pre-schema records."""
    env = record.get("environment", {})
    if key == "fastpath":
        return env.get(key, "off")
    if key == "kernel":  # records before the compiled kernel
        return env.get(key, "python")
    return env.get(key)


@dataclass
class BenchComparison:
    """Verdict on the newest run of an artifact vs its predecessor."""

    name: str
    baseline: Dict[str, Any]
    current: Dict[str, Any]
    #: events/sec ratio current/baseline (>1 means faster).
    speedup: float
    points_speedup: float
    #: Whether the two runs measured the same simulated work.
    comparable: bool
    #: Environment/counter keys that differ (why not comparable).
    differences: Dict[str, Any]
    #: Metrics digests differ between comparable runs.
    drift: bool
    threshold: float = DEFAULT_THRESHOLD
    #: Host fingerprint keys that differ (verdict stands, with caveat).
    host_differences: Dict[str, Any] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.host_differences is None:
            self.host_differences = {}

    @property
    def fastpath_only(self) -> bool:
        """True when the records differ only by fast-path mode (and
        the work counters that necessarily follow from it)."""
        knob_diffs = {key for key in self.differences
                      if key in COMPARABLE_ENV_KEYS}
        return knob_diffs == {"fastpath"}

    @property
    def regression(self) -> bool:
        """True when a comparable run slowed past the threshold."""
        return self.comparable and self.speedup < (1.0 - self.threshold)

    @property
    def ok(self) -> bool:
        """True when neither a regression nor drift was flagged."""
        return not (self.regression or self.drift)


def _comparability(baseline: Dict[str, Any],
                   current: Dict[str, Any]) -> Dict[str, Any]:
    """Keys whose mismatch makes two records incomparable."""
    differences: Dict[str, Any] = {}
    for key in COMPARABLE_ENV_KEYS:
        if _env(baseline, key) != _env(current, key):
            differences[key] = (_env(baseline, key), _env(current, key))
    for key in ("points", "events"):
        if baseline.get(key) != current.get(key):
            differences[key] = (baseline.get(key), current.get(key))
    return differences


def _host_differences(baseline: Dict[str, Any],
                      current: Dict[str, Any]) -> Dict[str, Any]:
    """Host fingerprint mismatches (caveat, not a comparability bar)."""
    differences: Dict[str, Any] = {}
    for key in HOST_ENV_KEYS:
        if _env(baseline, key) != _env(current, key):
            differences[key] = (_env(baseline, key), _env(current, key))
    return differences


def compare_records(baseline: Dict[str, Any], current: Dict[str, Any],
                    threshold: float = DEFAULT_THRESHOLD,
                    ) -> BenchComparison:
    """Hold *current* against *baseline* (plain record dicts)."""
    differences = _comparability(baseline, current)
    comparable = not differences
    base_eps = baseline.get("events_per_sec") or 0.0
    cur_eps = current.get("events_per_sec") or 0.0
    base_pps = baseline.get("points_per_sec") or 0.0
    cur_pps = current.get("points_per_sec") or 0.0
    drift = bool(comparable
                 and baseline.get("metrics_digest")
                 != current.get("metrics_digest"))
    return BenchComparison(
        name=current.get("name", "?"),
        baseline=baseline,
        current=current,
        speedup=(cur_eps / base_eps) if base_eps > 0 else float("inf"),
        points_speedup=(cur_pps / base_pps) if base_pps > 0
        else float("inf"),
        comparable=comparable,
        differences=differences,
        drift=drift,
        threshold=threshold,
        host_differences=_host_differences(baseline, current),
    )


def compare_last(artifact: Dict[str, Any],
                 threshold: float = DEFAULT_THRESHOLD,
                 ) -> Optional[BenchComparison]:
    """Compare the artifact's newest run against its best baseline.

    Scans backward for the most recent *comparable* predecessor (same
    knobs and work), so a one-off smoke run at different settings no
    longer silently eats the comparison.  When no comparable run
    exists, falls back to the immediate predecessor and reports which
    knobs differ.  Returns None when the trajectory has fewer than two
    runs.
    """
    runs = artifact.get("runs", [])
    if len(runs) < 2:
        return None
    current = runs[-1]
    for candidate in reversed(runs[:-1]):
        if not _comparability(candidate, current):
            return compare_records(candidate, current, threshold=threshold)
    return compare_records(runs[-2], runs[-1], threshold=threshold)


def render_comparison(comparison: BenchComparison) -> str:
    """Human-readable trajectory verdict for the CLI."""
    base = comparison.baseline
    cur = comparison.current
    lines = [f"trajectory {comparison.name}: "
             f"{base.get('recorded_at', '?')} -> "
             f"{cur.get('recorded_at', '?')}"]
    lines.append(
        f"  events/sec  {base.get('events_per_sec', 0.0):>12,.0f} -> "
        f"{cur.get('events_per_sec', 0.0):>12,.0f}  "
        f"({comparison.speedup:.2f}x)")
    lines.append(
        f"  points/sec  {base.get('points_per_sec', 0.0):>12,.2f} -> "
        f"{cur.get('points_per_sec', 0.0):>12,.2f}  "
        f"({comparison.points_speedup:.2f}x)")
    lines.append(
        f"  wall        {base.get('wall_s', 0.0):>12,.2f} -> "
        f"{cur.get('wall_s', 0.0):>12,.2f}  seconds")
    if comparison.host_differences:
        diffs = ", ".join(f"{key}: {was!r} -> {now!r}"
                          for key, (was, now)
                          in sorted(comparison.host_differences.items()))
        lines.append(f"  caveat: host fingerprint changed ({diffs}); "
                     "wall-clock ratios are weak evidence")
    if not comparison.comparable:
        diffs = ", ".join(f"{key}: {was!r} -> {now!r}"
                          for key, (was, now)
                          in sorted(comparison.differences.items()))
        lines.append(f"  not comparable ({diffs}); no verdict")
        if comparison.fastpath_only:
            lines.append(
                f"  fast-path mode differs "
                f"({_env(base, 'fastpath')} -> {_env(cur, 'fastpath')}): "
                f"points/sec ratio {comparison.points_speedup:.2f}x "
                "(informational — approximate points do less simulated "
                "work)")
        return "\n".join(lines)
    if comparison.drift:
        lines.append(
            "  DRIFT: metrics digests differ — the simulation changed "
            f"({base.get('metrics_digest', '')[:12]} -> "
            f"{cur.get('metrics_digest', '')[:12]})")
    if comparison.regression:
        lines.append(
            f"  REGRESSION: events/sec dropped "
            f"{(1.0 - comparison.speedup):.0%} "
            f"(threshold {comparison.threshold:.0%})")
    if comparison.ok:
        lines.append("  ok: bit-identical metrics, within the "
                     "slowdown threshold")
    return "\n".join(lines)
