"""Compare two sets of benchmark results against the bounds of BENCHMARK.json.

Usage (from the repository root; each file holds the final JSON lines
of several ``run.py`` runs of one workload, one per line)::

    python3 perfbench/compare.py parent.jsonl change.jsonl

A metric is flagged when the change's median is worse than the
parent's median by more than the metric's ``bound`` (a share of the
parent's median).  The exit status is 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_results(path: Path) -> Dict[str, List[float]]:
    """``metric -> values`` over every result line in *path*."""
    values: Dict[str, List[float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        for name, metric in json.loads(line)["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def worsening(parent: Iterable[float], change: Iterable[float],
              better: str) -> float:
    """How much worse the change's median is, as a share of the parent's."""
    base, new = statistics.median(parent), statistics.median(change)
    delta = (new - base) if better == "lower" else (base - new)
    return delta / abs(base)


def verdicts(parent: Dict[str, List[float]],
             change: Dict[str, List[float]],
             metrics: List[Dict]) -> List[Tuple[str, float, bool]]:
    """``(name, worsening, flagged)`` of every bounded metric in both sets."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        if "bound" in metric and name in parent and name in change:
            worse = worsening(parent[name], change[name], metric["better"])
            rows.append((name, worse, worse > metric["bound"]))
    return rows


def regressions(parent: Dict[str, List[float]],
                change: Dict[str, List[float]],
                metrics: List[Dict]) -> List[Tuple[str, float]]:
    """``(name, worsening)`` of every bounded metric beyond its bound."""
    return [(name, worse) for name, worse, flagged
            in verdicts(parent, change, metrics) if flagged]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (load_results(Path(p)) for p in argv)
    rows = verdicts(parent, change, spec["end_to_end"])
    for name, worse, flagged in rows:
        print(f"{name:<20} {worse:+8.2%} worse  "
              f"{'REGRESSION' if flagged else 'ok'}")
    return 1 if any(flagged for _name, _worse, flagged in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
