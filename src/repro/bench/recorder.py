"""Digests that witness a run: one hex string per measured simulation.

A faster engine that drifts a single metric bit is a regression, not a
win, so golden tests and the repo benchmark hold every run to a digest
of what it measured rather than to its timing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.metrics.summary import RunMetrics


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
