"""The run digests in :mod:`repro.bench.recorder`.

Golden tests and the repo benchmark judge a run by one hex string, so
the digest must be reproducible run to run, move when any measured bit
moves, and not move when nothing measured did (a cache round trip, a
dict built in another key order).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from repro.bench.recorder import metrics_digest, values_digest
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    SweepExecutor,
    metrics_from_jsonable,
    metrics_to_jsonable,
)
from repro.experiments.harness import RunConfig
from repro.metrics.summary import Provenance
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.units import ms, us
from repro.workload.distributions import Fixed

FACTORY = ConfiguredFactory(RpcValetSystem, RpcValetConfig(workers=2))


def _run(rates=(100e3, 200e3)):
    """Metrics of a tiny two-point sweep, run afresh."""
    config = RunConfig(seed=1, horizon_ns=ms(2.0), warmup_ns=ms(0.5))
    specs = [PointSpec(factory=FACTORY, rate_rps=rate,
                       distribution=Fixed(us(2.0)), config=config,
                       label="sut")
             for rate in rates]
    return SweepExecutor().run_points(specs)


@pytest.fixture(scope="module")
def baseline():
    return _run()


class TestMetricsDigest:
    def test_identical_across_runs(self, baseline):
        assert metrics_digest(_run()) == metrics_digest(baseline)

    def test_order_sensitive(self, baseline):
        assert metrics_digest(baseline[::-1]) != metrics_digest(baseline)

    def test_one_ulp_moves_the_digest(self, baseline):
        first = baseline[0]
        nudged = dataclasses.replace(
            first, mean_slowdown=math.nextafter(first.mean_slowdown,
                                                math.inf))
        assert metrics_digest([nudged, baseline[1]]) \
            != metrics_digest(baseline)

    def test_provenance_tag_moves_the_digest(self, baseline):
        """A modelled point never digests like the exact run it
        stands in for, even when every measured number agrees."""
        tagged = dataclasses.replace(
            baseline[0], provenance=Provenance(
                kind="approx", method="subknee-mgk",
                throughput_error_bound=0.05))
        assert metrics_digest([tagged, baseline[1]]) \
            != metrics_digest(baseline)

    def test_survives_cache_round_trip(self, baseline):
        """The result cache stores the same JSON image the digest
        hashes, so a cached point digests exactly as a fresh one."""
        restored = [metrics_from_jsonable(metrics_to_jsonable(m))
                    for m in baseline]
        assert restored == list(baseline)
        assert metrics_digest(restored) == metrics_digest(baseline)

    def test_empty_is_digest_of_empty_list(self):
        assert metrics_digest([]) \
            == hashlib.sha256(b"[]").hexdigest()


class TestValuesDigest:
    def test_ignores_dict_key_order(self):
        assert values_digest([{"a": 1, "b": 2}]) \
            == values_digest([{"b": 2, "a": 1}])

    def test_order_sensitive(self):
        assert values_digest([1, 2]) != values_digest([2, 1])

    def test_int_and_float_differ(self):
        assert values_digest([1]) != values_digest([1.0])

    def test_accepts_any_iterable(self):
        assert values_digest(iter((3, "x", None))) \
            == values_digest([3, "x", None])
