"""Integration tests for the schedule-permutation fuzzer.

Pins the three verdicts on live examples: a tie-insensitive system is
``invariant``, the symmetric-worker float-summation case is
``reassociated`` (and nothing worse), and the planted race in
``racedemo`` is ``divergent``.  Also covers the ``REPRO_TIEBREAK``
environment seam the CI job uses.
"""

from __future__ import annotations

import pytest

from repro.analysis.racefuzz import (
    VERDICT_DIVERGENT,
    VERDICT_INVARIANT,
    VERDICT_REASSOCIATED,
    compare_metrics_images,
    fuzz_injected,
    fuzz_system,
)
from repro.bench.recorder import metrics_digest
from repro.errors import ExperimentError
from repro.experiments.executor import ConfiguredFactory
from repro.experiments.harness import RunConfig, run_point_with_events
from repro.sim.tiebreak import TIEBREAK_ENV, permutation_policy
from repro.units import us
from repro.workload.distributions import Fixed


class TestCompareImages:
    BASE = {"throughput": 12, "latency": {"p50": 1.5, "p99": 9.0},
            "samples": [1.0, 2.0]}

    def test_equal_images_invariant(self):
        verdict, drifts, diffs = compare_metrics_images(self.BASE, self.BASE)
        assert verdict == VERDICT_INVARIANT
        assert not drifts and not diffs

    def test_ulp_drift_is_reassociated(self):
        import math
        drifted = {"throughput": 12,
                   "latency": {"p50": math.nextafter(1.5, 2.0), "p99": 9.0},
                   "samples": [1.0, 2.0]}
        verdict, drifts, diffs = compare_metrics_images(self.BASE, drifted)
        assert verdict == VERDICT_REASSOCIATED
        assert [d.field for d in drifts] == ["latency.p50"]
        assert not diffs

    def test_beyond_tolerance_is_divergent(self):
        moved = {"throughput": 12,
                 "latency": {"p50": 1.6, "p99": 9.0},
                 "samples": [1.0, 2.0]}
        verdict, _drifts, diffs = compare_metrics_images(self.BASE, moved)
        assert verdict == VERDICT_DIVERGENT
        assert [d.field for d in diffs] == ["latency.p50"]

    def test_count_change_is_divergent_even_if_small(self):
        """Non-float fields get no tolerance: a count is a count."""
        moved = dict(self.BASE, throughput=13)
        verdict, _drifts, diffs = compare_metrics_images(self.BASE, moved)
        assert verdict == VERDICT_DIVERGENT
        assert [d.field for d in diffs] == ["throughput"]

    def test_shape_change_is_divergent(self):
        moved = dict(self.BASE, samples=[1.0, 2.0, 3.0])
        verdict, _drifts, diffs = compare_metrics_images(self.BASE, moved)
        assert verdict == VERDICT_DIVERGENT
        assert diffs[0].field == "samples"


class TestFuzzSystems:
    def test_shinjuku_is_invariant(self):
        report = fuzz_system("shinjuku", permutations=3, scale=0.05,
                             rate_rps=400e3)
        assert report.verdict == VERDICT_INVARIANT
        assert report.ok()
        assert report.ok(strict=True)
        assert all(o.digest == report.identity_digest
                   for o in report.outcomes)

    def test_rpcvalet_is_invariant_under_exact_reductions(self):
        """Symmetric workers swap idle intervals under permutation; the
        interval multiset is invariant, and with the fuzzer's exactly
        rounded wait summation the full metrics image is bit-identical
        — invariant, not merely reassociated."""
        report = fuzz_system("rpcvalet", permutations=3, scale=0.05,
                             rate_rps=400e3)
        assert report.verdict == VERDICT_INVARIANT
        assert report.ok()
        assert report.ok(strict=True)
        assert all(o.digest == report.identity_digest
                   for o in report.outcomes)

    def test_rpcvalet_wait_sum_reassociates_without_exact_reductions(self):
        """The production path's canonical-order summation (pinned by
        the published digests) is what used to read as 'reassociated':
        permuted workers hand the same wait totals to the sum in a
        different order and the last ulp moves.  Pin that diagnosis so
        the digest-vs-invariance tradeoff stays documented."""
        from repro.experiments.executor import metrics_to_jsonable
        factory = ConfiguredFactory.by_name("rpcvalet")
        config = RunConfig(seed=7).scaled(0.1)
        dist = Fixed(us(2.0))
        images = []
        for index in (0, 2):
            metrics, _events = run_point_with_events(
                factory, 800e3, dist, config,
                tiebreak=permutation_policy(index, 0))
            images.append(metrics_to_jsonable(metrics))
        verdict, drifts, diffs = compare_metrics_images(*images)
        assert verdict == VERDICT_REASSOCIATED
        assert {d.field for d in drifts} == {"worker_wait_fraction"}
        assert not diffs

    @pytest.mark.xfail(strict=True, reason=(
        "known tie race: at 2x horizon, seed 10, a workstealing owner's "
        "own-queue get and a peer's steal probe land at the same "
        "instant, so the tie order decides who runs the request; "
        "fixing it moves the perfbench goldens"))
    def test_workstealing_is_invariant_at_double_horizon(self):
        report = fuzz_system("workstealing", scale=2.0, run_seed=10)
        assert report.verdict == VERDICT_INVARIANT

    def test_injection_diverges_every_permutation(self):
        report = fuzz_injected(permutations=4)
        assert report.verdict == VERDICT_DIVERGENT
        assert not report.ok()
        assert [o.verdict for o in report.outcomes] \
            == [VERDICT_DIVERGENT] * 3

    def test_injection_needs_two_permutations(self):
        with pytest.raises(ExperimentError):
            fuzz_injected(permutations=1)

    def test_single_permutation_sweep_is_vacuously_invariant(self):
        report = fuzz_system("rss", permutations=1, scale=0.02)
        assert report.outcomes == []
        assert report.verdict == VERDICT_INVARIANT


class TestEnvironmentSeam:
    @staticmethod
    def _run_digest(tiebreak):
        factory = ConfiguredFactory.by_name("rss")
        config = RunConfig(seed=42).scaled(0.02)
        metrics, _events = run_point_with_events(
            factory, 200e3, Fixed(us(2.0)), config, tiebreak=tiebreak)
        return metrics_digest([metrics])

    def test_env_spec_equals_explicit_policy(self, monkeypatch):
        explicit = self._run_digest(permutation_policy(1))
        monkeypatch.setenv(TIEBREAK_ENV, "1")
        assert self._run_digest(None) == explicit

    def test_env_unset_equals_identity(self, monkeypatch):
        monkeypatch.delenv(TIEBREAK_ENV, raising=False)
        assert self._run_digest(None) \
            == self._run_digest(permutation_policy(0))
