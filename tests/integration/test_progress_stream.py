"""Integration tests for streaming sweep progress.

The contract under test: every executor emits at least one typed event
per point, completions carry partial :class:`RunMetrics` consumable
*before* the sweep finishes, the event stream crosses process
boundaries (parallel workers, parent-side emission), and attaching
subscribers never changes a single measured bit.
"""

import os

import pytest

from repro.bench.recorder import metrics_digest
from repro.config import ShinjukuConfig
from repro.errors import ExperimentError, SweepFailure
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    SweepExecutor,
    make_executor,
    spec_cache_key,
)
from repro.experiments.figures import figure2
from repro.experiments.harness import RunConfig, load_sweep
from repro.experiments.progress import (
    CACHE_HIT,
    COMPLETED,
    FAILED,
    STARTED,
    ProgressLedger,
    SweepProgress,
    multiplex,
)
from repro.units import us
from repro.workload.distributions import Fixed

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))

RATES = [50e3, 100e3, 150e3, 200e3]


def _config():
    return RunConfig(seed=42, horizon_ns=1.5e8, warmup_ns=3e7)


def _specs(label="shinjuku"):
    factory = ConfiguredFactory.by_name("shinjuku", ShinjukuConfig(workers=2))
    return [PointSpec(factory=factory, rate_rps=rate,
                      distribution=Fixed(us(2.0)), config=_config(),
                      label=label)
            for rate in RATES]


@pytest.fixture(scope="module")
def baseline():
    """The serial sweep's results, run once with no subscriber."""
    return make_executor(jobs=1).run_points(_specs())


@pytest.fixture(scope="module")
def observed():
    """One serial sweep with a persistent and a per-call subscriber.

    Returns ``(results, persistent events, per-call events)``; the
    event-stream tests below all read this one run.
    """
    persistent, per_call = [], []
    executor = make_executor(
        jobs=1, on_event=multiplex(persistent.append, SweepProgress()))
    results = executor.run_points(_specs(), on_event=per_call.append)
    return results, persistent, per_call


@pytest.fixture(scope="module")
def inline():
    """One sweep through ``load_sweep``'s default executor, observed."""
    factory = ConfiguredFactory.by_name("shinjuku", ShinjukuConfig(workers=2))
    progress = SweepProgress()
    result = load_sweep(factory, RATES, Fixed(us(2.0)), _config(),
                        system_name="shinjuku", on_event=progress)
    return result, progress


def _assert_started_and_completed(results, events):
    assert len(results) == len(RATES)
    started = {e.index for e in events if e.kind == STARTED}
    completed = {e.index for e in events if e.kind == COMPLETED}
    assert started == completed == set(range(len(RATES)))
    # Completions carry the point's full partial RunMetrics.
    for event in events:
        if event.kind == COMPLETED:
            assert event.metrics is results[event.index]
    # Sequence numbers are strictly increasing.
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def _cache_with(tmp_path, specs, results):
    """A result cache holding *results* under *specs*' keys."""
    cache = ResultCache(tmp_path)
    for spec, metrics in zip(specs, results):
        cache.put(spec_cache_key(spec), metrics)
    return cache


class TestExecutorEventStream:
    def test_every_point_emits_started_and_completed_serially(self,
                                                              observed):
        results, events, _per_call = observed
        _assert_started_and_completed(results, events)

    def test_every_point_emits_started_and_completed_in_workers(self):
        events = []
        executor = make_executor(jobs=JOBS, on_event=events.append)
        _assert_started_and_completed(executor.run_points(_specs()), events)

    def test_partial_results_consumable_mid_sweep(self, observed):
        """A subscriber sees completed points while others are pending."""
        _results, events, _per_call = observed
        progress = SweepProgress()
        snapshots = []
        for event in events:  # in the order the live sweep emitted them
            progress(event)
            if event.kind == COMPLETED:
                snapshots.append((progress.settled,
                                  len(progress.partial_curve("shinjuku"))))
        # Mid-sweep states existed: some completions observed while the
        # sweep still had unsettled points.
        assert [settled for settled, _curve in snapshots] == [1, 2, 3, 4]
        assert [curve for _settled, curve in snapshots] == [1, 2, 3, 4]

    def test_cache_hits_emit_events(self, tmp_path, baseline):
        cache = _cache_with(tmp_path, _specs(), baseline)
        events = []
        rerun = SweepExecutor(cache=cache, on_event=events.append)
        rerun.run_points(_specs())
        assert [e.kind for e in events] == [CACHE_HIT] * len(RATES)
        assert all(e.metrics is not None for e in events)

    def test_failed_event_emitted_then_raises(self):
        def exploding_factory(sim, rngs, metrics):
            raise RuntimeError("rigged to fail")

        spec = PointSpec(factory=exploding_factory, rate_rps=100e3,
                         distribution=Fixed(us(2.0)), config=_config(),
                         label="doomed")
        events = []
        executor = make_executor(jobs=1, on_event=events.append)
        with pytest.raises(SweepFailure) as excinfo:
            executor.run_points([spec])
        [failure] = excinfo.value.failures
        assert isinstance(failure.cause, RuntimeError)
        assert [e.kind for e in events] == [STARTED, FAILED]
        assert "rigged to fail" in events[1].error

    def test_parallel_failed_event_from_worker(self):
        """A failure inside a worker process still emits parent-side."""
        factory = ConfiguredFactory.by_name(
            "shinjuku", ShinjukuConfig(workers=2))
        bad_config = RunConfig(seed=42, horizon_ns=1.5e8, warmup_ns=3e7)
        specs = [PointSpec(factory=factory, rate_rps=rate,
                           distribution=Fixed(us(2.0)), config=bad_config,
                           label="shinjuku")
                 for rate in (-1.0, 100e3)]  # negative rate raises
        events = []
        executor = make_executor(jobs=JOBS, on_event=events.append)
        with pytest.raises(ExperimentError):
            executor.run_points(specs)
        assert any(e.kind == FAILED for e in events)

    def test_subscriber_does_not_change_results(self, baseline, observed):
        results, noisy, _per_call = observed
        assert metrics_digest(baseline) == metrics_digest(results)
        assert noisy  # the stream actually fired

    def test_per_call_subscriber_composes_with_persistent(self, observed):
        _results, persistent, per_call = observed
        assert persistent
        assert [e.seq for e in persistent] == [e.seq for e in per_call]

    def test_batches_get_distinct_numbers(self, tmp_path, baseline):
        first, second = _specs(label="first"), _specs(label="second")
        cache = _cache_with(tmp_path, first + second, baseline + baseline)
        events = []
        executor = SweepExecutor(cache=cache, on_event=events.append)
        executor.run_points(first)
        executor.run_points(second)
        assert {e.batch for e in events if e.label == "first"} == {0}
        assert {e.batch for e in events if e.label == "second"} == {1}


class TestHarnessInlineStream:
    def test_load_sweep_without_executor_emits_events(self, inline):
        result, progress = inline
        assert len(result.points) == len(RATES)
        assert progress.settled == len(RATES)
        assert len(progress.partial_curve("shinjuku")) == len(RATES)

    def test_inline_matches_executor_results(self, inline, baseline):
        result, _progress = inline
        assert metrics_digest([p.metrics for p in result.points]) == \
            metrics_digest(baseline)

    def test_successive_default_sweeps_keep_points_distinct(self):
        """Two default-executor sweeps feeding one subscriber never
        alias on ``(batch, index)``."""
        factory = ConfiguredFactory.by_name(
            "shinjuku", ShinjukuConfig(workers=2))
        short = RunConfig(seed=42, horizon_ns=4e6, warmup_ns=1e6)
        progress = SweepProgress()
        for label in ("first", "second"):
            load_sweep(factory, RATES, Fixed(us(2.0)), short,
                       system_name=label, on_event=progress)
        assert progress.settled == 2 * len(RATES)
        assert len(progress.partial_curve("first")) == len(RATES)
        assert len(progress.partial_curve("second")) == len(RATES)


class TestFigureStream:
    def test_figure2_streams_and_ledger_replays(self, tmp_path):
        progress = SweepProgress()
        ledger = ProgressLedger.in_cache_dir(tmp_path)
        executor = make_executor(jobs=JOBS, cache_dir=str(tmp_path),
                                 on_event=multiplex(progress, ledger))
        figure = figure2(config=RunConfig(seed=42), scale=0.02,
                         executor=executor)
        ledger.write_done()
        total_points = sum(len(sweep.points) for sweep in figure.sweeps)
        assert progress.settled == progress.expected == total_points
        # At least one event per point reached the stream.
        assert progress.events_seen >= total_points
        curves = progress.partial_curves()
        assert set(curves) == {"Shinjuku", "Shinjuku-Offload"}
        assert all(len(curve) == 9 for curve in curves.values())
        # A watcher process reconstructs the same state from the ledger.
        replayed = SweepProgress().replay(
            ProgressLedger.read_events(ledger.path))
        assert replayed.done
        assert replayed.partial_curves() == curves
        # Identical scoreboard, plus the sentinel line only the ledger saw.
        assert replayed.render() == progress.render() + "\nsweep complete"

    def test_figure2_digest_unchanged_by_progress(self):
        plain = figure2(config=RunConfig(seed=42), scale=0.02)
        streamed = figure2(config=RunConfig(seed=42), scale=0.02,
                           executor=make_executor(
                               jobs=1, on_event=SweepProgress()))
        digest = lambda fig: metrics_digest(
            [p.metrics for sweep in fig.sweeps for p in sweep.points])
        assert digest(plain) == digest(streamed)
