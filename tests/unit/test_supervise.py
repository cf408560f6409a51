"""Unit tests for supervised sweep execution (retry, taxonomy, resume).

Chaos here is injected through flaky system factories that misbehave
on their first attempt only — a sentinel file created with
``O_CREAT | O_EXCL`` makes "first" exact across processes — so retry
paths run for real while the suite stays fast.  The heavier kill/hang
scenarios live in ``tests/integration/test_supervision_chaos.py``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pytest

from repro.bench.recorder import metrics_digest
from repro.errors import (
    ExperimentError,
    PointExecutionError,
    SweepFailure,
    SweepPointError,
)
from repro.experiments.executor import (
    DEFAULT_BACKOFF_BASE_S,
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    SweepExecutor,
    backoff_delay,
    make_executor,
    spec_cache_key,
)
from repro.experiments.harness import RunConfig
from repro.experiments.progress import FAILED, LedgerReplay, point_key
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.units import ms, us
from repro.workload.distributions import Fixed

INNER = ConfiguredFactory(RpcValetSystem, RpcValetConfig(workers=2))


def _first_time(sentinel: str) -> bool:
    """True exactly once per *sentinel* path, across any processes."""
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


@dataclass(frozen=True)
class FlakyFactory:
    """A factory whose first construction (ever) raises; retries work.

    Delegates to a real system factory afterwards, so the retried
    point's metrics are exactly what an undisturbed run produces.
    """

    sentinel: str
    inner: ConfiguredFactory

    def __call__(self, sim, rngs, metrics):
        if _first_time(self.sentinel):
            raise RuntimeError("injected first-attempt failure")
        return self.inner(sim, rngs, metrics)


@dataclass(frozen=True)
class DoomedFactory:
    """A factory that fails every attempt, forever."""

    def __call__(self, sim, rngs, metrics):
        raise RuntimeError("injected permanent failure")


@dataclass(frozen=True)
class PidRecordingFactory:
    """Delegates to a real factory, leaving a file named by its pid."""

    directory: str
    inner: ConfiguredFactory

    def __call__(self, sim, rngs, metrics):
        open(os.path.join(self.directory, str(os.getpid())), "a").close()
        return self.inner(sim, rngs, metrics)


def _spec(factory=INNER, rate: float = 100e3, label: str = "sut",
          seed: int = 1) -> PointSpec:
    config = RunConfig(seed=seed, horizon_ns=ms(2.0), warmup_ns=ms(0.5))
    return PointSpec(factory=factory, rate_rps=rate,
                     distribution=Fixed(us(2.0)), config=config, label=label)


def _fast(executor: SweepExecutor) -> SweepExecutor:
    """Disable real backoff sleeps (the schedule itself is still built)."""
    executor._sleep = lambda seconds: None
    return executor


class TestBackoffDelay:
    def test_schedule_is_bounded_exponential(self):
        assert backoff_delay(1, base_s=0.1, factor=2.0, max_s=10.0) == 0.1
        assert backoff_delay(2, base_s=0.1, factor=2.0, max_s=10.0) == 0.2
        assert backoff_delay(3, base_s=0.1, factor=2.0, max_s=10.0) == 0.4
        assert backoff_delay(9, base_s=0.1, factor=2.0, max_s=10.0) == 10.0

    def test_defaults_start_at_base(self):
        assert backoff_delay(1) == DEFAULT_BACKOFF_BASE_S

    def test_is_deterministic(self):
        assert backoff_delay(4) == backoff_delay(4)

    def test_rejects_nonpositive_attempt(self):
        with pytest.raises(ExperimentError):
            backoff_delay(0)


class TestConstruction:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ExperimentError):
            SweepExecutor(jobs=0)
        with pytest.raises(ExperimentError):
            SweepExecutor(point_timeout_s=0.0)
        with pytest.raises(ExperimentError):
            SweepExecutor(max_retries=-1)

    def test_make_executor_selects_supervision(self, tmp_path):
        assert not make_executor(max_retries=2).in_process
        assert not make_executor(point_timeout_s=5.0).in_process
        assert not make_executor(jobs=2).in_process
        # Resume is only a lookup source; it isolates nothing.
        assert make_executor(resume_from=LedgerReplay()).in_process
        assert make_executor(jobs=1).in_process


class TestCleanRuns:
    def test_bit_identical_to_serial(self):
        specs = [_spec(rate=rate) for rate in (100e3, 200e3, 300e3)]
        baseline = SweepExecutor().run_points(specs)
        supervised = _fast(SweepExecutor(jobs=2))
        assert metrics_digest(supervised.run_points(specs)) \
            == metrics_digest(baseline)
        assert supervised.stats.points_run == 3
        assert supervised.stats.points_retried == 0
        assert supervised.stats.points_failed == 0

    def test_results_in_spec_order_regardless_of_completion(self):
        # Heavier points land later; ordering must follow the spec list.
        specs = [_spec(rate=rate) for rate in (300e3, 100e3, 200e3)]
        baseline = SweepExecutor().run_points(specs)
        shuffled = _fast(SweepExecutor(jobs=3)).run_points(specs)
        for expected, got in zip(baseline, shuffled):
            assert expected == got


class TestRetry:
    def test_first_attempt_failure_retries_to_exact_result(self, tmp_path):
        flaky = FlakyFactory(sentinel=str(tmp_path / "s"), inner=INNER)
        specs = [_spec(factory=flaky), _spec(rate=200e3)]
        baseline = SweepExecutor().run_points(
            [_spec(), _spec(rate=200e3)])
        supervised = _fast(SweepExecutor(jobs=2, max_retries=2))
        results = supervised.run_points(specs)
        assert metrics_digest(results) == metrics_digest(baseline)
        assert supervised.stats.points_retried == 1
        assert supervised.stats.points_failed == 0

    def test_permanent_failure_is_recorded_not_fatal_to_others(self):
        events = []
        specs = [_spec(factory=DoomedFactory(), label="doomed"),
                 _spec(rate=200e3)]
        supervised = _fast(SweepExecutor(
            jobs=2, max_retries=1, on_event=events.append))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points(specs)
        assert supervised.stats.points_failed == 1
        assert supervised.stats.points_run == 1  # the healthy point landed
        assert supervised.stats.points_retried == 1
        [failure] = excinfo.value.failures
        assert isinstance(failure, SweepPointError)
        assert failure.kind == "exception"
        assert failure.label == "doomed"
        assert failure.attempts == 2  # first try + one retry
        assert "doomed" in str(excinfo.value)
        failed = [e for e in events if e.kind == FAILED]
        assert len(failed) == 1 and failed[0].attempts == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_surviving_points_run_and_cache(self, jobs, tmp_path):
        specs = [_spec(factory=DoomedFactory(), label="doomed"),
                 _spec(rate=200e3)]
        cache = ResultCache(tmp_path)
        supervised = _fast(SweepExecutor(jobs=jobs, cache=cache))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points(specs)
        assert [f.label for f in excinfo.value.failures] == ["doomed"]
        assert supervised.stats.points_run == 1
        assert cache.get(spec_cache_key(specs[1])) is not None

    def test_zero_retries_fails_on_first_attempt(self):
        supervised = _fast(SweepExecutor(jobs=1, max_retries=0))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points([_spec(factory=DoomedFactory())])
        assert supervised.stats.points_retried == 0
        assert excinfo.value.failures[0].attempts == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_carries_type_and_traceback(self, jobs):
        supervised = _fast(SweepExecutor(jobs=jobs))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points([_spec(factory=DoomedFactory())])
        [failure] = excinfo.value.failures
        assert isinstance(failure, PointExecutionError)
        assert isinstance(failure.cause, RuntimeError)
        assert "RuntimeError" in str(failure)
        assert "injected permanent failure" in str(failure)
        assert "injected permanent failure" in failure.worker_traceback

    def test_failure_describes_point_identity(self):
        supervised = _fast(SweepExecutor(jobs=1, max_retries=0))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points([_spec(factory=DoomedFactory(),
                                         label="doomed", rate=250e3)])
        description = excinfo.value.failures[0].describe()
        assert "[exception]" in description
        assert "doomed" in description and "250000" in description
        assert "1 attempt" in description


class TestResume:
    def test_resume_serves_settled_points_without_simulating(self):
        specs = [_spec(rate=rate) for rate in (100e3, 200e3)]
        baseline = SweepExecutor().run_points(specs)
        replay = LedgerReplay(completed={
            point_key(spec.label, spec.rate_rps): metrics
            for spec, metrics in zip(specs, baseline)})
        supervised = _fast(SweepExecutor(jobs=1, resume_from=replay))
        results = supervised.run_points(specs)
        assert metrics_digest(results) == metrics_digest(baseline)
        assert supervised.stats.points_resumed == 2
        assert supervised.stats.points_run == 0
        assert supervised.stats.events_executed == 0

    def test_resume_repairs_the_cache(self, tmp_path):
        specs = [_spec()]
        baseline = SweepExecutor().run_points(specs)
        replay = LedgerReplay(completed={
            point_key(specs[0].label, specs[0].rate_rps): baseline[0]})
        cache = ResultCache(tmp_path)
        supervised = _fast(SweepExecutor(jobs=1, cache=cache,
                                         resume_from=replay))
        supervised.run_points(specs)
        # The ledger hit was written back: a fresh, unsupervised
        # executor on the same cache now serves it without the ledger.
        assert cache.get(spec_cache_key(specs[0])) == baseline[0]

    def test_resume_misses_unknown_points(self):
        supervised = _fast(SweepExecutor(
            jobs=1, resume_from=LedgerReplay()))
        results = supervised.run_points([_spec()])
        assert len(results) == 1
        assert supervised.stats.points_resumed == 0
        assert supervised.stats.points_run == 1


class TestWorkers:
    def test_workers_are_reused_across_points(self, tmp_path):
        """A failure-free batch forks at most ``jobs`` workers."""
        recording = PidRecordingFactory(directory=str(tmp_path), inner=INNER)
        specs = [_spec(factory=recording, rate=rate)
                 for rate in (100e3, 150e3, 200e3, 250e3)]
        baseline = SweepExecutor().run_points(
            [_spec(rate=rate) for rate in (100e3, 150e3, 200e3, 250e3)])
        for path in tmp_path.iterdir():
            path.unlink()
        results = _fast(SweepExecutor(jobs=2)).run_points(specs)
        assert metrics_digest(results) == metrics_digest(baseline)
        pids = {int(path.name) for path in tmp_path.iterdir()}
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids

    def test_unpicklable_factory_runs_in_a_worker_under_its_deadline(self):
        """A closure is inherited by the forked worker, so its deadline
        is enforced: it is killed, never run in this process."""
        parent = os.getpid()

        def hangs_outside_the_parent(sim, rngs, metrics):
            if os.getpid() != parent:
                time.sleep(300.0)
            return INNER(sim, rngs, metrics)

        supervised = _fast(SweepExecutor(point_timeout_s=1.0))
        start = time.monotonic()
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points([_spec(factory=hangs_outside_the_parent)])
        assert time.monotonic() - start < 60.0
        [failure] = excinfo.value.failures
        assert failure.kind == "timeout"
