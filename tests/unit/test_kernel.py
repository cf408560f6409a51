"""The compiled event kernel: building, caching, selection, and
same-instant order under tie-break permutations.

Build tests compile into temporary cache directories, so they never
touch the package's own cache.
"""

from __future__ import annotations

import random
import shutil

import pytest

from repro.errors import ProcessInterrupt, SchedulingError
from repro.sim import kernel
from repro.sim.engine import KERNEL, ReferenceSimulator, Simulator
from repro.sim.primitives import Signal, Store
from repro.sim.tiebreak import permutation_policy

needs_compiled = pytest.mark.skipif(
    not KERNEL.compiled,
    reason=f"compiled kernel not loaded: {KERNEL.reason}")


class TestSelection:
    def test_python_knob_selects_the_reference(self, tmp_path):
        choice = kernel.load({kernel.KERNEL_ENV: "python"}, dirs=[tmp_path])
        assert choice.name == "python"
        assert not choice.compiled
        assert "REPRO_KERNEL=python" in choice.reason
        assert list(tmp_path.iterdir()) == []  # nothing was built

    def test_unknown_knob_value_selects_the_reference(self, tmp_path):
        choice = kernel.load({kernel.KERNEL_ENV: "fortran"}, dirs=[tmp_path])
        assert choice.name == "python"
        assert "fortran" in choice.reason

    def test_missing_compiler_falls_back_with_a_reason(self, tmp_path):
        choice = kernel.load({"CC": str(tmp_path / "no-such-cc")},
                             dirs=[tmp_path / "cache"])
        assert choice.name == "python"
        assert choice.reason.startswith("build failed: compiler not found")

    def test_failing_compiler_falls_back_with_a_reason(self, tmp_path):
        choice = kernel.load({"CC": "false"}, dirs=[tmp_path])
        assert choice.name == "python"
        assert choice.reason.startswith("build failed: false exited 1")

    def test_no_writable_cache_falls_back(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        choice = kernel.load({}, dirs=[blocker / "a", blocker / "b"])
        assert choice.name == "python"
        assert choice.reason.startswith("no writable build cache")

    def test_missing_source_falls_back(self, tmp_path):
        choice = kernel.load({}, source=tmp_path / "absent.c",
                             dirs=[tmp_path])
        assert choice.name == "python"
        assert "kernel source missing" in choice.reason


@needs_compiled
class TestBuildCache:
    def test_second_load_reuses_the_build(self, tmp_path):
        first = kernel.load({}, dirs=[tmp_path])
        second = kernel.load({}, dirs=[tmp_path])
        assert first.reason.startswith("built at ")
        assert second.reason.startswith("cached at ")
        assert second.module.SOURCE_SHA256 == kernel.source_digest(
            kernel.SOURCE.read_bytes())

    def test_unwritable_cache_tries_the_next_directory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        choice = kernel.load({}, dirs=[blocker / "cache", tmp_path / "next"])
        assert choice.reason.startswith(f"built at {tmp_path / 'next'}")

    def test_build_from_other_source_is_rebuilt_not_loaded(self, tmp_path):
        """A cached file under the current source's name that was built
        from another source is replaced by a fresh build."""
        old = kernel.load({}, dirs=[tmp_path / "old"])
        edited = tmp_path / "_kernel.c"
        edited.write_bytes(kernel.SOURCE.read_bytes()
                           + b"\n/* edited */\n")
        digest = kernel.source_digest(edited.read_bytes())
        cache = tmp_path / "new"
        cache.mkdir()
        stale = cache / kernel.artifact_name(digest)
        shutil.copy(old.reason.split(" at ", 1)[1], stale)

        choice = kernel.load({}, source=edited, dirs=[cache])
        assert choice.reason == f"built at {stale}"
        assert choice.module.SOURCE_SHA256 == digest

    def test_loaded_module_is_documented(self):
        assert KERNEL.module.__doc__
        assert KERNEL.module.SOURCE_SHA256 == kernel.source_digest(
            kernel.SOURCE.read_bytes())


def _program(sim, rng, trace):
    """A seeded mix of same-instant work: processes on timeouts, store
    hand-offs, signal broadcasts, deferred calls, cancellations and
    interrupts."""
    store = Store(sim, name="ring")
    signal = Signal(sim, name="bell")

    def worker(name):
        for step in range(12):
            choice = rng.random()
            try:
                if choice < 0.4:
                    yield sim.timeout(rng.choice((0, 1, 1, 2, 5)))
                elif choice < 0.6:
                    item = yield store.get()
                    trace.append((sim.now, name, "got", item))
                elif choice < 0.7:
                    value = yield signal.wait()
                    trace.append((sim.now, name, "bell", value))
                else:
                    store.try_put((name, step))
                    signal.fire(step)
                    sim.defer(rng.choice((0, 1)), trace.append,
                              (sim.now, name, "deferred", step))
                    guard = sim.timeout(3)
                    if rng.random() < 0.5:
                        guard.cancel()
            except ProcessInterrupt as exc:
                trace.append((sim.now, name, "interrupted", exc.cause))
            trace.append((sim.now, name, step))

    workers = [sim.process(worker(f"w{n}")) for n in range(8)]

    def feeder():
        for k in range(40):
            yield sim.timeout(1)
            store.put(("feed", k))
            signal.fire(-k)
            if k % 3 == 0:
                workers[k % len(workers)].interrupt(k)

    sim.process(feeder())


@needs_compiled
@pytest.mark.parametrize("policy", [0, 1, 5])
def test_same_instant_order_matches_reference(policy):
    traces = []
    for sim_class in (Simulator, ReferenceSimulator):
        sim = sim_class()
        sim.set_tiebreak(permutation_policy(policy, seed=3))
        trace = []
        _program(sim, random.Random(11), trace)
        sim.run(until=100)
        traces.append((trace, sim.event_count, sim.now))
    assert traces[0] == traces[1]
    assert len(traces[0][0]) > 100


class TestResume:
    def test_uncaught_exception_fails_the_process(self, sim_class):
        sim = sim_class()

        def boom(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        proc = sim.process(boom(sim))
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, ValueError)
        assert proc.value.__traceback__ is not None

    def test_failed_event_is_thrown_into_the_waiter(self, sim_class):
        sim = sim_class()
        caught = []

        def waiter(sim, ev):
            try:
                yield ev
            except KeyError as exc:
                caught.append(exc)
            return "recovered"

        ev = sim.event()
        proc = sim.process(waiter(sim, ev))
        ev.fail(KeyError("k"), delay=2.0)
        sim.run()
        assert proc.value == "recovered"
        assert len(caught) == 1

    def test_interrupt_reaches_a_waiting_process(self, sim_class):
        sim = sim_class()
        seen = []

        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except ProcessInterrupt as exc:
                seen.append((sim.now, exc.cause))
            yield sim.timeout(1)

        proc = sim.process(sleeper(sim))
        sim.defer(5, proc.interrupt, "tick")
        sim.run()
        assert seen == [(5.0, "tick")]
        assert proc.processed

    def test_resume_is_made_once_per_process(self, sim_class):
        sim = sim_class()

        def ticker(sim):
            for _ in range(3):
                yield sim.timeout(1)

        proc = sim.process(ticker(sim))
        first = proc._resume
        for until in (0.5, 1.5):
            sim.run(until=until)
            assert proc._waiting_on.callbacks == [first]
        sim.run()
        assert proc._resume is first and proc.ok

    def test_yielding_a_non_event_fails_the_process(self, sim_class):
        sim = sim_class()

        def bad(sim):
            yield 42

        proc = sim.process(bad(sim))
        sim.run()
        assert not proc.ok


class TestFactories:
    def test_timeout_keywords_and_errors(self, sim_class):
        sim = sim_class()
        sim.timeout(1)
        sim.timeout(1)
        sim.run()  # both are recycled: the calls below take the pool path
        assert sim.pool_sizes()["timeout"] == 2
        ev = sim.timeout(delay=2, value="v", label="x")
        assert (ev.value, ev.label, ev.delay) == ("v", "x", 2)
        with pytest.raises(SchedulingError, match="negative timeout delay"):
            sim.timeout(-1.0)
        with pytest.raises(TypeError):
            sim.timeout(1, bogus=2)

    def test_defer_passes_arguments_and_rejects_negative(self, sim_class):
        sim = sim_class()
        got = []
        sim.defer(3, lambda *a: got.append((sim.now, a)), 1, 2)
        sim.defer(0, got.append, "first")
        with pytest.raises(SchedulingError, match="negative delay"):
            sim.defer(-1, got.append)
        sim.run()
        assert got == ["first", (3.0, (1, 2))]

    def test_callback_error_propagates_and_keeps_the_count(self, sim_class):
        sim = sim_class()
        sim.timeout(1)
        sim.defer(2, lambda: 1 / 0)
        sim.timeout(3)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert sim.event_count == 2
        assert sim.now == 2.0
        sim.run()
        assert sim.event_count == 3
