"""Unit tests for the discrete-event loop, under each event kernel."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.primitives import Store


@pytest.fixture
def sim(sim_class):
    """A fresh simulator on the kernel under test."""
    return sim_class()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self, sim_class):
        assert sim_class(start_time=500.0).now == 500.0

    def test_timeout_advances_clock(self, sim):
        sim.timeout(25.0)
        sim.run()
        assert sim.now == 25.0

    def test_run_until_leaves_clock_at_horizon(self, sim):
        sim.timeout(10.0)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_run_until_does_not_process_later_events(self, sim):
        fired = []
        ev = sim.timeout(50.0)
        ev.callbacks.append(lambda _e: fired.append(sim.now))
        sim.run(until=20.0)
        assert fired == []
        assert sim.now == 20.0
        sim.run()
        assert fired == [50.0]

    def test_run_until_in_past_rejected(self, sim):
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.run(until=5.0)


class TestOrdering:
    def test_fifo_among_simultaneous_events(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            ev = sim.timeout(10.0)
            ev.callbacks.append(lambda _e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_earlier_events_first(self, sim):
        order = []
        late = sim.timeout(20.0)
        late.callbacks.append(lambda _e: order.append("late"))
        early = sim.timeout(5.0)
        early.callbacks.append(lambda _e: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_determinism_across_runs(self, sim_class):
        def build_and_run():
            sim = sim_class()
            order = []
            for i in range(100):
                ev = sim.timeout((i * 7) % 13)
                ev.callbacks.append(lambda _e, i=i: order.append(i))
            sim.run()
            return order

        assert build_and_run() == build_and_run()


class TestStepAndPeek:
    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_time(self, sim):
        sim.timeout(30.0)
        sim.timeout(10.0)
        assert sim.peek() == 10.0

    def test_step_on_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_event_count_increments(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.event_count == 5


class TestCallHelpers:
    def test_call_in_runs_function(self, sim):
        hits = []
        sim.call_in(15.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [15.0]

    def test_call_at_absolute_time(self, sim):
        sim.timeout(5.0)
        hits = []
        sim.call_at(40.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [40.0]

    def test_call_at_in_past_rejected(self, sim):
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(5.0, lambda: None)


class TestRunGuards:
    def test_max_events_guard_trips(self, sim):
        def forever(sim):
            while True:
                yield sim.timeout(1.0)

        sim.process(forever(sim))
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_until_event_returns_value(self, sim):
        def worker(sim):
            yield sim.timeout(3.0)
            return "payload"

        proc = sim.process(worker(sim))
        assert sim.run_until_event(proc) == "payload"

    def test_run_until_event_raises_failure(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("boom")

        proc = sim.process(bad(sim))
        with pytest.raises(ValueError, match="boom"):
            sim.run_until_event(proc)

    def test_run_until_event_drained_schedule(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_event(ev)

    def test_run_is_not_reentrant(self, sim):
        def reenter(sim):
            yield sim.timeout(1.0)
            sim.run()

        proc = sim.process(reenter(sim))
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, SimulationError)


class TestWorkloadWitnesses:
    """Event counts, end times and values of three kernel workloads
    (heap churn, process trampolining, same-instant callback batches),
    pinned exactly under each kernel."""

    def test_timeout_storm(self, sim):
        for i in range(20_000):
            sim.timeout(float(i % 97))
        sim.run()
        assert (sim.event_count, sim.now) == (20_000, 96.0)

    def test_store_pingpong(self, sim):
        n = 4_000
        store = Store(sim)

        def producer(sim):
            for i in range(n):
                yield sim.timeout(1.0)
                store.put(i)

        def consumer(sim):
            total = 0
            for _ in range(n):
                total += yield store.get()
            return total

        sim.process(producer(sim))
        consumer_proc = sim.process(consumer(sim))
        sim.run()
        assert (sim.event_count, sim.now, consumer_proc.value) == (
            12_004, 4_000.0, n * (n - 1) // 2)

    def test_defer_drain_is_fifo_per_instant(self, sim):
        fired = []
        for i in range(10_000):
            sim.defer(float(i % 13), lambda k=i: fired.append(k))
        sim.run()
        assert (sim.event_count, sim.now) == (10_000, 12.0)
        assert len(fired) == 10_000
        assert (fired[0], fired[-1]) == (0, 9_996)
        assert fired == sorted(fired, key=lambda k: (k % 13, k))
