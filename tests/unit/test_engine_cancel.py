"""Cancellation memory-retention regression tests.

The engine skips cancelled entries at dispatch and compacts them out
of the heap once they dominate.  Before that fix, a cancel-heavy arm/cancel loop (retry
timers, watchdogs) grew the schedule without bound: every cancelled
entry sat in the heap until its original deadline arrived.  Every
test runs under each event kernel.
"""

from repro.sim.engine import _COMPACT_MIN


class TestCancelledEntriesAreReclaimed:
    def test_arm_cancel_loop_keeps_pending_bounded(self, sim_class):
        """The retry-timer pattern: arm a guard, cancel it, repeat.
        Pending entries must stay O(compaction window), not O(loop)."""
        sim = sim_class()
        high_water = 0
        for i in range(20_000):
            # Cycle through near, mid-range and far-future deadlines.
            delay = (float(i % 7), 163840.0, 4915200.0, 1e12)[i % 4]
            sim.timeout(delay).cancel()
            high_water = max(high_water, sim.pending_count())
        # The heap tolerates up to a compaction window of dead
        # entries before rebuilding.
        assert high_water <= 4 * _COMPACT_MIN
        sim.run()
        assert sim.pending_count() == 0

    def test_cancelled_timeout_never_fires(self, sim_class):
        sim = sim_class()
        fired = []
        live = sim.timeout(5.0)
        live.callbacks.append(lambda _e: fired.append("live"))
        for delay in (1.0, 5.0, 32768.0, 1e12):
            dead = sim.timeout(delay)
            dead.callbacks.append(lambda _e: fired.append("dead"))
            assert dead.cancel() is True
        sim.run()
        assert fired == ["live"]
        assert sim.now == 5.0  # clock never advanced to dead deadlines

    def test_cancel_interleaved_with_live_work_preserves_order(self,
                                                               sim_class):
        """Heavy cancellation around live timers must not perturb the
        survivors' fire order or drop any of them."""
        sim = sim_class()
        order = []
        for i in range(50):
            ev = sim.timeout(float(100 - i))  # reverse creation order
            ev.callbacks.append(lambda _e, i=i: order.append(i))
            for _ in range(40):
                sim.timeout(float(50 + i)).cancel()
        sim.run()
        assert order == list(range(49, -1, -1))
        assert sim.pending_count() == 0

    def test_cancel_after_partial_run(self, sim_class):
        """Entries cancelled mid-run are skipped at dispatch."""
        sim = sim_class()
        fired = []
        early = sim.timeout(1.0)
        later = sim.timeout(2.0)
        later.callbacks.append(lambda _e: fired.append("later"))
        early.callbacks.append(lambda _e: later.cancel())
        tail = sim.timeout(3.0)
        tail.callbacks.append(lambda _e: fired.append("tail"))
        sim.run()
        assert fired == ["tail"]
