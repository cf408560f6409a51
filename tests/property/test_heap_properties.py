"""Property tests: the schedule heap dispatches in the reference order.

Every schedule entry rides one binary heap keyed ``(when, priority,
seq)``.  These tests drive randomized schedule / cancel / partial-run
sequences — including equal-timestamp batches with mixed priorities
and compaction of cancelled entries — against a plain sorted reference
and require the identical dispatch order, tie-breaks included.  Every
property holds under each event kernel.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import NORMAL, URGENT, _COMPACT_MIN, _Deferred


#: (op, raw, scale-index, priority) tuples.  The raw value doubles as a
#: delay seed (scaled from sub-ns to far-future) and as the pick index
#: for cancels.  Small raw ranges make equal timestamps common,
#: exercising the tie-break contract.
_SCALES = (1.0, 16.0, 300.0, 4099.0, 70000.0)

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["push", "push", "push", "cancel", "run"]),
              st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=len(_SCALES) - 1),
              st.sampled_from([URGENT, NORMAL])),
    min_size=1, max_size=160)


class _Schedule:
    """Drives a simulator and a sorted reference side by side.

    ``URGENT`` entries are pushed as deferred calls (not cancellable);
    ``NORMAL`` ones are Timeouts, which the ``cancel`` op withdraws.
    """

    def __init__(self, sim):
        self.sim = sim
        self.fired = []
        self.pending = {}  # tag -> (when, priority, tag, handle)
        self.expected = []  # reference order of everything that fired
        self._tags = 0

    def push(self, delay, priority):
        sim = self.sim
        self._tags = tag = self._tags + 1
        when = sim.now + delay
        if priority == URGENT:
            sim._push(when, URGENT, _Deferred(self.fired.append, (tag,)))
            handle = None
        else:
            handle = sim.timeout(delay)
            handle.callbacks.append(lambda _e, tag=tag: self.fired.append(tag))
        # Tags grow with creation, so they order like the kernel's seq.
        self.pending[tag] = (when, priority, tag, handle)

    def cancel(self, pick):
        cancellable = sorted(tag for tag, entry in self.pending.items()
                             if entry[3] is not None)
        if not cancellable:
            return
        tag = cancellable[pick % len(cancellable)]
        assert self.pending.pop(tag)[3].cancel() is True

    def run(self, until=None):
        sim = self.sim
        due = sorted(entry for entry in self.pending.values()
                     if until is None or entry[0] <= until)
        sim.run(until=until)
        for entry in due:
            del self.pending[entry[2]]
        self.expected.extend(entry[2] for entry in due)
        assert self.fired == self.expected


class TestHeapMatchesSortedReference:
    @given(ops_strategy)
    @settings(max_examples=120, deadline=None)
    def test_pop_order_identical_to_sorted_reference(self, sim_class, ops):
        """Randomized push/cancel/partial-run: every run dispatches
        exactly the live entries up to its horizon, in the reference
        ``(when, priority, seq)`` order."""
        schedule = _Schedule(sim_class())
        for op, raw, scale_idx, priority in ops:
            if op == "push":
                schedule.push(float(raw) * _SCALES[scale_idx], priority)
            elif op == "cancel":
                schedule.cancel(raw)
            else:
                schedule.run(until=schedule.sim.now
                             + float(raw) * _SCALES[scale_idx])
        schedule.run()
        assert not schedule.pending
        assert schedule.sim.pending_count() == 0

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_equal_timestamp_batches_pop_in_seq_order(self, sim_class,
                                                      sizes):
        """Entries sharing a timestamp fire in (priority, seq) order,
        and a run whose horizon is that instant fires the whole batch."""
        schedule = _Schedule(sim_class())
        for i, size in enumerate(sizes):
            for k in range(size + 1):
                schedule.push(float(i) * 997.0, (URGENT, NORMAL)[k % 2])
        for i in range(len(sizes)):
            schedule.run(until=float(i) * 997.0)
        assert not schedule.pending
        assert schedule.sim.pending_count() == 0


class TestHeapCancellation:
    def test_cancelled_entries_compact_once_dead_dominates(self, sim_class):
        """Cancelling all but one of many far-future Timeouts compacts
        the dead entries out of the heap before their deadlines."""
        sim = sim_class()
        far = 1e9
        events = [sim.timeout(far + i) for i in range(3 * _COMPACT_MIN)]
        for ev in events[:-1]:
            assert ev.cancel() is True
        # Only the live entry, plus at most a compaction window of dead
        # stragglers, is still resident.
        assert sim.pending_count() <= _COMPACT_MIN + 1
        fired = []
        events[-1].callbacks.append(fired.append)
        sim.run()
        assert fired == [events[-1]]
        assert sim.pending_count() == 0

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                              st.sampled_from([True, True, True, False])),
                    min_size=3 * _COMPACT_MIN, max_size=4 * _COMPACT_MIN))
    @settings(max_examples=60, deadline=None)
    def test_compaction_preserves_dispatch_order(self, sim_class, plan):
        """A heap rebuilt by compaction mid-schedule still dispatches
        the survivors in the reference order."""
        schedule = _Schedule(sim_class())
        for raw, _cancel in plan:
            schedule.push(float(raw), NORMAL)
        schedule.run(until=float(plan[0][0]) / 2)
        cancelled = 0
        for tag, (_raw, cancel) in enumerate(plan, start=1):
            if cancel and tag in schedule.pending:
                assert schedule.pending.pop(tag)[3].cancel() is True
                cancelled += 1
        if cancelled > 2 * _COMPACT_MIN:
            # Dead entries dominated at some point: compaction dropped
            # some of them before their deadlines.
            assert (schedule.sim.pending_count()
                    < len(schedule.pending) + cancelled)
        schedule.run()
        assert not schedule.pending
        assert schedule.sim.pending_count() == 0
