"""The discrete-event simulation loop.

:class:`Simulator` owns the clock and the schedule, one binary heap of
``(when, priority, key, event)`` entries.  Time is in nanoseconds (see
:mod:`repro.units`).  Events scheduled for the same instant are
processed in FIFO order of scheduling (a strictly increasing sequence
number breaks ties), which makes runs fully deterministic for a fixed
seed.

Hot-path design
---------------
A fig2-scale sweep dispatches millions of events, so the kernel keeps
its constant factors small without ever changing *what* is scheduled:

- Every push goes through one entry point, :meth:`Simulator._push`:
  it takes the next sequence number, mixes it through the tie-break
  policy and pushes the entry on the heap.  Events, timeouts and the
  store/signal primitives all call it, so the scheduling invariant is
  written down once per kernel.
- :meth:`Simulator.run` dispatches through the inline loop
  :meth:`Simulator._loop` (no per-event :meth:`step` call) whenever
  ``step`` has not been overridden; instrumented subclasses get the
  step-by-step loop instead, with identical semantics.
- Processed :class:`~repro.sim.events.Timeout` and
  :class:`~repro.sim.events.Event` objects are recycled through small
  per-simulator freelists — but only when the kernel holds the *last*
  reference (checked via ``sys.getrefcount``), so an event is never
  reused while user code can still see it.  Subclasses (processes,
  conditions) are never pooled.
- :meth:`defer` / :meth:`defer_at` schedule a bare callback through a
  pooled :class:`_Deferred` cell instead of a Timeout-plus-lambda pair;
  they consume exactly one sequence number and one schedule push, just
  like :meth:`call_in` / :meth:`call_at`, so swapping one for the other
  cannot reorder a run.
- Cancelled events (:meth:`Event.cancel`) stay in the heap and are
  skipped at dispatch — without advancing the event count — and
  compacted away once they dominate, so cancel-heavy workloads
  (timeout/retry fault plans, preemption slices) cannot grow the
  queue.

None of this changes the number or order of schedule pushes — the
determinism contract is pinned by the golden differential tests.

Two kernels
-----------
The methods named in :data:`KERNEL_METHODS` — ``_push``, ``_loop``,
``timeout``, ``defer`` and ``_make_resume`` (the per-process resume
callable) — are the kernel.  This module defines them in pure Python:
that is the reference kernel, complete on its own.  On import,
:mod:`repro.sim.kernel` builds the compiled twin in ``_kernel.c`` and
:data:`KERNEL` records which one :class:`Simulator` runs and why;
``REPRO_KERNEL=python`` keeps the reference.
:class:`ReferenceSimulator` always runs the reference kernel; the
sanitizer builds on it.  Both kernels pop the same total order of
unique ``(when, priority, key)`` tuples, so they replay a run bit for
bit.
"""

from __future__ import annotations

import gc
import warnings

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterator, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim import kernel
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.tiebreak import FIFO, TB_MASK, TieBreakPolicy

#: Priority levels: lower runs first among simultaneous events.
URGENT = 0
NORMAL = 1

#: Freelist bound per pool: big enough to absorb steady-state churn,
#: small enough that an idle simulator holds no meaningful memory.
_POOL_CAP = 4096

#: Compaction heuristic for lazily-cancelled heap entries: rebuild only
#: once the dead entries are both absolutely and relatively many, which
#: keeps the amortized cost O(1) per cancel.
_COMPACT_MIN = 64


class _Deferred:
    """A pooled schedule entry carrying a bare callback.

    Not an :class:`Event`: it has no value, no callbacks list, and no
    observable lifecycle, which is exactly what lets the kernel recycle
    it unconditionally after firing.  Never escapes the kernel.
    """

    __slots__ = ("func", "args")

    def __init__(self, func: Callable[..., None], args: tuple):
        self.func = func
        self.args = args


class Simulator:
    """Event loop, clock, and factory for events and processes.

    Parameters
    ----------
    start_time:
        Initial clock value in nanoseconds (default 0).

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(5.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    5.0
    """

    __slots__ = ("_now", "_heap", "_seq",
                 "_event_count", "_running", "fault_injector",
                 "_timeout_pool", "_event_pool", "_deferred_pool",
                 "_cancelled", "_tiebreak", "_tb_mult", "_tb_add")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list = []
        self._seq = 0
        self._event_count = 0
        self._running = False
        #: The run's :class:`~repro.faults.injector.FaultInjector`, set
        #: by its ``attach()``; None in a fault-free run.  Lives on the
        #: simulator so dataplane hooks (links, workers, feedback
        #: channels) can consult it without threading a new parameter
        #: through every constructor.
        self.fault_injector = None
        self._timeout_pool: list = []
        self._event_pool: list = []
        self._deferred_pool: list = []
        #: Lazily-cancelled entries believed to still sit in the heap.
        self._cancelled = 0
        #: Tie-break policy: equal-(when, priority) events dispatch in
        #: ``(seq * _tb_mult + _tb_add) & TB_MASK`` order.  The default
        #: identity (mult 1, add 0) is byte-identical FIFO; ``_push``,
        #: the one push entry point, applies the mix.
        self._tiebreak = FIFO
        self._tb_mult = 1
        self._tb_add = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total number of events processed so far (diagnostics)."""
        return self._event_count

    # -- tie-break policy ----------------------------------------------------

    @property
    def tiebreak(self) -> TieBreakPolicy:
        """The active equal-timestamp ordering policy."""
        return self._tiebreak

    def set_tiebreak(self, policy: TieBreakPolicy) -> None:
        """Install *policy* as the equal-timestamp ordering.

        Must be called before anything is scheduled: mixing keys from
        two policies in one schedule would break the total order.
        """
        if self._seq or self._heap:
            raise SimulationError(
                "set_tiebreak() after scheduling began; install the "
                "policy on a fresh simulator")
        self._tiebreak = policy
        self._tb_mult = policy.mult
        self._tb_add = policy.add

    # -- factories -----------------------------------------------------------

    def event(self, label: str = "") -> Event:
        """Create a fresh pending :class:`Event` (possibly recycled)."""
        pool = self._event_pool
        if pool:
            # Pooled events arrive with an empty, reusable callbacks list.
            ev = pool.pop()
            ev._value = None
            ev._ok = None
            ev._state = 0
            ev.label = label
            return ev
        return Event(self, label=label)

    def timeout(self, delay: float, value: Any = None, label: str = "") -> Timeout:
        """Create an event that fires *delay* ns from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SchedulingError(f"negative timeout delay: {delay}")
            ev = pool.pop()
            ev._value = value
            ev._ok = True
            ev._state = 1
            ev.label = label
            ev.delay = delay
            self._push(self._now + delay, NORMAL, ev)
            return ev
        return Timeout(self, delay, value=value, label=label)

    def process(self, generator: Generator, label: str = "") -> Process:
        """Start a new :class:`Process` driving *generator*."""
        return Process(self, generator, label=label)

    def any_of(self, events) -> AnyOf:
        """Composite event: fires when any of *events* fires."""
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        """Composite event: fires when all of *events* have fired."""
        return AllOf(self, events)

    def call_at(self, when: float, func: Callable[[], None]) -> Event:
        """Run *func* (no args) at absolute time *when*.

        Returns the underlying event, so the caller can wait on it or
        observe it; when the handle is not needed, :meth:`defer_at` is
        the cheaper equivalent.
        """
        if when < self._now:
            raise SchedulingError(
                f"call_at({when}) is in the past (now={self._now})")
        ev = self.timeout(when - self._now)
        ev.callbacks.append(lambda _ev: func())
        return ev

    def call_in(self, delay: float, func: Callable[[], None]) -> Event:
        """Run *func* (no args) after *delay* ns.

        Returns the underlying event; when the handle is not needed,
        :meth:`defer` is the cheaper equivalent.
        """
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: func())
        return ev

    def defer(self, delay: float, func: Callable[..., None], *args) -> None:
        """Run ``func(*args)`` after *delay* ns; fire-and-forget.

        The scheduling arithmetic, priority, and sequence-number
        consumption are identical to :meth:`call_in`, so the two are
        interchangeable without reordering a run — ``defer`` simply
        returns no handle and recycles its schedule cell.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        pool = self._deferred_pool
        if pool:
            cell = pool.pop()
            cell.func = func
            cell.args = args
        else:
            cell = _Deferred(func, args)
        self._push(self._now + delay, NORMAL, cell)

    def defer_at(self, when: float, func: Callable[..., None], *args) -> None:
        """Run ``func(*args)`` at absolute time *when*; fire-and-forget.

        Mirrors :meth:`call_at` exactly, including its float arithmetic
        (``now + (when - now)``), so swapping one for the other cannot
        perturb event timestamps.
        """
        if when < self._now:
            raise SchedulingError(
                f"defer_at({when}) is in the past (now={self._now})")
        self.defer(when - self._now, func, *args)

    # -- scheduling core -------------------------------------------------------

    def _push(self, when: float, priority: int, event: Any) -> None:
        """Insert *event* into the schedule at absolute time *when*.

        The one definition of the scheduling invariant in this kernel:
        every push takes the next sequence number, mixes it through the
        tie-break policy into the entry's key, and pushes the entry on
        the heap.
        """
        self._seq = seq = self._seq + 1
        key = (seq * self._tb_mult + self._tb_add) & TB_MASK
        heappush(self._heap, (when, priority, key, event))

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        """Insert a triggered *event* into the schedule (kernel use)."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        self._push(self._now + delay, priority, event)

    def _cancel(self, event: Event) -> None:
        """Withdraw *event*'s schedule entry (hook for Event.cancel).

        The entry stays in the heap: it is skipped at dispatch, and
        compacted away once cancelled entries dominate the heap.
        """
        self._cancelled = dead = self._cancelled + 1
        if dead > _COMPACT_MIN and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap in one pass."""
        heap = self._heap
        live = [entry for entry in heap
                if type(entry[3]) is _Deferred or entry[3]._state != 3]
        if len(live) != len(heap):
            heap[:] = live
            heapify(heap)
        self._cancelled = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle.

        A lazily-cancelled entry still waiting to be skipped may be
        reported; nothing will actually happen at that instant.
        """
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def pending_count(self) -> int:
        """Entries still in the schedule.

        Includes lazily-cancelled stragglers not yet compacted away.
        """
        return len(self._heap)

    def pending_entries(self) -> Iterator[tuple]:
        """All pending schedule tuples, in no particular order
        (diagnostics and tests)."""
        yield from self._heap

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        Cancelled entries encountered on the way vanish silently — they
        do not advance the clock, count as events, or satisfy the step.
        """
        heap = self._heap
        while True:
            if not heap:
                raise SimulationError("step() on an empty schedule")
            when, _prio, _seq, event = heappop(heap)
            if type(event) is _Deferred:
                self._now = when
                self._event_count += 1
                func, args = event.func, event.args
                event.func = event.args = None
                pool = self._deferred_pool
                if len(pool) < _POOL_CAP:
                    pool.append(event)
                func(*args)
                return
            if event._state == 3:  # cancelled: drop and keep looking
                dead = self._cancelled
                if dead > 0:
                    self._cancelled = dead - 1
                continue
            self._now = when
            self._event_count += 1
            callbacks, event.callbacks = event.callbacks, None
            event._mark_processed()
            for callback in callbacks:
                callback(event)
            return

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the schedule drains, *until* (absolute ns), or a budget.

        Parameters
        ----------
        until:
            Stop once the clock would pass this absolute time.  The clock
            is left exactly at *until* when the horizon is hit.
        max_events:
            Safety valve: raise :class:`SimulationError` if more than
            this many events are processed in this call (guards against
            accidental infinite simulations in tests).
        """
        if self._running:
            raise SimulationError("run() re-entered; the simulator is not reentrant")
        if until is not None and until < self._now:
            raise SchedulingError(f"until={until} is in the past (now={self._now})")
        if type(self).step is not Simulator.step:
            # An instrumented subclass (e.g. the sanitizer) overrode
            # step(): dispatch through it, one event at a time.
            self._run_stepwise(until, max_events)
            return
        self._running = True
        # Pause cyclic GC for the duration of the loop: the hot path
        # allocates heap tuples, packets, and requests at event rate,
        # and each collection pass walks the whole live graph.  Nothing
        # about collection timing is observable to the simulation, so
        # this cannot perturb results; the deferred pass runs at exit.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # An unbounded run compares against +inf, which no event time
        # or budget ever exceeds.
        limit = float("inf") if max_events is None \
            else self._event_count + max_events
        try:
            self._loop(float("inf") if until is None else until, limit)
            if self._event_count > limit:
                raise SimulationError(
                    f"run() exceeded max_events={max_events}")
            if until is not None:
                self._now = until
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def _loop(self, horizon: float, limit: float) -> None:
        """Dispatch events until the next one lies past *horizon*, the
        schedule drains, or the event count passes *limit*."""
        heap = self._heap
        pop = heappop
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        deferred_pool = self._deferred_pool
        count = self._event_count
        try:
            while heap:
                if heap[0][0] > horizon:
                    return
                when, _prio, _seq, event = pop(heap)
                cls = event.__class__
                if cls is Timeout:
                    if event._state == 3:  # cancelled: vanish
                        continue
                    self._now = when
                    count += 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._state = 2
                    for callback in callbacks:
                        callback(event)
                    # Recycle only exact-class events the kernel holds the
                    # last reference to (local + getrefcount argument = 2):
                    # anything user code kept a handle on stays untouched.
                    # The detached callbacks list rides along (cleared), so
                    # pooled events always carry an empty list ready to use.
                    if getrefcount(event) == 2 and \
                            len(timeout_pool) < _POOL_CAP:
                        del callbacks[:]
                        event.callbacks = callbacks
                        event._value = None
                        timeout_pool.append(event)
                elif cls is _Deferred:
                    self._now = when
                    count += 1
                    func, args = event.func, event.args
                    event.func = event.args = None
                    if len(deferred_pool) < _POOL_CAP:
                        deferred_pool.append(event)
                    func(*args)
                else:
                    if event._state == 3:  # cancelled: vanish
                        continue
                    self._now = when
                    count += 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._state = 2
                    for callback in callbacks:
                        callback(event)
                    if cls is Event:
                        if getrefcount(event) == 2 and \
                                len(event_pool) < _POOL_CAP:
                            del callbacks[:]
                            event.callbacks = callbacks
                            event._value = None
                            event_pool.append(event)
                if count > limit:
                    return
        finally:
            self._event_count = count

    def _make_resume(self, process: Process) -> Callable[[Event], None]:
        """The callable that resumes *process* with an event's outcome.

        Made once per process; the process hands this same object to
        every event it waits on.
        """
        return process._wake

    def _run_stepwise(self, until: Optional[float],
                      max_events: Optional[int]) -> None:
        """The legacy one-step()-per-event loop, for overridden step()."""
        self._running = True
        processed = 0
        heap = self._heap
        try:
            while True:
                # Clear cancelled entries off the head so the horizon
                # check below sees the next *live* event (step() would
                # otherwise skip past the horizon inside one call).
                head = None
                while heap:
                    head = heap[0]
                    event = head[3]
                    if type(event) is _Deferred or event._state != 3:
                        break
                    heappop(heap)
                    dead = self._cancelled
                    if dead > 0:
                        self._cancelled = dead - 1
                    head = None
                if head is None:
                    break  # schedule drained
                if until is not None and head[0] > until:
                    self._now = until
                    return
                self.step()
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events}")
            if until is not None:
                self._now = until
        finally:
            self._running = False

    def run_until_event(self, event: Event,
                        max_events: Optional[int] = None) -> Any:
        """Run until *event* is processed; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the schedule drains first.
        """
        processed = 0
        while not event.processed:
            if not self._heap:
                raise SimulationError(
                    f"schedule drained before {event!r} was processed")
            self.step()
            processed += 1
            if max_events is not None and processed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if not event.ok:
            raise event.value
        return event.value

    # -- teardown ------------------------------------------------------------

    def pool_sizes(self) -> dict:
        """Current freelist occupancy (diagnostics and tests)."""
        return {"timeout": len(self._timeout_pool),
                "event": len(self._event_pool),
                "deferred": len(self._deferred_pool)}

    def close(self) -> None:
        """Drop all pooled objects (teardown; the simulator stays usable)."""
        self._timeout_pool.clear()
        self._event_pool.clear()
        self._deferred_pool.clear()

    def __repr__(self) -> str:
        return (f"<Simulator t={self._now:.1f}ns "
                f"pending={self.pending_count()} "
                f"processed={self._event_count}>")


class ReferenceSimulator(Simulator):
    """A :class:`Simulator` pinned to the pure-Python reference kernel.

    Whatever :data:`KERNEL` selected, instances run the reference
    definitions of the kernel methods below.  The sanitizer builds on
    it, and the kernel differential tests hold the compiled kernel to
    it.
    """

    __slots__ = ()

    _push = Simulator._push
    _loop = Simulator._loop
    timeout = Simulator.timeout
    defer = Simulator.defer
    _make_resume = Simulator._make_resume


#: The methods a compiled kernel replaces on :class:`Simulator`.
KERNEL_METHODS = ("_push", "_loop", "timeout", "defer", "_make_resume")


def _select_kernel() -> kernel.KernelChoice:
    """Load the compiled kernel and install it on :class:`Simulator`.

    Falls back to the reference kernel, with the reason, on any
    failure; a fallback nobody asked for is also reported as a
    warning.
    """
    choice = kernel.load()
    if choice.compiled:
        try:
            methods = choice.module.bind(
                Simulator, Event, Timeout, _Deferred, Process,
                SchedulingError, NORMAL, _POOL_CAP)
        except Exception as exc:  # importing the simulator never fails
            choice = kernel.reference(
                f"bind failed: {type(exc).__name__}: {exc}")
        else:
            for name in KERNEL_METHODS:
                setattr(Simulator, name, methods[name])
            return choice
    if not kernel.python_requested():
        warnings.warn(f"using the pure-Python event kernel: {choice.reason}",
                      RuntimeWarning, stacklevel=2)
    return choice


#: The kernel :class:`Simulator` runs in this process, and why; see
#: :mod:`repro.sim.kernel`.
KERNEL = _select_kernel()
