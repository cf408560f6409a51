"""One-shot events for the simulation kernel.

An :class:`Event` moves through three states::

    PENDING -> TRIGGERED -> PROCESSED

``TRIGGERED`` means the event has a value (or an exception) and sits in
the simulator's schedule; ``PROCESSED`` means its callbacks have run.
Processes wait on events by ``yield``-ing them; the kernel resumes the
process with the event's value, or throws the event's exception into it.

A ``TRIGGERED`` event can additionally be withdrawn via
:meth:`Event.cancel` (state ``CANCELLED``): its schedule entry is
skipped at dispatch, and its callbacks never run.

Hot-path note: state lives internally as a small int (``_PENDING`` /
``_TRIGGERED`` / ``_PROCESSED`` / ``_CANCELLED``) because millions of
events flow through a sweep and enum identity checks are measurably
slower; the public :attr:`Event.state` property still answers with the
:class:`EventState` enum.  Triggering hands the event to the owning
simulator's ``_push`` — the kernel's single schedule entry point — at
the absolute time ``now + delay``.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import SchedulingError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class EventState(enum.Enum):
    """Lifecycle state of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"
    CANCELLED = "cancelled"


#: Internal integer states (indices into _STATES); the kernel compares
#: these directly instead of enum members.
_PENDING, _TRIGGERED, _PROCESSED, _CANCELLED = 0, 1, 2, 3
_STATES = (EventState.PENDING, EventState.TRIGGERED, EventState.PROCESSED,
           EventState.CANCELLED)

#: Default scheduling priority; mirrors ``engine.NORMAL`` (events.py
#: cannot import the engine — cycle), pinned by a unit test.
_NORMAL = 1


class Event:
    """A one-shot completion event bound to a :class:`Simulator`.

    Attributes
    ----------
    sim:
        The owning simulator.
    callbacks:
        Functions invoked (with the event) when the event is processed.
        ``None`` once processed — appending afterwards is an error.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "label")

    def __init__(self, sim: "Simulator", label: str = ""):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = _PENDING
        self.label = label

    # -- state inspection --------------------------------------------------

    @property
    def state(self) -> EventState:
        """Current lifecycle state."""
        return _STATES[self._state]

    @property
    def triggered(self) -> bool:
        """True once the event has a result (value or exception)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def cancelled(self) -> bool:
        """True once the event has been withdrawn via :meth:`cancel`."""
        return self._state == _CANCELLED

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result value (or exception, if it failed)."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with *value* after *delay* ns."""
        if self._state != _PENDING:
            raise SchedulingError(f"{self!r} already triggered")
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        sim = self.sim
        sim._push(sim._now + delay, _NORMAL, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after *delay* ns."""
        if self._state != _PENDING:
            raise SchedulingError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        sim = self.sim
        sim._push(sim._now + delay, _NORMAL, self)
        return self

    def cancel(self) -> bool:
        """Withdraw a triggered-but-unprocessed event from the schedule.

        Returns True when the event was still awaiting dispatch; its
        callbacks will never run.  Its schedule entry is skipped
        (uncounted, clock untouched where possible) when it surfaces,
        and compacted away under cancel-heavy load.
        Pending or already-processed events return False unchanged.
        A cancelled event is never recycled through the kernel pools.
        """
        if self._state != _TRIGGERED:
            return False
        self._state = _CANCELLED
        self.sim._cancel(self)
        return True

    # -- kernel hooks --------------------------------------------------------

    def _mark_processed(self) -> None:
        self._state = _PROCESSED

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<{type(self).__name__}{tag} {_STATES[self._state].value}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Construction is flattened (no ``super().__init__`` chain):
    timeouts are the single most allocated object in a sweep, and the
    engine's freelist (:meth:`Simulator.timeout`) recycles them through
    exactly this field layout.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 label: str = ""):
        if delay < 0:
            raise SchedulingError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self.label = label
        self.delay = delay
        sim._push(sim._now + delay, _NORMAL, self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events):
        super().__init__(sim)
        self.events = tuple(events)
        self._n_done = 0
        if any(ev.sim is not sim for ev in self.events):
            raise SimulationError("condition mixes events from different simulators")
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev._state == _PROCESSED:
                self._child_done(ev)
            else:
                ev.callbacks.append(self._child_done)

    def _collect(self) -> dict:
        """Results of all triggered child events, in declaration order."""
        return {ev: ev._value for ev in self.events if ev._state != _PENDING}

    def _child_done(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when *any* child event triggers.

    The value is a dict mapping the already-triggered events to their
    values (there may be more than one if several fire at the same
    instant).  A failing child fails the condition.
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when *all* child events have triggered.

    The value is a dict mapping every event to its value.  A failing
    child fails the condition immediately.
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())
