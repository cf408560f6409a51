"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
``yield``-s must be an :class:`~repro.sim.events.Event`; the process
sleeps until that event triggers and is resumed with the event's value
(or has the event's exception thrown into it).  The process itself is an
event that triggers when the generator returns (with the return value)
or raises (failing the process).

Interrupts
----------
``process.interrupt(cause)`` models asynchronous preemption: a
:class:`~repro.errors.ProcessInterrupt` carrying *cause* is thrown into
the generator at its current wait point.  The generator may catch it,
save state, and continue — exactly how the paper's workers react to a
local-APIC timer interrupt.

Hot-path note: each process asks its simulator's kernel once for a
resume callable (``Simulator._make_resume``) and hands that same object
to every event it waits on.  The compiled kernel returns a C callable,
so no resume runs a Python frame; the reference kernel returns the
bound :meth:`Process._wake`.  ``_wake`` binds ``generator.send`` /
``generator.throw`` once at start (a bound-method lookup per event is
measurable at fig2 scale), reads event state as the kernel's internal
int, and short-circuits the ``isinstance`` check for the overwhelmingly
common case of yielding a :class:`~repro.sim.events.Timeout`.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.events import Event, Timeout, _PENDING, _PROCESSED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Process(Event):
    """A running simulation coroutine; also an event for its completion."""

    __slots__ = ("_generator", "_waiting_on", "_send", "_throw",
                 "_resume")

    def __init__(self, sim: "Simulator", generator: Generator, label: str = ""):
        try:
            send = generator.send
            throw = generator.throw
        except AttributeError:
            raise SimulationError(
                f"process() needs a generator, got {generator!r} — "
                "did you forget to call the generator function?") from None
        super().__init__(sim, label=label)
        self._generator = generator
        self._send = send
        self._throw = throw
        self._waiting_on: Optional[Event] = None
        #: The kernel's resume callable for this process, made once and
        #: handed to every event the process waits on.
        self._resume = sim._make_resume(self)
        # Kick off on the next kernel step at the current instant.
        bootstrap = sim.event(label=f"start:{label}" if label else "start:")
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    # -- public API ------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process immediately.

        The interrupt is delivered via the schedule (at the current
        instant), so it is safe to call from another process's context.
        Interrupting a finished process is a no-op, mirroring real
        interrupt delivery racing with task exit.
        """
        if self._state != _PENDING:
            return
        target = self._waiting_on
        if target is not None and target._state != _PROCESSED:
            # Detach from whatever we were waiting on.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        poke = self.sim.event(label=f"interrupt:{self.label}")
        poke.callbacks.append(self._deliver_interrupt)
        poke.succeed(ProcessInterrupt(cause))

    # -- kernel machinery ---------------------------------------------------------

    def _deliver_interrupt(self, poke: Event) -> None:
        if self._state != _PENDING:
            return
        # A resume may have been re-armed between interrupt() and delivery
        # (the interrupted wait completed at the same instant); detach again.
        target = self._waiting_on
        if target is not None and target._state != _PROCESSED:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._advance(throw=poke._value)

    def _wake(self, event: Event) -> None:
        """One resume on the reference kernel: send *event*'s outcome
        into the generator and arm the next resume on what it yields.

        The compiled kernel's resume callable does exactly this in C.
        """
        # The per-event trampoline: one kernel callback per resume, so
        # the whole send-and-rearm path lives in this single frame
        # (an extra delegation call per event is measurable at scale).
        if self._state != _PENDING:  # interrupted and finished before this fired
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessInterrupt as exc:
            # An uncaught interrupt kills the process; treat as failure so
            # waiters notice rather than hanging.
            self.fail(exc)
            return
        except Exception as exc:
            self.fail(exc)
            return
        # Re-arm (the body of _wait_on, inlined for the common case: an
        # unprocessed same-simulator Timeout or plain Event yielded from
        # the generator — Store gets/puts and Signal waits are exact-class
        # Events, so together these cover nearly every resume).
        cls = target.__class__
        if (cls is Timeout or cls is Event) and target.sim is self.sim \
                and target._state != _PROCESSED:
            self._waiting_on = target
            target.callbacks.append(self._resume)
            return
        self._wait_on(target)

    def _advance(self, send: Any = None, throw: Optional[BaseException] = None):
        try:
            if throw is not None:
                target = self._throw(throw)
            else:
                target = self._send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessInterrupt as exc:
            # An uncaught interrupt kills the process; treat as failure so
            # waiters notice rather than hanging.
            self.fail(exc)
            return
        except Exception as exc:
            self.fail(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Validate the yielded *target* and arm the next resume."""
        if target.__class__ is not Timeout and not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.label!r} yielded {target!r}; "
                "processes may only yield Events"))
            return
        if target.sim is not self.sim:
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.label!r} yielded an event from another simulator"))
            return

        self._waiting_on = target
        if target._state == _PROCESSED:
            # Already done: resume at the current instant via the schedule
            # to preserve FIFO fairness.
            relay = self.sim.event()
            relay.callbacks.append(self._resume)
            if target._ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._value)
            self._waiting_on = relay
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        status = "done" if self.triggered else (
            "waiting" if self._waiting_on is not None else "starting")
        return f"<Process{tag} {status}>"
