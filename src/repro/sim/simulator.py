"""The :class:`Simulator` facade tying clock, scheduler, processes and RNG
together.

A single :class:`Simulator` instance owns all mutable simulation state; all
components (hosts, links, protocols) hold a reference to it.  Time is a
float in seconds.

While :meth:`Simulator.run` or :meth:`Simulator.run_until_complete` is
draining the queue, CPython's young-generation collection threshold is
raised to :data:`DRAIN_GC_THRESHOLD` and restored on exit (see DESIGN.md
§7, "Collector policy").
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import (
    PRIORITY_NORMAL,
    AllOf,
    AnyOf,
    EventHandle,
    SimEvent,
    Timeout,
)
from repro.obs.registry import MetricsRegistry
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer

#: Young-generation (gen0) collection threshold while a drain runs.  Every
#: reaped connection is cyclic garbage that only the collector frees; at
#: CPython's default of 700 the 2,000-connection scale rung runs over a
#: thousand collector passes, ten of them full.  The gen1 and gen2
#: thresholds are kept.
DRAIN_GC_THRESHOLD = 50_000


def _raise_young_threshold() -> Tuple[int, int, int]:
    """Raise gen0's threshold for a drain; returns the caller's thresholds.

    Never lowers a higher threshold, and leaves a zero (collection
    switched off by threshold) as it is.
    """
    saved = gc.get_threshold()
    young = saved[0]
    if 0 < young < DRAIN_GC_THRESHOLD:
        gc.set_threshold(DRAIN_GC_THRESHOLD, saved[1], saved[2])
    return saved


class Simulator:
    """Discrete-event simulation kernel.

    Typical use::

        sim = Simulator(seed=1)
        sim.spawn(my_process(sim))
        sim.run(until=60.0)
    """

    def __init__(self, seed: int = 0) -> None:
        self._scheduler = Scheduler()
        self.random = RandomStreams(seed)
        self.trace = Tracer()
        self.metrics = MetricsRegistry()
        self._processes: List[Process] = []

    # Time ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._scheduler.now

    @property
    def events_executed(self) -> int:
        return self._scheduler.executed_count

    # Scheduling ----------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._scheduler.schedule_after(delay, callback, args, priority)

    def call_later(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Unchecked fast path for :meth:`schedule`.

        Skips the negative-delay / ``time < now`` guards entirely, for hot
        internal call sites where ``delay >= 0`` holds by construction
        (zero-delay process resumes, validated timeouts, armed timers).
        """
        return self._scheduler.schedule_after(delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        return self._scheduler.schedule_at(time, callback, args, priority)

    @property
    def batch_dispatch(self) -> bool:
        """True when the scheduler runs slot-drain (batched) dispatch."""
        return self._scheduler._batch

    def add_batch_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook()`` to run between dispatch batches.

        Only meaningful under batched dispatch (see
        :meth:`Scheduler.add_batch_hook` for the contract); callers gate
        on :attr:`batch_dispatch` and keep a per-event fallback for the
        object arm.
        """
        self._scheduler.add_batch_hook(hook)

    # Events --------------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create an untriggered waitable event."""
        return SimEvent(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds after ``delay`` seconds."""
        event = Timeout(self, delay)  # validates delay >= 0
        self.call_later(delay, event.succeed, value)
        return event

    def any_of(self, events: List[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: List[SimEvent]) -> AllOf:
        return AllOf(self, events)

    # Processes -----------------------------------------------------------
    def spawn(
        self, generator: Generator[SimEvent, Any, Any], label: str = ""
    ) -> Process:
        """Start a coroutine process; returns its handle (joinable event)."""
        process = Process(self, generator, label)
        self._processes.append(process)
        return process

    # Execution -----------------------------------------------------------
    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run events until the queue is empty, ``until`` is reached, or
        ``max_events`` callbacks have executed."""
        saved = _raise_young_threshold()
        try:
            self._scheduler.run_until(until=until, max_events=max_events)
        finally:
            gc.set_threshold(*saved)

    def run_until_complete(
        self, process: Process, deadline: Optional[float] = None
    ) -> Any:
        """Run the simulation until ``process`` finishes; return its value.

        Raises :class:`SimulationError` if the event queue drains or the
        deadline passes while the process is still alive (usually a sign of
        a deadlock in the scenario under test).
        """
        saved = _raise_young_threshold()
        try:
            if self._scheduler._batch:
                return self._run_until_complete_batched(process, deadline)
            return self._run_until_complete_object(process, deadline)
        finally:
            gc.set_threshold(*saved)

    def _run_until_complete_object(
        self, process: Process, deadline: Optional[float] = None
    ) -> Any:
        """Per-event reference loop of :meth:`run_until_complete`."""
        while not process.triggered:
            if deadline is not None and self.now >= deadline:
                raise SimulationError(
                    f"deadline {deadline}s passed; process {process.label!r} "
                    "still running"
                )
            if self._scheduler.run_next_before(deadline):
                continue
            if self._scheduler.peek_time() is None:
                raise SimulationError(
                    f"event queue empty but process {process.label!r} never "
                    "finished (deadlock?)"
                )
            # The next live event is past the deadline: advance to it and
            # let the check at the top of the loop raise.
            self._scheduler.run_until(until=deadline)
        return process.value

    def _run_until_complete_batched(
        self, process: Process, deadline: Optional[float] = None
    ) -> Any:
        """Slot-drain counterpart of :meth:`run_until_complete`.

        The per-event stop conditions of the reference loop — stop the
        instant ``process`` triggers, and run at most one event that
        leaves ``now >= deadline`` — are enforced inside the scheduler's
        drain via ``watch``, so both arms execute exactly the same event
        sequence before raising or returning.
        """
        scheduler = self._scheduler
        while not process.triggered:
            if deadline is not None and self.now >= deadline:
                raise SimulationError(
                    f"deadline {deadline}s passed; process {process.label!r} "
                    "still running"
                )
            scheduler.run_until(until=deadline, watch=process)
            if process.triggered:
                break
            if deadline is not None and self.now >= deadline:
                continue  # the deadline check at the top of the loop raises
            if scheduler.peek_time() is None:
                raise SimulationError(
                    f"event queue empty but process {process.label!r} never "
                    "finished (deadlock?)"
                )
            # The next live event is past the deadline: advance to it and
            # let the check at the top of the loop raise.
            scheduler.run_until(until=deadline)
        return process.value

    def step(self) -> bool:
        """Execute a single event; returns False when the queue is empty."""
        return self._scheduler.run_next()
