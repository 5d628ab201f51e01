"""A minimal, fast discrete-event simulation engine.

The paper evaluates GroupCast on an extended Java version of the p-sim
discrete event simulator; this module is our Python equivalent.  The engine
is a classic calendar queue built on :mod:`heapq`:

* Heap entries are plain ``[time, sequence, fn, arg]`` lists, so every
  heap comparison runs in C; firing an entry calls ``fn(arg)`` (or
  ``fn()`` for a zero-argument timer).
* :class:`Event` is the cancellable handle ``schedule`` returns over one
  entry.  Message deliveries go through :meth:`Simulator.schedule_call`,
  which pushes ``(fn, arg)`` with no closure and no handle.
* :class:`Simulator` owns the virtual clock and the pending-event heap.
  ``schedule`` inserts events, ``run`` drains the heap in timestamp order.

Ties are broken by insertion sequence so runs are fully deterministic.
Protocol layers deliver messages by scheduling a callback after the
underlay latency between the two endpoints.

For scale runs the loop can also be driven one virtual-time *epoch* at a
time (:meth:`Simulator.run_epoch`): all events inside a fixed-width time
bucket dispatch in one call, letting callers interleave vectorized array
work (:mod:`repro.core.multigroup`) between buckets without per-event
Python hooks.  Within an epoch the dispatch order is untouched, so trace
digests are identical either way.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional

from ..errors import SimulationError
from ..obs.tracer import KIND_FIRE, KIND_SCHEDULE, Tracer

#: ``arg`` slot of an entry whose callable takes no argument.
_NO_ARG = object()


class Event:
    """Cancellable handle over one heap entry ``[time, sequence, fn, arg]``.

    Cancelling clears the entry's callable in place (lazy deletion): the
    entry stays queued and the drain loop skips it when it surfaces.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        """Virtual firing time in milliseconds."""
        return self._entry[0]

    @property
    def sequence(self) -> int:
        """Insertion sequence number (the tie-breaker)."""
        return self._entry[1]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._entry[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing; cheap lazy deletion."""
        self._entry[2] = None


class Simulator:
    """Virtual-time event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    __slots__ = ("_now", "_heap", "_sequence", "_events_processed",
                 "tracer", "profiler", "topology")

    def __init__(self, tracer: Optional[Tracer] = None,
                 profiler=None, topology=None) -> None:
        self._now = 0.0
        self._heap: list[list] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self.tracer = tracer
        #: Optional :class:`~repro.obs.profiler.Profiler`.  The run loop
        #: calls ``profiler.on_advance(time)`` before firing each event
        #: (never scheduling events of its own — a scheduled sampler
        #: would consume sequence numbers and break ``trace_digest``
        #: bit-transparency) and times dispatch wall-clock.
        self.profiler = profiler
        #: Optional :class:`~repro.obs.topology.TopologyRecorder`.  Same
        #: contract as the profiler: ``topology.on_advance(time)`` runs
        #: before each dispatch and never schedules events, so an
        #: attached recorder leaves ``trace_digest`` bit-identical.
        self.topology = topology

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def next_event_time(self) -> Optional[float]:
        """Firing time of the next live event, or None if drained.

        Cancelled events at the heap top are discarded while peeking —
        they would never fire, so dropping them here changes nothing
        observable.
        """
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _push(self, time_ms: float, fn: Callable, arg: object) -> list:
        entry = [time_ms, next(self._sequence), fn, arg]
        heapq.heappush(self._heap, entry)
        tracer = self.tracer
        if tracer is not None:
            # repr(time_ms) is only formatted when a tracer is actually
            # capturing; with telemetry disabled the schedule fast path
            # does no string work at all.
            tracer.record(self._now, KIND_SCHEDULE,
                          seq=entry[1], detail=repr(time_ms))
        return entry

    def schedule(self, delay_ms: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to fire ``delay_ms`` after the current time."""
        if delay_ms < 0.0:
            raise SimulationError(f"cannot schedule in the past: {delay_ms}")
        return Event(self._push(self._now + delay_ms, action, _NO_ARG))

    def schedule_at(self, time_ms: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute virtual time ``time_ms``."""
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ms} before current time {self._now}"
            )
        return Event(self._push(time_ms, action, _NO_ARG))

    def schedule_call(self, delay_ms: float, fn: Callable[[object], None],
                      arg: object) -> None:
        """Schedule ``fn(arg)`` after ``delay_ms``; not cancellable.

        The message-delivery path: no closure and no :class:`Event`
        handle are allocated, and the entry takes the same sequence
        number and trace record a :meth:`schedule` call would.
        """
        if delay_ms < 0.0:
            raise SimulationError(f"cannot schedule in the past: {delay_ms}")
        self._push(self._now + delay_ms, fn, arg)

    def every(self, interval_ms: float,
              callback: Callable[[], None]) -> Event:
        """Invoke ``callback`` every ``interval_ms`` of virtual time.

        The checkpoint chain re-arms itself only while another *live*
        event remains queued, so it never keeps an otherwise-drained
        simulation alive — lazily cancelled timers do not count.
        Used by the fault-injection harness to evaluate invariant
        suites at a fixed cadence (:class:`repro.faults.invariants.
        InvariantSuite.attach`).
        """
        if interval_ms <= 0.0:
            raise SimulationError("checkpoint interval must be positive")

        def tick() -> None:
            callback()
            if self.next_event_time() is not None:
                self.schedule(interval_ms, tick)

        return self.schedule(interval_ms, tick)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Drain the event heap in timestamp order.

        ``until`` stops the clock at the given virtual time (events scheduled
        later stay queued; it must not lie before :attr:`now`);
        ``max_events`` bounds the number of callbacks as a runaway guard.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until} before current time {self._now}")
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        while heap:
            entry = heap[0]
            time = entry[0]
            if until is not None and time > until:
                self._now = until
                profiler = self.profiler
                if profiler is not None:
                    profiler.on_advance(until)
                topology = self.topology
                if topology is not None:
                    topology.on_advance(until)
                return
            heappop(heap)
            fn = entry[2]
            if fn is None:
                continue
            if time < self._now:
                raise SimulationError("event heap yielded a past event")
            self._now = time
            if self.tracer is not None:
                self.tracer.record(time, KIND_FIRE, seq=entry[1])
            topology = self.topology
            if topology is not None:
                topology.on_advance(time)
            arg = entry[3]
            profiler = self.profiler
            if profiler is not None:
                profiler.on_advance(time)
                with profiler.phase("engine.dispatch"):
                    fn() if arg is _NO_ARG else fn(arg)
            elif arg is _NO_ARG:
                fn()
            else:
                fn(arg)
            self._events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                return
        if until is not None:
            self._now = until

    def run_epoch(self, epoch_ms: float) -> tuple[float, int] | None:
        """Dispatch every event inside the next virtual-time epoch.

        Epochs are the fixed-width buckets ``[k*epoch_ms, (k+1)*epoch_ms)``;
        the next one is the bucket holding the earliest pending event, so
        empty stretches of virtual time are skipped in one jump.  Events
        inside the epoch still fire one by one in ``(time, sequence)``
        order — batching changes *when control returns to the caller*,
        never the dispatch order, so trace digests are unaffected.

        Returns ``(epoch_start, events_fired)``, or None if the heap is
        drained.  This is the engine half of the array core's batched
        dispatch: callers interleave vectorized per-epoch array work
        (:mod:`repro.core.multigroup`) between epochs instead of hooking
        every event.
        """
        if epoch_ms <= 0.0:
            raise SimulationError("epoch width must be positive")
        first = self.next_event_time()
        if first is None:
            return None
        epoch_start = math.floor(first / epoch_ms) * epoch_ms
        epoch_end = epoch_start + epoch_ms
        fired = 0
        while True:
            when = self.next_event_time()
            if when is None or when >= epoch_end:
                break
            self.step()
            fired += 1
        return epoch_start, fired

    def step(self) -> bool:
        """Fire the single next event; return False if the heap is empty."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before
