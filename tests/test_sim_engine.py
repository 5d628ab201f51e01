"""Unit tests for the discrete-event engine."""

import bisect
import heapq
import itertools
import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(3.0, lambda lab=label: fired.append(lab))
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]
    assert sim.now == 7.5


def test_run_until_stops_early_and_preserves_pending():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 3.0)]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("cancelled"))
    sim.schedule(2.0, lambda: fired.append("kept"))
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(4.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4.0]


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_max_events_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    sim.run(max_events=25)
    assert sim.events_processed == 25


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == [1, 2]


def _inject_past_entry(sim, time, sequence):
    """Corrupt the heap with a ``[time, sequence, fn, arg]`` entry."""
    heapq.heappush(sim._heap, [time, sequence, lambda _arg: None, None])


def test_step_rejects_past_events_like_run():
    """Regression: step() enforces the same no-past-events invariant as
    run(); a corrupted heap must not silently rewind the clock."""
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    # Simulate heap corruption: inject an entry stamped before now.
    _inject_past_entry(sim, 1.0, 999)
    with pytest.raises(SimulationError):
        sim.step()
    # run() rejects the same corruption identically.
    _inject_past_entry(sim, 1.0, 1000)
    with pytest.raises(SimulationError):
        sim.run()


def test_step_does_not_rewind_clock_on_past_event():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    _inject_past_entry(sim, 3.0, 999)
    with pytest.raises(SimulationError):
        sim.step()
    assert sim.now == 10.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_run_until_before_now_is_rejected():
    """Regression: ``run(until=u)`` with ``u < now`` used to rewind the
    clock to ``u``."""
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5.0)
    assert sim.now == 10.0


def test_checkpoint_chain_ignores_cancelled_timers():
    """Regression: a lazily cancelled timer still in the heap used to
    keep an ``every`` chain ticking until its (never-firing) time."""
    sim = Simulator()
    sim.schedule(1e6, lambda: None).cancel()
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(max_events=100)
    assert ticks == [1.0]
    assert sim.next_event_time() is None


def test_schedule_call_passes_its_argument():
    sim = Simulator()
    got = []
    sim.schedule_call(2.0, got.append, "x")
    sim.schedule(1.0, lambda: got.append("timer"))
    sim.run()
    assert got == ["timer", "x"]
    with pytest.raises(SimulationError):
        sim.schedule_call(-1.0, got.append, "y")


_TIMES = st.integers(min_value=0, max_value=12).map(lambda n: n / 4)


class EngineMachine(RuleBasedStateMachine):
    """``Simulator`` against a sorted-list reference model.

    The model keeps live entries as ``(time, sequence, label, interval)``
    tuples in sorted order; firing pops the head.  ``interval`` is None
    for one-shot events and the cadence for an ``every`` chain, whose
    tick re-arms while any other live entry remains.  Every callback
    records ``(label, now)``, so fire order, fire times (never in the
    past) and the clock are all checked against the model.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        self.fired: list[tuple[int, float]] = []
        self.expected: list[tuple[int, float]] = []
        self.model: list[tuple[float, int, int, float | None]] = []
        self.handles: list = []  # every Event ever returned
        self.now = 0.0
        self.processed = 0
        self.sequence = itertools.count()
        self.labels = itertools.count()

    def _record(self, label: int):
        return lambda: self.fired.append((label, self.sim.now))

    def _push(self, time: float, label: int, interval=None) -> int:
        sequence = next(self.sequence)
        bisect.insort(self.model, (time, sequence, label, interval))
        return sequence

    def _fire_next(self) -> None:
        time, _, label, interval = self.model.pop(0)
        self.now = time
        self.expected.append((label, time))
        self.processed += 1
        if interval is not None and self.model:
            self._push(time + interval, label, interval)

    def _keep(self, event, time: float, sequence: int) -> None:
        assert (event.time, event.sequence) == (time, sequence)
        assert not event.cancelled
        self.handles.append(event)

    @rule(delay=_TIMES)
    def schedule(self, delay):
        label = next(self.labels)
        event = self.sim.schedule(delay, self._record(label))
        time = self.now + delay
        self._keep(event, time, self._push(time, label))

    @rule(offset=_TIMES)
    def schedule_at(self, offset):
        label = next(self.labels)
        time = self.now + offset
        event = self.sim.schedule_at(time, self._record(label))
        self._keep(event, time, self._push(time, label))

    @rule(interval=_TIMES.filter(lambda t: t > 0))
    def every(self, interval):
        label = next(self.labels)
        event = self.sim.every(interval, self._record(label))
        time = self.now + interval
        self._keep(event, time, self._push(time, label, interval))

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6))
    def cancel(self, pick):
        event = self.handles[pick % len(self.handles)]
        event.cancel()
        assert event.cancelled
        self.model = [entry for entry in self.model
                      if entry[1] != event.sequence]

    @rule()
    def step(self):
        fired = bool(self.model)
        if fired:
            self._fire_next()
        assert self.sim.step() is fired

    @rule(span=_TIMES)
    def run_until(self, span):
        until = self.now + span
        while self.model and self.model[0][0] <= until:
            self._fire_next()
        self.now = until
        self.sim.run(until=until)

    @precondition(lambda self: self.now > 0)
    @rule(back=_TIMES.filter(lambda t: t > 0))
    def run_until_past_is_rejected(self, back):
        with pytest.raises(SimulationError):
            self.sim.run(until=self.now - back)

    @rule(budget=st.integers(min_value=1, max_value=5))
    def run_max_events(self, budget):
        for _ in range(budget):
            if not self.model:
                break
            self._fire_next()
        self.sim.run(max_events=budget)

    @rule(width=st.sampled_from([0.5, 1.0, 2.5, 4.0]))
    def run_epoch(self, width):
        expected = None
        if self.model:
            start = math.floor(self.model[0][0] / width) * width
            count = 0
            while self.model and self.model[0][0] < start + width:
                self._fire_next()
                count += 1
            expected = (start, count)
        assert self.sim.run_epoch(width) == expected

    @invariant()
    def agrees_with_model(self):
        assert self.fired == self.expected
        assert self.sim.now == self.now
        assert self.sim.events_processed == self.processed
        assert self.sim.next_event_time() == (
            self.model[0][0] if self.model else None)


EngineMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)
TestEngineStateMachine = EngineMachine.TestCase
