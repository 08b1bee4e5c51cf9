"""Unit tests for the discrete-event engine."""

import pytest

from repro.simulator import Event, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_fifo_tiebreak_at_equal_times(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, i)
        sim.run_until(2.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run_until(5.0)
        assert times == [2.5]

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run_until(4.0)
        assert fired == []
        assert sim.pending == 1
        sim.run_until(6.0)
        assert fired == [1]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert fired == ["outer", "inner"]

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run_until(2.0)
        assert fired == []
        assert sim.processed == 0

    def test_past_scheduling_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run_until(5.0)

    def test_run_drains_everything(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(100.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]
        assert sim.pending == 0

    def test_args_passed(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda a, b: out.append(a + b), 2, 3)
        sim.run()
        assert out == [5]

    def test_event_repr(self):
        e = Event(1.0, 0, lambda: None, ())
        assert "pending" in repr(e)

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []

        def reschedule(tag):
            fired.append(tag)
            # Scheduled at the current time: runs after everything already
            # queued for this instant.
            sim.schedule(0.0, fired.append, tag + "-again")

        for i, t in enumerate([2.0, 1.0, 2.0, 1.0, 2.0, 1.0]):
            sim.schedule_at(t, fired.append, f"{t:g}:{i}")
        sim.schedule_at(1.0, reschedule, "r")
        sim.schedule_at(1.0, fired.append, "last")
        sim.run_until(5.0)
        assert fired == [
            "1:1", "1:3", "1:5", "r", "last", "r-again",
            "2:0", "2:2", "2:4",
        ]

    def test_cancelled_events_skipped_and_not_pending(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(1.0, fired.append, i) for i in range(6)]
        for i in (0, 2, 5):
            events[i].cancel()
        assert sim.pending == 3
        sim.advance(0.5)
        assert sim.pending == 3
        sim.run_until(2.0)
        assert fired == [1, 3, 4]
        assert sim.processed == 3
        assert sim.pending == 0

    def test_schedule_returns_cancellable_handle(self):
        sim = Simulator()
        ev = sim.schedule(2.0, lambda: None, "x")
        assert isinstance(ev, Event)
        assert (ev.time, ev.args, ev.cancelled) == (2.0, ("x",), False)
        ev.cancel()
        assert ev.cancelled
        assert sim.pending == 0
