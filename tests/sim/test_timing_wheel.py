"""Timing-wheel backend tests: ordering, cascades, fired handles, and the
randomized heap-vs-wheel differential (the determinism contract)."""

import gc
import random

import pytest

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_URGENT, EventHandle
from repro.sim.scheduler import BACKEND_ENV, Scheduler, TimingWheel

#: Default-resolution horizon in seconds (2**24 ticks at 100 µs).
HORIZON_S = TimingWheel.HORIZON_TICKS * Scheduler.WHEEL_RESOLUTION


def make_recorder(sched):
    fired = []

    def fire(tag):
        fired.append((sched.now, tag))

    return fired, fire


def test_wheel_rejects_bad_resolution():
    with pytest.raises(SimulationError):
        TimingWheel(0.0)


def test_wheel_orders_same_slot_by_priority_then_seq():
    sched = Scheduler(wheel=True)
    fired, fire = make_recorder(sched)
    # All three land in the same 100 µs slot but must still dispatch in
    # (time, priority, seq) order, exactly like the heap.
    sched.schedule_at(1e-5, fire, ("low",), PRIORITY_LOW)
    sched.schedule_at(1e-5, fire, ("urgent",), PRIORITY_URGENT)
    sched.schedule_at(1e-5, fire, ("normal-1",), PRIORITY_NORMAL)
    sched.schedule_at(1e-5, fire, ("normal-2",), PRIORITY_NORMAL)
    sched.run_until()
    assert [tag for _, tag in fired] == ["urgent", "normal-1", "normal-2", "low"]


def test_events_across_all_levels_and_heap_band_fire_in_time_order():
    sched = Scheduler(wheel=True)
    fired, fire = make_recorder(sched)
    times = [
        0.00005,  # level 0
        0.9,  # level 1
        30.0,  # level 2 (cascades twice)
        HORIZON_S + 50.0,  # beyond the horizon: heap
        0.00007,  # level 0 again
        200.0,  # level 2
    ]
    for index, time in enumerate(times):
        sched.schedule_at(time, fire, (index,))
    sched.run_until()
    assert [when for when, _ in fired] == sorted(times)
    assert sched.pending_count == 0
    assert sched.executed_count == len(times)


def test_late_insert_behind_advanced_cursor_still_fires_first():
    sched = Scheduler(wheel=True)
    fired, fire = make_recorder(sched)
    sched.schedule_at(5.0, fire, ("far",))
    # peek advances the wheel cursor all the way to the 5.0 s slot...
    assert sched.peek_time() == 5.0
    # ...yet an insert behind the cursor (legal: 0.001 >= now == 0) must
    # still dispatch first, via the sorted ready-list tail.
    sched.schedule_at(0.001, fire, ("near",))
    sched.schedule_at(0.002, fire, ("mid",))
    sched.run_until()
    assert [tag for _, tag in fired] == ["near", "mid", "far"]


def test_cursor_resyncs_after_heap_only_stretch():
    sched = Scheduler(wheel=True)
    fired, fire = make_recorder(sched)
    far = HORIZON_S + 100.0
    sched.schedule_at(far, fire, ("heap",))
    sched.run_until()
    assert fired == [(far, "heap")]
    # The wheel was empty the whole time; a short timer scheduled now must
    # land near the resynced cursor and fire at the right instant.
    sched.schedule_at(far + 0.0003, fire, ("wheel",))
    sched.run_until()
    assert fired[-1] == (far + 0.0003, "wheel")


def test_cancelled_entries_never_fire_and_counters_stay_live():
    sched = Scheduler(wheel=True)
    fired, fire = make_recorder(sched)
    near = sched.schedule_at(0.001, fire, ("near",))
    mid = sched.schedule_at(1.0, fire, ("mid",))
    far = sched.schedule_at(HORIZON_S + 10.0, fire, ("far",))
    assert sched.pending_count == 3
    near.cancel()
    far.cancel()
    far.cancel()  # idempotent
    assert sched.pending_count == 1
    sched.run_until()
    assert [tag for _, tag in fired] == ["mid"]
    assert mid.time == 1.0
    assert sched.pending_count == 0


def test_cancel_from_callback_suppresses_same_slot_sibling():
    sched = Scheduler(wheel=True)
    fired, fire = make_recorder(sched)
    handles = {}

    def fire_and_cancel(tag, victim):
        fired.append((sched.now, tag))
        handles[victim].cancel()

    handles["b"] = sched.schedule_at(1e-5, fire, ("b",), PRIORITY_NORMAL)
    sched.schedule_at(1e-5, fire_and_cancel, ("a", "b"), PRIORITY_URGENT)
    sched.run_until()
    assert [tag for _, tag in fired] == ["a"]


def test_retained_handle_is_never_recycled():
    sched = Scheduler(wheel=True)
    fired, fire = make_recorder(sched)
    kept = sched.schedule_at(0.001, fire, ("kept",))
    sched.run_until()
    # We still hold `kept`: new schedules get fresh handles, and its
    # fields stay frozen at the fired values.
    assert kept.time == 0.001
    fresh = sched.schedule_at(0.002, fire, ("fresh",))
    assert fresh is not kept
    sched.run_until()
    assert [tag for _, tag in fired] == ["kept", "fresh"]


def _live_handles():
    return sum(1 for obj in gc.get_objects() if type(obj) is EventHandle)


def test_fired_handle_is_never_reused_and_keeps_its_fields():
    for wheel in (True, False):
        _check_fired_handles(Scheduler(wheel=wheel))


def _check_fired_handles(sched):
    fired, fire = make_recorder(sched)

    # Dropped handles are released once fired, not kept for reuse.  Both
    # backend bands: wheel slots and beyond the horizon.  Collect first so
    # earlier tests' cyclic garbage cannot be freed between the counts.
    gc.collect()
    before = _live_handles()
    for index in range(10):
        sched.schedule_at(index * 1e-4, fire, (index,))  # handle dropped
    sched.schedule_at(HORIZON_S * 2, fire, ("far",))
    sched.run_until()
    assert len(fired) == 11
    assert _live_handles() == before

    # Retained handles keep every field after firing, and later schedules
    # never hand one of them out again.
    now = sched.now
    handles = [sched.schedule_at(now + i * 1e-4, fire, (i,), PRIORITY_LOW) for i in range(10)]
    handles.append(sched.schedule_at(now + HORIZON_S * 2, fire, ("far",)))
    sched.run_until()
    fields = [(h.time, h.priority, h.seq, h.callback, h.args) for h in handles]
    assert fields[3] == (now + 3 * 1e-4, PRIORITY_LOW, 14, fire, (3,))
    later = [sched.schedule_at(sched.now + 1.0 + i, fire, ("later",)) for i in range(20)]
    sched.run_until()
    assert not {id(h) for h in later} & {id(h) for h in handles}
    assert [(h.time, h.priority, h.seq, h.callback, h.args) for h in handles] == fields
    assert not any(h.cancelled for h in handles)


def test_schedule_in_past_rejected_on_both_backends():
    for wheel in (True, False):
        sched = Scheduler(wheel=wheel)
        sched.schedule_at(1.0, lambda: None)
        sched.run_until()
        with pytest.raises(SimulationError):
            sched.schedule_at(0.5, lambda: None)


def test_env_var_selects_heap_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "heap")
    assert Scheduler()._wheel is None
    monkeypatch.delenv(BACKEND_ENV)
    assert Scheduler()._wheel is not None


# Randomized differential: the wheel+heap scheduler and the heap-only
# scheduler must execute the exact same (time, tag) sequence for the same
# driving workload — including nested scheduling and cancellations from
# inside callbacks, ties, and events beyond the wheel horizon.

_DELAY_BANDS = (0.0, 1e-5, 3e-4, 0.05, 2.0, 120.0, HORIZON_S + 300.0)


def _drive(seed, wheel):
    rng = random.Random(seed)
    sched = Scheduler(wheel=wheel)
    fired = []
    pending = []

    def fire(tag):
        fired.append((sched.now, tag))
        roll = rng.random()
        if roll < 0.25:
            delay = rng.choice(_DELAY_BANDS) * rng.random()
            pending.append(sched.schedule_after(delay, fire, (tag * 31 + 7,)))
        elif roll < 0.35 and pending:
            pending.pop(rng.randrange(len(pending))).cancel()

    for tag in range(300):
        delay = rng.choice(_DELAY_BANDS) * rng.random()
        if rng.random() < 0.2:
            delay = round(delay, 3)  # force exact-time ties across events
        priority = rng.choice((PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LOW))
        pending.append(sched.schedule_at(delay, fire, (tag,), priority))
    for index in range(0, len(pending), 7):
        pending[index].cancel()
    sched.run_until(max_events=5000)
    return fired


@pytest.mark.parametrize("seed", [1, 42, 20260806])
def test_differential_wheel_matches_heap_exactly(seed):
    wheel_run = _drive(seed, wheel=True)
    heap_run = _drive(seed, wheel=False)
    assert len(wheel_run) > 250
    assert wheel_run == heap_run  # same times, same order, bit-identical
