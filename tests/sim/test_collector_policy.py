"""The drain-scoped collector policy: while ``Simulator.run`` or
``Simulator.run_until_complete`` drains the queue, gen0's collection
threshold is raised to ``DRAIN_GC_THRESHOLD``; the caller's thresholds
come back on every exit."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim.datapath import DATAPATH_ENV
from repro.sim.simulator import DRAIN_GC_THRESHOLD, Simulator

#: A caller's own thresholds, distinct from CPython's defaults so a
#: restore to the defaults instead of to these would show.
CUSTOM = (900, 11, 12)


@pytest.fixture(autouse=True)
def custom_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CUSTOM)
    yield
    gc.set_threshold(*saved)


@pytest.fixture(params=["batch", "object"])
def sim(request, monkeypatch):
    monkeypatch.setenv(DATAPATH_ENV, request.param)
    return Simulator(seed=1)


def record_threshold(sim, seen, delay=0.1):
    sim.schedule(delay, lambda: seen.append(gc.get_threshold()))


def test_callback_inside_run_sees_the_raised_threshold(sim):
    seen = []
    record_threshold(sim, seen)
    sim.run()
    assert seen == [(DRAIN_GC_THRESHOLD, CUSTOM[1], CUSTOM[2])]


def test_callback_inside_run_until_complete_sees_the_raised_threshold(sim):
    seen = []

    def proc():
        yield sim.timeout(0.1)
        seen.append(gc.get_threshold())
        return "done"

    assert sim.run_until_complete(sim.spawn(proc())) == "done"
    assert seen == [(DRAIN_GC_THRESHOLD, CUSTOM[1], CUSTOM[2])]


def test_threshold_restored_after_normal_return(sim):
    record_threshold(sim, [])
    sim.run(until=1.0)
    assert gc.get_threshold() == CUSTOM

    def quick():
        yield sim.timeout(0.1)
        return 7

    assert sim.run_until_complete(sim.spawn(quick())) == 7
    assert gc.get_threshold() == CUSTOM


def test_threshold_restored_after_callback_raises(sim):
    def boom():
        raise RuntimeError("boom")

    sim.schedule(0.1, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert gc.get_threshold() == CUSTOM

    def failing():
        yield sim.timeout(0.1)
        raise RuntimeError("proc boom")

    with pytest.raises(RuntimeError):
        sim.run_until_complete(sim.spawn(failing()))
    assert gc.get_threshold() == CUSTOM


def test_threshold_restored_after_deadline_error(sim):
    def slow():
        yield sim.timeout(10.0)

    with pytest.raises(SimulationError, match="deadline"):
        sim.run_until_complete(sim.spawn(slow()), deadline=1.0)
    assert gc.get_threshold() == CUSTOM


def test_threshold_restored_after_drained_queue_error(sim):
    def stuck():
        yield sim.event("never")

    with pytest.raises(SimulationError, match="queue empty"):
        sim.run_until_complete(sim.spawn(stuck()))
    assert gc.get_threshold() == CUSTOM


def test_threshold_restored_after_nested_drain(sim):
    inner = Simulator(seed=2)
    seen = []
    record_threshold(inner, seen)

    def nested():
        inner.run()
        seen.append(gc.get_threshold())

    sim.schedule(0.1, nested)
    sim.run()
    raised = (DRAIN_GC_THRESHOLD, CUSTOM[1], CUSTOM[2])
    # Inside the inner drain, and back in the outer one after it exits.
    assert seen == [raised, raised]
    assert gc.get_threshold() == CUSTOM


def test_step_leaves_the_threshold_alone(sim):
    seen = []
    record_threshold(sim, seen)
    assert sim.step()
    assert seen == [CUSTOM]
    assert gc.get_threshold() == CUSTOM


def test_a_higher_or_zero_threshold_is_never_lowered(sim):
    for young in (DRAIN_GC_THRESHOLD * 2, 0):
        gc.set_threshold(young, 5, 6)
        seen = []
        record_threshold(sim, seen, delay=0.0)
        sim.run()
        assert seen == [(young, 5, 6)]
        assert gc.get_threshold() == (young, 5, 6)
