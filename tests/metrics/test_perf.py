"""Perf telemetry: the collector's per-span deltas."""

import gc

from repro.metrics import perf


class _Cycle:
    def __init__(self):
        self.me = self


def test_gc_deltas_count_this_span_only():
    gc.collect()
    with perf.track() as probe:
        for _ in range(100):
            _Cycle()
        gc.collect(0)
        gc.collect()
    telemetry = probe.telemetry()
    assert telemetry["gc_collections"] == 2
    assert telemetry["gc_full_collections"] == 1
    # Each unreachable cycle is the instance plus its attribute dict.
    assert telemetry["gc_collected"] >= 100
