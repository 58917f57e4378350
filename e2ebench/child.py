"""One repetition of one workload, in a fresh single-threaded process.

``run.py`` starts this script once per repetition and reads the single
JSON line it prints.  Modes:

* ``setup`` — stop at the first client event and report set-up time only;
* ``plain`` — the measured run: no instrumentation after set-up;
* ``traced`` — the run under :class:`layers.SpanTracer`;
* ``count`` — the run under :func:`layers.count_calls` (counts only).

``--added-cost`` adds a cost of known size to every IP datagram received
in every other slice of wall time (:func:`add_cost`), from outside the
program, and reports the speed probe's mean duration in the slices with
the cost over that in the slices without (:func:`probe_cost_ratio`).
``selfcheck.py`` uses it to show that the probe does not divide a
slow-down of the program away.

Set-up time runs from ``--t0`` (the parent's ``time.monotonic()`` just
before it started this process: interpreter start, imports, topology
build, service start) to the first client event — the first process
spawned on a client host.  The measured phase runs from there to the end
of the workload.  In ``setup`` and ``plain`` mode a :class:`pace.Pacer`
samples the host's speed throughout, and each host time is also given
scaled to the reference speed (``*_ref_s``).
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (the benchmark's own modules, beside this file)
import pace  # noqa: E402
import workloads  # noqa: E402

#: Client hosts: ``client`` in a ``Scenario``, ``c<i>`` in a cluster fabric.
CLIENT_HOST = re.compile(r"^(client|c\d+)$")


class SetupDone(BaseException):
    """Raised at the first client event in ``setup`` mode (a
    ``BaseException``, so no ``except Exception`` in the program stops it)."""


def _watch_first_client_event(stop: bool) -> Dict[str, float]:
    """Mark the first process spawned on a client host, then unhook."""
    from repro.host.host import Host

    mark: Dict[str, float] = {}
    original = Host.spawn

    def spawn(host: Any, generator: Any, label: str = "") -> Any:
        if CLIENT_HOST.match(host.name):
            mark["wall"] = time.monotonic()
            mark["cpu"] = time.process_time()
            Host.spawn = original
            if stop:
                generator.close()
                raise SetupDone()
        return original(host, generator, label)

    Host.spawn = spawn
    return mark


#: ``--added-cost busy``: empty loop turns per datagram received.
BUSY_TURNS = 1000
#: ``--added-cost memory``: bytes kept per datagram received, and earlier
#: blocks read back, so both the footprint and the working set grow.
BALLAST_BYTES = 512
BALLAST_READS = 32
#: The added cost is on in every other slice of this much wall time, so
#: the probes with and without it see the same host.
COST_SLICE_S = 0.05


def cost_on(now: float) -> bool:
    return int(now / COST_SLICE_S) % 2 == 1


def add_cost(kind: str) -> None:
    """Wrap ``IPLayer.receive`` with a cost of known size, on in every
    other slice."""
    from repro.ip.layer import IPLayer

    receive = IPLayer.receive
    if kind == "busy":

        def costly(*args: Any, **kwargs: Any) -> Any:
            if cost_on(time.monotonic()):
                for _ in range(BUSY_TURNS):
                    pass
            return receive(*args, **kwargs)

    else:
        ballast: List[bytearray] = []

        def costly(*args: Any, **kwargs: Any) -> Any:
            if cost_on(time.monotonic()):
                ballast.append(bytearray(BALLAST_BYTES))
                n = len(ballast)
                for k in range(1, BALLAST_READS + 1):
                    ballast[(n * 7919 * k) % n][0] ^= 1
            return receive(*args, **kwargs)

    IPLayer.receive = costly


def probe_cost_ratio(pacer: pace.Pacer, start: float, end: float) -> float:
    """Mean probe duration in the slices with the added cost over that in
    the slices without.  A probe in the first ``INTERVAL_S`` of a slice
    follows program work of the slice before, and is left out."""
    sums = {True: [0.0, 0], False: [0.0, 0]}
    for began, ended in zip(pacer.starts, pacer.ends):
        if start <= began and ended <= end and began % COST_SLICE_S >= pace.INTERVAL_S:
            total = sums[cost_on(began)]
            total[0] += ended - began
            total[1] += 1
    return (sums[True][0] / sums[True][1]) / (sums[False][0] / sums[False][1])


def _capture_simulators() -> List[Any]:
    from repro.sim.simulator import Simulator

    sims: List[Any] = []
    original = Simulator.__init__

    def init(sim: Any, *args: Any, **kwargs: Any) -> None:
        original(sim, *args, **kwargs)
        sims.append(sim)

    Simulator.__init__ = init
    return sims


def _registry(sims: List[Any]) -> Dict[str, float]:
    """Every registry counter and gauge, summed over the simulators."""
    totals: Dict[str, float] = {}
    for sim in sims:
        for name, value in sim.metrics.snapshot().items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value
    return totals


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "plain", "traced", "count"], required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--sabotage-arbiter", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--added-cost", choices=["busy", "memory"], default=None)
    args = parser.parse_args(argv)

    kwargs: Dict[str, Any] = {"sample_shadows": args.mode == "count"}
    if args.sabotage_arbiter:
        kwargs["arbiter_sabotaged"] = True
    run: Callable[[], Any] = lambda: workloads.WORKLOADS[args.workload](args.seed, **kwargs)  # noqa: E731
    # Started before the program is imported, so set-up is paced too.
    pacer = pace.Pacer().start() if args.mode in ("setup", "plain") else None
    sims = _capture_simulators()
    mark = _watch_first_client_event(stop=args.mode == "setup")
    if args.added_cost:
        add_cost(args.added_cost)
    tracer = layers.SpanTracer().install() if args.mode == "traced" else None
    out: Dict[str, Any] = {"mode": args.mode, "seed": args.seed}
    began = time.perf_counter()
    try:
        if args.mode == "count":
            outcome, per_layer, per_function, entry_calls = layers.count_calls(run)
            out.update(calls=per_layer, functions=per_function, entry_calls=entry_calls)
        elif tracer is not None:
            outcome = tracer.run_root(run)
        else:
            outcome = run()
    except SetupDone:
        pacer.stop()
        out["setup_s"] = mark["wall"] - args.t0
        out["setup_ref_s"] = pacer.scaled(args.t0, mark["wall"], out["setup_s"])
        print(json.dumps(out))
        return 0
    ended = time.perf_counter()
    wall_end, cpu_end = time.monotonic(), time.process_time()
    if pacer is not None:
        pacer.stop()
    if "wall" not in mark:
        raise RuntimeError(f"{args.workload}: no client event was ever scheduled")
    out.update(
        setup_s=mark["wall"] - args.t0,
        wall_s=wall_end - mark["wall"],
        cpu_s=cpu_end - mark["cpu"],
        call_s=ended - began,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=outcome.attempted,
        failed=outcome.failed,
        failures=outcome.failures[:10],
        takeover_ms=outcome.takeover_ms,
        completion_s=outcome.completion_s,
        facts=outcome.facts,
        events=sum(sim.events_executed for sim in sims),
        registry=_registry(sims),
    )
    if pacer is not None:
        out.update(
            setup_ref_s=pacer.scaled(args.t0, mark["wall"], out["setup_s"]),
            wall_ref_s=pacer.scaled(mark["wall"], wall_end, out["wall_s"]),
            cpu_ref_s=pacer.scaled(mark["wall"], wall_end, out["cpu_s"]),
            slowdown=pacer.window(mark["wall"], wall_end)[1],
        )
        if args.added_cost:
            out["probe_cost_ratio"] = probe_cost_ratio(pacer, mark["wall"], wall_end)
    if tracer is not None:
        out.update(
            self_s=tracer.self_s,
            takeover_host_s=tracer.takeover_s,
            spans=tracer.span_count,
            open_spans=tracer.open_spans,
            entry_calls=tracer.entry_calls(),
            tap_calls=tracer.calls("tap"),
            channel_calls=tracer.calls("channel"),
        )
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
