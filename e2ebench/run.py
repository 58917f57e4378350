"""ST-TCP end-to-end benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload churn|bulk|cluster --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, measured with no
instrumentation: a warm-up, then ``S`` seconds' worth of repetitions (a
count fixed per workload, so a seed always measures the same work) with
``SETUP_PROBES`` set-up-only processes spread between them, each in a
fresh process.
``--trace 1`` prints the per-layer metrics of repetition 0: one plain
run, one traced run (spans at each layer's entry points) and one
counting run (cProfile call counts).  The last line of standard output
is the JSON result; the full record, with provenance and every child's
raw output, goes to ``e2ebench/out/``.  The exit code is 0 only when
every op verified.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Set-up-only processes per ``--trace 0`` run (``setup_s`` is the median
#: over them and the measured repetitions).
SETUP_PROBES = 7

#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0

#: Largest share of a traced run's wall time its layer self times may
#: leave unaccounted (or double-count).  The self times add up to the
#: root span by construction, so this only guards the bookkeeping;
#: :func:`trace_gaps` is the check that finds calls the spans miss.
TRACE_CONSISTENCY = 0.01

#: Switches that would change what is measured; never passed to children.
STRIPPED_ENV = (
    "REPRO_DATAPATH",
    "REPRO_SCHED_BACKEND",
    "REPRO_SCALE",
    "REPRO_PAPER_SCALE",
    "REPRO_STORE",
    "REPRO_FLIGHT_DUMP",
)

OP_UNIT = {"churn": "flow", "bulk": "MiB", "cluster": "exchange"}

# (name, unit) of every metric, in BENCHMARK.json order.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("verified_share", "ratio"),
    ("sim_takeover_ms", "ms"),
    ("sim_completion_s", "s"),
)


class BenchError(Exception):
    """A child failed to produce a result: no result is printed."""


#: Linux ``personality`` flag that turns off address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def child_env(hash_seed: Optional[str] = None) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def pin_addresses() -> None:
    """Pre-exec hook of every child: no address-space randomisation.

    The program recycles an address-dependent number of event handles
    (README, "Findings"); with fixed addresses every count of a seed
    repeats exactly.  Where the kernel refuses, the child runs as is.
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def run_child(
    workload: str,
    seed: int,
    mode: str,
    extra: Tuple[str, ...] = (),
    hash_seed: Optional[str] = None,
    fixed_addresses: bool = True,
) -> Dict[str, Any]:
    """Run ``child.py`` once and return its parsed result line."""
    t0 = time.monotonic()
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--t0", repr(t0), *extra,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(hash_seed), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
            preexec_fn=pin_addresses if fixed_addresses else None,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}/{mode} seed {seed}: timed out") from exc
    if done.returncode != 0:
        raise BenchError(
            f"{workload}/{mode} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> Dict[str, Any]:
    """What was measured, where: recorded with every result."""
    commit = "unknown"
    # In a plain source checkout git would search the parent directories;
    # there the tree hash identifies the code.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha1": tree.hexdigest(),
        "seed": seed,
    }


# ------------------------------------------------------------------ trace 0
Children = List[Dict[str, Any]]


def end_to_end(
    workload: str, seed: int, seconds: float, extra: Tuple[str, ...]
) -> Tuple[Dict[str, float], Children]:
    run_child(workload, seed, "setup", extra)  # warm-up: bytecode caches
    count = workloads.repetitions(workload, seconds)
    probes: Children = []
    reps: Children = []
    for i in range(count):
        # Spread the probes over the run, so one burst of host load
        # cannot move most of them.
        due = SETUP_PROBES * (i + 1) // count - SETUP_PROBES * i // count
        probes += [run_child(workload, seed, "setup", extra) for _ in range(due)]
        reps.append(run_child(workload, workloads.repetition_seed(seed, i), "plain", extra))
    median = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # Host times are reported at the reference speed (see pace.py); the
    # unscaled ones stay in the record and the text output.
    metrics = {
        "wall_s": median("wall_ref_s"),
        "cpu_s": median("cpu_ref_s"),
        "ops_per_s": statistics.median((r["attempted"] - r["failed"]) / r["wall_ref_s"] for r in reps),
        "setup_s": statistics.median(r["setup_ref_s"] for r in probes + reps),
        "peak_rss_mb": median("peak_rss_mb"),
        "verified_share": (attempted - failed) / attempted,
        # Simulated figures are exact for each repetition's seed; their
        # mean is the steadier summary of the repetitions' inputs.
        "sim_takeover_ms": statistics.fmean(r["takeover_ms"] for r in reps),
        "sim_completion_s": statistics.fmean(r["completion_s"] for r in reps),
    }
    return metrics, probes + reps


# ------------------------------------------------------------------ trace 1
def _registry_sum(registry: Dict[str, float], suffix: str) -> float:
    return sum(v for k, v in registry.items() if k.endswith(suffix))


def unaccounted_share(traced: Dict[str, Any]) -> float:
    """Share of a traced run's wall time its layer self times miss or
    double-count."""
    return abs(traced["call_s"] - sum(traced["self_s"].values())) / traced["call_s"]


def trace_gaps(traced: Dict[str, Any], counted: Dict[str, Any]) -> List[str]:
    """Where the traced pass missed calls: spans left open at the end, and
    entry points whose span count differs from the counting pass's calls
    of the same function (a bound method taken before the wrappers were
    installed, say, runs unseen and its time is charged to its caller)."""
    gaps = []
    if traced["open_spans"]:
        gaps.append(f"{traced['open_spans']} span(s) still open when the traced run ended")
    for name, calls in counted["entry_calls"].items():
        spans = traced["entry_calls"].get(name, 0)
        if spans != calls:
            gaps.append(f"{name}: {spans} spans but {calls} calls in the counting pass")
    return gaps


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any], counted: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one seed from its three passes."""
    calls, fn = counted["calls"], counted["functions"]
    events = counted["events"]
    registry, facts = counted["registry"], counted["facts"]
    self_s = traced["self_s"]
    per_event = lambda layer: calls[layer] / events  # noqa: E731
    scheduled = sum(fn.get(f"sim/simulator.py:{name}", 0) for name in ("schedule", "call_later", "schedule_at"))
    nic_rx = fn.get("net/nic.py:receive_frame", 0)
    seg_in = fn.get("tcp/tcb.py:on_segment", 0)
    seg_out = fn.get("tcp/layer.py:send_segment", 0)
    metrics: Dict[str, Tuple[float, str]] = {
        "sim.events": (events, "count"),
        "sim.scheduled": (scheduled, "count"),
        "sim.wasted_share": ((scheduled - events) / scheduled, "ratio"),
        "sim.calls_per_event": (per_event("sim"), "calls/event"),
        "sim.self_s": (self_s.get("sim", 0.0), "s"),
        "net.frames": (fn.get("net/nic.py:transmit", 0), "count"),
        "net.rx_frames": (fn.get("net/nic.py:_deliver", 0), "count"),
        "net.rx_accept_share": (fn.get("net/nic.py:_deliver", 0) / nic_rx if nic_rx else 0.0, "ratio"),
        "net.calls_per_event": (per_event("net"), "calls/event"),
        "net.self_s": (self_s.get("net", 0.0), "s"),
        "ip.datagrams": (fn.get("ip/layer.py:send", 0) + fn.get("ip/layer.py:receive", 0), "count"),
        "ip.drops": (sum(v for k, v in registry.items() if ".ip.dropped_" in k), "count"),
        "ip.calls_per_event": (per_event("ip"), "calls/event"),
        "ip.self_s": (self_s.get("ip", 0.0), "s"),
        "tcp.segments_in": (seg_in, "count"),
        "tcp.segments_out": (seg_out, "count"),
        "tcp.calls_per_segment": (calls["tcp"] / max(1, seg_in + seg_out), "calls/segment"),
        "tcp.conn_peak": (
            max((v for k, v in registry.items() if k.endswith(".tcp.connections_peak")), default=0),
            "count",
        ),
        "tcp.tcbs_reaped": (_registry_sum(registry, ".tcp.tcbs_reaped"), "count"),
        "tcp.syns_deflected": (_registry_sum(registry, ".tcp.syns_deflected"), "count"),
        "tcp.self_s": (self_s.get("tcp", 0.0), "s"),
        "sttcp.tap_datagrams": (traced["tap_calls"], "count"),
        "sttcp.channel_msgs": (traced["channel_calls"], "count"),
        "sttcp.retx_bytes_recovered": (_registry_sum(registry, ".sttcp.retx_bytes_recovered"), "B"),
        "sttcp.bytes_per_tcb": (facts.get("bytes_per_tcb", 0.0), "B"),
        "sttcp.takeover_host_s": (traced["takeover_host_s"], "s"),
        "sttcp.calls_per_event": (per_event("sttcp"), "calls/event"),
        "sttcp.self_s": (self_s.get("sttcp", 0.0), "s"),
        "util.calls_per_event": (per_event("util"), "calls/event"),
        "host.calls_per_event": (per_event("host"), "calls/event"),
        "apps.calls_per_event": (per_event("apps"), "calls/event"),
        "apps.self_s": (self_s.get("apps", 0.0), "s"),
        "cluster.elections": (facts.get("elections", 0), "count"),
        "cluster.fences": (facts.get("fences", 0), "count"),
        "cluster.election_sync_ms": (facts.get("election_sync_ms", 0.0), "ms"),
        "cluster.self_s": (self_s.get("cluster", 0.0), "s"),
        "obs.trace_records": (fn.get("sim/trace.py:emit", 0), "count"),
        "obs.tsdb_samples": (fn.get("obs/timeseries.py:sample", 0), "count"),
        "obs.calls_per_event": (per_event("obs"), "calls/event"),
        "obs.self_s": (self_s.get("obs", 0.0), "s"),
        "harness.sim_run_calls": (fn.get("sim/simulator.py:run", 0), "count"),
        "harness.self_s": (self_s.get("harness", 0.0), "s"),
        "total.calls_per_event": (
            sum(n for layer, n in calls.items() if layer != "other") / events,
            "calls/event",
        ),
        "trace.overhead": (traced["wall_s"] / plain["wall_s"], "x"),
        "trace.unaccounted_share": (unaccounted_share(traced), "ratio"),
    }
    return metrics


def layered(
    workload: str, seed: int, extra: Tuple[str, ...]
) -> Tuple[Dict[str, Tuple[float, str]], Children]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.bin"
    plain = run_child(workload, seed, "plain", extra)
    traced = run_child(workload, seed, "traced", extra + ("--spans-out", str(spans)))
    counted = run_child(workload, seed, "count", extra)
    return per_layer(plain, traced, counted), [plain, traced, counted]


# ------------------------------------------------------------------ main
def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--sabotage-arbiter",
        action="store_true",
        help="self-test: run cluster with the arbiter's actuator disabled "
        "(the program's arbiter_sabotaged hook); the run must fail",
    )
    args = parser.parse_args(argv)
    # Turn a polite kill into an exception, so the running child is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.sabotage_arbiter and args.workload != "cluster":
        parser.error("--sabotage-arbiter applies to the cluster workload only")
    extra = ("--sabotage-arbiter",) if args.sabotage_arbiter else ()

    try:
        if args.trace:
            layer_metrics, children = layered(args.workload, args.seed, extra)
            metrics = {name: value for name, (value, _unit) in layer_metrics.items()}
            units = {name: unit for name, (_value, unit) in layer_metrics.items()}
        else:
            metrics, children = end_to_end(args.workload, args.seed, args.seconds, extra)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1

    measured = [c for c in children if c["mode"] != "setup"]
    attempted = sum(c["attempted"] for c in measured)
    failed = sum(c["failed"] for c in measured)
    failures = [f for c in measured for f in c["failures"]]
    correct = failed == 0 and attempted > 0
    if args.trace:
        gaps = trace_gaps(children[1], children[2])
        if metrics["trace.unaccounted_share"] > TRACE_CONSISTENCY:
            gaps.append(
                f"layer self times leave {metrics['trace.unaccounted_share']:.2%} of the "
                f"traced wall time unaccounted (limit {TRACE_CONSISTENCY:.0%})"
            )
        failures += [f"trace: {gap}" for gap in gaps]
        correct = correct and not gaps

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "op": OP_UNIT[args.workload],
        "provenance": provenance(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "metrics": metrics,
        "children": children,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    prov = record["provenance"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} python={prov['python']} "
        f"nproc={prov['nproc']} commit={prov['commit']} src_sha1={prov['src_sha1'][:12]}"
    )
    print(f"# ops: {attempted} {OP_UNIT[args.workload]}s attempted, {failed} failed "
          f"(fail_rate {record['fail_rate']:.4f})")
    for failure in failures[:20]:
        print(f"# FAILED: {failure}")
    if not args.trace:
        reps = [c for c in children if c["mode"] == "plain"]
        unscaled = {key: statistics.median(c[key] for c in reps) for key in ("wall_s", "cpu_s", "slowdown")}
        unscaled["setup_s"] = statistics.median(c["setup_s"] for c in children)
        print("# unscaled host times (medians): " + ", ".join(
            f"{key} {value:.4f}" for key, value in unscaled.items()))
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
