"""Self-checks of the benchmark itself (not run by ``run.py``).

    python3 e2ebench/selfcheck.py

1. **Sabotage**: the ``cluster`` workload with the program's
   ``arbiter_sabotaged`` mutation hook must report failed ops and make
   ``run.py`` exit non-zero.
2. **Deterministic counts**: the counting pass of each workload, run three
   times as the benchmark runs it (``PYTHONHASHSEED`` 0, 0 and 1), must
   give identical call counts, events, registry counters and ``sim_*``
   figures.  A fourth pass with address randomisation on lists every
   count that then moves as a finding (reported, not failed).
3. **Trace self-consistency**: a traced run must leave no span open, and
   each entry point's span count must equal the counting pass's calls of
   that function (``run.trace_gaps``).  Its layer self times must sum to
   its wall time within ``run.TRACE_CONSISTENCY``, which holds by
   construction.  Its outcome (events, registry, ops, ``sim_*`` figures)
   must equal that of a plain pass, which runs the speed probe: neither
   instrument may change what the program computes.
4. **Speed probe**: ``churn``, the workload with the largest footprint,
   runs once with a busy loop and once with a growing, scattered memory
   footprint added at every IP datagram received in every other slice of
   wall time (``child.py --added-cost``).  The probe must not run slower
   in the slices with the cost by more than ``PROBE_TOLERANCE``: that
   would divide part of the program's own slow-down away from the scaled
   host times.
5. **Cross-checks**: ``churn``'s takeover at seed 100 must match the
   takeover column of ``python -m repro scale --rungs 2000 --no-store``,
   and the failure-free bulk completion time must still match
   ``workloads.BULK_FAILURE_FREE_S`` (the crash instant derives from it).

Exit code 0 when every check passes; findings do not fail it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from typing import Any, Dict, List, Tuple

import run
import workloads

CLI_SEED = 100  # ``repro scale``'s default --seed
SABOTAGE_SEED = 23  # the shipped storm seed
#: The failure-free bulk time may drift this much before the crash
#: instant has to be re-derived.
BULK_FF_TOLERANCE = 0.01
#: How much an added cost may slow the speed probe before the check
#: fails; on the reference host one run's ratio scatters by about 2%.
PROBE_TOLERANCE = 0.05


def check_sabotage() -> List[str]:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "cluster",
         "--seed", str(SABOTAGE_SEED), "--seconds", "1", "--trace", "0",
         "--sabotage-arbiter"],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True,
        timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        return [f"sabotage: no result printed (exit {done.returncode}): {done.stderr[-500:]}"]
    result = json.loads(lines[-1])
    fail_rate = result["failed"] / result["attempted"]
    print(f"sabotage: exit {done.returncode}, fail_rate {fail_rate:.3f}, correct={result['correct']}")
    failures = []
    if done.returncode == 0:
        failures.append("sabotage: run.py exited 0 with a sabotaged arbiter")
    if not fail_rate > 0:
        failures.append("sabotage: fail_rate is 0 with a sabotaged arbiter")
    return failures


def _flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), inner, out)
    else:
        out[prefix] = value


DETERMINISTIC_KEYS = (
    "calls", "functions", "entry_calls", "events", "registry", "facts", "attempted", "failed",
    "takeover_ms", "completion_s",
)


#: What the program computed, as opposed to how it was observed: the same
#: in every pass of a seed, instrumented or not.
OUTCOME_KEYS = ("events", "registry", "attempted", "failed", "takeover_ms", "completion_s")


def _counts(result: Dict[str, Any], keys: Tuple[str, ...] = DETERMINISTIC_KEYS) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key in keys:
        _flatten(key, result[key], out)
    return out


def _differences(passes: List[Dict[str, Any]]) -> List[str]:
    return [
        f"{name}: {[p.get(name) for p in passes]}"
        for name in sorted(set().union(*passes))
        if len({repr(p.get(name)) for p in passes}) > 1
    ]


def check_counts(workload: str) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """Failures: counts that differ between three passes as the benchmark
    runs them (fixed addresses), under two hash seeds.  Findings: counts
    that move once address randomisation is back on.  Also returns the
    first pass's raw result."""
    raw = [
        run.run_child(workload, CLI_SEED, "count", hash_seed=hash_seed)
        for hash_seed in ("0", "0", "1")
    ]
    pinned = [_counts(result) for result in raw]
    randomised = _counts(run.run_child(workload, CLI_SEED, "count", fixed_addresses=False))
    failures = [f"counts/{workload}: {d}" for d in _differences(pinned)]
    findings = [
        f"counts/{workload} with address randomisation: {d}"
        for d in _differences([pinned[0], randomised])
    ]
    calls = sum(v for k, v in pinned[0].items() if k.startswith("calls."))
    print(f"counts/{workload}: {len(pinned[0])} counts, {calls} calls over "
          f"{pinned[0]['events']} events; {len(failures)} differ across 3 pinned passes, "
          f"{len(findings)} move with address randomisation")
    return failures, findings, raw[0]


def check_trace(workload: str, counted: Dict[str, Any]) -> List[str]:
    """The spans see every call of every entry point the counting pass
    (``counted``, same seed) saw; self times sum to the traced wall time;
    and neither the spans nor the speed probe (plain pass only) change
    what the program computes."""
    traced = run.run_child(workload, CLI_SEED, "traced")
    gaps = run.trace_gaps(traced, counted)
    share = run.unaccounted_share(traced)
    print(f"trace/{workload}: {sum(traced['entry_calls'].values())} entry-point spans, "
          f"{len(gaps)} gaps against the counting pass; self times leave {share:.2e} "
          f"of {traced['call_s']:.3f} s unaccounted")
    failures = [f"trace/{workload}: {gap}" for gap in gaps]
    if share > run.TRACE_CONSISTENCY:
        failures.append(f"trace/{workload}: unaccounted share {share:.4f} > {run.TRACE_CONSISTENCY}")
    plain = run.run_child(workload, CLI_SEED, "plain")
    moved = _differences([_counts(traced, OUTCOME_KEYS), _counts(plain, OUTCOME_KEYS)])
    print(f"neutral/{workload}: {len(moved)} outcome figures differ between the traced "
          f"and the paced plain pass")
    failures += [f"neutral/{workload}: {d}" for d in moved]
    return failures


def check_probe(workload: str = "churn") -> List[str]:
    """An added cost slows the program, not the speed probe.  A scaled
    time is the unscaled one over the probe's slowdown, so the probe's
    duration with the cost over that without is exactly the factor by
    which a scaled figure would under-report the cost."""
    failures = []
    for kind in ("busy", "memory"):
        result = run.run_child(workload, CLI_SEED, "plain", ("--added-cost", kind))
        ratio = result["probe_cost_ratio"]
        print(f"probe/{workload} +{kind}: probe x{ratio:.4f} with the cost on "
              f"(wall {result['wall_s']:.2f} s, peak RSS {result['peak_rss_mb']:.0f} MiB)")
        if ratio > 1 + PROBE_TOLERANCE:
            failures.append(f"probe/{workload}: an added {kind} cost slowed the probe x{ratio:.4f}")
    return failures


def check_churn_takeover() -> List[str]:
    env = run.child_env()
    env["PYTHONPATH"] = str(run.ROOT / "src")
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "scale", "--rungs", "2000", "--no-store"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    row = next((line for line in cli.stdout.splitlines() if re.match(r"\s*2000\s", line)), None)
    if row is None:
        return [f"churn cross-check: no 2000 row in the CLI output: {cli.stdout[-500:]}"]
    cells = row.split()
    takeover_cli = cells[4]  # conns, opens/s, converge, detect, takeover, ...
    ours = run.run_child("churn", CLI_SEED, "plain")["takeover_ms"]
    print(f"churn cross-check: CLI takeover {takeover_cli} ms, benchmark {ours:.1f} ms")
    if f"{ours:.1f}" != takeover_cli:
        return [f"churn cross-check: benchmark {ours:.1f} ms != CLI {takeover_cli} ms"]
    return []


def check_bulk_failure_free() -> List[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    outcome = workloads.run_bulk(0, crash=False)
    measured = outcome.completion_s - workloads.BULK_CLIENT_START
    drift = abs(measured - workloads.BULK_FAILURE_FREE_S) / workloads.BULK_FAILURE_FREE_S
    print(f"bulk failure-free: {measured:.6f} s (constant {workloads.BULK_FAILURE_FREE_S} s, "
          f"drift {drift:.2%}, failed {outcome.failed})")
    failures = []
    if outcome.failed:
        failures.append(f"bulk failure-free run failed: {outcome.failures}")
    if drift > BULK_FF_TOLERANCE:
        failures.append(f"bulk failure-free time drifted {drift:.2%}: re-derive BULK_FAILURE_FREE_S")
    return failures


def main(argv: List[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    failures: List[str] = []
    findings: List[str] = []
    failures += check_sabotage()
    for workload in sorted(workloads.WORKLOADS):
        failed, found, counted = check_counts(workload)
        failures += failed
        findings += found
        failures += check_trace(workload, counted)
    failures += check_probe()
    failures += check_churn_takeover()
    failures += check_bulk_failure_free()
    for finding in findings:
        print(f"FINDING: {finding}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"selfcheck: {len(failures)} checks failed, {len(findings)} findings")
    return 0 if not failures else 1


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main(sys.argv[1:]))
