"""The benchmark's three workloads, driven from outside the program.

Each workload builds its inputs from a seed, runs the program through its
public entry points (the ``scale`` spec, ``Scenario`` + ``run_client``,
``ClusterRun``), and folds the program's own checks into an
:class:`Outcome`: ops attempted and failed, and the simulated-time
fidelity figures.  Nothing here changes what the program computes.

* ``churn`` — the ``repro scale`` 2,000-connection rung as shipped.
* ``bulk`` — a 20 MiB download beside a 20 MiB upload on one ST-TCP pair
  (``PAPER_TESTBED`` hub, 50 ms heartbeats), primary crashed mid-run.
* ``cluster`` — the shipped ``storm`` scenario with 2,000 echo exchanges
  per service.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List

import layers

#: Stride between the seeds of a run's repetitions.  Repetition 0 uses
#: the benchmark seed itself, so ``--seed 100`` reproduces the CLI's
#: ``repro scale --rungs 2000`` rung.
SEED_STRIDE = 100_003

MIB = 1024 * 1024

#: ``scale`` and cluster records keep at most this many failure strings.
RECORD_FAILURE_CAP = 10

# churn ------------------------------------------------------------------------
CHURN_CONNECTIONS = 2000

# bulk -------------------------------------------------------------------------
BULK_SIZE = 20 * MIB
BULK_HB = 0.050
#: Failure-detector jitter, as in the shipped cluster scenarios; the
#: seed draws the jitter, and with it the takeover instant.
BULK_HB_JITTER = 0.25
BULK_CLIENT_START = 0.1
#: Failure-free completion time of the bulk pair (both transfers, from
#: client start), checked by ``selfcheck.py``; the crash lands at half of
#: it, as in the paper's §6.2.
BULK_FAILURE_FREE_S = 14.220828
BULK_CRASH_AT = BULK_CLIENT_START + 0.5 * BULK_FAILURE_FREE_S
BULK_DEADLINE = 600.0

# cluster ----------------------------------------------------------------------
CLUSTER_SCENARIO = "storm"
CLUSTER_EXCHANGES = 2000


@dataclasses.dataclass
class Outcome:
    """One workload run, judged by the program's own checks."""

    attempted: int
    failed: int
    failures: List[str]
    takeover_ms: float
    completion_s: float
    #: Deterministic per-layer facts read from the run record.
    facts: Dict[str, float] = dataclasses.field(default_factory=dict)


def repetition_seed(seed: int, repetition: int) -> int:
    return seed + SEED_STRIDE * repetition


def sample_shadows_at_crash(
    primary: Any, shadows: Callable[[], List[Any]], facts: Dict[str, float]
) -> None:
    """Record the backups' mean per-TCB footprint (the ``scale`` record's
    ``bytes_per_tcb`` probe) the instant the primary crashes, without
    scheduling an event of the benchmark's own.  Only the counting pass
    asks for it, and its hook is suspended while the sample is taken, so
    no pass counts or times the probe as program work."""
    from repro.harness.experiments.churn import deep_size

    crash = primary.crash

    def sampling_crash() -> None:
        with layers.uncounted():
            tcbs = shadows()
            facts["bytes_per_tcb"] = sum(deep_size(t) for t in tcbs) / len(tcbs) if tcbs else 0.0
        crash()

    primary.crash = sampling_crash


# ---------------------------------------------------------------- churn
def _timed(sim: Any, generator: Any, ends: List[float]) -> Any:
    result = yield from generator
    ends.append(sim.now)
    return result


def run_churn(seed: int, sample_shadows: bool = False) -> Outcome:
    """``sample_shadows`` is accepted for symmetry: the ``scale`` record
    already carries ``bytes_per_tcb``."""
    import repro.harness.experiments  # noqa: F401  (registers the specs)
    from repro.harness.scenario import Scenario
    from repro.harness.spec import get_spec

    spec = get_spec("scale")
    cell = spec.build_cells(ladder=(CHURN_CONNECTIONS,), base_seed=seed)[0]
    # The record times the rung at its poll loop's grid; the instant the
    # last client process (a holder's post-takeover flow) ends is exact.
    ends: List[float] = []
    start_service = Scenario.start_service

    def start_and_time_clients(scenario: Any, *args: Any) -> None:
        client = scenario.client

        def spawn(generator: Any, label: str = "") -> Any:
            return type(client).spawn(client, _timed(client.sim, generator, ends), label)

        client.spawn = spawn
        start_service(scenario, *args)

    Scenario.start_service = start_and_time_clients
    try:
        record = spec.run_cell(cell)
    finally:
        Scenario.start_service = start_service
    params = cell.params
    holders = int(record["connections"])
    churners = int(holders * params["churn_fraction"])
    churn_flows = int(params["churn_flows"])
    # Each holder runs an initial and a post-takeover flow.
    attempted = 2 * holders + churners * churn_flows
    failures = list(record["failures"])
    if len(failures) >= RECORD_FAILURE_CAP:
        # The record truncates its failure list: count every op failed
        # rather than under-report.
        failed = attempted
    else:
        failed = 0
        for entry in failures:
            actor, _, what = entry.partition(": ")
            if what.startswith("corrupt"):
                failed += 1
            else:  # an exception ends the actor: all its ops are suspect
                failed += 2 if actor.startswith("holder") else churn_flows
        if not record["verified"] and failed == 0:
            failed = attempted
        failed += record["degraded"]
        failed += record["leftover_client_tcbs"] + record["leftover_backup_tcbs"]
        failed += record["leftover_shadows"]
    return Outcome(
        attempted=attempted,
        failed=min(attempted, failed),
        failures=failures,
        takeover_ms=record["takeover_latency"] * 1e3,
        completion_s=max(ends) if ends else float("nan"),
        facts={"bytes_per_tcb": record["bytes_per_tcb"]},
    )


# ---------------------------------------------------------------- bulk
def run_bulk(seed: int, crash: bool = True, sample_shadows: bool = False) -> Outcome:
    from repro.apps.client import run_client
    from repro.apps.workload import bulk_workload, upload_workload
    from repro.harness.calibrate import PAPER_TESTBED
    from repro.harness.scenario import Scenario
    from repro.sttcp.config import STTCPConfig

    scenario = Scenario(
        profile=PAPER_TESTBED,
        topology="hub",
        sttcp=STTCPConfig(hb_interval=BULK_HB, hb_jitter=BULK_HB_JITTER),
        seed=seed,
    )
    sim = scenario.sim
    scenario.start_service()
    facts: Dict[str, float] = {}
    if crash:
        if sample_shadows:
            backup = scenario.pair.backup_engine
            sample_shadows_at_crash(scenario.primary, lambda: backup.shadow_connections, facts)
        scenario.crash_primary_at(BULK_CRASH_AT)
    workloads = [bulk_workload(BULK_SIZE), upload_workload(BULK_SIZE)]
    processes: List[Any] = []

    def launch() -> None:
        for workload in workloads:
            processes.append(run_client(scenario.client, scenario.service_addr, workload))

    sim.schedule_at(BULK_CLIENT_START, launch)
    sim.run(until=BULK_CLIENT_START)
    failures: List[str] = []
    failed = 0
    ends: List[float] = []
    for process in processes:
        result = sim.run_until_complete(process, deadline=BULK_DEADLINE)
        ends.append(result.end_time)
        if result.error is not None or not result.verified:
            failures.append(f"{result.workload.name}: {result.error or 'corrupt stream'}")
            failed += BULK_SIZE // MIB
    metrics = scenario.pair.failover_metrics()
    takeover = metrics.takeover_latency if crash else None
    if crash and takeover is None:
        failures.append("backup never took over")
        failed = 2 * BULK_SIZE // MIB
    failed += metrics.degraded_connections * (BULK_SIZE // MIB)
    return Outcome(
        attempted=2 * BULK_SIZE // MIB,
        failed=min(2 * BULK_SIZE // MIB, failed),
        failures=failures,
        takeover_ms=(takeover or 0.0) * 1e3,
        completion_s=max(ends) if ends else float("nan"),
        facts=facts,
    )


# ---------------------------------------------------------------- cluster
def cluster_spec(seed: int, arbiter_sabotaged: bool = False) -> Any:
    """The shipped scenario, parsed, with the exchange count raised; the
    JSON file is not edited.  ``arbiter_sabotaged`` is the program's own
    mutation hook, used by the self-test."""
    from repro.harness.experiments.cluster import resolve_scenario

    spec = resolve_scenario(CLUSTER_SCENARIO)
    return dataclasses.replace(
        spec,
        exchanges=CLUSTER_EXCHANGES,
        seed=seed,
        arbiter_sabotaged=arbiter_sabotaged or spec.arbiter_sabotaged,
    )


def run_cluster_workload(
    seed: int, arbiter_sabotaged: bool = False, sample_shadows: bool = False
) -> Outcome:
    from repro.cluster.run import ClusterRun

    spec = cluster_spec(seed, arbiter_sabotaged)
    run = ClusterRun(spec)
    facts: Dict[str, float] = {}
    if sample_shadows:
        sample_shadows_at_crash(
            run.fabric.services[spec.crash_primary].primary,
            lambda: [
                tcb
                for node in run.fabric.backups
                for name in node.manager.shadowed_names()
                for tcb in node.manager.engine(name).shadow_connections
            ],
            facts,
        )
    record = run.execute()
    per_pair = spec.exchanges
    attempted = per_pair * spec.primaries
    failed = 0
    for pair in record["pairs"]:
        if not pair["completed"] or not pair["verified"]:
            failed += per_pair
        else:
            failed += per_pair - pair["exchanges"]
    if len(record["client_failures"]) >= RECORD_FAILURE_CAP:
        failed = attempted
    failures = list(record["client_failures"])
    red = [name for name, held in record["invariants"].items()
           if isinstance(held, bool) and not held]
    arbiter = record["arbiter"]
    unfenced = arbiter["fence_requests"] - arbiter["requests_coalesced"] - arbiter["cuts_performed"]
    if unfenced:
        # The takeover went ahead on a fence that never cut power: the
        # STONITH guarantee behind "no dual primary" did not hold.
        red.append(f"{unfenced} fence(s) acknowledged but never actuated")
    if red or not record["ok"]:
        # A red fabric invariant (dual primary, unbounded takeover) taints
        # every exchange of the run.
        failures.append(f"invariants red: {', '.join(red) or 'ok=false'}")
        failed = attempted
    ends = [result.end_time for result in run.results.values()]
    elections = record["elections"]
    syncs = [e["sync_latency"] for e in elections if e["sync_latency"] is not None]
    facts.update(
        elections=len(elections),
        fences=record["arbiter"]["cuts_performed"],
        election_sync_ms=max(syncs) * 1e3 if syncs else 0.0,
    )
    return Outcome(
        attempted=attempted,
        failed=min(attempted, failed),
        failures=failures,
        takeover_ms=record["takeover_latency"] * 1e3,
        completion_s=max(ends) if ends else float("nan"),
        facts=facts,
    )


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "churn": run_churn,
    "bulk": run_bulk,
    "cluster": run_cluster_workload,
}

#: Host seconds one repetition takes on the reference machine (a 2-vCPU
#: x86-64 container, CPython 3.11); ``--seconds`` is turned into a fixed
#: repetition count with these, so a seed always measures the same work.
NOMINAL_REPETITION_S = {"churn": 12.0, "bulk": 4.6, "cluster": 4.5}


def repetitions(workload: str, seconds: float) -> int:
    """Repetitions that fill ``seconds`` on the reference machine."""
    return max(1, math.ceil(seconds / NOMINAL_REPETITION_S[workload]))
