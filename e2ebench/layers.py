"""Per-layer instrumentation, installed from outside the program.

Two independent instruments, never active in the same process:

* :class:`SpanTracer` wraps the public entry points of each layer
  (:data:`ENTRY_POINTS`) and records one span per call — name, start,
  end, parent — in flat in-memory arrays.  A layer's *self time* is its
  spans' time minus the time their child spans cover; whatever the
  ``Simulator.run*`` spans do not hand to a child is the kernel's
  remainder (``sim.self_s``).
* :func:`count_calls` runs a callable under :mod:`cProfile` and folds the
  exact per-function call counts into per-layer totals.  The profile hook
  distorts time, so its pass reports counts only.

Layers are the program's top-level packages (``repro.<layer>``), with
``udp`` folded into ``host`` and ``logger`` into ``sttcp``.
"""

from __future__ import annotations

import cProfile
import contextlib
import importlib
import json
import os
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer of each ``repro`` package; unlisted packages count as ``other``.
PACKAGE_LAYER = {
    "sim": "sim",
    "net": "net",
    "ip": "ip",
    "tcp": "tcp",
    "sttcp": "sttcp",
    "logger": "sttcp",
    "util": "util",
    "host": "host",
    "udp": "host",
    "apps": "apps",
    "cluster": "cluster",
    "obs": "obs",
    "metrics": "obs",
    "harness": "harness",
    "faults": "harness",
}

#: Layers reported by the counting pass.
LAYERS = (
    "sim", "net", "ip", "tcp", "sttcp", "util", "host", "apps", "cluster",
    "obs", "harness", "other",
)

#: (layer, module, class, method) — the spans of a traced run.  Process
#: resumption is listed under ``sim`` but each span is charged to the
#: layer of the generator it resumes (see :meth:`SpanTracer._wrap_resume`).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim", "repro.sim.simulator", "Simulator", "run"),
    ("sim", "repro.sim.simulator", "Simulator", "run_until_complete"),
    ("sim", "repro.sim.simulator", "Simulator", "step"),
    ("net", "repro.net.nic", "NIC", "receive_frame"),
    ("net", "repro.net.nic", "NIC", "transmit"),
    ("net", "repro.net.switch", "SwitchPort", "receive_frame"),
    ("ip", "repro.ip.layer", "IPLayer", "send"),
    ("ip", "repro.ip.layer", "IPLayer", "receive"),
    ("tcp", "repro.tcp.tcb", "TCPConnection", "on_segment"),
    ("tcp", "repro.tcp.layer", "TCPLayer", "send_segment"),
    ("tcp", "repro.tcp.layer", "TCPLayer", "connect"),
    ("tcp", "repro.tcp.socket", "TCPSocket", "send"),
    ("tcp", "repro.tcp.socket", "TCPSocket", "recv"),
    ("tcp", "repro.tcp.socket", "TCPSocket", "recv_exactly"),
    ("tcp", "repro.tcp.socket", "TCPSocket", "close"),
    ("sttcp", "repro.sttcp.backup", "STTCPBackup", "_recover_gaps_then_takeover"),
    ("sttcp", "repro.sttcp.backup", "STTCPBackup", "_complete_takeover"),
    ("sttcp", "repro.sttcp.backup", "STTCPBackup", "_take_over_batch"),
    ("cluster", "repro.cluster.arbiter", "ClusterArbiter", "cut_power"),
    ("cluster", "repro.cluster.arbiter", "ClusterArbiter", "_actuated"),
    ("cluster", "repro.cluster.election", "ElectionCoordinator", "_backup_consumed"),
    ("cluster", "repro.cluster.election", "ElectionCoordinator", "_replace_backup_for"),
    ("cluster", "repro.cluster.election", "ElectionCoordinator", "_sync_finished"),
    ("cluster", "repro.cluster.invariants", "DualPrimaryMonitor", "_poll"),
    ("obs", "repro.obs.timeseries", "TimeSeriesDB", "sample"),
    ("obs", "repro.sim.trace", "Tracer", "emit"),
)

#: Key of the process steps, which the tracer splits by layer.
RESUME = "Process._resume_with"

#: Backup methods whose outermost spans make up ``sttcp.takeover_host_s``.
TAKEOVER_METHODS = frozenset(
    {"_recover_gaps_then_takeover", "_complete_takeover", "_take_over_batch"}
)


#: Files charged to another layer than their package's: the tracer is
#: observability code that happens to live beside the kernel.
FILE_LAYER = {"sim/trace.py": "obs"}


def module_of_file(filename: str) -> str:
    """Path of a source file below ``repro/`` (``""`` outside the program)."""
    path = filename.replace(os.sep, "/")
    head, found, tail = path.rpartition("/repro/")
    return tail if found else ""


def layer_of_file(filename: str) -> str:
    """Layer of a source file, from its path below ``repro/``."""
    module = module_of_file(filename)
    if not module:
        return "other"
    if module in FILE_LAYER:
        return FILE_LAYER[module]
    return PACKAGE_LAYER.get(module.split("/")[0].removesuffix(".py"), "other")


class SpanTracer:
    """Span recorder around the entry points in :data:`ENTRY_POINTS`.

    Install before the scenario is built: engines register bound
    methods (the backup's tap handler, the UDP channel callback) at
    construction, and those must already resolve to the wrappers.  The
    wrappers stay for the life of the process.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_ids: List[int] = []
        self.name_of: array = array("H")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("i")
        self.self_s: Dict[str, float] = {}
        self.takeover_s = 0.0
        self._stack: List[int] = []
        self._child: List[float] = []
        self._takeover_depth = 0
        self._name_ids: Dict[Tuple[str, str], int] = {}

    # Installation ---------------------------------------------------------------
    def install(self) -> "SpanTracer":
        from repro.ip.layer import IPLayer
        from repro.sim.process import Process

        for layer, module, cls_name, method in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, method, self._wrap(layer, f"{cls_name}.{method}", getattr(cls, method)))
        Process._resume_with = self._wrap_resume(Process._resume_with)
        tracer = self

        original_add_tap, original_remove_tap = IPLayer.add_tap, IPLayer.remove_tap
        tap_wrappers: Dict[Any, Callable] = {}

        def add_tap(ip_layer: Any, handler: Any) -> None:
            wrapper = tap_wrappers.setdefault(handler, tracer._wrap("sttcp", "tap", handler))
            return original_add_tap(ip_layer, wrapper)

        def remove_tap(ip_layer: Any, handler: Any) -> None:
            return original_remove_tap(ip_layer, tap_wrappers.get(handler, handler))

        IPLayer.add_tap = add_tap
        IPLayer.remove_tap = remove_tap
        self._wrap_udp_callbacks()
        return self

    def _wrap_udp_callbacks(self) -> None:
        """Engines set ``sock.on_datagram`` after construction; a property
        on the socket class wraps whatever they assign."""
        from repro.udp.socket import UDPSocket

        tracer = self
        slot = "_bench_on_datagram"

        def getter(sock: Any) -> Any:
            return sock.__dict__.get(slot)

        def setter(sock: Any, handler: Any) -> None:
            sock.__dict__[slot] = (
                tracer._wrap("sttcp", "channel", handler) if handler is not None else None
            )

        UDPSocket.on_datagram = property(getter, setter)

    # Span bookkeeping -----------------------------------------------------------
    def _name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        ident = self._name_ids.get(key)
        if ident is None:
            ident = self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.layer_ids.append(LAYERS.index(layer))
        return ident

    def _enter(self, ident: int) -> int:
        index = len(self.starts)
        self.name_of.append(ident)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        self._child.append(0.0)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return index

    def _exit(self, index: int, layer: str) -> None:
        end = time.perf_counter()
        self.ends[index] = end
        duration = end - self.starts[index]
        self._stack.pop()
        children = self._child.pop()
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
        if self._child:
            self._child[-1] += duration

    def _wrap(self, layer: str, name: str, function: Callable) -> Callable:
        ident = self._name_id(layer, name)
        method = name.rpartition(".")[2]
        enter, leave = self._enter, self._exit
        if method in TAKEOVER_METHODS:
            tracer = self

            def takeover_wrapper(*args: Any, **kwargs: Any) -> Any:
                tracer._takeover_depth += 1
                index = enter(ident)
                try:
                    return function(*args, **kwargs)
                finally:
                    leave(index, layer)
                    tracer._takeover_depth -= 1
                    if tracer._takeover_depth == 0:
                        tracer.takeover_s += tracer.ends[index] - tracer.starts[index]

            return takeover_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = enter(ident)
            try:
                return function(*args, **kwargs)
            finally:
                leave(index, layer)

        return wrapper

    def _wrap_resume(self, resume: Callable) -> Callable:
        """Process steps run the resumed generator's code: charge each to
        the layer of the innermost generator of its ``yield from`` chain."""
        enter, leave = self._enter, self._exit
        idents: Dict[str, Tuple[int, str]] = {}
        tracer = self

        def wrapper(process: Any, value: Any, exc: Any) -> None:
            generator = process.generator
            inner = getattr(generator, "gi_yieldfrom", None)
            while inner is not None and hasattr(inner, "gi_code"):
                generator = inner
                inner = getattr(generator, "gi_yieldfrom", None)
            filename = generator.gi_code.co_filename
            entry = idents.get(filename)
            if entry is None:
                layer = layer_of_file(filename)
                entry = idents[filename] = (tracer._name_id(layer, f"process:{layer}"), layer)
            index = enter(entry[0])
            try:
                return resume(process, value, exc)
            finally:
                leave(index, entry[1])

        return wrapper

    def run_root(self, function: Callable[[], Any]) -> Any:
        """Run ``function`` as the root span; every other span nests in it."""
        return self._wrap("harness", "workload", function)()

    # Reporting ------------------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.starts)

    @property
    def open_spans(self) -> int:
        """Spans entered but not left: 0 once the root span has ended."""
        return len(self._stack)

    def calls(self, name: str) -> int:
        """Number of spans recorded under ``name`` (any layer)."""
        wanted = {i for i, n in enumerate(self.names) if n == name}
        return sum(1 for ident in self.name_of if ident in wanted)

    def entry_calls(self) -> Dict[str, int]:
        """Spans per entry point, keyed as :func:`entry_point_calls` keys
        the counting pass: every process step under ``RESUME``."""
        per_ident = [0] * len(self.names)
        for ident in self.name_of:
            per_ident[ident] += 1
        counts: Dict[str, int] = {RESUME: 0}
        for name, n in zip(self.names, per_ident):
            if name.startswith("process:"):
                counts[RESUME] += n
            else:
                counts[name] = counts.get(name, 0) + n
        return counts

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_ids],
            "spans": self.span_count,
            "arrays": ["name_of:H", "parents:i", "starts:d", "ends:d"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for data in (self.name_of, self.parents, self.starts, self.ends):
                data.tofile(handle)


# ---------------------------------------------------------------- counting pass
_profile: Optional[cProfile.Profile] = None


@contextlib.contextmanager
def uncounted() -> Iterator[None]:
    """Suspend the counting pass's hook around benchmark work done inside
    a run (a no-op in other passes).  cProfile counts a call when it
    returns, and counts the calls still open at a suspension then, so
    every program call is counted exactly once."""
    profile = _profile
    if profile is not None:
        profile.disable()
    try:
        yield
    finally:
        if profile is not None:
            profile.enable()


def entry_point_calls(stats: Dict[Tuple[str, int, str], Any]) -> Dict[str, int]:
    """Calls of each traced entry point in a profile, keyed by span name;
    each is found by its code object, so same-named methods of other
    classes do not mix in."""
    from repro.sim.process import Process

    functions = [
        (f"{cls_name}.{method}", getattr(getattr(importlib.import_module(module), cls_name), method))
        for _layer, module, cls_name, method in ENTRY_POINTS
    ]
    functions.append((RESUME, Process._resume_with))
    counts: Dict[str, int] = {}
    for name, function in functions:
        code = function.__code__
        stat = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        counts[name] = stat[1] if stat else 0
    return counts


def count_calls(
    function: Callable[[], Any]
) -> Tuple[Any, Dict[str, int], Dict[str, int], Dict[str, int]]:
    """Run ``function`` under cProfile; return its result, the Python calls
    per layer, the calls of every program function, keyed
    ``module:function`` (``net/nic.py:transmit``), and the calls of each
    traced entry point (:func:`entry_point_calls`)."""
    global _profile
    profile = _profile = cProfile.Profile()
    profile.enable()
    try:
        result = function()
    finally:
        profile.disable()
        _profile = None
    profile.create_stats()
    stats = profile.stats  # type: ignore[attr-defined]
    per_layer = {layer: 0 for layer in LAYERS}
    per_function: Dict[str, int] = {}
    for (filename, _line, funcname), stat in stats.items():
        calls = stat[1]
        if filename == "~" or filename.startswith("<"):
            continue  # built-ins and synthetic code are not Python calls
        per_layer[layer_of_file(filename)] += calls
        module = module_of_file(filename)
        if module:
            key = f"{module}:{funcname}"
            per_function[key] = per_function.get(key, 0) + calls
    return result, per_layer, per_function, entry_point_calls(stats)
