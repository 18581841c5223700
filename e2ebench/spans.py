"""In-memory span recorder that wraps the simulator's public entry points.

A span is one call into a layer: name, start, end, parent span and the
trial it belongs to. Spans live in flat arrays while the benchmark runs
and are written out once at the end; self time (a span's duration minus
the part its child spans cover) is computed from them afterwards.

Wrapping is done from outside the program: :meth:`SpanRecorder.install`
swaps the listed class attributes and module functions for timing
shims and :meth:`SpanRecorder.uninstall` puts the originals back. The
shims never touch simulator state, so a traced trial produces the same
trace digest as an untraced one (the correctness gate checks this).
"""

from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter

from e2ebench.patching import Patches

__all__ = ["ENTRY_POINTS", "SpanRecorder", "layer_of"]

#: The hooks every recovery policy may override
#: (:class:`repro.mapreduce.recovery.RecoveryPolicy`).
POLICY_HOOKS = (
    "on_task_failed", "on_node_lost", "on_fetch_failure_report",
    "on_node_rejoined", "on_fetch_giveup", "make_speculator",
    "steer_placement", "on_attempt_outcome", "make_reduce_attempt",
    "on_reduce_attempt_started", "reduce_output_level", "on_map_completed",
    "on_job_finished",
)

#: (module, class or None, attribute, span name). A span name is
#: ``<layer>.<call>``; a call made while a span of the same layer is
#: already innermost (``ColumnarFlowScheduler.transfer`` calling
#: ``FlowScheduler.transfer``, ``transfer_many`` calling ``transfer``)
#: is not recorded again, so each layer entry counts once.
ENTRY_POINTS = (
    ("repro.mapreduce.job", "MapReduceRuntime", "__init__", "setup.runtime"),
    ("repro.mapreduce.job", "MapReduceRuntime", "run", "mr.run"),
    ("repro.sim.core", "Simulator", "run", "sim.run"),
    ("repro.yarn.rm", "ResourceManager", "request_container", "rm.request"),
    ("repro.yarn.rm", "ResourceManager", "release_container", "rm.release"),
    ("repro.yarn.rm", "ResourceManager", "cancel_request", "rm.cancel"),
    ("repro.sim.flows", "FlowScheduler", "transfer", "flows.transfer"),
    ("repro.sim.flows", "FlowScheduler", "transfer_many", "flows.transfer_many"),
    ("repro.sim.flows", "FlowScheduler", "cancel", "flows.cancel"),
    ("repro.sim.flows", "FlowScheduler", "cancel_many", "flows.cancel_many"),
    ("repro.sim.flows", "FlowScheduler", "cancel_flows_using", "flows.cancel_flows_using"),
    ("repro.sim.flows_columnar", "ColumnarFlowScheduler", "transfer", "flows.transfer"),
    ("repro.hdfs.hdfs", "Hdfs", "ingest", "hdfs.ingest"),
    ("repro.hdfs.hdfs", "Hdfs", "write", "hdfs.write"),
    ("repro.hdfs.hdfs", "Hdfs", "read", "hdfs.read"),
    ("repro.hdfs.hdfs", "Hdfs", "read_block", "hdfs.read_block"),
    ("repro.hdfs.hdfs", "Hdfs", "delete", "hdfs.delete"),
    ("repro.hdfs.hdfs", "Hdfs", "preferred_nodes", "hdfs.preferred_nodes"),
    ("repro.metrics.trace", "Trace", "log", "trace.log"),
    ("repro.faults.inject", "FaultInjector", "install", "faults.install"),
    ("repro.runner", None, "trace_digest", "runner.digest"),
    ("repro.invariants", None, "check_invariants", "invariants.check"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """Flat, append-only span store plus the shims that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        #: Open spans, innermost last, as (span index, layer).
        self._stack: list[tuple[int, str]] = []
        self.current_trial = -1
        #: Grant events handed out by the RM and not yet triggered.
        self._outstanding: dict[int, object] = {}
        self.outstanding_max = 0
        self._patches = Patches()

    # -- recording ---------------------------------------------------------
    def begin_trial(self, trial: int) -> None:
        """Tag later spans with ``trial``; grants left over from the
        previous trial's (finished) job are no longer outstanding."""
        self.current_trial = trial
        self._outstanding.clear()

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        return self._open(self._intern(name), layer_of(name))

    def _open(self, nid: int, layer: str) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.trial.append(self.current_trial)
        self.end.append(0.0)
        self._stack.append((idx, layer))
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        top, _ = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[self.name_id[idx]]} closed out of order")

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _shim(self, fn, name: str):
        layer = layer_of(name)
        nid = self._intern(name)
        stack = self._stack
        open_, close = self._open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = open_(nid, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _rm_request_shim(self, fn):
        traced = self._shim(fn, "rm.request")

        @functools.wraps(fn)
        def request(*args, **kwargs):
            grant = traced(*args, **kwargs)
            live = self._outstanding
            live[id(grant)] = grant
            if len(live) > self.outstanding_max:
                for key in [k for k, ev in live.items() if ev.triggered]:
                    del live[key]
                self.outstanding_max = max(self.outstanding_max, len(live))
            return grant

        return request

    def _rm_cancel_shim(self, fn):
        traced = self._shim(fn, "rm.cancel")

        @functools.wraps(fn)
        def cancel(rm, grant, *args, **kwargs):
            self._outstanding.pop(id(grant), None)
            return traced(rm, grant, *args, **kwargs)

        return cancel

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS` plus the
        :data:`POLICY_HOOKS` of every registered recovery policy."""
        special = {"rm.request": self._rm_request_shim, "rm.cancel": self._rm_cancel_shim}
        for module_name, cls_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            make = special.get(name) or functools.partial(self._shim, name=name)
            self._patches.wrap(owner, attr, make)
        for cls in _policy_classes():
            for hook in POLICY_HOOKS:
                if hook in cls.__dict__:
                    self._patches.wrap(cls, hook,
                                       functools.partial(self._shim, name=f"policy.{hook}"))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- analysis -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, first: int = 0, last: int | None = None) -> list[float]:
        """Self time of spans ``first..last-1``: each one's duration minus
        the durations of its direct children. Children are closed before
        their parent and never overlap each other (one thread), so self
        times are non-negative up to clock resolution. The range must
        not cut a span off from its children."""
        last = len(self.start) if last is None else last
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(first, last)]
        for i in range(first, last):
            p = parent[i]
            if p >= first:
                own[p - first] -= end[i] - start[i]
        return own

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name over spans ``first..last-1``: call count, summed
        duration (``incl_s``) and summed self time (``self_s``)."""
        last = len(self.start) if last is None else last
        out: dict[str, dict[str, float]] = {}
        for i, own in enumerate(self.self_times(first, last), start=first):
            row = out.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += self.end[i] - self.start[i]
            row["self_s"] += own
        return out

    def write(self, path: Path) -> Path:
        """Write every span to ``path`` (numpy ``.npz``): ``names`` plus
        per-span ``name_id``, ``start``/``end`` (perf_counter seconds),
        ``parent`` (-1 for a root) and ``trial``."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), trial=np.asarray(self.trial))
        return path


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> int:
        self.idx = self.rec.open(self.name)
        return self.idx

    def __exit__(self, *exc) -> None:
        self.rec.close(self.idx)


def _policy_classes() -> list[type]:
    """Every RecoveryPolicy subclass the registry knows, bases included."""
    from repro.mapreduce.recovery import RecoveryPolicy
    from repro.policies import policy_names

    policy_names()  # discovery imports every policy module
    seen: list[type] = []
    todo = [RecoveryPolicy]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen
