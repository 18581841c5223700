"""Run a workload's trial list, time it, gate it, and reduce it to metrics.

A *pass* runs every trial of the workload once, serially, in this
process. A run repeats passes until the next one would end past the
time budget, and makes at least :data:`MIN_PASSES`; a traced run
alternates untraced and traced passes, so it can report the tracing
overhead. Host time is ``time.perf_counter``, reported scaled to a
reference speed (:mod:`e2ebench.calibrate`); simulated time is the
model's own clock.

A trial's host time is split at the moment ``MapReduceRuntime.run`` is
entered: before it is set-up (workload, policy, runtime and faults
built), after it the job itself plus the trace digest and invariant
checks that ``run_trial_spec`` performs.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from e2ebench.calibrate import Calibrator
from e2ebench.patching import Patches
from e2ebench.spans import SpanRecorder, layer_of
from e2ebench.workloads import Workload

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "pins.json"

#: Fields of a trial's outcome that the correctness gate pins exactly.
PINNED_FIELDS = ("digest", "success", "job_sim_s", "failed_reduce_attempts")

#: End-to-end metrics printed in the JSON result line (the gated set).
#: ``job_sim_s``, ``failed_reduce_attempts`` and ``trials_failed_frac``
#: are printed above it: they are pinned exactly per seed by the gate,
#: and they vary with the workload's inputs rather than with noise.
GATED_END_TO_END = ("wall_s", "trial_s.p50", "trial_s.p90", "setup_s", "peak_rss_mb")

#: Passes every run makes even past its time budget, so that each
#: median has two samples. A traced run's two are one untraced and one
#: traced pass. ``peak_rss_mb`` is read when these are done: later
#: passes can raise the process peak (allocator fragmentation), and how
#: many of them fit depends on the machine's speed.
MIN_PASSES = 2

#: Fresh interpreters timed for ``setup.import_s``; the median is kept.
IMPORT_SAMPLES = 3

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import repro\n"
    "from repro.policies import policy_names\n"
    "policy_names()\n"
    "print(repr(time.perf_counter() - t))\n"
)


def time_import(samples: int = IMPORT_SAMPLES) -> list[float]:
    """Host seconds for ``import repro`` plus policy-registry discovery,
    each in a fresh interpreter (every CLI call and worker pays this)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class RunProbe:
    """Wraps ``MapReduceRuntime.run`` to note when the job starts (and
    how much calibration time had been spent by then) and to keep the
    runtime and its result for reading counters afterwards."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self._patches = Patches()
        self.reset()

    def reset(self) -> None:
        self.t_run: float | None = None
        self.spent_at_run = self.calibrator.spent
        self.rt = None
        self.result = None

    def install(self) -> None:
        from repro.mapreduce.job import MapReduceRuntime

        self._patches.wrap(MapReduceRuntime, "run", self._probe)

    def _probe(self, original):
        probe = self

        @functools.wraps(original)
        def run(rt, *args, **kwargs):
            probe.t_run = perf_counter()
            probe.spent_at_run = probe.calibrator.spent
            probe.rt = rt
            probe.result = original(rt, *args, **kwargs)
            return probe.result

        return run

    def uninstall(self) -> None:
        self._patches.undo()


@dataclass
class TrialOutcome:
    setup_s: float
    trial_s: float
    error: str | None = None
    digest: str = ""
    success: bool = False
    job_sim_s: float = 0.0
    failed_reduce_attempts: int = 0
    stalled: bool = False
    violations: list[str] = field(default_factory=list)
    #: Counters read from the trial's runtime after it finished.
    counts: dict[str, float] = field(default_factory=dict)

    def pinned(self) -> dict[str, Any]:
        return {k: getattr(self, k) for k in PINNED_FIELDS}


@dataclass
class Pass:
    traced: bool
    trials: list[TrialOutcome]
    #: Index of the first span this pass recorded.
    first_span: int = 0

    @property
    def wall_s(self) -> float:
        return sum(t.trial_s for t in self.trials)

    @property
    def setup_s(self) -> float:
        return sum(t.setup_s for t in self.trials)


def _counts(rt, result) -> dict[str, float]:
    trace = result.trace
    stats = rt.cluster.flows.stats
    return {
        "sim.events": rt.sim._seq,
        "flows.transfers": stats["transfers"],
        "flows.filling_rounds": stats["filling_rounds"],
        "flows.recomputed_flows": stats["recomputed_flows"],
        "flows.column_ops": stats.get("column_ops", 0),
        "hdfs.bytes_stored": rt.hdfs.total_bytes(),
        "mr.attempts": trace.count("attempt_start"),
        "mr.attempts_ok": trace.count("attempt_success"),
        "mr.attempts_failed": trace.count("attempt_failed"),
        "mr.fetch_failure_reports": result.counters["fetch_failure_reports"],
        "mr.map_reruns": result.counters["map_reruns"],
        "alm.sfm_regenerations": trace.count("sfm_regenerate"),
        "alm.fcm_recoveries": trace.count("fcm_start"),
        "trace.events": trace.total_events(),
        "faults.fired": trace.count("fault_injected"),
    }


def run_trial(spec: dict[str, Any], probe: RunProbe, inside: bool = True) -> TrialOutcome:
    """Run one trial; its host time is split at ``MapReduceRuntime.run``
    and excludes calibration bursts taken inside it (``inside``)."""
    from repro.faults.chaos import run_trial_spec

    cal = probe.calibrator
    probe.reset()
    spent0 = cal.spent
    t0 = perf_counter()
    cal.inside = inside
    try:
        payload = run_trial_spec(spec)
    except Exception as exc:  # any crash is a failed trial, not a crashed run
        payload = None
        error = f"{type(exc).__name__}: {exc}"
    finally:
        cal.inside = False
    t1 = perf_counter()
    t_run = probe.t_run if probe.t_run is not None else t1
    timing = {"setup_s": t_run - t0 - (probe.spent_at_run - spent0),
              "trial_s": t1 - t_run - (cal.spent - probe.spent_at_run)}
    if payload is None:
        return TrialOutcome(**timing, error=error)
    rt, result = probe.rt, probe.result
    return TrialOutcome(
        **timing,
        digest=payload["digest"],
        success=bool(payload["success"]),
        job_sim_s=float(payload["elapsed"]),
        failed_reduce_attempts=int(result.counters["failed_reduce_attempts"]),
        stalled=bool(result.counters.get("stalled", False)),
        violations=list(payload["violations"]),
        counts=_counts(rt, result),
    )


def gate(outcome: TrialOutcome, pin: dict[str, Any] | None, reference: TrialOutcome | None,
         require_success: bool) -> str | None:
    """Why the trial fails the correctness gate, or None if it passes.

    ``pin`` is the trial's pinned outcome (pinned seeds only);
    ``reference`` is the same trial from this run's first pass, whose
    digest every later pass must repeat."""
    if outcome.error is not None:
        return f"exception: {outcome.error}"
    if outcome.stalled:
        return "stalled"
    if outcome.violations:
        return f"invariant violations: {outcome.violations}"
    if pin is not None:
        got = outcome.pinned()
        bad = [k for k in PINNED_FIELDS if got[k] != pin[k]]
        if bad:
            return "mismatch: " + ", ".join(f"{k}={got[k]!r} (pinned {pin[k]!r})" for k in bad)
    elif require_success and not outcome.success:
        return "job failed"
    if reference is not None and outcome.digest != reference.digest:
        return "digest differs from the first pass"
    return None


def load_pins(workload: str, seed: int) -> list[dict[str, Any]] | None:
    if not PINS.exists():
        return None
    return json.loads(PINS.read_text()).get(workload, {}).get(str(seed))


def save_pins(workload: str, seed: int, outcomes: list[TrialOutcome]) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(workload, {})[str(seed)] = [o.pinned() for o in outcomes]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def warm_up() -> None:
    """Import what ``run_trial_spec`` imports lazily, so the first
    trial does not pay module loading inside its timed region."""
    import repro.experiments.common  # noqa: F401
    import repro.invariants  # noqa: F401
    import repro.runner  # noqa: F401
    from repro.faults import chaos  # noqa: F401
    from repro.policies import policy_names

    policy_names()


@dataclass
class Run:
    passes: list[Pass]
    failures: list[str]
    recorder: SpanRecorder | None
    #: Fresh-interpreter ``import repro`` timings, host seconds.
    import_s: list[float]
    calibrator: Calibrator
    #: Peak resident memory (MB) once the first MIN_PASSES passes ended.
    peak_rss_mb: float

    @property
    def attempted(self) -> int:
        return sum(len(p.trials) for p in self.passes)

    @property
    def scale(self) -> float:
        """Host seconds -> seconds at the calibration reference speed."""
        return self.calibrator.scale()


def trial_order(count: int, order_seed: int | None) -> list[int]:
    """The order a pass runs ``count`` trials in: as listed, or shuffled
    by ``order_seed``."""
    order = list(range(count))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    return order


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, pins: list[dict[str, Any]] | None = None,
                 order_seed: int | None = None) -> Run:
    """Run passes of ``wl`` at ``seed`` until the next pass would end
    past ``seconds`` (at least :data:`MIN_PASSES`), with calibration
    bursts before the import timing, every 0.4 s or so during untraced
    passes, between trials of traced ones, and at the end. Each pass
    runs the trials in :func:`trial_order`; outcomes stay indexed as
    the specs are listed."""
    specs = wl.specs(seed, smoke)
    order = trial_order(len(specs), order_seed)
    if pins is not None and len(pins) != len(specs):
        raise ValueError(f"{len(pins)} pinned trials for {len(specs)} specs")
    calibrator = Calibrator()
    calibrator.burst()
    import_s = time_import(1 if smoke else IMPORT_SAMPLES)
    warm_up()
    probe = RunProbe(calibrator)
    probe.install()
    calibrator.install()
    recorder = SpanRecorder() if trace else None
    passes: list[Pass] = []
    failures: list[str] = []
    begin = perf_counter()
    last_duration: dict[bool, float] = {}
    peak_rss_mb = 0.0
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            started = perf_counter()
            passes.append(_run_pass(wl, specs, order, len(passes), traced, probe, recorder,
                                    calibrator, pins, passes[0] if passes else None,
                                    failures))
            last_duration[traced] = perf_counter() - started
            if len(passes) == MIN_PASSES:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if len(passes) < MIN_PASSES:
                continue
            following = trace and len(passes) % 2 == 1
            estimate = last_duration.get(following, max(last_duration.values()))
            if perf_counter() - begin + estimate > seconds:
                break
    finally:
        calibrator.uninstall()
        probe.uninstall()
    calibrator.burst()
    return Run(passes, failures, recorder, import_s, calibrator, peak_rss_mb)


def _run_pass(wl: Workload, specs, order: list[int], index: int, traced: bool,
              probe: RunProbe, recorder: SpanRecorder | None, calibrator: Calibrator, pins,
              first: Pass | None, failures: list[str]) -> Pass:
    outcomes: list[TrialOutcome | None] = [None] * len(specs)
    result = Pass(traced=traced, trials=outcomes, first_span=len(recorder) if recorder else 0)
    if traced:
        recorder.install()
    try:
        for i in order:
            spec = specs[i]
            calibrator.maybe()
            if traced:
                # Bursts inside a traced trial would land in its spans.
                recorder.begin_trial(index * len(specs) + i)
                with recorder.span("trial.run"):
                    outcome = run_trial(spec, probe, inside=False)
            else:
                outcome = run_trial(spec, probe)
            outcomes[i] = outcome
            why = gate(outcome, pins[i] if pins else None,
                       first.trials[i] if first else None, wl.require_success)
            if why is not None:
                failures.append(f"pass {index} trial {i} ({spec['policy']}): {why}")
    finally:
        if traced:
            recorder.uninstall()
    return result


# -- reduction to metrics ----------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; below 20 samples p90 is the maximum."""
    ordered = sorted(values)
    if q >= 0.9 and len(ordered) < 20:
        return ordered[-1]
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from the untraced passes: each host time is
    taken per pass and the median over passes is reported, in
    reference-speed seconds (multiplied by ``run.scale``). The trial
    percentiles too are per pass: a max over every trial of the run
    would grow with the number of passes and follow its worst moment."""
    plain = [p for p in run.passes if not p.traced]
    first = run.passes[0].trials
    k = run.scale

    def per_pass(value) -> float:
        return k * statistics.median(value(p) for p in plain)

    return {
        "wall_s": (per_pass(lambda p: p.wall_s), "s"),
        "trial_s.p50": (per_pass(lambda p: statistics.median(t.trial_s for t in p.trials)),
                        "s"),
        "trial_s.p90": (per_pass(lambda p: percentile([t.trial_s for t in p.trials], 0.9)),
                        "s"),
        "setup_s": (k * statistics.median(run.import_s) + per_pass(lambda p: p.setup_s), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "job_sim_s": (statistics.median(t.job_sim_s for t in first), "s"),
        "failed_reduce_attempts": (sum(t.failed_reduce_attempts for t in first), "count"),
        "trials_failed_frac": (len(run.failures) / run.attempted, "frac"),
    }


#: Span name (or its layer) -> the per-layer metric its self time adds to.
SELF_TIME_METRICS = {
    "rm.request": "rm.request_s",
    "rm.release": "rm.release_s",
    "policy": "policy.hook_s",
    "flows": "flows.call_s",
    "hdfs": "hdfs.call_s",
    "trace.log": "trace.log_s",
    "runner.digest": "digest_s",
    "invariants.check": "invariants_s",
    "sim.run": "sim.self_s",
}


def _layer_self(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    layers: dict[str, float] = {}
    for name, t in totals.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + t["self_s"]
    return layers


def _traced_pass_row(rec: SpanRecorder, p: Pass, last: int) -> dict[str, float]:
    """Host-time figures of one traced pass, from spans ``p.first_span..last-1``."""
    totals = rec.totals(p.first_span, last)
    row: dict[str, float] = {key: 0.0 for key in SELF_TIME_METRICS.values()}
    for name, t in totals.items():
        key = SELF_TIME_METRICS.get(name) or SELF_TIME_METRICS.get(layer_of(name))
        if key:
            row[key] += t["self_s"]

    def calls(*names: str) -> int:
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    layers = _layer_self(totals)
    row.update({
        "wall_s": p.wall_s,
        "setup.runtime_s": p.setup_s,
        "sim.run_s": totals.get("sim.run", {}).get("incl_s", 0.0),
        "rm.calls": calls("rm.request", "rm.release"),
        "hdfs.writes": calls("hdfs.write"),
        "policy.hook_calls": sum(t["calls"] for n, t in totals.items()
                                 if layer_of(n) == "policy"),
        "rm.share_pct": 100.0 * layers.get("rm", 0.0) / sum(layers.values()),
    })
    return row


def layer_shares(run: Run) -> dict[str, float]:
    """Share (%) of the first traced pass's host time, by layer self time."""
    first, last = _traced_bounds(run)[0]
    layers = _layer_self(run.recorder.totals(first, last))
    total = sum(layers.values())
    return {k: 100.0 * v / total for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}


def _traced_bounds(run: Run) -> list[tuple[int, int]]:
    starts = [p.first_span for p in run.passes if p.traced]
    return list(zip(starts, starts[1:] + [len(run.recorder)]))


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: host times are medians over the
    traced passes in reference-speed seconds, counts are those of one
    pass (every pass repeats them)."""
    rec = run.recorder
    traced = [p for p in run.passes if p.traced]
    plain = [p for p in run.passes if not p.traced]
    rows = [_traced_pass_row(rec, p, last) for p, (_, last) in zip(traced, _traced_bounds(run))]
    med = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    counts = {k: sum(t.counts[k] for t in traced[0].trials) for k in traced[0].trials[0].counts}
    attempts = counts["mr.attempts"]
    k = run.scale
    rm_s = k * (med["rm.request_s"] + med["rm.release_s"])
    seconds = ("rm.request_s", "rm.release_s", "flows.call_s", "sim.run_s", "sim.self_s",
               "hdfs.call_s", "policy.hook_s", "trace.log_s", "digest_s", "invariants_s",
               "setup.runtime_s")
    out: dict[str, tuple[float, str]] = {name: (k * med[name], "s") for name in seconds}
    out.update({
        "rm.calls": (med["rm.calls"], "count"),
        "rm.us_per_call": (1e6 * rm_s / max(med["rm.calls"], 1), "us"),
        "rm.outstanding_max": (rec.outstanding_max, "count"),
        "rm.share_pct": (med["rm.share_pct"], "%"),
        "sim.us_per_event": (1e6 * k * med["sim.run_s"] / max(counts["sim.events"], 1), "us"),
        "hdfs.writes": (med["hdfs.writes"], "count"),
        "hdfs.bytes_stored": (counts["hdfs.bytes_stored"], "B"),
        "mr.useful_attempt_ratio": (counts["mr.attempts_ok"] / attempts if attempts else 0.0,
                                    "ratio"),
        "policy.hook_calls": (med["policy.hook_calls"], "count"),
        "setup.import_s": (k * statistics.median(run.import_s), "s"),
        "tracing.overhead_s": (k * (med["wall_s"] - statistics.median(p.wall_s for p in plain)),
                               "s"),
    })
    for key in ("flows.transfers", "flows.filling_rounds", "flows.recomputed_flows",
                "flows.column_ops", "sim.events", "mr.attempts", "mr.attempts_failed",
                "mr.fetch_failure_reports", "mr.map_reruns", "alm.sfm_regenerations",
                "alm.fcm_recoveries", "trace.events", "faults.fired"):
        out[key] = (counts[key], "count")
    return out
