"""Self-checks of the benchmark itself, on tiny versions of each workload.

For every workload, at smoke size (a few seconds in all):

- a corrupted pinned digest is counted as a failed trial;
- recorded spans nest inside their parents, self times are
  non-negative, and the self times of a span's subtree add up to the
  span's duration;
- a different seed gives different trace digests;
- on a workload whose ``--seed`` orders the trials, a shuffled pass
  repeats the listed pass's outcomes trial for trial.

Run from the repository root: ``python3 e2ebench/selfcheck.py``.
Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Clock-rounding slack for sums of perf_counter differences.
EPS = 1e-6


def check_gate(harness, wl, seed: int) -> list[str]:
    run = harness.run_workload(wl, seed, seconds=0.0, trace=False, smoke=True)
    if run.failures:
        return [f"{wl.name}: unpinned smoke run failed: {run.failures}"]
    pins = [t.pinned() for t in run.passes[0].trials]
    problems = []
    clean = harness.run_workload(wl, seed, seconds=0.0, trace=False, smoke=True, pins=pins)
    if clean.failures:
        problems.append(f"{wl.name}: rerun against its own pins failed: {clean.failures}")
    corrupt = [dict(p) for p in pins]
    corrupt[0]["digest"] = "0" * 64
    bad = harness.run_workload(wl, seed, seconds=0.0, trace=False, smoke=True, pins=corrupt)
    # Exactly the corrupted trial fails, once in every pass.
    if len(bad.failures) != len(bad.passes) or not all(
            " trial 0 " in f and "digest" in f for f in bad.failures):
        problems.append(f"{wl.name}: corrupted digest gave failures {bad.failures}")
    return problems


def check_spans(harness, wl, seed: int) -> list[str]:
    run = harness.run_workload(wl, seed, seconds=0.0, trace=True, smoke=True)
    rec = run.recorder
    problems = [f"{wl.name}: traced smoke run failed: {run.failures}"] if run.failures else []
    if len(rec) == 0:
        return problems + [f"{wl.name}: no spans recorded"]
    own = rec.self_times()
    subtree = list(own)
    for i in range(len(rec) - 1, -1, -1):  # children come after their parent
        p = rec.parent[i]
        if p >= 0:
            if not (rec.start[p] <= rec.start[i] <= rec.end[i] <= rec.end[p]):
                problems.append(f"{wl.name}: span {i} is not inside its parent {p}")
            if rec.trial[i] != rec.trial[p]:
                problems.append(f"{wl.name}: span {i} and its parent {p} differ in trial")
            subtree[p] += subtree[i]
    for i in range(len(rec)):
        if own[i] < -EPS:
            problems.append(f"{wl.name}: span {i} has negative self time {own[i]}")
        if abs(subtree[i] - (rec.end[i] - rec.start[i])) > EPS:
            problems.append(f"{wl.name}: self times under span {i} do not add up to it")
    names = {rec.names[n] for n in rec.name_id}
    for required in ("trial.run", "mr.run", "sim.run", "rm.request", "runner.digest",
                     "invariants.check"):
        if required not in names:
            problems.append(f"{wl.name}: no {required} span recorded")
    return problems[:20]


def check_seed(harness, wl, seed: int) -> list[str]:
    a = harness.run_workload(wl, seed, seconds=0.0, trace=False, smoke=True)
    b = harness.run_workload(wl, seed + 1, seconds=0.0, trace=False, smoke=True)
    same = [i for i, (x, y) in enumerate(zip(a.passes[0].trials, b.passes[0].trials))
            if x.digest == y.digest]
    return [f"{wl.name}: seeds {seed} and {seed + 1} give equal digests for trials {same}"] \
        if same else []


def check_order(harness, wl, seed: int) -> list[str]:
    listed = harness.run_workload(wl, seed, seconds=0.0, trace=False, smoke=True)
    pins = [t.pinned() for t in listed.passes[0].trials]
    order = harness.trial_order(len(pins), 1)
    if order == sorted(order):
        return [f"{wl.name}: order seed 1 leaves the trials in listed order"]
    shuffled = harness.run_workload(wl, seed, seconds=0.0, trace=False, smoke=True, pins=pins,
                                    order_seed=1)
    return [f"{wl.name}: shuffled order changed outcomes: {shuffled.failures}"] \
        if shuffled.failures else []


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from e2ebench import harness
    from e2ebench.workloads import WORKLOADS

    problems: list[str] = []
    for wl in WORKLOADS.values():
        checks = [check_gate, check_spans, check_seed]
        if wl.ordered_by_seed:
            checks.append(check_order)
        for check in checks:
            found = check(harness, wl, wl.default_seed)
            print(f"{wl.name:16s} {check.__name__:12s} {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    for line in problems:
        print(f"  {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
