"""End-to-end trial benchmark for the repro simulator.

Runs one workload's fixed list of whole MapReduce trials (see
``e2ebench/README.md`` for the workloads and the per-layer table),
checks every trial against the correctness gate, and prints each metric
by name with its unit. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` they are the per-layer ones, from spans recorded around
the simulator's public entry points.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper-terasort --seconds 35 --trace 0
    python3 e2ebench/run.py --workload all            # every workload, each in a fresh process
    python3 e2ebench/run.py --workload zoo-fleet --campaign-seed 7 --record-pins

Exit status: 0 whenever the result line is printed (``correct`` says
whether every trial passed the gate); 2 when the benchmark refuses to
run (a ``REPRO_*`` setting in the environment, or no ``src/repro`` next
to the benchmark). ``--workload all`` exits 1 if any workload had a
failed trial.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Simulated figures are outputs of a model that has not been validated
#: against a real cluster, so no error figure accompanies them.
MODEL_NOTE = ("simulated times are model outputs; the model is not validated against "
              "real hardware, so no error figure is given")


def _refusal() -> str | None:
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        return ("refusing to run with " + ", ".join(knobs) + " set: REPRO_* settings "
                "change or skip the program being measured")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no simulator sources at {ROOT / 'src' / 'repro'}"
    return None


def _env_line() -> str:
    import numpy

    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} machine={platform.machine()}")


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from e2ebench import harness
    from e2ebench.calibrate import REFERENCE_S
    from e2ebench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if wl.ordered_by_seed:
        seed = wl.default_seed if args.campaign_seed is None else args.campaign_seed
        order_seed = args.seed
    else:
        seed = wl.default_seed if args.seed is None else args.seed
        order_seed = None
    pins = None if args.record_pins else harness.load_pins(wl.name, seed)
    run = harness.run_workload(wl, seed, args.seconds, trace=bool(args.trace), pins=pins,
                               order_seed=order_seed)

    pinned = {wl.default_seed: "default", wl.heldout_seed: "held-out"}.get(seed, "recorded")
    plain = [p for p in run.passes if not p.traced]
    order = "listed" if order_seed is None else f"shuffled by seed {order_seed}"
    print(f"workload={wl.name} {'campaign ' if wl.ordered_by_seed else ''}seed={seed}"
          f" order={order} pins={f'checked ({pinned})' if pins else 'none'}"
          f" trace={args.trace} passes={len(run.passes)} trials/pass={len(run.passes[0].trials)}")
    print(f"env {_env_line()}")
    print(f"note: {MODEL_NOTE}")
    for line in run.failures:
        print(f"FAILED {line}")
    e2e = harness.end_to_end(run)
    cal = run.calibrator
    print(f"host times below are reference-speed seconds: measured host seconds x {run.scale:.4f}"
          f" (calibration burst mean {cal.mean():.4f} s over {len(cal.samples)} bursts,"
          f" reference {REFERENCE_S} s); measured wall_s"
          f" {statistics.median(p.wall_s for p in plain):.4f} host s")
    for name, (value, unit) in e2e.items():
        extra = (f"  (n={len(plain[0].trials)} trials per pass, median over {len(plain)} passes)"
                 if name.startswith("trial_s.") else "")
        print(f"  {name:28s} {_fmt(value):>14s} {unit}{extra}")
    if args.trace:
        layer = harness.per_layer(run)
        print("per-layer (traced passes):")
        for name, (value, unit) in layer.items():
            print(f"  {name:28s} {_fmt(value):>14s} {unit}")
        print("self-time share by layer (first traced pass): " + ", ".join(
            f"{k} {v:.1f}%" for k, v in harness.layer_shares(run).items()))
        out = ROOT / "e2ebench" / "out" / f"spans-{wl.name}-seed{seed}.npz"
        print(f"spans: {len(run.recorder)} written to {run.recorder.write(out).relative_to(ROOT)}")
        metrics = layer
    else:
        metrics = {k: e2e[k] for k in harness.GATED_END_TO_END}
    if args.record_pins:
        if run.failures:
            print("not recording pins: the run had failed trials", file=sys.stderr)
            return 1
        harness.save_pins(wl.name, seed, run.passes[0].trials)
        print(f"pinned {len(run.passes[0].trials)} trials for {wl.name} seed {seed}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter (so set-up time and
    peak memory belong to that workload): untraced, then traced if
    ``--trace 1``. Ends with one summary line per workload."""
    from e2ebench.workloads import WORKLOADS

    summary = []
    for name in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            for flag, value in (("--seed", args.seed), ("--campaign-seed", args.campaign_seed)):
                if value is not None:
                    cmd += [flag, str(value)]
            print(f"=== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                summary.append((name, trace, None))
                continue
            summary.append((name, trace, json.loads(lines[-1])))
    print("=== summary")
    status = 0
    for name, trace, result in summary:
        if result is None:
            print(f"{name} trace={trace}: no result")
            status = 1
            continue
        status = max(status, 0 if result["correct"] else 1)
        shown = result["metrics"] if not trace else {
            k: result["metrics"][k] for k in ("rm.share_pct", "tracing.overhead_s")}
        print(f"{name} trace={trace} failed={result['failed']}/{result['attempted']} " + " ".join(
            f"{k}={_fmt(m['value'])}{m['unit']}" for k, m in shown.items()))
    return status


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from e2ebench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="runtime seed (paper-terasort, wide-wordcount; default 2015); on "
                         "zoo-fleet, the order each pass runs the trials in (default: listed)")
    ap.add_argument("--campaign-seed", type=int, default=None,
                    help="chaos campaign that makes zoo-fleet's trial list (default 7)")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="time budget; passes repeat until the next would overrun it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-pins", action="store_true",
                    help="write this seed's outcomes to e2ebench/pins.json instead of checking")
    args = ap.parse_args(argv)
    refusal = _refusal()
    if refusal:
        print(f"e2ebench: {refusal}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
