"""The benchmark's workloads: fixed trial lists in chaos-spec form.

Every trial is one ``repro.faults.chaos.run_trial_spec`` call, the same
entry point the chaos, campaign and verify harnesses use: it builds a
``MapReduceRuntime``, installs the faults, runs the job, checks the
invariants and digests the trace. A workload is a list of such specs,
made from a seed alone: the runtime seed for the yarn-vs-alm pairs, the
campaign seed for ``zoo-fleet``. ``zoo-fleet`` keeps its campaign fixed
(default 7) whatever the run's ``--seed``; that seed sets the order in
which each pass runs the trials instead (see ``Workload.ordered_by_seed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["WORKLOADS", "ZOO_ROSTER", "Workload"]

#: The policy zoo as it stood when the benchmark was defined, pinned by
#: name so that a policy added later does not change the workload.
ZOO_ROSTER = ("yarn", "alg", "sfm", "alm", "iss", "atlas", "binocular", "m3r", "quantile")

#: Trials in one ``zoo-fleet`` pass. At 100 the per-trial percentiles
#: moved by ~12 % between campaign seeds with the input mix alone; 200
#: halves the variance and leaves ``trial_s.p90`` 20 samples per pass
#: beyond it.
ZOO_TRIALS = 200

#: The paper's failure: the node hosting a reducer drops off the network
#: halfway through the job (``--fault node@0.5:reducer``).
REDUCER_NODE_LOSS = {"kind": "node-network", "target": "reducer", "at_progress": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Seed used when ``--seed`` is not given, and a second pinned seed
    #: kept back for confirming later claims.
    default_seed: int
    heldout_seed: int
    #: The job must succeed at any seed (only a pinned seed may expect
    #: a failed job).
    require_success: bool
    #: True when ``--seed`` orders a fixed, pinned trial list rather than
    #: making the list: the list then comes from ``--campaign-seed``.
    ordered_by_seed: bool
    #: ``specs(seed, smoke)``: the trial specs, tiny ones when ``smoke``.
    specs: Callable[[int, bool], list[dict[str, Any]]]


def _yarn_vs_alm(workload: str, input_gb: float, reducers: int, nodes: int, racks: int):
    def make(seed: int, smoke: bool) -> list[dict[str, Any]]:
        gb, red, n, r = (2.0, 4, max(5, nodes // 8), max(2, racks // 8)) if smoke else (
            input_gb, reducers, nodes, racks)
        return [{
            "index": i,
            "policy": policy,
            "workload": workload,
            "input_gb": gb,
            "reducers": red,
            "nodes": n,
            "racks": r,
            "liveness": 70.0,
            "runtime_seed": seed,
            "faults": [dict(REDUCER_NODE_LOSS)],
        } for i, policy in enumerate(("yarn", "alm"))]

    return make


def _zoo_fleet(seed: int, smoke: bool) -> list[dict[str, Any]]:
    from repro.faults.chaos import generate_trial

    campaign = {"seed": seed, "scale": 0.2 if smoke else 1.0, "am_faults": True,
                "policies": list(ZOO_ROSTER)}
    return [generate_trial(campaign, i) for i in range(6 if smoke else ZOO_TRIALS)]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper-terasort",
        "The paper's testbed (21 nodes, terasort 100 GB, 20 reducers, yarn vs alm, "
        "reducer node lost at 50%); RM container matching dominates host time.",
        default_seed=2015, heldout_seed=2016, require_success=True, ordered_by_seed=False,
        specs=_yarn_vs_alm("terasort", 100.0, 20, 21, 2)),
    Workload(
        "zoo-fleet",
        "200 pinned chaos trials (campaign 7) over all nine recovery policies with AM faults "
        "on 6-9 nodes, run in seed order; per-trial costs, flow refill and policy hooks "
        "dominate.",
        default_seed=7, heldout_seed=8, require_success=False, ordered_by_seed=True,
        specs=_zoo_fleet),
    Workload(
        "wide-wordcount",
        "320 workers in 32 racks (wordcount 160 GB, 16 reducers, yarn vs alm, reducer "
        "node lost at 50%); one map wave, so flow refill and per-node state dominate.",
        default_seed=2015, heldout_seed=2016, require_success=True, ordered_by_seed=False,
        specs=_yarn_vs_alm("wordcount", 160.0, 16, 321, 32)),
)}
