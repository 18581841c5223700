"""The campaign scheduler: drain a queue of trial specs through the
:class:`~repro.runner.TrialRunner` pools, in submission order,
checkpointing every completed trial into the
:class:`~repro.campaign.store.CampaignStore` so a killed campaign
resumes from where it died and re-runs nothing.

Dispatch happens in bounded *waves* (``batch_size``, default scaled to
the runner's parallelism): the checkpoint granularity under parallel
fan-out is one worker chunk of one wave, so a SIGKILL loses at most the
wave in flight — never completed, recorded trials.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign.store import CampaignStore, StoreError
from repro.runner import TrialRunner, spec_digest

__all__ = ["CampaignScheduler", "StoreError", "TrialSpec"]


@dataclass(frozen=True)
class TrialSpec:
    """One schedulable trial: the seed passed to the campaign's trial
    function."""

    seed: int


@dataclass
class CampaignPlan:
    """Everything the scheduler needs to run (or resume) a campaign:
    the durable JSON ``spec`` it was built from, the runner trial family
    ``(experiment, fn, kwargs)``, and the trial queue."""

    spec: dict[str, Any]
    experiment: str
    fn: Callable[..., dict[str, Any]]
    kwargs: dict[str, Any] = field(default_factory=dict)
    trials: list[TrialSpec] = field(default_factory=list)

    def campaign_id(self) -> str:
        """The durable identity: the runner's ``spec_digest`` of the
        trial family (which also folds in the implementation-mode
        environment). ``None`` — an unnameable fn/kwargs — cannot be
        durably keyed, so it is a hard error here rather than a silent
        cache skip as in the runner."""
        digest = spec_digest(self.experiment, self.fn, self.kwargs)
        if digest is None:
            raise StoreError(
                f"campaign {self.experiment!r} is not durable: its trial "
                "function or kwargs have no stable name (lambda/closure?)")
        return digest


class CampaignScheduler:
    """Drains a :class:`CampaignPlan` through a :class:`TrialRunner`,
    checkpointing into ``store`` as each trial completes."""

    def __init__(
        self,
        store: CampaignStore,
        runner: TrialRunner | None = None,
        batch_size: int | None = None,
    ) -> None:
        self.store = store
        self.runner = runner or TrialRunner()
        self.batch_size = batch_size or max(16, 4 * self.runner.jobs)

    # -- public API ---------------------------------------------------------
    def run(self, plan: CampaignPlan, echo: Callable[[str], None] = lambda _: None,
            ) -> dict[str, Any]:
        """Run ``plan`` to completion, skipping every trial the store
        already holds. Returns a summary with ``executed`` (fresh runs)
        and ``skipped`` (store hits) counts. On ``KeyboardInterrupt``
        (or a raising trial) the campaign is checkpointed — completed
        trials are already recorded — and the exception re-raised; a
        later :meth:`run` of the same plan picks up where it stopped.
        """
        campaign_id = plan.campaign_id()
        self.store.register(campaign_id, plan.spec)

        done = self.store.completed_seeds(campaign_id)
        queue = [t.seed for t in plan.trials if t.seed not in done]
        skipped = len(plan.trials) - len(queue)
        executed = 0
        t0 = time.perf_counter()

        def on_result(result) -> None:
            nonlocal executed
            self.store.record_trial(campaign_id, result.seed, result.payload,
                                    result.wall_seconds)
            if not result.cached:
                executed += 1

        try:
            for start in range(0, len(queue), self.batch_size):
                batch = queue[start:start + self.batch_size]
                self.runner.run(plan.experiment, plan.fn, batch, plan.kwargs,
                                on_result=on_result)
                done.update(batch)
                echo(f"  campaign {campaign_id[:12]}: "
                     f"{len(done)}/{len(plan.trials)} trials done")
        except KeyboardInterrupt:
            self.store.mark_status(campaign_id, "running", "interrupted")
            raise
        except Exception as exc:
            self.store.mark_status(campaign_id, "running",
                                   f"{type(exc).__name__}: {exc}")
            raise

        self.store.mark_status(campaign_id, "complete")
        wall = time.perf_counter() - t0
        return {
            "campaign_id": campaign_id,
            "experiment": plan.experiment,
            "trials": len(plan.trials),
            "executed": executed,
            "skipped": skipped,
            "wall_seconds": round(wall, 3),
            "trials_per_sec": round(executed / wall, 3) if wall > 0 else 0.0,
            "status": "complete",
        }
