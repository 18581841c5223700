"""Durable, resumable campaign orchestration.

The paper's thesis — restart-from-scratch recovery amplifies failures;
log progress so recovery resumes instead of repeating — applied to our
own harness: a sqlite-backed trial store (:mod:`~repro.campaign.store`)
records every trial as it completes, a scheduler
(:mod:`~repro.campaign.scheduler`) drains trial queues through the
:class:`~repro.runner.TrialRunner` pools in submission order, and
campaign kinds (:mod:`~repro.campaign.plans`) rebuild a
runnable plan from nothing but the stored spec, so

    python -m repro campaign resume --store sweeps.db

picks a killed 100k-trial sweep up exactly where it died, re-running
nothing that already completed.
"""

from repro.campaign.plans import (
    aggregate_chaos,
    aggregate_payloads,
    build_plan,
    resolve_function,
)
from repro.campaign.scheduler import CampaignPlan, CampaignScheduler, TrialSpec
from repro.campaign.store import CampaignStore, StoreError

__all__ = [
    "CampaignPlan",
    "CampaignScheduler",
    "CampaignStore",
    "StoreError",
    "TrialSpec",
    "aggregate_chaos",
    "aggregate_payloads",
    "build_plan",
    "resolve_function",
]
