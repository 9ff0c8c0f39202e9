"""Shared fixtures and helpers for the benchmark suite.

Each bench regenerates one table or figure of the paper on a
scaled-down but structurally identical workload, or times one layer of
the campaign driver, prints the regenerated artifact, and attaches
headline numbers to the pytest-benchmark record via ``extra_info``.
"""

import os
from dataclasses import replace

import pytest

from repro.core import Campaign, CampaignConfig, CampaignPipeline, StagePlan
from repro.sim import (adjacent_traffic, braking_lead, empty_road,
                       highway_cruise, lead_vehicle_cutin,
                       occluded_pedestrian, overtake_cutin, queued_traffic,
                       stalled_vehicle, two_lead_reveal)


def bench_scenarios():
    """The scenario population used by campaign benches.

    Includes the scripted scenegen templates (overtake cut-in,
    stop-and-go queue, occluded pedestrian crossing) so benches exercise
    multi-vehicle and small-object workloads, not just the paper's core
    situations.
    """
    return [replace(empty_road(), duration=15.0),
            replace(highway_cruise(), duration=20.0),
            replace(lead_vehicle_cutin(), duration=15.0),
            replace(two_lead_reveal(), duration=20.0),
            replace(braking_lead(), duration=20.0),
            replace(stalled_vehicle(), duration=20.0),
            replace(adjacent_traffic(), duration=15.0),
            replace(overtake_cutin(), duration=20.0),
            replace(queued_traffic(), duration=20.0),
            replace(occluded_pedestrian(), duration=20.0)]


def usable_cpus() -> int:
    """CPUs this process may run on (speedup gates need real cores)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity
        return os.cpu_count() or 1


def validate_jobs(campaign, jobs, workers=None, **overrides):
    """Validate an explicit job list through the campaign pipeline.

    ``overrides`` replace :class:`CampaignConfig` fields for this run
    only (e.g. ``batch_sim=16`` or ``use_checkpoints=False``); golden
    runs and checkpoint ladders already on ``campaign`` are reused, so
    a golden-warmed campaign times validation alone.  Returns the
    records in job order.
    """
    plan = StagePlan(style="jobs", global_jobs=lambda ctx: list(jobs))
    previous = campaign.config
    campaign.config = replace(previous, **overrides)
    try:
        driver = CampaignPipeline(campaign, workers=workers)
        return driver.run(plan).summary.records
    finally:
        campaign.config = previous


@pytest.fixture(scope="session")
def campaign():
    """One shared campaign (golden runs are cached inside)."""
    return Campaign(bench_scenarios(), CampaignConfig())


@pytest.fixture(scope="session")
def bayesian_result(campaign):
    """One shared Bayesian campaign (mining + validation), reused by
    the acceleration, comparison, and fidelity benches."""
    return campaign.bayesian_campaign()
