"""The benchmark's workloads: inputs built from a seed, run through the
public ``Campaign`` API.

Each workload builds its :class:`~repro.core.Campaign` (the part timed as
set-up) and runs one campaign call on it.  The seed reaches the program
only through the inputs built here.

* ``drivefi`` — the paper's DriveFI loop exactly as a default user runs
  it: serial, scalar engine, cold, no cache.  The seed is the campaign
  seed (sensor noise of every run).
* ``random-fi`` — the paper's random baseline: a fixed 640-fault draw
  over the 27-scenario population below, validated by the fused batched
  engine on a two-worker pool, streamed to a JSONL sink with the
  completion journal under a cache directory.  The seed is the campaign
  seed.  The draw is fixed because random injection finds a hazard in
  about one experiment of 25 here, so a draw that moved with the seed
  would make the hazard count a Poisson sample spreading about 25%.  The
  population is the wide one because on the ten ``drivefi`` scenarios a
  noise seed moves whole scenarios' hazard yields together: 1280 faults
  gave 13 to 19 hazards across seeds there, 48 to 52 here.
* ``drivefi-wide`` — the Bayesian campaign over a 27-scenario population
  (library builders with ego speeds in [18, 33] m/s and durations of 30
  to 46 s, about 7,400 golden scenes), with the trace store and
  ``top_k=24``: golden collection, checkpoint capture and mining
  dominate, validation is a few percent.  The population is drawn once
  from a fixed seed and the run seed is the campaign seed: populations
  drawn from the run seed put the 24 top-ranked candidates in one or two
  scenarios whose hazard yield ranged from 0 to 24 across seeds.

``size="tiny"`` shrinks every workload for the harness smoke test.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import Campaign, CampaignConfig
from repro.core.persistence import JsonlRecordSink, record_to_dict
from repro.sim import (adjacent_traffic, braking_lead, crossing_pedestrian,
                       empty_road, highway_cruise, lead_vehicle_cutin,
                       merging_traffic, occluded_pedestrian, overtake_cutin,
                       queued_traffic, stalled_vehicle, stop_and_go,
                       two_lead_reveal)

RANDOM_EXPERIMENTS = {"full": 640, "tiny": 96}
RANDOM_DRAW_SEED = 0
RANDOM_WORKERS = 2
RANDOM_BATCH_SIM = 16
WIDE_SCENARIOS = {"full": 27, "tiny": 3}
WIDE_POPULATION_SEED = 0
WIDE_TOP_K = {"full": 24, "tiny": 4}
WIDE_BUILDERS = (empty_road, highway_cruise, lead_vehicle_cutin,
                 two_lead_reveal, braking_lead, stop_and_go, stalled_vehicle,
                 adjacent_traffic, merging_traffic, crossing_pedestrian,
                 overtake_cutin, queued_traffic, occluded_pedestrian)


def bench_scenarios(size: str = "full"):
    """The ten-scenario population of ``drivefi``.

    The core situations plus the scripted multi-vehicle and small-object
    templates, shortened to 15-20 s."""
    scenarios = [replace(empty_road(), duration=15.0),
                 replace(highway_cruise(), duration=20.0),
                 replace(lead_vehicle_cutin(), duration=15.0),
                 replace(two_lead_reveal(), duration=20.0),
                 replace(braking_lead(), duration=20.0),
                 replace(stalled_vehicle(), duration=20.0),
                 replace(adjacent_traffic(), duration=15.0),
                 replace(overtake_cutin(), duration=20.0),
                 replace(queued_traffic(), duration=20.0),
                 replace(occluded_pedestrian(), duration=20.0)]
    if size == "tiny":
        return [replace(s, duration=16.0) for s in scenarios[1:4]]
    return scenarios


def wide_scenarios(size: str = "full"):
    """The population of ``random-fi`` and ``drivefi-wide``, drawn from a
    fixed seed."""
    rng = np.random.default_rng(WIDE_POPULATION_SEED)
    scenarios = []
    for i in range(WIDE_SCENARIOS[size]):
        builder = WIDE_BUILDERS[int(rng.integers(len(WIDE_BUILDERS)))]
        scenario = builder(ego_speed=float(rng.uniform(18.0, 33.0)))
        scenarios.append(replace(scenario, name=f"{scenario.name}-{i}",
                                 duration=float(rng.uniform(30.0, 46.0))))
    if size == "tiny":
        return [replace(s, duration=16.0) for s in scenarios]
    return scenarios


@dataclass
class Outcome:
    """What one campaign call delivered."""

    summary: object                 # repro.core.CampaignSummary
    records: list[dict]             # serialized, in emission order
    expected: int                   # experiments the call should deliver


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str, bool], Campaign]
    #: ``run(campaign, size, serial)``; ``serial`` drops the pool.
    run: Callable[[Campaign, str, bool], Outcome]


def _bayesian_outcome(result) -> Outcome:
    return Outcome(summary=result.summary,
                   records=[record_to_dict(r) for r in
                            result.summary.records],
                   expected=len(result.candidates))


def _build_drivefi(seed: int, size: str, profile: bool) -> Campaign:
    return Campaign(bench_scenarios(size),
                    CampaignConfig(seed=seed, profile_stages=profile))


def _run_drivefi(campaign: Campaign, size: str, serial: bool) -> Outcome:
    return _bayesian_outcome(campaign.bayesian_campaign())


def _build_random(seed: int, size: str, profile: bool) -> Campaign:
    return Campaign(wide_scenarios(size),
                    CampaignConfig(seed=seed, profile_stages=profile),
                    cache_dir=tempfile.mkdtemp(prefix="random-fi-"))


def _run_random(campaign: Campaign, size: str, serial: bool) -> Outcome:
    path = Path(campaign.cache_dir) / "records.jsonl"
    n = RANDOM_EXPERIMENTS[size]
    with JsonlRecordSink(path, style="random") as sink:
        summary = campaign.random_campaign(
            n, seed=RANDOM_DRAW_SEED,
            workers=None if serial else RANDOM_WORKERS,
            batch_sim=RANDOM_BATCH_SIM, record_sink=sink)
    with path.open(encoding="utf-8") as stream:
        records = [json.loads(line) for line in stream]
    return Outcome(summary=summary,
                   records=[r for r in records if "_meta" not in r],
                   expected=n)


def _build_wide(seed: int, size: str, profile: bool) -> Campaign:
    return Campaign(wide_scenarios(size),
                    CampaignConfig(seed=seed, profile_stages=profile),
                    trace_store=True)


def _run_wide(campaign: Campaign, size: str, serial: bool) -> Outcome:
    return _bayesian_outcome(
        campaign.bayesian_campaign(top_k=WIDE_TOP_K[size]))


WORKLOADS = {w.name: w for w in (
    Workload("drivefi", _build_drivefi, _run_drivefi),
    Workload("random-fi", _build_random, _run_random),
    Workload("drivefi-wide", _build_wide, _run_wide),
)}
