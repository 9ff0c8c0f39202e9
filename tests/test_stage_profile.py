"""Per-stage ADS profiling around a campaign (``profile_stages``).

``Campaign._run_pipeline`` is the one place the process-global stage
timer is armed: reset on entry, disarmed on exit (error included), and
its report folded into ``summary.extra_info['stage_timings']``.
Profiling is observability only, so it must not change one record.
"""

from dataclasses import asdict, replace

import pytest

from repro.ads.profiling import STAGE_TIMER, STAGES
from repro.core import Campaign, CampaignConfig
from repro.sim import highway_cruise, lead_vehicle_cutin


def small_scenarios():
    return [replace(highway_cruise(), duration=16.0),
            replace(lead_vehicle_cutin(), duration=14.0)]


def strip_wall(records):
    rows = []
    for record in records:
        row = asdict(record)
        row.pop("wall_seconds")
        rows.append(row)
    return rows


def run(profile_stages, batch_sim):
    campaign = Campaign(small_scenarios(),
                        CampaignConfig(profile_stages=profile_stages))
    return campaign.random_campaign(12, seed=4, batch_sim=batch_sim)


@pytest.mark.parametrize("batch_sim", [0, 16])
class TestStageTimings:
    def test_serial_campaign_reports_every_stage(self, batch_sim):
        timings = run(True, batch_sim).extra_info["stage_timings"]
        assert list(timings) == list(STAGES)
        for stage in STAGES:
            assert timings[stage]["calls"] > 0
            assert timings[stage]["seconds"] > 0.0

    def test_each_campaign_reports_only_its_own_work(self, batch_sim):
        """The timer resets on entry: a rerun reports the same calls."""
        first = run(True, batch_sim).extra_info["stage_timings"]
        second = run(True, batch_sim).extra_info["stage_timings"]
        assert {stage: entry["calls"] for stage, entry in first.items()} \
            == {stage: entry["calls"] for stage, entry in second.items()}

    def test_profiling_leaves_records_bit_identical(self, batch_sim):
        profiled = run(True, batch_sim)
        plain = run(False, batch_sim)
        assert "stage_timings" not in plain.extra_info
        assert strip_wall(profiled.records) == strip_wall(plain.records)
        assert not STAGE_TIMER.enabled


def test_timer_disarmed_after_failed_campaign():
    campaign = Campaign(small_scenarios(),
                        CampaignConfig(profile_stages=True))

    def explode(event):
        if event.stage == "validated":
            assert STAGE_TIMER.enabled          # armed during the run
            raise RuntimeError("progress sink exploded")

    with pytest.raises(RuntimeError, match="progress sink exploded"):
        campaign.random_campaign(4, seed=1, batch_sim=16,
                                 on_progress=explode)
    assert STAGE_TIMER.enabled is False
    # The per-call batch_sim override is unwound on the error path too.
    assert campaign.config.batch_sim == 0
