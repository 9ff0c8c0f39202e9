"""Degradation-watch overhead: graceful degradation on vs off.

The interface-fault extension (PR 8) routes every stage payload through
the :class:`~repro.ads.channels.ChannelBus` and, when graceful
degradation is enabled (the default), checks per-channel staleness
against the TTL every control tick.  That watch must be effectively
free on the fault-free path — degradation ships on by default, so every
healthy campaign pays for it on every tick of every experiment.

This bench runs one deterministic value-fault grid through the serial
engine with degradation enabled and with ``DegradationConfig(enabled=
False)``, and pins record-for-record agreement plus the overhead bound
(enabled within 5% of disabled wall-clock).  The gate reads the median
of per-pair ratios over interleaved enabled/disabled pairs: shared
hosts swing by ±25% in speed within seconds, far more than the 5%
being measured, so each pair alternates the two configurations job by
job and compares summed times, which cancels the swing.  The timing
gate needs a quiet core, so it only applies with at least two usable
CPUs; equivalence is asserted unconditionally.
"""

import statistics
import time
from dataclasses import asdict, replace

from repro.analysis import ascii_table
from repro.core import (Campaign, CampaignConfig, DegradationConfig,
                        FaultSpec)
from repro.ads.runtime import ADSConfig
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       two_lead_reveal)

from conftest import usable_cpus

PAIRS = 9


def bench_population():
    return [replace(lead_vehicle_cutin(), duration=14.0),
            replace(two_lead_reveal(), duration=14.0),
            replace(braking_lead(), duration=16.0),
            replace(highway_cruise(), duration=16.0)]


def bench_jobs(scenarios):
    """Value faults only: the interface machinery stays on the no-op
    path, which is exactly the overhead being measured."""
    jobs = []
    for scenario in scenarios:
        for tick in (20, 60, 100):
            for variable, value in (("brake", 0.0), ("throttle", 1.0),
                                    ("steering", 0.35)):
                jobs.append((scenario.name,
                             FaultSpec(variable, value, tick, 4)))
    return jobs


def run_pair(campaigns, jobs, first):
    """One interleaved pair: every job on each of the golden-warmed
    ``campaigns`` (degradation off, on), alternating which runs a job
    first.  Returns the record lists and summed seconds per campaign."""
    records = ([], [])
    seconds = [0.0, 0.0]
    for k, (scenario_name, fault) in enumerate(jobs):
        for side in ((k + first) % 2, (k + first + 1) % 2):
            start = time.perf_counter()
            records[side].append(campaigns[side].run_fault(scenario_name,
                                                           fault))
            seconds[side] += time.perf_counter() - start
    return records, seconds


def strip(records):
    rows = []
    for record in records:
        row = asdict(record)
        row.pop("wall_seconds")
        rows.append(row)
    return rows


def test_bench_interface_degradation_overhead(benchmark):
    scenarios = bench_population()
    jobs = bench_jobs(scenarios)
    enabled_config = CampaignConfig()
    disabled_config = CampaignConfig(
        ads=ADSConfig(degradation=DegradationConfig(enabled=False)))

    # Warm the golden runs and checkpoint ladders of both configs so
    # neither timed run pays the first-touch cost.
    campaigns = (Campaign(scenarios, disabled_config),
                 Campaign(scenarios, enabled_config))
    for campaign in campaigns:
        campaign.golden_runs()

    (baseline, degraded), first = benchmark.pedantic(
        run_pair, args=(campaigns, jobs, 0), rounds=1, iterations=1)
    pairs = [first] + [run_pair(campaigns, jobs, pair % 2)[1]
                       for pair in range(1, 1 if benchmark.disabled
                                         else PAIRS)]
    ratios = [on / off for off, on in pairs]
    overhead = statistics.median(ratios)
    baseline_seconds = statistics.median(off for off, _ in pairs)
    degraded_seconds = statistics.median(on for _, on in pairs)

    print("\nGraceful degradation on vs off (fault-free value grid)")
    print(ascii_table(["metric", "degradation off", "degradation on"], [
        ["experiments", len(baseline), len(degraded)],
        ["wall seconds", f"{baseline_seconds:.2f}",
         f"{degraded_seconds:.2f}"],
        ["overhead (median pair)", "1x", f"{overhead:,.3f}x"],
        ["pair ratios", "", " ".join(f"{r:.3f}" for r in ratios)],
    ]))
    benchmark.extra_info["baseline_seconds"] = baseline_seconds
    benchmark.extra_info["degraded_seconds"] = degraded_seconds
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["pair_ratios"] = ratios
    benchmark.extra_info["experiments"] = len(jobs)
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # The degradation watch must not change one record on a fault-free
    # grid (no interface fault ever lands, so nothing may engage)...
    assert strip(degraded) == strip(baseline)
    assert not any(r.degraded for r in degraded)
    # ...and must cost at most 5% wall-clock when there is a quiet core
    # to time it on.  --benchmark-disable smoke lanes only check
    # equivalence.
    if benchmark.disabled:
        return
    if usable_cpus() < 2:
        print(f"only {usable_cpus()} usable CPU(s): overhead gate skipped")
        return
    assert overhead <= 1.05, (
        f"degradation watch cost {overhead:.3f}x the disabled path on a "
        f"fault-free grid (budget: 1.05x)")
