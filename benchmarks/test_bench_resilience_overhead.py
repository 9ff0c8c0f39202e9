"""Supervision overhead: supervised pool vs a bare process pool.

The resilience layer (PR 6) runs every pooled experiment under
:class:`repro.core.resilience.SupervisedExecutor` — per-job wall-clock
timeouts, crash respawn, bounded retries — instead of a bare
``ProcessPoolExecutor``.  Supervision must be effectively free on the
fault-free path: the whole point is to leave it on by default, so a
healthy campaign may not pay for the insurance.  This bench submits the
same job set — one campaign-pipeline validation task per job — to both
engines with ``workers=4`` and pins record-for-record agreement plus
the overhead bound (supervised within 5% of unsupervised wall-clock).

The overhead gate needs real cores (with oversubscribed CPUs the noise
floor swamps a 5% bound), so it only applies when the runner exposes at
least ``WORKERS`` usable CPUs — equivalence is asserted unconditionally.
"""

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace

from repro.analysis import ascii_table
from repro.core import (Campaign, CampaignConfig, FaultSpec,
                        SupervisedExecutor)
from repro.core.parallel import _policy, _pool_context
from repro.core.pipeline import (_init_pipeline_worker,
                                 _pipeline_validate_chunk)
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       queued_traffic, stalled_vehicle, two_lead_reveal)

from conftest import usable_cpus

WORKERS = 4


def bench_population():
    return [replace(lead_vehicle_cutin(), duration=14.0),
            replace(two_lead_reveal(), duration=14.0),
            replace(stalled_vehicle(), duration=16.0),
            replace(queued_traffic(), duration=16.0),
            replace(braking_lead(), duration=18.0),
            replace(highway_cruise(), duration=18.0)]


def bench_jobs(scenarios):
    """A deterministic mixed grid: every scenario, three ticks, three
    variables — enough work that per-job supervision cost would show."""
    jobs = []
    for scenario in scenarios:
        for tick in (20, 60, 100):
            for variable, value in (("brake", 0.0), ("throttle", 1.0),
                                    ("steering", 0.35)):
                jobs.append((scenario.name,
                             FaultSpec(variable, value, tick, 4)))
    return jobs


def tasks(jobs):
    """One pipeline validation chunk per job, keyed by its slot."""
    return [(name, [(slot, fault)]) for slot, (name, fault)
            in enumerate(jobs)]


def run_unsupervised(scenarios, config, jobs):
    """The pre-resilience engine: a bare pool, no timeouts, no retries,
    no crash recovery — the overhead baseline supervision is held to."""
    records = [None] * len(jobs)
    with ProcessPoolExecutor(max_workers=WORKERS,
                             mp_context=_pool_context(None),
                             initializer=_init_pipeline_worker,
                             initargs=(scenarios, config, None)) as pool:
        futures = [pool.submit(_pipeline_validate_chunk, task)
                   for task in tasks(jobs)]
        for future in as_completed(futures):
            for slot, record in future.result():
                records[slot] = record
    return records


def run_supervised(scenarios, config, jobs):
    """The same tasks under :class:`SupervisedExecutor` (the pool the
    campaign pipeline runs on)."""
    records = [None] * len(jobs)
    with SupervisedExecutor(WORKERS, _pool_context(None),
                            initializer=_init_pipeline_worker,
                            initargs=(scenarios, config, None),
                            policy=_policy(config),
                            seed=config.seed) as pool:
        for task in tasks(jobs):
            pool.submit(_pipeline_validate_chunk, task, tag=task[0])
        for _, value, failure in pool.drain():
            assert failure is None, failure
            for slot, record in value:
                records[slot] = record
    return records


def test_bench_resilience_overhead(benchmark):
    scenarios = bench_population()
    config = CampaignConfig()
    jobs = bench_jobs(scenarios)

    # Warm the process-wide caches both engines share so timing order
    # doesn't favour the second run.
    warm = Campaign(scenarios[:2], CampaignConfig())
    warm.exhaustive_campaign(tick_stride=64, variable_names=["brake"],
                             workers=WORKERS)

    base_start = time.perf_counter()
    baseline = run_unsupervised(scenarios, config, jobs)
    baseline_seconds = time.perf_counter() - base_start

    def timed_supervised():
        start = time.perf_counter()
        records = run_supervised(scenarios, config, jobs)
        return records, time.perf_counter() - start

    supervised, supervised_seconds = benchmark.pedantic(
        timed_supervised, rounds=1, iterations=1)

    overhead = supervised_seconds / baseline_seconds

    print("\nSupervised pool vs bare ProcessPoolExecutor (no faults)")
    print(ascii_table(["metric", "bare pool", "supervised"], [
        ["experiments", len(baseline), len(supervised)],
        ["wall seconds", f"{baseline_seconds:.2f}",
         f"{supervised_seconds:.2f}"],
        ["overhead", "1x", f"{overhead:,.3f}x"],
    ]))
    benchmark.extra_info["baseline_seconds"] = baseline_seconds
    benchmark.extra_info["supervised_seconds"] = supervised_seconds
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["experiments"] = len(jobs)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # Supervision must not change one record on the healthy path...
    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    assert strip(supervised) == strip(baseline)
    assert all(r.error is None for r in supervised)
    # ...and must cost at most 5% wall-clock when there are real cores
    # to time it on.  --benchmark-disable smoke lanes only check
    # equivalence.
    if benchmark.disabled:
        return
    if usable_cpus() < WORKERS:
        print(f"only {usable_cpus()} usable CPU(s) for {WORKERS} "
              f"workers: overhead gate skipped")
        return
    assert overhead <= 1.05, (
        f"supervised execution cost {overhead:.3f}x the bare pool on a "
        f"fault-free run (budget: 1.05x)")
