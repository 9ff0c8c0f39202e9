"""Straight-loop reference for the campaign driver's equivalence suites.

Each function rebuilds one campaign style's job list with the
campaign's own seeded generators, then executes every job serially
through :meth:`Campaign.run_fault` into a :class:`CampaignSummary` —
no process pool, journal, batched engine, trace spool or ordered
emitter.  It imports nothing from :mod:`repro.core.pipeline`, so a
scheduling, batching or resume-merge bug in the driver cannot hide in
the reference it is compared against.

Pass a campaign whose golden runs the reference may collect itself
(serially, through :meth:`Campaign.golden_runs`).
"""

from repro.core import (MINED_VARIABLES, BayesianCampaignResult,
                        BayesianFaultInjector, CampaignSummary)


def run_jobs(campaign, jobs) -> CampaignSummary:
    """Every ``(scenario name, fault)`` job, in order, one at a time."""
    summary = CampaignSummary()
    for name, fault in jobs:
        summary.add(campaign.run_fault(name, fault))
    return summary


def _golden_ticks(campaign):
    return lambda name: campaign.injection_ticks(campaign._by_name[name])


def random_campaign(campaign, n_experiments, seed=None,
                    interface_share=0.0, interface_kinds=None,
                    interface_channels=None) -> CampaignSummary:
    jobs = campaign._random_jobs(n_experiments, seed,
                                 _golden_ticks(campaign), interface_share,
                                 interface_kinds, interface_channels)
    return run_jobs(campaign, jobs)


def exhaustive_campaign(campaign, tick_stride=10, variable_names=None,
                        max_experiments=None,
                        interface_grid=False) -> CampaignSummary:
    jobs = []
    for scenario in campaign.scenarios:
        ticks = campaign.injection_ticks(scenario, stride=tick_stride)
        jobs.extend((scenario.name, fault) for fault in
                    campaign._exhaustive_grid(ticks, variable_names,
                                              interface_grid))
    return run_jobs(campaign, jobs[:max_experiments])


def architectural_campaign(campaign, n_experiments, model=None, seed=None,
                           interface_hangs=False):
    """Returns ``(summary, outcome_counts)`` like the campaign method."""
    jobs, outcome_counts = campaign._architectural_jobs(
        n_experiments, model, seed, _golden_ticks(campaign),
        interface_hangs)
    return run_jobs(campaign, jobs), outcome_counts


def bayesian_campaign(campaign, variables=MINED_VARIABLES, threshold=0.0,
                      top_k=None, use_batched=True,
                      interface_probe=()) -> BayesianCampaignResult:
    """Whole-set training, one mining pass over every scene, validate."""
    injector = BayesianFaultInjector.train(
        list(campaign.golden_runs().values()),
        safety_config=campaign.config.safety)
    mine = (injector.mine_critical_faults_batched if use_batched
            else injector.mine_critical_faults)
    candidates, mining = mine(campaign.scene_rows(), variables=variables,
                              threshold=threshold, top_k=top_k)
    duration = campaign.config.fault_duration_ticks
    jobs = []
    for candidate in candidates:
        jobs.append((candidate.scenario,
                     candidate.to_fault_spec(duration_ticks=duration)))
        jobs.extend(campaign._probe_jobs(candidate, interface_probe))
    return BayesianCampaignResult(
        injector=injector, candidates=candidates, mining=mining,
        summary=run_jobs(campaign, jobs), train_seconds=0.0)
