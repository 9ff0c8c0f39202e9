"""Process-parallel building blocks of the campaign driver.

Each experiment is an independent closed-loop simulation, so campaign
validation parallelizes embarrassingly — and so does golden-trace
collection, where each scenario's fault-free run (and its checkpoint
ladder) is independent of every other's.  The one campaign driver,
:class:`repro.core.pipeline.CampaignPipeline`, fans both over a single
supervised pool built from the primitives here:

* :func:`execute_experiment` (and its fused-lane sibling
  :func:`execute_experiment_batch`) — the single source of experiment
  truth, called in-process by serial runs and by every pool worker, so
  serial and pooled campaigns produce identical records.
* :func:`_golden_run` — one scenario's golden trace plus checkpoint
  ladder, optionally spooled to the out-of-core trace store.
* :func:`_pool_context` / :func:`_picklable` /
  :func:`_warn_serial_fallback` — start-method selection and the
  spawn-unpicklable serial fallback.

:func:`collect_golden_runs` shards the golden runs of a scenario set
across workers outside any campaign (it backs the public
:meth:`Campaign.golden_runs`); results return in scenario order,
identical to the serial loop.

Scenario builders are ``functools.partial`` bindings of module-level
functions, so scenarios pickle and pools work under any start method:
``fork`` is preferred (workers inherit shared state for free), with
``spawn`` as the fallback on platforms without ``fork``.  If a pool's
initializer arguments cannot be pickled under a non-fork start method
(e.g. caller-supplied closure scenarios), execution falls back to
serial in-process with a one-line ``RuntimeWarning`` naming the
unpicklable argument.

Pooled execution is *supervised* (:mod:`repro.core.resilience`): jobs
run under per-job wall-clock timeouts with bounded seeded-backoff
retries, a crashed worker (SIGKILL, segfault, OOM) is respawned and its
in-flight job resubmitted, and a job that keeps failing is quarantined
as a structured failure record in its deterministic slot instead of
killing the campaign.  The driver's serial path applies the same
retry/quarantine policy (timeouts aside — a hang cannot be interrupted
in-process), so serial and pooled campaigns stay record-for-record
equivalent even when a job fails deterministically.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from ..sim.scenario import Scenario
from .checkpoint import CheckpointStore
from .resilience import (CampaignExecutionError, ResilienceConfig,
                         SupervisedExecutor)
from .results import ExperimentRecord
from .simulate import (FaultSpec, RunResult, run_experiments_batched,
                       run_scenario, run_scenario_from_checkpoint)

if TYPE_CHECKING:  # avoid a circular import with .campaign
    from .campaign import CampaignConfig

#: Job description: (scenario name, fault to inject).
ExperimentJob = tuple[str, FaultSpec]

#: Worker-process state installed by the golden pool initializer.
_GOLDEN_STATE: tuple[dict[str, Scenario], "CampaignConfig",
                     str | None] | None = None


def _to_record(result: RunResult, scenario_name: str, fault: FaultSpec,
               config: "CampaignConfig") -> ExperimentRecord:
    return ExperimentRecord(
        scenario=scenario_name, injection_tick=fault.start_tick,
        variable=fault.variable, value=fault.value,
        duration_ticks=fault.duration_ticks, seed=config.seed,
        hazard=result.hazard, landed=result.landed,
        pre_delta_long=result.pre_delta_long,
        pre_delta_lat=result.pre_delta_lat,
        min_delta_long=result.min_delta_long,
        min_delta_lat=result.min_delta_lat,
        sim_seconds=result.sim_seconds,
        wall_seconds=result.wall_seconds,
        kind=fault.kind, channel=fault.channel,
        degraded=result.degraded)


def execute_experiment(scenario: Scenario, config: "CampaignConfig",
                       fault: FaultSpec,
                       checkpoints: CheckpointStore | None = None
                       ) -> ExperimentRecord:
    """Run one injection experiment and record the outcome.

    The single source of truth for experiment execution: both the serial
    path (:meth:`repro.core.campaign.Campaign.run_fault`) and the pool
    workers call this, which is what makes parallel and serial campaigns
    produce identical records.

    With a ``checkpoints`` store the run forks from the nearest golden
    snapshot at or before the fault tick, simulating only the fault
    window plus the post-fault horizon; without one (or when the store
    has no usable snapshot) it falls back to full replay from tick 0 —
    the reference oracle.
    """
    checkpoint = (checkpoints.nearest(scenario.name, fault.start_tick)
                  if checkpoints is not None else None)
    if checkpoint is not None and checkpoint.seed == config.seed:
        result = run_scenario_from_checkpoint(
            scenario, checkpoint, ads_config=config.ads, faults=[fault],
            safety_config=config.safety,
            horizon_after_fault=config.horizon_after_fault,
            record_trace=False)
    else:
        result = run_scenario(
            scenario, ads_config=config.ads, seed=config.seed,
            faults=[fault], safety_config=config.safety,
            horizon_after_fault=config.horizon_after_fault,
            record_trace=False)
    return _to_record(result, scenario.name, fault, config)


def execute_experiment_batch(scenario: Scenario,
                             config: "CampaignConfig",
                             faults: list[FaultSpec],
                             checkpoints: CheckpointStore | None = None
                             ) -> list[ExperimentRecord]:
    """Run several same-scenario experiments through the batched engine.

    The vectorized sibling of ``len(faults)`` calls to
    :func:`execute_experiment`: lanes share one
    :class:`~repro.sim.batch.BatchWorldState` and advance under the
    fused numpy kernels, with each lane forking from the same nearest
    golden checkpoint its scalar twin would pick (full replay when the
    store has none, or the snapshot's seed does not match).  Records are
    bit-for-bit the scalar records, in ``faults`` order (wall clock
    aside).
    """
    forks = []
    for fault in faults:
        checkpoint = (checkpoints.nearest(scenario.name, fault.start_tick)
                      if checkpoints is not None else None)
        if checkpoint is not None and checkpoint.seed != config.seed:
            checkpoint = None
        forks.append(checkpoint)
    results = run_experiments_batched(
        scenario, [[fault] for fault in faults],
        ads_config=config.ads, safety_config=config.safety,
        seed=config.seed, checkpoints=forks,
        horizon_after_fault=config.horizon_after_fault,
        batch_size=max(2, config.batch_sim), record_trace=False)
    return [_to_record(result, scenario.name, fault, config)
            for result, fault in zip(results, faults)]


def _init_golden_worker(scenarios: list[Scenario],
                        config: "CampaignConfig",
                        trace_spool: str | None = None) -> None:
    global _GOLDEN_STATE
    _GOLDEN_STATE = ({s.name: s for s in scenarios}, config, trace_spool)


def _golden_run(scenario: Scenario, config: "CampaignConfig",
                capture_ticks: list[int] | None,
                trace_spool: str | Path | None = None) -> RunResult:
    """One scenario's fault-free reference run (+ checkpoint ladder).

    With a ``trace_spool`` directory the trace is written to the
    columnar :class:`repro.sim.TraceStore` spool *worker-side* and the
    returned result carries a memory-mapped handle instead of the
    samples — what keeps the parent's golden set O(file handles) and
    makes the pool result pickle tiny.
    """
    result = run_scenario(
        scenario, ads_config=config.ads, seed=config.seed,
        safety_config=config.safety, record_trace=True,
        checkpoint_ticks=capture_ticks)
    if trace_spool is not None:
        from ..sim.trace import TraceStore
        result.trace = TraceStore(trace_spool).put(scenario.name,
                                                   result.trace)
    return result


def _run_golden_job(job: tuple[str, tuple[int, ...] | None]) -> RunResult:
    assert _GOLDEN_STATE is not None, "golden pool not initialized"
    by_name, config, trace_spool = _GOLDEN_STATE
    scenario_name, capture_ticks = job
    return _golden_run(by_name[scenario_name], config,
                       list(capture_ticks) if capture_ticks is not None
                       else None, trace_spool)


def _pool_context(start_method: str | None = None
                  ) -> multiprocessing.context.BaseContext | None:
    """The multiprocessing context to fan out with (None -> run serial).

    ``fork`` is preferred: workers inherit scenarios and checkpoint
    stores through the copied address space, so nothing is pickled per
    worker.  Platforms without ``fork`` use ``spawn``, which requires
    every initializer argument to pickle (scenario builders are
    ``functools.partial`` bindings, so the library's scenarios do).
    """
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            return None
        return multiprocessing.get_context(start_method)
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


def _picklable(*values) -> bool:
    try:
        pickle.dumps(values)
        return True
    except Exception:
        return False


def _policy(config: "CampaignConfig") -> ResilienceConfig:
    """The campaign's supervision policy (tolerating configs without one)."""
    return getattr(config, "resilience", None) or ResilienceConfig()


def _warn_serial_fallback(method: str, **named) -> None:
    """One-line warning for the spawn-unpicklable serial fallback.

    Names the offending argument: a silent fallback reads as "the pool
    is slow today" and hides that caller-supplied closures (scenarios,
    configs) cannot cross a non-fork process boundary.
    """
    culprit = next((name for name, value in named.items()
                    if not _picklable(value)), "arguments")
    warnings.warn(
        f"campaign pool disabled: {culprit} cannot be pickled under the "
        f"{method!r} start method; falling back to serial in-process "
        f"execution (results are identical, just not parallel)",
        RuntimeWarning, stacklevel=3)


def collect_golden_runs(scenarios: list[Scenario],
                        config: "CampaignConfig",
                        capture_ticks: dict[str, list[int] | None]
                        | None = None,
                        workers: int | None = None,
                        start_method: str | None = None,
                        trace_spool: str | Path | None = None
                        ) -> dict[str, RunResult]:
    """Fault-free reference runs of ``scenarios``, optionally sharded.

    Each scenario's golden run is independent, so collection fans over
    the process pool the same way validation does; results return keyed
    by scenario name with the mapping's insertion order matching
    ``scenarios`` — identical to the serial loop.  ``capture_ticks``
    maps scenario names to the checkpoint ladders to capture during the
    run (absent/None means capture nothing); the returned
    :class:`RunResult` objects carry the captured checkpoints, which
    pickle back to the parent across any start method.  ``trace_spool``
    switches the results to out-of-core traces: each worker (or the
    serial loop) spools its trace to the columnar store under that
    directory and the results carry memory-mapped handles — values
    bit-for-bit identical to the in-RAM traces.
    """
    capture_ticks = capture_ticks or {}
    spool = str(trace_spool) if trace_spool is not None else None
    jobs = [(s.name, tuple(capture_ticks[s.name])
             if capture_ticks.get(s.name) is not None else None)
            for s in scenarios]
    context = _pool_context(start_method) \
        if workers and workers > 1 and len(scenarios) > 1 else None
    if context is not None and context.get_start_method() != "fork" \
            and not _picklable(scenarios, config):
        _warn_serial_fallback(context.get_start_method(),
                              scenarios=scenarios, config=config)
        context = None
    if context is None:
        runs = [_golden_run(s, config,
                            list(ticks) if ticks is not None else None,
                            spool)
                for s, (_, ticks) in zip(scenarios, jobs)]
        return {s.name: run for s, run in zip(scenarios, runs)}
    # Pooled collection is supervised like validation — a worker killed
    # mid-simulation respawns and its scenario re-runs — but a golden
    # run that keeps failing raises even in non-strict campaigns: every
    # downstream stage (ticks, mining, checkpoints) needs the trace, so
    # there is no slot a failure record could meaningfully occupy.
    workers = min(workers, len(scenarios))
    policy = _policy(config)
    by_name: dict[str, RunResult] = {}
    with SupervisedExecutor(workers, context,
                            initializer=_init_golden_worker,
                            initargs=(scenarios, config, spool),
                            policy=policy, seed=config.seed) as pool:
        for job in jobs:
            pool.submit(_run_golden_job, job, tag=job[0])
        for name, run, failure in pool.drain():
            if failure is not None:
                raise CampaignExecutionError(
                    f"golden run of {name!r} failed after "
                    f"{failure.attempts} attempt(s) "
                    f"({failure.error}: {failure.message})")
            by_name[name] = run
    return {s.name: by_name[s.name] for s in scenarios}
