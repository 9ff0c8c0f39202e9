"""One campaign in a fresh interpreter; prints its measurements as JSON.

Spawned by ``run.py`` with ``PYTHONPATH`` at the checkout's ``src`` and
``TMPDIR`` at a directory of its own, so import cost, cold caches and
every file the campaign writes belong to this one campaign.  ``--t0``
is the parent's ``time.perf_counter()`` at spawn (a system-wide
monotonic clock on Linux), so ``setup_s`` covers interpreter start,
imports and building the ``Campaign``.

Modes: ``setup`` stops after building the campaign; ``run`` runs the
workload as defined; ``serial`` runs it without a pool; ``traced`` runs
it serially with every layer wrapped in spans (:mod:`tracing`) and the
program's ``profile_stages`` counters on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from contextlib import ExitStack


def record_digest(records: list[dict]) -> str:
    """sha256 of the record stream with its wall-clock field removed."""
    digest = hashlib.sha256()
    for record in records:
        fields = {k: v for k, v in record.items() if k != "wall_seconds"}
        digest.update(json.dumps(fields, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def tree_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:        # a spool file removed while we walk
                pass
    return total


def layer_metrics(tracer, summary, stage_timings: dict) -> dict:
    """The per-layer metrics of one traced campaign."""
    from tracing import ROOT_LAYER
    spans, layer, entries = tracer.spans, tracer.layer_self_s, \
        tracer.layer_entries
    counters = tracer.counters
    root = spans["campaign"]
    validate_s = tracer.total("validate")
    experiments = summary.total
    stop_calls = tracer.count("stop")
    mine_s = tracer.total("mine")
    metrics = {
        "pipeline.golden_s": tracer.total("golden"),
        "pipeline.validate_s": validate_s,
        "pipeline.unattributed_s": root.self_s,
        "pipeline.attributed_ratio": 1.0 - root.self_s / root.total_s,
        "simulate.experiments": experiments,
        "simulate.ms_per_experiment": 1e3 * validate_s / experiments,
        "simulate.self_s": tracer.self_time("validate", "replay"),
        "ads.s": layer["ads"],
        "ads.calls": entries["ads"],
        "ads.fused_lanes": counters["fused_lanes"],
        "ads.peeled_lanes": counters["peeled_lanes"],
        "safety.s": layer["safety"],
        "safety.calls": entries["safety"],
        "safety.stop_calls": stop_calls,
        "safety.stop_distinct_keys": counters["stop_distinct_keys"],
        "safety.stop_reuse_ratio": (
            1.0 - counters["stop_distinct_keys"] / stop_calls
            if stop_calls else 0.0),
        "sim.s": layer["sim"],
        "sim.calls": entries["sim"],
        "checkpoint.s": layer["checkpoint"],
        "checkpoint.snapshots": tracer.count("snapshot"),
        "checkpoint.restores": tracer.count("restore"),
        "bayesnet.train_s": tracer.total("train"),
        "bayesian_fi.mine_s": mine_s,
        "bayesian_fi.scenes": counters["scenes"],
        "bayesian_fi.scored": counters["scored"],
        "bayesian_fi.scored_per_s": (counters["scored"] / mine_s
                                     if mine_s else 0.0),
        "bayesian_fi.candidates": counters["mined_candidates"],
        "trace.s": layer["trace"],
        "persistence.s": layer["persistence"],
    }
    for stage in ("sensing", "perception", "world_model", "planning",
                  "actuation"):
        metrics[f"ads.{stage}_s"] = stage_timings.get(
            stage, {}).get("seconds", 0.0)
    shares = {name: seconds / root.total_s
              for name, seconds in sorted(layer.items())}
    shares[ROOT_LAYER] = root.self_s / root.total_s
    return {"layers": metrics, "layer_shares": shares,
            "phase_shares": {phase: tracer.total(phase) / root.total_s
                             for phase in ("golden", "train", "mine",
                                           "validate")}}


def run_campaign(workload, campaign, size: str, mode: str) -> dict:
    with ExitStack() as stack:
        if mode == "traced":
            from tracing import ROOT_LAYER, Tracer, instrumented
            tracer = stack.enter_context(instrumented(Tracer()))
            stack.enter_context(tracer.span("campaign", ROOT_LAYER))
        start = time.perf_counter()
        outcome = workload.run(campaign, size, mode != "run")
        campaign_s = time.perf_counter() - start
    summary = outcome.summary
    report = {"campaign_s": campaign_s,
              "experiments": summary.total,
              "hazards": summary.hazards,
              "failures": summary.failures,
              "expected": outcome.expected,
              "delivered": len(outcome.records),
              "digest": record_digest(outcome.records)}
    if mode == "traced":
        report.update(layer_metrics(
            tracer, summary, summary.extra_info.get("stage_timings", {})))
        # Bytes under this campaign's private temporary directory: the
        # cache dir, sink, journal, and checkpoint and trace spools.
        report["layers"]["persistence.bytes"] = tree_bytes(
            tempfile.gettempdir())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "serial", "traced"))
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import numpy
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    campaign = workload.build(args.seed, args.size, args.mode == "traced")
    report = {"setup_s": time.perf_counter() - args.t0,
              "numpy": numpy.__version__}
    if args.mode != "setup":
        report.update(run_campaign(workload, campaign, args.size,
                                   args.mode))
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    report.update(
        parent_cpu_s=own.ru_utime + own.ru_stime,
        worker_cpu_s=workers.ru_utime + workers.ru_stime,
        # ru_maxrss is in KiB on Linux; pool workers are reaped by now.
        peak_rss_mb=max(own.ru_maxrss, workers.ru_maxrss) / 1024.0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
