"""The campaign benchmark: whole fault-injection campaigns, each in a
fresh interpreter, through the public ``Campaign`` API.

Run from the root of a checkout::

    python3 campaign_bench/run.py --workload drivefi --seed 1 \\
        --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``drivefi``, ``random-fi`` and
``drivefi-wide``.  A run first builds the campaign a few times without
running it (set-up probes, after one unmeasured warm-up that also fills
the bytecode cache), then runs whole campaigns until ``--seconds`` have
passed, at least three.  Every figure is a median over the campaigns
(set-up: over probes and campaigns).

``--trace 0`` prints the end-to-end metrics: ``setup_s``,
``campaign_s``, ``criticals_per_cpu_s`` (validated hazards per
user+sys CPU-second of the campaign's whole process tree, pool workers
included) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced
campaigns with serial traced twins and prints the per-layer split
(``tracing.py``), the pool's parent/worker CPU split and
``trace_overhead_ratio``.

Correctness: every campaign of a run, traced or not, pooled or serial,
must deliver the same record stream (digest with wall-clock fields
removed), as many records as it was asked for, and at least one
hazard; otherwise the run prints ``"correct": false`` and exits 1.

The last line of standard output is the JSON result; the lines before
it are a human-readable report and the provenance of the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".campaign_bench_tmp"

WORKLOADS = ("drivefi", "random-fi", "drivefi-wide")
#: Workloads whose measured run uses a process pool; their ``--trace 1``
#: runs add an untraced serial twin as the tracing-overhead baseline.
POOLED = ("random-fi",)
MIN_CAMPAIGNS = 3
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("criticals_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit, better) of every ``--trace 1`` metric.
PER_LAYER = (
    ("pipeline.golden_s", "s", "lower"),
    ("pipeline.validate_s", "s", "lower"),
    ("pipeline.unattributed_s", "s", "lower"),
    ("pipeline.attributed_ratio", "ratio", "higher"),
    ("parallel.parent_cpu_s", "s", "lower"),
    ("parallel.worker_cpu_s", "s", "lower"),
    ("simulate.experiments", "count", "higher"),
    ("simulate.ms_per_experiment", "ms", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("ads.s", "s", "lower"),
    ("ads.calls", "count", "lower"),
    ("ads.sensing_s", "s", "lower"),
    ("ads.perception_s", "s", "lower"),
    ("ads.world_model_s", "s", "lower"),
    ("ads.planning_s", "s", "lower"),
    ("ads.actuation_s", "s", "lower"),
    ("ads.fused_lanes", "count", "higher"),
    ("ads.peeled_lanes", "count", "lower"),
    ("safety.s", "s", "lower"),
    ("safety.calls", "count", "lower"),
    ("safety.stop_calls", "count", "lower"),
    ("safety.stop_distinct_keys", "count", "lower"),
    ("safety.stop_reuse_ratio", "ratio", "higher"),
    ("sim.s", "s", "lower"),
    ("sim.calls", "count", "lower"),
    ("checkpoint.s", "s", "lower"),
    ("checkpoint.snapshots", "count", "lower"),
    ("checkpoint.restores", "count", "lower"),
    ("bayesnet.train_s", "s", "lower"),
    ("bayesian_fi.mine_s", "s", "lower"),
    ("bayesian_fi.scenes", "count", "higher"),
    ("bayesian_fi.scored", "count", "higher"),
    ("bayesian_fi.scored_per_s", "1/s", "higher"),
    ("bayesian_fi.candidates", "count", "higher"),
    ("trace.s", "s", "lower"),
    ("persistence.s", "s", "lower"),
    ("persistence.bytes", "bytes", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)


class BenchmarkError(Exception):
    """A campaign process failed; the run produces no numbers."""


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until no member is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    """Spawns the campaign processes of one run, one at a time."""

    def __init__(self, workload: str, seed: int, size: str, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.scratch = scratch
        self.spawned = 0

    def spawn(self, mode: str) -> dict:
        """One child process; its report plus the CPU its tree used."""
        self.spawned += 1
        tmp = self.scratch / f"campaign-{self.spawned}"
        tmp.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   TMPDIR=str(tmp))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"),
             "--workload", self.workload, "--seed", str(self.seed),
             "--size", self.size, "--mode", mode, "--t0", repr(t0)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
            start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:
            _kill_group(proc.pid)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchmarkError(f"{mode} campaign took longer than "
                                     f"{CHILD_TIMEOUT_S:.0f} s") from None
            raise
        # Pool workers that outlived their parent would be missing from
        # the CPU count; the group is empty after a clean exit.
        _kill_group(proc.pid)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        shutil.rmtree(tmp, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchmarkError(f"{mode} campaign process exited with "
                                 f"code {proc.returncode}")
        report = json.loads(out.decode("utf-8").strip().splitlines()[-1])
        report["cpu_s"] = ((after.ru_utime - before.ru_utime)
                           + (after.ru_stime - before.ru_stime))
        report["mode"] = mode
        return report


def _median(values) -> float:
    return statistics.median(values)


def _spread(values) -> str:
    return (f"median {_median(values):.4g}, min {min(values):.4g}, "
            f"max {max(values):.4g}, n={len(values)}")


def measure(runner: Runner, seconds: float, trace: bool
            ) -> tuple[list[dict], list[dict]]:
    """The run's set-up probes and campaign reports."""
    start = time.perf_counter()
    runner.spawn("setup")                      # warm-up, not measured
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    cycle = ["run"]
    if trace:
        if runner.workload in POOLED:
            cycle.append("serial")
        cycle.append("traced")
    min_cycles = 1 if trace else MIN_CAMPAIGNS
    campaigns: list[dict] = []
    cycles = 0
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        campaigns.extend(runner.spawn(mode) for mode in cycle)
        cycles += 1
    return probes, campaigns


def check(campaigns: list[dict]) -> list[str]:
    """Reasons the run's records are wrong (empty when they are right)."""
    problems = []
    digests = {c["digest"] for c in campaigns}
    if len(digests) != 1:
        problems.append(f"record digests differ across campaigns "
                        f"({len(digests)} distinct over "
                        f"{len(campaigns)} campaigns and modes "
                        f"{sorted({c['mode'] for c in campaigns})})")
    for c in campaigns:
        if not c["delivered"] == c["experiments"] == c["expected"]:
            problems.append(
                f"{c['mode']} campaign delivered {c['delivered']} "
                f"records, summarised {c['experiments']}, expected "
                f"{c['expected']}")
        if c["hazards"] == 0:
            problems.append(f"{c['mode']} campaign found no hazard")
    return problems


def end_to_end(probes: list[dict], campaigns: list[dict]) -> dict:
    setup = [r["setup_s"] for r in probes + campaigns]
    return {
        "setup_s": setup,
        "campaign_s": [c["campaign_s"] for c in campaigns],
        "criticals_per_cpu_s": [c["hazards"] / c["cpu_s"]
                                for c in campaigns],
        "peak_rss_mb": [c["peak_rss_mb"] for c in campaigns],
    }


def per_layer(workload: str, campaigns: list[dict]) -> dict:
    def of(mode):
        return [c for c in campaigns if c["mode"] == mode]
    traced = of("traced")
    values = {name: _median([c["layers"][name] for c in traced])
              for name in traced[0]["layers"]}
    values["parallel.parent_cpu_s"] = _median(
        [c["parent_cpu_s"] for c in of("run")])
    values["parallel.worker_cpu_s"] = _median(
        [c["worker_cpu_s"] for c in of("run")])
    baseline = of("serial" if workload in POOLED else "run")
    values["trace_overhead_ratio"] = (
        _median([c["campaign_s"] for c in traced])
        / _median([c["campaign_s"] for c in baseline]))
    return values


def provenance(campaigns: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode("utf-8"))
        source.update(path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"commit": commit, "source_sha256": source.hexdigest(),
            "python": platform.python_version(),
            "numpy": campaigns[0]["numpy"], "usable_cpus": cpus,
            "cpu_model": cpu_model}


def report(args, probes, campaigns, metrics: dict, prov: dict) -> None:
    first = campaigns[0]
    modes = ", ".join(sorted({c["mode"] for c in campaigns}))
    print(f"campaign benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(campaigns)} campaigns ({modes}), {len(probes)} set-up "
          f"probes")
    print(f"  records: {first['experiments']} per campaign, "
          f"{first['hazards']} hazards, digest {first['digest']}")
    failures = sum(c["failures"] for c in campaigns)
    attempted = sum(c["experiments"] for c in campaigns)
    print(f"  failed_ratio {failures / attempted:.4g} ratio "
          f"({failures} of {attempted} experiments)")
    if args.trace:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:28s} {metrics[name]:.6g} {unit}")
        traced = [c for c in campaigns if c["mode"] == "traced"]
        for kind in ("layer_shares", "phase_shares"):
            shares = {k: _median([c[kind][k] for c in traced])
                      for k in traced[0][kind]}
            print(f"  {kind.replace('_', ' ')} of traced campaign_s: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in sorted(
                      shares.items(), key=lambda kv: -kv[1])))
    else:
        samples = end_to_end(probes, campaigns)
        for name, unit in END_TO_END:
            print(f"  {name:20s} {metrics[name]:.6g} {unit} "
                  f"({_spread(samples[name])})")
        measured = [c for c in campaigns if c["mode"] == "run"]
        print(f"  cpu per campaign: parent "
              f"{_median([c['parent_cpu_s'] for c in measured]):.4g} s, "
              f"pool workers "
              f"{_median([c['worker_cpu_s'] for c in measured]):.4g} s, "
              f"process tree {_median([c['cpu_s'] for c in measured]):.4g} s")
    print("provenance: " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, args.size, scratch)
        probes, campaigns = measure(runner, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:             # another run still uses it
            pass

    attempted = sum(c["experiments"] for c in campaigns)
    failed = sum(c["failures"] for c in campaigns)
    problems = check(campaigns)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        values = per_layer(args.workload, campaigns)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {name: _median(samples) for name, samples
                  in end_to_end(probes, campaigns).items()}
        units = dict(END_TO_END)
    report(args, probes, campaigns, values, provenance(campaigns))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
