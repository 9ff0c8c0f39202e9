"""Tests of the benchmark harness: span arithmetic, instrumentation,
the correctness check, and a tiny end-to-end run of every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer, instrumented

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_split_self_time_by_layer():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        traced_inner()
        traced_inner()
        clock.advance(0.5)

    traced_inner = tracer.wrap(inner, "inner", "b")
    with tracer.span("root", "root"):
        clock.advance(0.25)
        tracer.wrap(outer, "outer", "a")()

    assert tracer.total("root") == 5.75
    assert tracer.spans["root"].self_s == 0.25
    assert tracer.total("outer") == 5.5
    assert tracer.spans["outer"].self_s == 1.5
    assert tracer.total("inner") == 4.0
    assert tracer.count("inner") == 2
    assert dict(tracer.layer_self_s) == {"root": 0.25, "a": 1.5, "b": 4.0}
    assert sum(tracer.layer_self_s.values()) == tracer.total("root")
    assert tracer.layer_entries == {"root": 1, "a": 1, "b": 2}


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fails():
        clock.advance(3.0)
        raise KeyError("boom")

    seen = []
    traced = tracer.wrap(fails, "fails", "a",
                         on_result=lambda *call: seen.append(call))
    with tracer.span("root", "root"):
        with pytest.raises(KeyError):
            traced()
        clock.advance(1.0)

    assert tracer.total("fails") == 3.0
    assert tracer.spans["root"].self_s == 1.0
    assert not seen                      # no result to count
    assert not tracer._stack


def test_recursive_span_counts_wall_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def countdown(n):
        clock.advance(1.0)
        if n:
            traced(n - 1)

    traced = tracer.wrap(countdown, "countdown", "a")
    traced(2)

    totals = tracer.spans["countdown"]
    assert totals.count == 3
    assert totals.total_s == 3.0
    assert totals.self_s == 3.0
    assert tracer.layer_entries["a"] == 1


def test_instrumented_counts_and_restores_the_program():
    from repro.core import safety, simulate
    from repro.sim.world import World
    originals = (safety.stopping_displacement, simulate.safety_potential,
                 World.step)
    tracer = Tracer()
    with instrumented(tracer):
        assert simulate.safety_potential is not originals[1]
        for v in (10.0, 10.001, 12.0):
            simulate.safety_potential(v=v, theta=0.0, phi=0.0, gap=50.0,
                                      lead_speed=None, lateral_free=2.0)
    assert (safety.stopping_displacement, simulate.safety_potential,
            World.step) == originals
    assert tracer.count("stop") == 3
    assert tracer.counters["stop_distinct_keys"] == 2
    assert tracer.layer_entries["safety"] == 3


def test_check_rejects_a_digest_mismatch_and_a_hazard_free_run():
    good = {"mode": "run", "digest": "a", "delivered": 5, "experiments": 5,
            "expected": 5, "hazards": 2}
    assert run.check([good, dict(good)]) == []
    problems = run.check([good, dict(good, mode="traced", digest="b")])
    assert any("digests differ" in p for p in problems)
    assert any("no hazard" in p
               for p in run.check([dict(good, hazards=0)]))
    assert any("delivered 4" in p
               for p in run.check([dict(good, delivered=4)]))


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "campaign_bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_end_to_end(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds",
                "1", "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in table}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert values["pipeline.attributed_ratio"] >= 0.95
        assert values["trace_overhead_ratio"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "drivefi", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
