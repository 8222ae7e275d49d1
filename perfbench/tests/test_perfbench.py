"""Tests of the sweep benchmark itself (run with ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import driver
import run
from spans import Tracer, percentile
from workloads import DEFAULT_SEED, GATED, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------- names


def test_workload_names_and_reasons_match_benchmark_json():
    listed = {entry["name"]: entry["why"] for entry in _spec()["workloads"]}
    assert listed == {name: WORKLOADS[name].why for name in GATED}
    assert set(WORKLOADS) - set(GATED) == {"grid-static"}


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_layer_metrics_cover_every_per_layer_name():
    layers = {"calls": 1, "total_s": 1.0, "self_s": 0.5}
    in_worker = {
        "wall_s": 3.0,
        "trace": {
            "layers": {name: dict(layers) for name in ("sim.run", "build", "proto.adv")},
            "jobs": [{"events": 10, "receptions": 4, "routing_rounds": 1,
                      "routing_messages": 2, "routing_receptions": 3}],
        },
    }
    pool = {
        "in_worker_s": 2.0, "parent_cpu_s": 0.1, "worker_cpu_s": 1.9, "retried": 0,
        "quarantined": 0,
        "trace": {"layers": {}, "waits": {"calls": 5, "busy": 4},
                  "spans": [{"name": "store.append", "start": 0.0, "end": 1e-4}]},
    }
    metrics = run.layer_metrics({"in_worker_s": 1.0, "wall_s": 2.0}, in_worker, pool)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["executor.job_inflation"] == 2.0
    assert metrics["trace.overhead_s"] == 1.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 10_001, 2**40])
def test_job_keys_are_distinct_at_any_seed(workload, seed):
    jobs = WORKLOADS[workload].jobs(seed)
    assert len({job.key for job in jobs}) == len(jobs)


def test_seed_changes_the_small_jobs_inputs():
    def seeds(seed):
        return [job.spec.config.seed for job in WORKLOADS["small-jobs"].jobs(seed, max_jobs=4)]

    assert seeds(5) == seeds(5)
    assert seeds(5) != seeds(6)


# ---------------------------------------------------------------- digest


def _stored_pass(jobs, run_dir):
    from repro.results import RunStore

    records = driver.ordered_records(jobs, RunStore(run_dir).query())
    return {
        "mode": "pool", "jobs": len(jobs), "records": len(jobs),
        "complete": records is not None,
        "digest": driver.digest(records) if records is not None else None,
        "quarantined": 0, "recheck": {"checked": 0, "mismatched": []}, "events": 1,
    }


def test_tampered_record_fails_the_digest_check(tmp_path, monkeypatch):
    from repro.experiments.executor import execute_jobs
    from repro.results import RunStore

    name = "small-jobs"
    jobs = WORKLOADS[name].jobs(DEFAULT_SEED, max_jobs=2)
    run_dir = tmp_path / "run"
    execute_jobs(jobs, workers=1, store=RunStore(run_dir))
    clean = _stored_pass(jobs, run_dir)
    monkeypatch.setitem(
        WORKLOADS, name, dataclasses.replace(WORKLOADS[name], pinned_digest=clean["digest"])
    )
    assert run.check_passes(name, DEFAULT_SEED, True, [clean]) == []

    shard = next((run_dir / "shards").glob("*.jsonl"))
    lines = shard.read_text().splitlines()
    record = json.loads(lines[0])
    record["summary"]["total_energy_uj"] += 1e-9
    lines[0] = json.dumps(record, sort_keys=True)
    shard.write_text("\n".join(lines) + "\n")
    tampered = _stored_pass(jobs, run_dir)

    assert tampered["digest"] != clean["digest"]
    problems = run.check_passes(name, DEFAULT_SEED, True, [tampered])
    assert any("not the pinned" in problem for problem in problems)
    problems = run.check_passes(name, 2, True, [clean, tampered])
    assert any("disagree" in problem for problem in problems)


def test_missing_records_and_quarantines_fail_the_checks():
    good = {
        "mode": "pool", "jobs": 3, "records": 3, "complete": True, "digest": "d",
        "quarantined": 0, "recheck": {"checked": 0, "mismatched": []}, "events": 7,
    }
    assert run.check_passes("grid-static", 2, True, [good]) == []
    short = dict(good, records=2, complete=False)
    assert run.check_passes("grid-static", 2, True, [short])
    quarantined = dict(good, quarantined=1)
    assert run.check_passes("grid-static", 2, True, [quarantined])
    other_events = dict(good, events=8)
    assert run.check_passes("grid-static", 2, True, [good, other_events])


# ----------------------------------------------------------------- spans


def _clock(readings):
    readings = iter(readings)
    return lambda: next(readings)


def test_self_time_is_duration_minus_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer = Tracer(recorded=("outer", "a", "c"), clock=_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.enter("outer")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()

    layers = tracer.layers()
    assert {name: layer["total_s"] for name, layer in layers.items()} == {
        "outer": 10, "a": 3, "b": 1, "c": 4
    }
    assert {name: layer["self_s"] for name, layer in layers.items()} == {
        "outer": 3, "a": 2, "b": 1, "c": 4
    }
    # b is accumulated but not kept; a and c hang off outer.
    kept = [(s["name"], s["start"], s["end"], s["parent"]) for s in tracer.spans]
    assert kept == [("outer", 0, 10, None), ("a", 1, 4, 0), ("c", 5, 9, 0)]


def test_wrap_traces_calls_and_tags_the_job():
    class Layer:
        def work(self, key=None):
            return key

    tracer = Tracer(recorded=("work",), clock=_clock([0, 2]))
    tracer.wrap(Layer, "work", "work", job_key=lambda args, kwargs: kwargs.get("key"))
    assert Layer().work(key="job-1") == "job-1"
    assert tracer.spans == [
        {"id": 0, "name": "work", "start": 0, "end": 2, "parent": None, "job": "job-1"}
    ]
    assert tracer.calls["work"] == 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 0.5) == 100
    assert percentile(values, 0.95) == 190
    assert percentile([3.0], 0.95) == 3.0


# ---------------------------------------------------------------- smoke


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_smoke_run_of_each_workload(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--max-jobs", "2")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_small_traced_smoke_run_reports_every_layer_metric():
    done = _bench("--workload", "grid-static", "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--max-jobs", "2")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["sim.events"]["value"] > 0
    assert "tracing overhead" in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "grid-static", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
