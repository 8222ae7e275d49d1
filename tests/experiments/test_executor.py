"""Tests for the parallel job executor and resuming from a run directory."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import repro.experiments.executor as executor_module
from repro.experiments.chaos import ChaosSpec
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import (
    assemble_sweep,
    default_workers,
    execute_jobs,
    series_label,
    stream_jobs,
)
from repro.experiments.matrix import matrix_from_axes
from repro.results import RunRecord, RunStore, spec_fingerprint


@pytest.fixture
def small_matrix():
    return matrix_from_axes(
        "exec-test",
        "num_nodes",
        (9, 16),
        protocols=("spms",),
        base_config=SimulationConfig(
            num_nodes=9,
            packets_per_node=1,
            transmission_radius_m=15.0,
            grid_spacing_m=5.0,
            seed=9,
        ),
    )


class TestSerialExecution:
    def test_results_keyed_by_job(self, small_matrix):
        jobs = small_matrix.expand()
        results, report = execute_jobs(jobs, workers=1)
        assert set(results) == {j.key for j in jobs}
        assert report.total_jobs == len(jobs)
        assert report.executed == len(jobs)
        assert report.cache_hits == 0
        assert report.elapsed_s > 0.0
        for job in jobs:
            assert results[job.key].num_nodes == job.spec.config.num_nodes

    def test_progress_callback_sees_every_job(self, small_matrix):
        seen = []
        jobs = small_matrix.expand()
        execute_jobs(jobs, progress=lambda job, result, cached: seen.append((job.key, cached)))
        assert seen == [(j.key, False) for j in jobs]

    def test_assemble_preserves_expansion_order(self, small_matrix):
        jobs = small_matrix.expand()
        results, _ = execute_jobs(jobs)
        sweep = assemble_sweep(jobs, results)
        assert sweep.parameter == "num_nodes"
        assert sweep.values == [9, 16]
        assert [r.num_nodes for r in sweep.results["spms"]] == [9, 16]

    def test_merged_summary_covers_all_shards(self, small_matrix):
        jobs = small_matrix.expand()
        results, report = execute_jobs(jobs)
        merged = report.merged_summary
        assert merged is not None
        assert merged.items_generated == sum(r.items_generated for r in results.values())
        assert merged.total_energy_uj == pytest.approx(
            sum(r.total_energy_uj for r in results.values())
        )
        assert merged.deliveries_completed == sum(
            r.deliveries_completed for r in results.values()
        )

    def test_records_carry_provenance(self, small_matrix):
        jobs = small_matrix.expand()
        results, _ = execute_jobs(jobs)
        for job in jobs:
            record = results[job.key]
            assert isinstance(record, RunRecord)
            assert record.key == job.key
            assert record.axes == dict(job.axes)
            assert record.spec_fingerprint == spec_fingerprint(job.spec)
            assert record.seed == job.spec.config.seed
            assert record.wall_time_s > 0.0


class TestStreaming:
    def test_stream_yields_each_completion_once(self, small_matrix):
        jobs = small_matrix.expand()
        completions = list(stream_jobs(jobs))
        assert [c.job.key for c in completions] == [j.key for j in jobs]
        assert all(not c.from_cache for c in completions)
        assert all(isinstance(c.record, RunRecord) for c in completions)

    def test_stream_is_lazy(self, small_matrix):
        # Pulling one completion must not have executed the whole grid.
        jobs = small_matrix.expand()
        stream = stream_jobs(jobs)
        first = next(stream)
        assert first.job.key == jobs[0].key
        stream.close()

    def test_stream_writes_through_to_store(self, small_matrix, tmp_path):
        jobs = small_matrix.expand()
        store = RunStore(tmp_path / "run")
        completions = list(stream_jobs(jobs, store=store))
        stored = list(store.records())
        assert [r.key for r in stored] == [c.job.key for c in completions]
        assert stored[0].to_dict() == completions[0].record.to_dict()


class TestResume:
    def test_resume_serves_stored_jobs_without_duplicating(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        jobs = small_matrix.expand()
        first, report1 = execute_jobs(jobs, store=store)
        assert report1.executed == len(jobs)
        assert len(store) == len(jobs)

        second, report2 = execute_jobs(jobs, resume=True, store=RunStore(store.root))
        assert report2.executed == 0
        assert report2.cache_hits == len(jobs)
        assert report2.completed == len(jobs)
        for key in first:
            assert first[key].to_json() == second[key].to_json()
        assert len(store) == len(jobs)

    def test_resume_reruns_changed_specs(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        jobs = small_matrix.expand()
        execute_jobs(jobs, store=store)
        reseeded = matrix_from_axes(
            "exec-test",
            "num_nodes",
            (9, 16),
            protocols=("spms",),
            base_config=small_matrix.base_config.with_overrides(seed=10),
        ).expand()
        _, report = execute_jobs(reseeded, resume=True, store=store)
        assert report.cache_hits == 0
        assert report.executed == len(reseeded)
        assert len(store) == len(jobs) + len(reseeded)

    def test_fingerprint_sensitive_to_every_knob(self, small_matrix):
        job = small_matrix.expand()[0]
        base = spec_fingerprint(job.spec)
        reseeded = small_matrix.base_config.with_overrides(seed=123)
        other = matrix_from_axes(
            "exec-test", "num_nodes", (9,), protocols=("spms",), base_config=reseeded
        ).expand()[0]
        assert spec_fingerprint(other.spec) != base
        assert spec_fingerprint(job.spec) == base  # stable

    def test_record_stored_under_another_key_is_restamped_once(
        self, small_matrix, tmp_path
    ):
        # The fingerprint hashes the spec, not the job key: under "shared"
        # seeding two differently-named matrices expand to identical specs.
        # A record served to the second matrix must carry *its* key and axes,
        # and is appended once — a second resume finds it under its own key.
        def expand(name):
            return matrix_from_axes(
                name,
                "num_nodes",
                (9, 16),
                protocols=("spms",),
                base_config=small_matrix.base_config,
                seed_policy="shared",
            ).expand()

        store = RunStore(tmp_path / "run")
        jobs = expand("first-name")
        list(stream_jobs(jobs, store=store))
        renamed = expand("other-name")
        assert [spec_fingerprint(j.spec) for j in renamed] == [
            spec_fingerprint(j.spec) for j in jobs
        ]
        for _ in range(2):
            completions = list(stream_jobs(renamed, resume=True, store=store))
            assert all(c.from_cache and c.attempts == 0 for c in completions)
            for completion in completions:
                assert completion.record.key == completion.job.key
                assert completion.record.key.startswith("other-name/")
                assert completion.record.axes == dict(completion.job.axes)
            assert len(store) == 2 * len(jobs)
        stored = {record.key: record for record in store.records()}
        for original, restamped in zip(jobs, renamed):
            assert stored[restamped.key].summary == stored[original.key].summary

    def test_corrupt_entries_are_misses(self, small_matrix, tmp_path):
        # A writer killed mid-append leaves a torn final shard line and no
        # index entry for it: that job is not served on resume but re-run,
        # and the torn tail is quarantined rather than counted.
        store = RunStore(tmp_path / "run")
        jobs = small_matrix.expand()
        first, _ = execute_jobs(jobs, store=store)
        (shard,) = store.shard_paths()
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        index_lines = store.index_path.read_bytes().splitlines(keepends=True)
        store.index_path.write_bytes(b"".join(index_lines[:-1]))

        resumed = RunStore(store.root)
        second, report = execute_jobs(jobs, resume=True, store=resumed)
        assert report.cache_hits == len(jobs) - 1
        assert report.executed == 1
        assert len(resumed) == len(jobs)
        assert resumed.partial_paths()
        for key in first:
            assert first[key].canonical_json() == second[key].canonical_json()

    def test_round_trip_preserves_every_field(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        jobs = small_matrix.expand()
        results, _ = execute_jobs(jobs[:1], store=store)
        (stored,) = store.records_by_fingerprint(spec_fingerprint(jobs[0].spec))
        original = results[jobs[0].key]
        assert isinstance(stored, RunRecord)
        assert stored.to_dict() == original.to_dict()
        # Shard lines are valid, human-inspectable JSON with spec provenance.
        (line,) = store.shard_paths()[0].read_text().splitlines()
        payload = json.loads(line)
        assert payload["spec_fingerprint"] == spec_fingerprint(jobs[0].spec)
        assert payload["summary"]["items_generated"] > 0

    def test_resume_without_a_store_raises(self, small_matrix):
        with pytest.raises(ValueError, match="store"):
            list(stream_jobs(small_matrix.expand(), resume=True))
        with pytest.raises(ValueError, match="store"):
            execute_jobs(small_matrix.expand(), resume=True)


class TestSeriesLabels:
    def test_single_axis_jobs_keep_bare_protocol_labels(self, small_matrix):
        for job in small_matrix.expand():
            assert series_label(job) == job.protocol

    def test_secondary_axes_are_folded_into_the_label(self):
        from repro.experiments.matrix import ScenarioMatrix

        matrix = ScenarioMatrix(
            name="label-test",
            axes={"num_nodes": (9,), "placement": ("grid", "random")},
            protocols=("spms",),
            base_config=SimulationConfig(
                num_nodes=9, packets_per_node=1, transmission_radius_m=15.0,
                grid_spacing_m=5.0, seed=3,
            ),
        )
        labels = [series_label(job) for job in matrix.expand()]
        assert labels == ["spms[placement=grid]", "spms[placement=random]"]


class TestWorkerConfiguration:
    def test_default_workers_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert default_workers() == 4
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "garbage")
        assert default_workers() == 1

    def test_unparseable_workers_warns_once(self, monkeypatch, capsys):
        monkeypatch.setattr(executor_module, "_workers_warning_emitted", False)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "four")
        assert default_workers() == 1
        err = capsys.readouterr().err
        assert "REPRO_SWEEP_WORKERS='four' is not an integer" in err
        assert "falling back to serial" in err
        # The warning fires once per process, not once per sweep call.
        assert default_workers() == 1
        assert capsys.readouterr().err == ""

    def test_parseable_workers_never_warn(self, monkeypatch, capsys):
        monkeypatch.setattr(executor_module, "_workers_warning_emitted", False)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert default_workers() == 2
        assert capsys.readouterr().err == ""


class TestFaultTolerance:
    def test_serial_rejects_job_timeout(self, small_matrix):
        with pytest.raises(ValueError, match="job_timeout requires a worker pool"):
            list(stream_jobs(small_matrix.expand(), workers=1, job_timeout=5.0))

    def test_serial_rejects_pool_only_chaos(self, small_matrix):
        chaos = ChaosSpec.parse("0:hang")
        with pytest.raises(ValueError, match="hang/kill"):
            list(stream_jobs(small_matrix.expand(), workers=1, chaos=chaos))

    def test_serial_raise_chaos_is_fine(self, small_matrix):
        # raise faults are in-process; no pool needed.
        chaos = ChaosSpec.parse("0:raise:1")
        completions = list(stream_jobs(small_matrix.expand(), chaos=chaos))
        assert all(c.ok for c in completions)
        assert completions[0].attempts == 2

    def test_quarantined_jobs_surface_in_report_and_store(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        chaos = ChaosSpec.parse("0:raise")
        jobs = small_matrix.expand()
        records, report = execute_jobs(
            jobs, chaos=chaos, max_attempts=2, store=store
        )
        assert set(records) == {jobs[1].key}
        assert report.quarantined == 1
        assert report.executed == 1
        assert report.failed_attempts == 2
        assert len(report.failures) == 1
        assert report.failures[0].key == jobs[0].key
        # The failure landed in the sidecar; the record store holds only the
        # survivor.
        assert [f.key for f in store.failures()] == [jobs[0].key]
        assert [r.key for r in store.records()] == [jobs[1].key]

    def test_progress_sees_quarantined_jobs_with_none_record(self, small_matrix):
        seen = []
        chaos = ChaosSpec.parse("1:raise")
        execute_jobs(
            small_matrix.expand(),
            chaos=chaos,
            max_attempts=1,
            progress=lambda job, record, cached: seen.append((job.index, record)),
        )
        assert [(index, record is None) for index, record in seen] == [
            (0, False), (1, True),
        ]

    def test_retried_success_counts_in_report(self, small_matrix):
        chaos = ChaosSpec.parse("1:raise:1")
        records, report = execute_jobs(small_matrix.expand(), chaos=chaos)
        assert len(records) == 2
        assert report.retried == 1
        assert report.failed_attempts == 1
        assert report.quarantined == 0

    def test_keyboard_interrupt_returns_partial_report(self, small_matrix):
        jobs = small_matrix.expand()
        calls = []

        def explode(job, record, cached):
            calls.append(job.key)
            if len(calls) == 1:
                raise KeyboardInterrupt

        records, report = execute_jobs(jobs, progress=explode)
        assert report.interrupted
        assert len(records) == 1
        assert report.completed == 1
        assert report.merged_summary is not None

    @settings(max_examples=8, deadline=None)
    @given(
        positions=st.sets(st.integers(min_value=0, max_value=3), max_size=3),
        parallel=st.booleans(),
    )
    def test_surviving_records_are_byte_identical(self, positions, parallel):
        # THE tentpole invariant as a property: inject persistent raise
        # faults at arbitrary grid positions, serial or parallel — every
        # surviving record must match the fault-free run byte for byte.
        jobs = matrix_from_axes(
            "prop-test",
            "num_nodes",
            (9, 16, 25, 36),
            protocols=("spms",),
            base_config=SimulationConfig(
                num_nodes=9,
                packets_per_node=1,
                transmission_radius_m=15.0,
                grid_spacing_m=5.0,
                seed=77,
            ),
        ).expand()
        if not hasattr(self, "_baseline"):
            clean, _ = execute_jobs(jobs)
            type(self)._baseline = {
                key: record.canonical_json() for key, record in clean.items()
            }
        chaos = (
            ChaosSpec.parse(",".join(f"{i}:raise" for i in sorted(positions)))
            if positions
            else None
        )
        records, report = execute_jobs(
            jobs,
            workers=2 if parallel else 1,
            chaos=chaos,
            max_attempts=1,
        )
        assert report.quarantined == len(positions)
        survivors = [job for job in jobs if job.index not in positions]
        assert set(records) == {job.key for job in survivors}
        for job in survivors:
            assert records[job.key].canonical_json() == self._baseline[job.key]
