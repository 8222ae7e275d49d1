"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import ANALYTICAL_FIGURES, SIMULATED_FIGURES, build_parser, main
from repro.experiments import figures
from repro.experiments.figures import FigureScale
from repro.results import RunStore


@pytest.fixture
def capture():
    lines = []
    return lines, lines.append


def _sweep_table(lines):
    """The metric table ``repro sweep`` prints between two blank lines."""
    start = lines.index("") + 1
    return lines[start:lines.index("", start)]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.nodes == 49
        assert args.workload == "all_to_all"
        assert args.failures is False

    def test_figure_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_table1(self, capture):
        lines, out = capture
        assert main(["table1"], out=out) == 0
        assert any("power_levels_mw" in line for line in lines)

    def test_list_figures(self, capture):
        lines, out = capture
        assert main(["list-figures"], out=out) == 0
        listed = "\n".join(lines)
        for name in list(ANALYTICAL_FIGURES) + list(SIMULATED_FIGURES):
            assert name in listed

    def test_analytical_figure(self, capture):
        lines, out = capture
        assert main(["figure", "fig3"], out=out) == 0
        assert len(lines) > 5

    def test_compare_small_run(self, capture):
        lines, out = capture
        code = main(
            ["compare", "--nodes", "9", "--radius", "15", "--packets", "1", "--seed", "2"],
            out=out,
        )
        assert code == 0
        text = "\n".join(lines)
        assert "spms" in text and "spin" in text
        assert "SPMS saves" in text

    def test_simulated_figure_with_monkeypatched_scale(self, capture, monkeypatch):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        figures.clear_figure_cache()
        try:
            assert main(["figure", "fig6"], out=out) == 0
        finally:
            figures.clear_figure_cache()
        assert any("spms" in line for line in lines)


class TestSweepCommand:
    def test_sweep_list(self, capture):
        lines, out = capture
        assert main(["sweep", "--list"], out=out) == 0
        text = "\n".join(lines)
        assert "fig06" in text and "fig12-mobility" in text

    def test_sweep_without_matrix_lists_and_fails(self, capture):
        lines, out = capture
        assert main(["sweep"], out=out) == 2
        assert any("fig06" in line for line in lines)

    def test_sweep_unknown_matrix(self, capture):
        lines, out = capture
        assert main(["sweep", "not-a-grid"], out=out) == 2
        assert any("unknown scenario matrix" in line for line in lines)

    def test_sweep_runs_tiny_grid(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(4, 9, 16, 25, 36),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        run_dir = tmp_path / "run"
        code = main(
            ["sweep", "fig06", "--workers", "1", "--run-dir", str(run_dir)],
            out=out,
        )
        assert code == 0
        text = "\n".join(lines)
        assert "sweep fig06: 10 jobs" in text
        assert "spms" in text and "spin" in text
        assert "10 simulated, 0 from cache" in text
        assert "aggregate:" in text
        first = [record.canonical_json() for record in RunStore(run_dir).records()]

        # Resuming from the run directory re-simulates nothing, prints the
        # same table and appends nothing.
        table = _sweep_table(lines)
        lines.clear()
        code = main(
            ["sweep", "fig06", "--run-dir", str(run_dir), "--resume"], out=out
        )
        assert code == 0
        assert "0 simulated, 10 from cache" in "\n".join(lines)
        assert _sweep_table(lines) == table
        assert [r.canonical_json() for r in RunStore(run_dir).records()] == first

    def test_sweep_resume_requires_run_dir(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--resume"], out=out) == 2
        assert any("--run-dir" in line for line in lines)


class TestListCommand:
    def test_list_protocols(self, capture):
        lines, out = capture
        assert main(["list", "protocols"], out=out) == 0
        text = "\n".join(lines)
        for protocol in ("spms", "spin", "flooding", "gossip"):
            assert protocol in text
        assert "(aliases: flood)" in text  # alias display

    def test_list_workloads_and_placements(self, capture):
        lines, out = capture
        assert main(["list", "workloads"], out=out) == 0
        assert main(["list", "placements"], out=out) == 0
        text = "\n".join(lines)
        assert "all_to_all" in text and "cluster" in text and "single_pair" in text
        assert "grid" in text and "random" in text

    def test_list_matrices(self, capture):
        lines, out = capture
        assert main(["list", "matrices"], out=out) == 0
        text = "\n".join(lines)
        assert "fig06" in text and "fig06-random" in text

    def test_list_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "gadgets"])


class TestRunCommand:
    SPEC = {
        "schema_version": 2,
        "name": "cli-test/spin",
        "protocol": "spin",
        "workload": "all_to_all",
        "placement": "random",
        "config": {
            "num_nodes": 9,
            "packets_per_node": 1,
            "transmission_radius_m": 20.0,
            "grid_spacing_m": 5.0,
            "seed": 3,
        },
    }

    def _write_spec(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_spec_file(self, capture, tmp_path):
        lines, out = capture
        assert main(["run", "--spec", self._write_spec(tmp_path, self.SPEC)], out=out) == 0
        text = "\n".join(lines)
        assert "cli-test/spin" in text
        assert "energy_per_item_uj" in text

    def test_run_spec_json_output_is_machine_readable(self, capture, tmp_path):
        lines, out = capture
        path = self._write_spec(tmp_path, self.SPEC)
        assert main(["run", "--spec", path, "--json"], out=out) == 0
        payload = json.loads("\n".join(lines))
        assert payload["protocol"] == "spin"
        assert payload["items_generated"] == 9
        # The flat layout is an interface: pin its exact key set.
        assert set(payload) == {
            "average_delay_ms",
            "deliveries_completed",
            "delivery_ratio",
            "energy_breakdown_uj",
            "energy_per_item_uj",
            "expected_deliveries",
            "failures_injected",
            "items_generated",
            "num_nodes",
            "packets_dropped",
            "packets_sent",
            "protocol",
            "routing_energy_uj",
            "routing_rebuilds",
            "scenario",
            "sim_time_ms",
            "total_energy_uj",
            "transmission_radius_m",
        }
        for name in ("energy_breakdown_uj", "packets_sent", "packets_dropped"):
            assert isinstance(payload[name], dict), name

    def test_run_is_deterministic_across_invocations(self, capture, tmp_path):
        lines, out = capture
        path = self._write_spec(tmp_path, self.SPEC)
        assert main(["run", "--spec", path, "--json"], out=out) == 0
        first = "\n".join(lines)
        lines.clear()
        assert main(["run", "--spec", path, "--json"], out=out) == 0
        assert "\n".join(lines) == first

    def test_run_missing_file(self, capture):
        lines, out = capture
        assert main(["run", "--spec", "/no/such/spec.json"], out=out) == 2
        assert any("not found" in line for line in lines)

    def test_run_invalid_spec_reports_validation_error(self, capture, tmp_path):
        lines, out = capture
        bad = dict(self.SPEC)
        bad["not_a_key"] = True
        assert main(["run", "--spec", self._write_spec(tmp_path, bad)], out=out) == 2
        assert any("invalid spec" in line for line in lines)

    def test_run_unknown_component_fails_cleanly(self, capture, tmp_path):
        lines, out = capture
        bad = dict(self.SPEC)
        bad["placement"] = "hexagonal"
        assert main(["run", "--spec", self._write_spec(tmp_path, bad)], out=out) == 2
        assert any("scenario failed to build" in line for line in lines)

    def test_run_reads_stdin(self, capture, monkeypatch):
        import io

        lines, out = capture
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.SPEC)))
        assert main(["run", "--spec", "-"], out=out) == 0
        assert any("cli-test/spin" in line for line in lines)

    def test_checked_in_smoke_spec_runs(self, capture):
        lines, out = capture
        spec_path = Path(__file__).resolve().parents[2] / "examples" / "spec_smoke.json"
        assert main(["run", "--spec", str(spec_path)], out=out) == 0
        assert any("smoke/spms-random-placement" in line for line in lines)

    def test_single_spec_run_dir_persists_a_record(self, capture, tmp_path):
        lines, out = capture
        run_dir = tmp_path / "run"
        path = self._write_spec(tmp_path, self.SPEC)
        assert main(["run", "--spec", path, "--run-dir", str(run_dir)], out=out) == 0
        assert any("record appended" in line for line in lines)

        from repro.results import RunStore

        (record,) = list(RunStore(run_dir).records())
        assert record.protocol == "spin"
        assert record.key == "cli-test/spin"


class TestBatchRunCommand:
    def _write_fleet(self, tmp_path):
        for name, protocol in (("a_spms", "spms"), ("b_spin", "spin")):
            payload = dict(TestRunCommand.SPEC)
            payload["name"] = f"fleet/{protocol}"
            payload["protocol"] = protocol
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        return tmp_path

    def test_spec_dir_runs_every_spec_and_writes_a_run_store(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        self._write_fleet(fleet_dir)
        run_dir = tmp_path / "run"
        code = main(
            ["run", "--spec-dir", str(fleet_dir), "--run-dir", str(run_dir)], out=out
        )
        assert code == 0
        text = "\n".join(lines)
        assert "batch: 2 spec(s)" in text
        assert "a_spms" in text and "b_spin" in text
        assert "2 record(s) appended" in text

        from repro.results import RunStore

        records = list(RunStore(run_dir).records())
        assert sorted(r.key for r in records) == ["a_spms", "b_spin"]
        assert {r.protocol for r in records} == {"spms", "spin"}
        assert all(r.axes == {"spec": r.key} for r in records)

    def test_specs_list_and_json_output(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        self._write_fleet(fleet_dir)
        paths = sorted(str(p) for p in fleet_dir.glob("*.json"))
        assert main(["run", "--specs", *paths, "--json"], out=out) == 0
        payload = json.loads("\n".join(lines[1:]))  # after the "batch:" banner
        assert [r["key"] for r in payload] == ["a_spms", "b_spin"]
        assert all(r["summary"]["items_generated"] == 9 for r in payload)

    def test_duplicate_spec_stems_are_disambiguated(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        self._write_fleet(fleet_dir)
        spec = str(fleet_dir / "a_spms.json")
        assert main(["run", "--specs", spec, spec, "--json"], out=out) == 0
        payload = json.loads("\n".join(lines[1:]))
        assert [r["key"] for r in payload] == ["a_spms", "a_spms#1"]

    def test_batch_workers_match_serial(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        self._write_fleet(fleet_dir)
        assert main(["run", "--spec-dir", str(fleet_dir), "--json"], out=out) == 0
        serial = json.loads("\n".join(lines[1:]))
        lines.clear()
        assert main(
            ["run", "--spec-dir", str(fleet_dir), "--workers", "2", "--json"], out=out
        ) == 0
        parallel = json.loads("\n".join(lines[1:]))
        for left, right in zip(serial, parallel):
            left.pop("wall_time_s"), right.pop("wall_time_s")
            assert left == right

    def test_missing_spec_dir_fails_cleanly(self, capture):
        lines, out = capture
        assert main(["run", "--spec-dir", "/no/such/dir"], out=out) == 2
        assert any("not found" in line for line in lines)

    def test_empty_spec_dir_fails_cleanly(self, capture, tmp_path):
        lines, out = capture
        assert main(["run", "--spec-dir", str(tmp_path)], out=out) == 2
        assert any("no *.json specs" in line for line in lines)

    def test_invalid_fleet_spec_fails_before_running(self, capture, tmp_path):
        lines, out = capture
        (tmp_path / "bad.json").write_text(json.dumps({"schema_version": 2}))
        assert main(["run", "--spec-dir", str(tmp_path)], out=out) == 2
        assert any("invalid spec" in line for line in lines)

    def test_unbuildable_fleet_spec_fails_before_running(self, capture, tmp_path):
        lines, out = capture
        payload = dict(TestRunCommand.SPEC)
        payload["placement"] = "hexagonal"
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        assert main(["run", "--spec-dir", str(tmp_path)], out=out) == 2
        assert any("failed to build" in line for line in lines)

    def test_spec_and_spec_dir_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--spec", "a.json", "--spec-dir", "d"])


class TestReportCommand:
    def _populate(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        TestBatchRunCommand()._write_fleet(fleet_dir)
        run_dir = tmp_path / "run"
        assert main(
            ["run", "--spec-dir", str(fleet_dir), "--run-dir", str(run_dir)], out=out
        ) == 0
        lines.clear()
        return run_dir

    def test_report_renders_a_metric_table(self, capture, tmp_path):
        lines, out = capture
        run_dir = self._populate(capture, tmp_path)
        assert main(["report", str(run_dir), "--metric", "average_delay_ms"], out=out) == 0
        text = "\n".join(lines)
        assert "2 record(s)" in text
        assert "average_delay_ms" in text
        assert "a_spms" in text and "b_spin" in text

    def test_report_protocol_filter(self, capture, tmp_path):
        lines, out = capture
        run_dir = self._populate(capture, tmp_path)
        assert main(["report", str(run_dir), "--protocol", "spin"], out=out) == 0
        text = "\n".join(lines)
        assert "b_spin" in text and "a_spms" not in text

    def test_report_json_round_trips_records(self, capture, tmp_path):
        lines, out = capture
        run_dir = self._populate(capture, tmp_path)
        assert main(["report", str(run_dir), "--json"], out=out) == 0
        from repro.results import RunRecord

        payload = json.loads("\n".join(lines))
        records = [RunRecord.from_dict(r) for r in payload]
        assert sorted(r.key for r in records) == ["a_spms", "b_spin"]

    def test_report_from_sweep_run_dir(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        run_dir = tmp_path / "run"
        assert main(
            ["sweep", "fig06", "--quiet", "--run-dir", str(run_dir)], out=out
        ) == 0
        lines.clear()
        assert main(["report", str(run_dir)], out=out) == 0
        text = "\n".join(lines)
        assert "fig06/num_nodes=9/spms" in text
        assert "fig06/num_nodes=9/spin" in text

    def test_report_mentions_quarantined_partials(self, capture, tmp_path):
        lines, out = capture
        run_dir = self._populate(capture, tmp_path)
        from repro.results import RunStore

        store = RunStore(run_dir)
        with store.shard_paths()[-1].open("a") as handle:
            handle.write('{"torn')  # newline-less tail from a killed writer
        store.recover()
        assert main(["report", str(run_dir)], out=out) == 0
        text = "\n".join(lines)
        assert "2 record(s)" in text
        assert "quarantined partial lines" in text
        assert ".partial" in text

    def test_missing_run_dir_fails_cleanly(self, capture):
        lines, out = capture
        assert main(["report", "/no/such/run"], out=out) == 2
        assert any("not found" in line for line in lines)

    def test_non_numeric_metrics_rejected_up_front(self):
        from repro.cli import METRIC_NAMES

        assert METRIC_NAMES == (
            "average_delay_ms",
            "deliveries_completed",
            "delivery_ratio",
            "energy_per_item_uj",
            "expected_deliveries",
            "failures_injected",
            "items_generated",
            "num_nodes",
            "routing_energy_uj",
            "routing_rebuilds",
            "sim_time_ms",
            "total_energy_uj",
            "transmission_radius_m",
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "r", "--metric", "packets_sent"])

    def test_empty_run_dir_fails_cleanly(self, capture, tmp_path):
        lines, out = capture
        assert main(["report", str(tmp_path)], out=out) == 2
        assert any("no records" in line for line in lines)


class TestSweepFaultFlags:
    @pytest.fixture
    def tiny_scale(self, monkeypatch):
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)

    def test_malformed_chaos_spec_is_a_usage_error(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--chaos", "0:explode"], out=out) == 2
        assert any("--chaos: unknown chaos mode" in line for line in lines)

    def test_pool_only_chaos_needs_workers(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--chaos", "0:kill"], out=out) == 2
        assert any("need --workers >= 2" in line for line in lines)

    def test_job_timeout_needs_workers(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--job-timeout", "5"], out=out) == 2
        assert any("--job-timeout needs --workers >= 2" in line for line in lines)

    def test_job_timeout_must_be_positive(self, capture):
        lines, out = capture
        code = main(
            ["sweep", "fig06", "--workers", "2", "--job-timeout", "0"], out=out
        )
        assert code == 2
        assert any("must be positive" in line for line in lines)

    def test_max_retries_must_be_nonnegative(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--max-retries", "-1"], out=out) == 2
        assert any("--max-retries must be >= 0" in line for line in lines)

    def test_quarantine_exits_partial_failure(self, capture, tiny_scale, tmp_path):
        lines, out = capture
        run_dir = tmp_path / "run"
        code = main(
            [
                "sweep", "fig06", "--chaos", "0:raise", "--max-retries", "0",
                "--run-dir", str(run_dir),
            ],
            out=out,
        )
        from repro.cli import EXIT_PARTIAL_FAILURE

        assert code == EXIT_PARTIAL_FAILURE
        text = "\n".join(lines)
        assert "chaos: injecting 0:raise" in text
        assert "[ fail] fig06/num_nodes=9/spms: quarantined" in text
        assert "1 simulated, 0 from cache, 1 FAILED" in text
        assert "failed: fig06/num_nodes=9/spms after 1 attempt(s)" in text
        assert "ChaosError" in text
        assert f"failure records appended to {run_dir / 'failures.jsonl'}" in text

        from repro.results import RunStore

        store = RunStore(run_dir)
        failures = store.failures()
        assert [f.key for f in failures] == ["fig06/num_nodes=9/spms"]
        assert failures[0].last_outcome == "raised"
        # The surviving job's record still landed in the store proper.
        assert [r.key for r in store.records()] == ["fig06/num_nodes=9/spin"]

    def test_transient_chaos_retries_and_exits_zero(self, capture, tiny_scale):
        lines, out = capture
        code = main(
            ["sweep", "fig06", "--chaos", "0:raise:1", "--max-retries", "1"],
            out=out,
        )
        assert code == 0
        assert any("2 simulated, 0 from cache, 1 retried" in line for line in lines)


class TestReportStrict:
    def _chaos_run(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        run_dir = tmp_path / "run"
        main(
            [
                "sweep", "fig06", "--quiet", "--chaos", "0:raise",
                "--max-retries", "0", "--run-dir", str(run_dir),
            ],
            out=out,
        )
        lines.clear()
        return run_dir

    def test_plain_report_notes_failures_but_exits_zero(
        self, capture, monkeypatch, tmp_path
    ):
        lines, out = capture
        run_dir = self._chaos_run(capture, monkeypatch, tmp_path)
        assert main(["report", str(run_dir)], out=out) == 0
        text = "\n".join(lines)
        assert "1 record(s)" in text  # the survivor still renders
        assert "1 job(s) FAILED in this run" in text
        assert "fig06/num_nodes=9/spms: raised after 1 attempt(s)" in text

    def test_strict_report_exits_partial_failure(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        run_dir = self._chaos_run(capture, monkeypatch, tmp_path)
        from repro.cli import EXIT_PARTIAL_FAILURE

        assert main(["report", str(run_dir), "--strict"], out=out) == EXIT_PARTIAL_FAILURE
        assert main(["report", str(run_dir), "--strict", "--json"], out=out) == (
            EXIT_PARTIAL_FAILURE
        )

    def test_strict_without_failures_exits_zero(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        run_dir = tmp_path / "run"
        assert main(
            ["sweep", "fig06", "--quiet", "--run-dir", str(run_dir)], out=out
        ) == 0
        lines.clear()
        assert main(["report", str(run_dir), "--strict"], out=out) == 0
        assert not any("FAILED" in line for line in lines)
