"""Command-line interface.

``python -m repro`` exposes the most common operations without writing any
code:

* ``run``       — run scenarios described by JSON spec files: one
  (``repro run --spec scenario.json``), a whole directory
  (``repro run --spec-dir specs/ --workers 4``) or an explicit fleet
  (``repro run --specs a.json b.json``); batch runs reuse the sweep worker
  pool and can persist a run directory of records (``--run-dir``).
* ``report``    — render metric tables from a run directory written by a
  previous batch run or sweep (``repro report runs/demo --metric X``).
* ``compare``   — run SPMS and SPIN on the same scenario and print the
  headline metrics (energy per item, average delay, delivery ratio).
* ``sweep``     — expand a registered scenario matrix into independent jobs
  and execute them across a supervised worker pool, appending records to a
  run directory (``--run-dir``) that ``--resume`` serves already-stored jobs
  from; fault tolerance is first-class (``--job-timeout``, ``--max-retries``,
  and the deterministic ``--chaos`` fault-injection dev flag).
* ``list``      — list registered components (protocols, workloads,
  placements, mobility/failure/contention models) or scenario matrices.
* ``bench``     — run a named kernel benchmark serially in-process and append
  a schema-versioned throughput record (events/sec, wall time, canonical
  digest, git metadata) to ``BENCH_kernel.json``.
* ``lint``      — run the AST-based determinism/invariant linter
  (``repro lint src tests``); non-zero exit on new findings, so CI can gate
  on it.
* ``figure``    — regenerate one of the paper's figures and print its rows.
* ``list-figures`` — list the available figure names.
* ``table1``    — print the Table 1 parameter set.

Examples::

    python -m repro run --spec examples/spec_smoke.json
    python -m repro run --spec-dir examples/ --workers 2 --run-dir runs/demo
    python -m repro report runs/demo --metric energy_per_item_uj
    python -m repro list protocols
    python -m repro list placements
    python -m repro compare --nodes 49 --radius 20
    python -m repro sweep fig06 --workers 4
    python -m repro sweep fig06 --workers 4 --run-dir runs/fig06 --resume
    python -m repro sweep fig06 --workers 2 --job-timeout 30 --max-retries 1
    python -m repro sweep --list
    python -m repro bench fig06
    python -m repro bench --quick --output /tmp/bench-smoke.json
    python -m repro figure fig6
    python -m repro figure fig3
    python -m repro table1

Exit codes: 0 success; 1 drift or lint findings; 2 usage or input errors;
3 partial failure — a sweep that quarantined or was interrupted mid-run, or
``repro report --strict`` on a run directory that recorded failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.build import (
    BUILTIN_KINDS,
    CONTENTION,
    FAILURE,
    MOBILITY,
    PLACEMENT,
    WORKLOAD,
    UnknownComponentError,
    default_registry,
    normalize_protocol_name,
)
from repro.experiments import figures
from repro.experiments.claims import delay_ratio, energy_saving_percent
from repro.experiments.config import (
    FailureConfig,
    MobilityConfig,
    SimulationConfig,
    SpecValidationError,
)
from repro.experiments.chaos import ChaosSpec, ChaosSpecError
from repro.experiments.executor import assemble_sweep, execute_jobs, stream_jobs
from repro.experiments.matrix import SweepJob, available_matrices, get_matrix
from repro.experiments.runner import ExperimentRunner, run_scenario
from repro.experiments.scenarios import (
    ScenarioSpec,
    all_to_all_scenario,
    cluster_scenario,
)
from repro.perf import (
    BenchValidationError,
    append_bench_record,
    available_benchmarks,
    compare_bench_record,
    get_benchmark,
    load_bench_records,
    run_benchmark,
)
from repro.perf.bench import QUICK_BENCHMARK, format_bench_record
from repro.results import (
    FLAT_FIELDS,
    RunRecord,
    RunStore,
    RunStoreError,
)

#: Exit code of a run that finished but could not complete every job: a
#: sweep with quarantined failures or an interrupt-shortened pool, and
#: ``report --strict`` over a run directory whose sidecar records failures.
#: Distinct from 2 (usage errors) so CI can tell "you called it wrong" from
#: "it ran and some jobs died" — the chaos smoke test pins this.
EXIT_PARTIAL_FAILURE = 3

#: Metric names accepted by ``sweep --metric`` / ``report --metric`` — the
#: numeric headline metrics of the flat record view (:data:`FLAT_FIELDS` minus
#: the ``protocol``/``scenario`` labels; dict-valued properties such as
#: ``packets_sent`` are not in the view, so they are rejected up front).
METRIC_NAMES = tuple(sorted(
    name for name in FLAT_FIELDS if name not in ("protocol", "scenario")
))

def _listing_name(kind: str) -> str:
    """User-facing (pluralised) name of a registry kind."""
    return kind if kind in ("mobility", "contention") else f"{kind}s"


#: `repro list` targets, derived from the registry kinds so a new built-in
#: kind automatically becomes listable; plural name -> kind (None = matrices).
LISTABLE_KINDS: Dict[str, Optional[str]] = {
    _listing_name(kind): kind for kind in BUILTIN_KINDS
}
LISTABLE_KINDS["matrices"] = None

#: Maps CLI figure names to (generator, metric, description).
SIMULATED_FIGURES: Dict[str, tuple] = {
    "fig6": (figures.figure6_energy_vs_nodes, "energy_per_item_uj",
             "energy per item vs number of nodes (static)"),
    "fig7": (figures.figure7_energy_vs_radius, "energy_per_item_uj",
             "energy per item vs transmission radius (static)"),
    "fig8": (figures.figure8_delay_vs_nodes, "average_delay_ms",
             "average delay vs number of nodes (static)"),
    "fig9": (figures.figure9_delay_vs_radius, "average_delay_ms",
             "average delay vs transmission radius (static)"),
    "fig10": (figures.figure10_delay_failures_vs_nodes, "average_delay_ms",
              "average delay vs number of nodes (with failures)"),
    "fig11": (figures.figure11_delay_failures_vs_radius, "average_delay_ms",
              "average delay vs transmission radius (with failures)"),
    "fig12": (figures.figure12_energy_mobility, "energy_per_item_uj",
              "energy per item vs transmission radius (mobility)"),
    "fig13": (figures.figure13_energy_cluster, "energy_per_item_uj",
              "energy per item vs transmission radius (cluster traffic)"),
}

ANALYTICAL_FIGURES = {
    "fig3": (figures.figure3_delay_ratio, "SPIN/SPMS delay ratio vs radius (analytical)"),
    "fig5": (figures.figure5_energy_ratio, "SPIN/SPMS energy ratio vs radius (analytical)"),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPMS (DSN 2004) reproduction — comparisons and figure regeneration.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run scenarios described by JSON spec files"
    )
    sources = run.add_mutually_exclusive_group(required=True)
    sources.add_argument(
        "--spec",
        help="path to a JSON scenario spec ('-' reads stdin); "
             "see ScenarioSpec.to_dict for the schema",
    )
    sources.add_argument(
        "--spec-dir",
        help="run every *.json spec in a directory as one batch (fleet mode)",
    )
    sources.add_argument(
        "--specs", nargs="+", metavar="SPEC",
        help="run an explicit list of spec files as one batch",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for batch runs (1 = serial)",
    )
    run.add_argument(
        "--run-dir", default=None,
        help="run directory to append batch records to (see 'repro report')",
    )
    run.add_argument(
        "--keep-raw", action="store_true",
        help="also store the raw per-run metrics blob (per-delivery delays, "
             "per-node energy) in the run directory; needs --run-dir and a "
             "single --spec",
    )
    run.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full result(s) as JSON instead of the summary table",
    )

    report = subparsers.add_parser(
        "report", help="render metric tables from a run directory"
    )
    report.add_argument("run_dir", help="run directory written by 'repro run --run-dir'")
    report.add_argument(
        "--metric", default="energy_per_item_uj", choices=METRIC_NAMES,
        metavar="METRIC",
        help="record metric to tabulate (default: energy_per_item_uj)",
    )
    report.add_argument(
        "--protocol", default=None, help="only report records of this protocol"
    )
    report.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the selected records as JSON instead of a table",
    )
    report.add_argument(
        "--strict", action="store_true",
        help=f"exit {EXIT_PARTIAL_FAILURE} when the run directory recorded "
             "quarantined job failures (failures.jsonl); CI gates use this",
    )

    list_cmd = subparsers.add_parser(
        "list", help="list registered components or scenario matrices"
    )
    list_cmd.add_argument(
        "what", choices=sorted(LISTABLE_KINDS),
        help="which registry to list",
    )

    compare = subparsers.add_parser("compare", help="run SPMS and SPIN on one scenario")
    compare.add_argument("--nodes", type=int, default=49, help="number of sensor nodes")
    compare.add_argument("--radius", type=float, default=20.0, help="transmission radius (m)")
    compare.add_argument("--packets", type=int, default=1, help="data items per node")
    compare.add_argument("--seed", type=int, default=1, help="random seed")
    compare.add_argument(
        "--workload", choices=("all_to_all", "cluster"), default="all_to_all"
    )
    compare.add_argument("--failures", action="store_true", help="inject transient failures")
    compare.add_argument("--mobility", action="store_true", help="enable step mobility")

    sweep = subparsers.add_parser(
        "sweep", help="run a registered scenario matrix across a worker pool"
    )
    sweep.add_argument(
        "matrix", nargs="?", default=None,
        help="registered matrix name (see --list), e.g. fig06",
    )
    sweep.add_argument("--list", action="store_true", help="list registered matrices")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; results are identical either way)",
    )
    sweep.add_argument(
        "--scale", choices=("bench", "paper"), default="bench",
        help="grid size preset for the figure matrices",
    )
    sweep.add_argument(
        "--seed", type=int, default=None,
        help="override the matrix base seed (per-job seeds derive from it)",
    )
    sweep.add_argument(
        "--run-dir", default=None,
        help="run directory to append the sweep's records to (see 'repro report')",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="serve jobs whose spec is already stored in --run-dir instead of "
             "re-running them",
    )
    sweep.add_argument(
        "--metric", default="energy_per_item_uj",
        help="record metric printed in the sweep table",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    sweep.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget; a hung job's worker is killed "
             "and the job retried (needs --workers >= 2)",
    )
    sweep.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per job after its first failed attempt before the job "
             "is quarantined to failures.jsonl (default: 2)",
    )
    sweep.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault injection (dev/testing): comma-separated "
             "INDEX:MODE[:ATTEMPT] tokens, MODE in raise/hang/kill — e.g. "
             "'0:raise,2:hang,4:kill' (hang/kill need --workers >= 2)",
    )

    bench = subparsers.add_parser(
        "bench", help="run a named kernel benchmark and record its throughput"
    )
    bench.add_argument(
        "name", nargs="?", default=None,
        help="registered benchmark name (see --list); default: fig06",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help=f"run the {QUICK_BENCHMARK!r} smoke benchmark (CI uses this)",
    )
    bench.add_argument("--list", action="store_true", help="list registered benchmarks")
    bench.add_argument(
        "--output", default="BENCH_kernel.json",
        help="bench trajectory file to append the record to "
             "(default: BENCH_kernel.json)",
    )
    bench.add_argument(
        "--no-append", action="store_true",
        help="print the record without writing --output",
    )
    bench.add_argument(
        "--compare", action="store_true",
        help="check the canonical digest against the latest --output record "
             "of the same benchmark (error exit on drift; CI uses this)",
    )
    bench.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full bench record as JSON",
    )

    lint = subparsers.add_parser(
        "lint", help="run the AST-based determinism/invariant linter"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: [tool.repro-lint] "
             "paths in pyproject.toml, else src)",
    )
    lint.add_argument(
        "--select", action="append", default=[], metavar="RULES",
        help="comma-separated rule-id prefixes to run (e.g. D,S201); "
             "default: every registered rule",
    )
    lint.add_argument(
        "--ignore", action="append", default=[], metavar="RULES",
        help="comma-separated rule-id prefixes to skip",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings (default: the "
             "[tool.repro-lint] baseline, if configured)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to --baseline and exit 0 "
             "(migration aid; the policy is an empty baseline at HEAD)",
    )
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="project root (default: nearest ancestor with pyproject.toml)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the machine-readable report instead of text",
    )
    lint.add_argument(
        "--graph-debug", action="store_true",
        help="attach the resolved project call graph to the report "
             "(edges, lock contexts, unresolved calls with reasons)",
    )
    lint.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="lint only python files that differ from REF (default HEAD, "
             "including untracked); per-file rules only — the call-graph "
             "pass needs the whole tree and is left to full runs",
    )

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("name", choices=sorted(SIMULATED_FIGURES) + sorted(ANALYTICAL_FIGURES))
    figure.add_argument(
        "--scale", choices=("bench", "paper"), default="bench",
        help="sweep size for simulated figures",
    )

    subparsers.add_parser("list-figures", help="list the figures that can be regenerated")
    subparsers.add_parser("table1", help="print the Table 1 parameter set")
    return parser


def _cmd_run(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.keep_raw and not args.run_dir:
        out("--keep-raw needs --run-dir (there is no store for the raw blob)")
        return 2
    if args.spec is not None:
        return _run_single_spec(args, out)
    if args.keep_raw:
        out("--keep-raw only applies to single --spec runs "
            "(batch workers reduce metrics in-process and ship summaries only)")
        return 2
    return _run_spec_batch(args, out)


def _run_single_spec(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.spec)
        if not path.is_file():
            out(f"spec file not found: {path}")
            return 2
        text = path.read_text()
    try:
        spec = ScenarioSpec.from_json(text)
    except SpecValidationError as exc:
        out(f"invalid spec: {exc}")
        return 2
    # Only construction errors (unknown components, bad option values) are a
    # spec problem worth a clean exit code; once built, the scenario runs
    # unguarded so genuine simulation bugs surface with their traceback.
    try:
        runner = ExperimentRunner(spec)
        runner.build()
    except (KeyError, ValueError) as exc:
        out(f"scenario failed to build: {exc}")
        return 2
    record = runner.run_record()
    if args.run_dir:
        raw = runner.raw_metrics() if args.keep_raw else None
        record = RunStore(args.run_dir).append(record, raw=raw)
    if args.as_json:
        flat = record.as_dict()
        for name in ("energy_breakdown_uj", "packets_sent", "packets_dropped"):
            flat[name] = getattr(record, name)
        out(json.dumps(flat, sort_keys=True, indent=1))
        return 0
    out(f"scenario {record.scenario!r} (protocol={record.protocol}, "
        f"nodes={record.num_nodes}, radius={record.transmission_radius_m:g} m)")
    for key, value in record.as_dict().items():
        if key in ("protocol", "scenario", "num_nodes", "transmission_radius_m"):
            continue
        out(f"  {key:<24} {value:.4f}" if isinstance(value, float) else f"  {key:<24} {value}")
    if args.run_dir:
        suffix = f" (raw blob: {record.raw_ref})" if args.keep_raw else ""
        out(f"record appended to {args.run_dir}{suffix}")
    return 0


def _load_spec_fleet(
    args: argparse.Namespace, out: Callable[[str], None]
) -> Optional[List[Tuple[str, ScenarioSpec]]]:
    """The (name, spec) fleet of a batch run, or ``None`` on a user error."""
    if args.spec_dir is not None:
        spec_dir = Path(args.spec_dir)
        if not spec_dir.is_dir():
            out(f"spec directory not found: {spec_dir}")
            return None
        paths = sorted(spec_dir.glob("*.json"))
        if not paths:
            out(f"no *.json specs in {spec_dir}")
            return None
    else:
        paths = [Path(p) for p in args.specs]
    fleet: List[Tuple[str, ScenarioSpec]] = []
    seen: Dict[str, int] = {}
    for path in paths:
        if not path.is_file():
            out(f"spec file not found: {path}")
            return None
        try:
            spec = ScenarioSpec.from_json(path.read_text())
        except SpecValidationError as exc:
            out(f"invalid spec {path}: {exc}")
            return None
        # File stems name the runs; duplicates get a #N suffix so records
        # from e.g. repeated `--specs a.json a.json` stay distinguishable.
        name = path.stem
        if name in seen:
            seen[name] += 1
            name = f"{name}#{seen[name]}"
        else:
            seen[name] = 0
        fleet.append((name, spec))
    return fleet


def _resolve_spec_components(spec: ScenarioSpec) -> None:
    """Resolve every component name a spec references (without building).

    The cheap fail-fast check for fleets: unknown protocols/workloads/
    placements/models surface before the worker pool spins up, without
    paying a full simulation build per spec in the parent process (bad
    option *values* still surface in the worker that builds the scenario).
    """
    registry = default_registry()
    normalize_protocol_name(spec.protocol, registry=registry)
    registry.lookup(WORKLOAD, spec.workload)
    registry.lookup(PLACEMENT, spec.placement)
    registry.lookup(CONTENTION, spec.config.contention)
    if spec.failures is not None:
        registry.lookup(FAILURE, spec.failures.model)
    if spec.mobility is not None:
        registry.lookup(MOBILITY, spec.mobility.model)


def _run_spec_batch(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    fleet = _load_spec_fleet(args, out)
    if fleet is None:
        return 2
    # Fail fast on specs referencing unknown components before the pool
    # spins up — a fleet should not die halfway through.
    for name, spec in fleet:
        try:
            _resolve_spec_components(spec)
        except (UnknownComponentError, KeyError, ValueError) as exc:
            out(f"scenario {name!r} failed to build: {exc}")
            return 2
    jobs = [
        SweepJob(
            index=index,
            key=name,
            matrix="batch",
            parameter="spec",
            value=name,
            protocol=spec.protocol,
            spec=spec,
            axes={"spec": name},
        )
        for index, (name, spec) in enumerate(fleet)
    ]
    store = RunStore(args.run_dir) if args.run_dir else None
    out(f"batch: {len(jobs)} spec(s), workers={args.workers}"
        + (f", run-dir={args.run_dir}" if args.run_dir else ""))
    records: List[RunRecord] = []
    failures = []
    for completion in stream_jobs(jobs, workers=args.workers, store=store):
        record = completion.record
        if record is None:
            failures.append(completion.failure)
            if not args.as_json:
                out(
                    f"  [fail] {completion.job.key}: quarantined after "
                    f"{completion.failure.attempt_count} attempt(s) — "
                    f"{completion.failure.last_detail}"
                )
            continue
        records.append(record)
        if not args.as_json:
            out(
                f"  [done] {record.key} ({record.protocol}): "
                f"energy/item={record.energy_per_item_uj:.3f} uJ, "
                f"delay={record.average_delay_ms:.2f} ms, "
                f"delivered={record.delivery_ratio:.0%}"
            )
    records.sort(key=lambda r: r.key)
    if args.as_json:
        out(json.dumps([r.to_dict() for r in records], sort_keys=True, indent=1))
        return EXIT_PARTIAL_FAILURE if failures else 0
    out("")
    out(_record_table(records, "energy_per_item_uj"))
    if store is not None:
        out("")
        out(f"{len(records)} record(s) appended to {args.run_dir}")
    if failures:
        out(f"{len(failures)} spec(s) FAILED"
            + (f"; see {store.failures_path}" if store is not None else ""))
        return EXIT_PARTIAL_FAILURE
    return 0


def _record_table(records: Sequence[RunRecord], metric: str) -> str:
    """Fixed-width key/protocol/metric table over *records*."""
    key_width = max([len("run")] + [len(r.key) for r in records])
    header = f"{'run':<{key_width}} {'protocol':>10} {metric:>20}"
    lines = [header, "-" * len(header)]
    for record in records:
        value = getattr(record, metric, None)
        rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"{record.key:<{key_width}} {record.protocol:>10} {rendered:>20}")
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    store = RunStore(args.run_dir)
    if not Path(args.run_dir).is_dir():
        out(f"run directory not found: {args.run_dir}")
        return 2
    try:
        records = store.query(protocol=args.protocol)
        failures = store.failures()
    except RunStoreError as exc:
        out(f"unreadable run directory: {exc}")
        return 2
    if not records and not failures:
        out(f"no records in {args.run_dir}"
            + (f" for protocol {args.protocol!r}" if args.protocol else ""))
        return 2
    records = sorted(records, key=lambda r: r.key)
    if args.as_json:
        out(json.dumps([r.to_dict() for r in records], sort_keys=True, indent=1))
        return EXIT_PARTIAL_FAILURE if (args.strict and failures) else 0
    out(f"{len(records)} record(s) in {args.run_dir}")
    out("")
    out(_record_table(records, args.metric))
    if failures:
        out("")
        out(f"{len(failures)} job(s) FAILED in this run (see {store.failures_path}):")
        for failure in sorted(failures, key=lambda f: f.key):
            out(
                f"  {failure.key}: {failure.last_outcome} after "
                f"{failure.attempt_count} attempt(s) — {failure.last_detail}"
            )
    for partial in store.partial_paths():
        out("")
        out(
            f"note: {partial} holds quarantined partial lines from an "
            "interrupted writer; the records above are unaffected"
        )
    if args.strict and failures:
        return EXIT_PARTIAL_FAILURE
    return 0


def _cmd_list(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    kind = LISTABLE_KINDS[args.what]
    if kind is None:
        for name in available_matrices():
            out(name)
        return 0
    registry = default_registry()
    names = registry.available(kind)
    if not names:
        out(f"no registered {args.what}")
        return 0
    for name in names:
        registration = registry.lookup(kind, name)
        suffix = ""
        if registration.aliases:
            suffix = f"  (aliases: {', '.join(registration.aliases)})"
        out(f"{name}{suffix}")
    return 0


def _cmd_compare(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    config = SimulationConfig(
        num_nodes=args.nodes,
        transmission_radius_m=args.radius,
        packets_per_node=args.packets,
        seed=args.seed,
    )
    failures = FailureConfig() if args.failures else None
    mobility = MobilityConfig() if args.mobility else None
    results = {}
    for protocol in ("spms", "spin"):
        if args.workload == "cluster":
            spec = cluster_scenario(protocol, config, failures=failures)
        else:
            spec = all_to_all_scenario(protocol, config, failures=failures, mobility=mobility)
        results[protocol] = run_scenario(spec)
    out(f"{'protocol':>10} {'energy/item (uJ)':>18} {'avg delay (ms)':>16} {'delivered':>10}")
    for protocol, result in results.items():
        out(
            f"{protocol:>10} {result.energy_per_item_uj:>18.3f} "
            f"{result.average_delay_ms:>16.2f} {result.delivery_ratio:>10.2%}"
        )
    out(
        f"SPMS saves {energy_saving_percent(results['spin'], results['spms']):.1f} % energy; "
        f"SPIN/SPMS delay ratio {delay_ratio(results['spin'], results['spms']):.2f}x"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.list or args.matrix is None:
        out("registered scenario matrices:")
        for name in available_matrices():
            out(f"  {name}")
        if args.matrix is None and not args.list:
            out("pick one: repro sweep <matrix> [--workers N]")
            return 2
        return 0
    if args.resume and not args.run_dir:
        out("--resume needs --run-dir (there is no run directory to resume from)")
        return 2
    chaos = None
    if args.chaos is not None:
        try:
            chaos = ChaosSpec.parse(args.chaos)
        except ChaosSpecError as exc:
            out(f"--chaos: {exc}")
            return 2
    if args.workers < 2:
        # Timeout enforcement and hang/kill injection act on *worker
        # processes*; a serial run has no supervisor to kill anything.
        if args.job_timeout is not None:
            out("--job-timeout needs --workers >= 2 (a serial run has no "
                "supervisor to kill a hung attempt)")
            return 2
        if chaos is not None and chaos.needs_pool():
            out(f"--chaos {chaos.describe()!r} injects hang/kill faults, "
                "which need --workers >= 2")
            return 2
    if args.job_timeout is not None and args.job_timeout <= 0:
        out(f"--job-timeout must be positive, got {args.job_timeout:g}")
        return 2
    if args.max_retries < 0:
        out(f"--max-retries must be >= 0, got {args.max_retries}")
        return 2
    scale = figures.paper_scale() if args.scale == "paper" else figures.bench_scale()
    try:
        matrix = get_matrix(args.matrix, scale=scale)
    except KeyError as exc:
        out(str(exc))
        return 2
    if args.seed is not None:
        matrix = dataclasses.replace(
            matrix, base_config=matrix.base_config.with_overrides(seed=args.seed)
        )
    if args.metric not in METRIC_NAMES:
        out(f"unknown metric {args.metric!r}; choose from: {', '.join(METRIC_NAMES)}")
        return 2
    jobs = matrix.expand()
    out(
        f"sweep {matrix.name}: {len(jobs)} jobs "
        f"({matrix.parameter} x {sorted(set(j.protocol for j in jobs))}), "
        f"workers={args.workers}, seed_policy={matrix.seed_policy}"
    )
    store = RunStore(args.run_dir) if args.run_dir else None

    if chaos is not None:
        out(f"chaos: injecting {chaos.describe()}")

    def progress(job, record, from_cache):
        if args.quiet:
            return
        if record is None:
            out(f"  [ fail] {job.key}: quarantined after exhausting attempts")
            return
        source = "cache" if from_cache else "run"
        out(
            f"  [{source:>5}] {job.key}: energy/item={record.energy_per_item_uj:.3f} uJ, "
            f"delay={record.average_delay_ms:.2f} ms, delivered={record.delivery_ratio:.0%}"
        )

    records, report = execute_jobs(
        jobs,
        workers=args.workers,
        resume=args.resume,
        progress=progress,
        store=store,
        job_timeout=args.job_timeout,
        max_attempts=args.max_retries + 1,
        chaos=chaos,
    )
    sweep = assemble_sweep(jobs, records)
    out("")
    out(sweep.format_table(args.metric))
    out("")
    retries = f", {report.retried} retried" if report.retried else ""
    quarantined = f", {report.quarantined} FAILED" if report.quarantined else ""
    out(
        f"{report.executed} simulated, {report.cache_hits} from cache"
        f"{retries}{quarantined}, {report.workers} worker(s), "
        f"{report.elapsed_s:.2f} s wall-clock"
    )
    merged = report.merged_summary
    if merged is not None and merged.items_generated:
        out(
            f"aggregate: {merged.items_generated} items, "
            f"{merged.deliveries_completed} deliveries, "
            f"{merged.total_energy_uj:.1f} uJ total energy"
        )
    for failure in report.failures:
        out(
            f"failed: {failure.key} after {failure.attempt_count} attempt(s) "
            f"— {failure.last_outcome}: {failure.last_detail}"
        )
    if report.failures and store is not None:
        out(f"failure records appended to {store.failures_path}")
    if report.interrupted:
        out(
            f"interrupted: {report.completed}/{report.total_jobs} job(s) "
            "completed before shutdown"
        )
    if report.quarantined or report.interrupted:
        return EXIT_PARTIAL_FAILURE
    return 0


def _cmd_bench(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.list:
        out("registered benchmarks:")
        for name in available_benchmarks():
            out(f"  {name:<16} {get_benchmark(name).description}")
        return 0
    if args.quick and args.name is not None:
        out("pick either a benchmark name or --quick, not both")
        return 2
    name = QUICK_BENCHMARK if args.quick else (args.name or "fig06")
    try:
        scenario = get_benchmark(name)
    except KeyError as exc:
        out(str(exc.args[0]))
        return 2
    out(f"bench {scenario.name}: {scenario.description or scenario.matrix}")
    record = run_benchmark(scenario)
    if args.as_json:
        out(json.dumps(record, sort_keys=True, indent=1))
    else:
        for line in format_bench_record(record):
            out(line)
    if args.compare:
        try:
            previous = load_bench_records(args.output)
        except BenchValidationError as exc:
            out(f"cannot compare against {args.output}: {exc}")
            return 2
        matched, compare_lines = compare_bench_record(record, previous)
        for line in compare_lines:
            out(line)
        if matched is False:
            # A drifted record is not appended: the trajectory stays a chain
            # of byte-identical baselines a future --compare can trust.
            out("digest drift: record NOT appended")
            return 1
    if args.no_append:
        return 0
    try:
        records = append_bench_record(args.output, record)
    except BenchValidationError as exc:
        out(f"cannot append to {args.output}: {exc}")
        return 2
    out(f"record {len(records)} appended to {args.output}")
    return 0


def _split_rule_args(values: Sequence[str]) -> Tuple[str, ...]:
    """Flatten repeated/comma-separated ``--select``/``--ignore`` values."""
    rules: List[str] = []
    for value in values:
        rules.extend(token.strip() for token in value.split(",") if token.strip())
    return tuple(rules)


def _cmd_lint(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    # Imported here so `repro lint` stays self-contained: the linter runs on
    # stdlib ast only and never pulls the simulation stack into memory.
    from repro.lint import (
        BaselineError,
        default_registry,
        find_project_root,
        load_config,
        render_json,
        render_text,
        run_lint,
        write_baseline,
    )

    if args.list_rules:
        registry = default_registry()
        for rule_id in registry.available():
            registration = registry.lookup(rule_id)
            out(f"{rule_id}  {registration.name:<24} {registration.description}")
        return 0
    if args.root is not None:
        root = Path(args.root)
        if not root.is_dir():
            out(f"project root not found: {root}")
            return 2
    else:
        anchor = Path(args.paths[0]) if args.paths else Path.cwd()
        root = find_project_root(anchor if anchor.exists() else Path.cwd())
    config = load_config(
        root,
        paths=tuple(args.paths),
        select=_split_rule_args(args.select),
        ignore=_split_rule_args(args.ignore),
        baseline=args.baseline,
    )
    if args.graph_debug:
        config = dataclasses.replace(config, graph_debug=True)
    if args.changed is not None:
        from repro.lint.changed import ChangedFilesError, scoped_changed_paths

        try:
            lintable, changed = scoped_changed_paths(config, base=args.changed)
        except ChangedFilesError as exc:
            out(f"--changed: {exc}")
            return 2
        if not lintable:
            out(
                f"--changed: no lintable python files differ from "
                f"{args.changed} ({len(changed)} changed path(s) out of scope)"
            )
            return 0
        registry = default_registry()
        graph_ids = tuple(
            registration.id
            for registration in registry.select(config.select, config.ignore)
            if registration.rule_class.needs_graph
        )
        config = dataclasses.replace(
            config,
            paths=tuple(lintable),
            ignore=(*config.ignore, *graph_ids),
        )
        skipped = f", {len(graph_ids)} graph rule(s) deferred" if graph_ids else ""
        out(f"--changed: linting {len(lintable)} file(s){skipped}")
    if args.write_baseline:
        if config.baseline_path() is None:
            out("--write-baseline needs --baseline (or a configured baseline path)")
            return 2
        # Findings are recomputed without the existing baseline applied, so
        # rewriting is idempotent and complete.
        bare = dataclasses.replace(config, baseline=None)
        report = run_lint(bare)
        if report.errors:
            for error in report.errors:
                out(f"error: {error}")
            return 2
        count = write_baseline(config.baseline_path(), report.findings)
        out(f"baseline written to {config.baseline_path()} ({count} finding(s))")
        return 0
    try:
        report = run_lint(config)
    except BaselineError as exc:
        out(str(exc))
        return 2
    if args.as_json:
        out(render_json(report))
    else:
        for line in render_text(report):
            out(line)
    return report.exit_code


def _cmd_figure(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.name in ANALYTICAL_FIGURES:
        generator, description = ANALYTICAL_FIGURES[args.name]
        out(f"{args.name}: {description}")
        for x, y in generator():
            out(f"{x:>12.2f} {y:>12.4f}")
        return 0
    generator, metric, description = SIMULATED_FIGURES[args.name]
    scale = figures.paper_scale() if args.scale == "paper" else figures.bench_scale()
    out(f"{args.name}: {description} [{args.scale} scale]")
    sweep = generator(scale)
    out(sweep.format_table(metric))
    return 0


def _cmd_list_figures(out: Callable[[str], None]) -> int:
    for name, (_, description) in sorted(ANALYTICAL_FIGURES.items()):
        out(f"{name:>6}  {description}")
    for name, (_, _, description) in sorted(SIMULATED_FIGURES.items()):
        out(f"{name:>6}  {description}")
    return 0


def _cmd_table1(out: Callable[[str], None]) -> int:
    for key, value in figures.table1_parameters().items():
        out(f"{key:<42} {value}")
    return 0


def main(argv: Optional[Sequence[str]] = None, out: Callable[[str], None] = print) -> int:
    """CLI entry point.  Returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    if args.command == "list":
        return _cmd_list(args, out)
    if args.command == "compare":
        return _cmd_compare(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "lint":
        return _cmd_lint(args, out)
    if args.command == "figure":
        return _cmd_figure(args, out)
    if args.command == "list-figures":
        return _cmd_list_figures(out)
    if args.command == "table1":
        return _cmd_table1(out)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
