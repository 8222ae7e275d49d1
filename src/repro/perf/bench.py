"""Named benchmark scenarios and the in-process benchmark harness.

A :class:`BenchScenario` names a registered scenario matrix (plus a scale and
an optional job cap) as a *reproducible unit of kernel work*.  Benchmarks run
serially in-process — no worker pool, no IPC — so the measured wall time is
the simulation kernel's, not the executor's.

Each run produces one schema-versioned record (a plain dict, see
:mod:`repro.perf.schema`) carrying:

* throughput — total events processed, wall time, events/sec,
* a ``canonical_digest`` — SHA-256 over the run records' ``canonical_json``
  renderings in job order, so a perf regression check doubles as a
  byte-identity check: optimisations must move wall time without moving the
  digest,
* provenance — git describe/commit, python version, timestamp.
"""

from __future__ import annotations

import hashlib
import platform
import subprocess
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf.schema import BENCH_SCHEMA_KEY, BENCH_SCHEMA_VERSION

#: Default trajectory file benchmark records are appended to.
DEFAULT_BENCH_PATH = "BENCH_kernel.json"


@dataclass(frozen=True)
class BenchScenario:
    """A named, reproducible benchmark workload.

    Attributes:
        name: Registry name (``repro bench <name>``).
        matrix: Registered scenario-matrix name to expand (``kind="matrix"``),
            or a pseudo-name describing the workload otherwise.
        scale: Figure scale preset (``"bench"`` or ``"paper"``).
        max_jobs: Run only the first N expanded jobs (quick smoke modes).
            For ``kind="store-append"``, the number of records appended.
        description: One-line human description for ``repro bench --list``.
        kind: ``"matrix"`` runs simulation jobs; ``"store-append"`` times the
            :class:`~repro.results.RunStore` append path instead (one
            synthetic record per "event", into a throwaway run directory);
            ``"sweep-overhead"`` runs the jobs through the supervised
            2-worker pool so the trajectory tracks executor supervision
            overhead (same canonical digest as the serial run — the pool
            must not move bytes, only wall time).
    """

    name: str
    matrix: str
    scale: str = "bench"
    max_jobs: Optional[int] = None
    description: str = ""
    kind: str = "matrix"

    def jobs(self) -> List:
        """Expand the matrix into the jobs this benchmark runs."""
        from repro.experiments import figures
        from repro.experiments.matrix import get_matrix

        scale = (
            figures.paper_scale() if self.scale == "paper" else figures.bench_scale()
        )
        jobs = get_matrix(self.matrix, scale=scale).expand()
        if self.max_jobs is not None:
            jobs = jobs[: self.max_jobs]
        return jobs


_BENCHMARKS: Dict[str, BenchScenario] = {}


def register_benchmark(scenario: BenchScenario, replace: bool = False) -> BenchScenario:
    """Register *scenario* under its name; returns it.

    Raises:
        ValueError: When the name is taken and *replace* is false.
    """
    if scenario.name in _BENCHMARKS and not replace:
        raise ValueError(f"benchmark {scenario.name!r} is already registered")
    _BENCHMARKS[scenario.name] = scenario
    return scenario


def available_benchmarks() -> List[str]:
    """Sorted names of every registered benchmark."""
    return sorted(_BENCHMARKS)


def get_benchmark(name: str) -> BenchScenario:
    """The registered benchmark called *name*.

    Raises:
        KeyError: With the known names when *name* is not registered.
    """
    try:
        return _BENCHMARKS[name]
    except KeyError:
        known = ", ".join(available_benchmarks())
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


#: Name of the quick smoke benchmark (``repro bench --quick``; CI runs it).
QUICK_BENCHMARK = "quick"

register_benchmark(
    BenchScenario(
        name="fig06",
        matrix="fig06",
        description="fig06 energy-vs-nodes bench grid, serial (the acceptance benchmark)",
    )
)
register_benchmark(
    BenchScenario(
        name="fig10-failures",
        matrix="fig10-failures",
        description="fig10 delay-under-failures bench grid, serial",
    )
)
register_benchmark(
    BenchScenario(
        name=QUICK_BENCHMARK,
        matrix="fig06",
        max_jobs=2,
        description="first two fig06 jobs (16 nodes, both protocols) — CI smoke",
    )
)
register_benchmark(
    BenchScenario(
        name="store-append",
        matrix="store-append",
        kind="store-append",
        max_jobs=10_000,
        description="append 10k records to one RunStore (locked sidecar-index path)",
    )
)
register_benchmark(
    BenchScenario(
        name="sweep-overhead",
        matrix="fig06",
        max_jobs=2,
        kind="sweep-overhead",
        description="quick fig06 jobs through the supervised 2-worker pool "
                    "(executor supervision overhead)",
    )
)


# --------------------------------------------------------------------- harness


def git_metadata() -> Optional[Dict[str, str]]:
    """``git describe``/commit of the working tree, or ``None`` outside git."""

    def _git(*args: str) -> str:
        return subprocess.run(
            ("git", *args), capture_output=True, text=True, check=True, timeout=10
        ).stdout.strip()

    try:
        return {
            "describe": _git("describe", "--always", "--dirty"),
            "commit": _git("rev-parse", "HEAD"),
        }
    except (OSError, subprocess.SubprocessError):
        return None


def store_append_record(index: int) -> "object":
    """Deterministic synthetic :class:`RunRecord` #*index* for store benches.

    Fingerprints repeat every 1024 appends so the sidecar index accumulates
    multi-location entries the way a re-run sweep's store would.
    """
    from repro.metrics.summary import DistributionSummary, MetricsSummary
    from repro.results import RunRecord

    fingerprint = hashlib.sha256(
        f"store-append/{index % 1024}".encode("utf-8")
    ).hexdigest()
    summary = MetricsSummary(
        items_generated=1,
        expected_deliveries=8,
        deliveries_completed=8,
        total_energy_uj=90.0,
        energy_breakdown_uj={"rx": 40.0, "tx": 50.0},
        packets_sent={"ADV": 9},
        delay=DistributionSummary(8, 5.0, 1.0, 9.0, 2.0, 5.0),
    )
    return RunRecord(
        key=f"store-append/{index:06d}",
        protocol="spms",
        scenario="store-append",
        spec_fingerprint=fingerprint,
        seed=index,
        num_nodes=9,
        transmission_radius_m=20.0,
        summary=summary,
        axes={"append_index": index},
    )


def _run_store_append_benchmark(scenario: BenchScenario) -> Dict[str, object]:
    """Time `max_jobs` RunStore appends into a throwaway run directory.

    One "event" is one append through the full locked path (tail
    re-validation, shard write, sidecar index write).  Record construction
    and the canonical digest are computed outside the timed section, so the
    wall time is the store's.  The digest doubles as the usual byte-identity
    gate: the appended records are deterministic, and after the timed loop
    the store must read back exactly the records that went in.
    """
    import tempfile
    from pathlib import Path

    from repro.results import RunStore

    count = scenario.max_jobs or 10_000
    records = [store_append_record(i) for i in range(count)]
    digest = hashlib.sha256(
        "\n".join(r.canonical_json() for r in records).encode("utf-8")
    ).hexdigest()
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        store = RunStore(Path(tmp) / "run", records_per_shard=512)
        started = time.perf_counter()
        for record in records:
            store.append(record)
        wall_time_s = time.perf_counter() - started
        stored = len(store)
        if stored != count:
            raise RuntimeError(
                f"store-append benchmark lost records: {stored}/{count} stored"
            )
    return {
        BENCH_SCHEMA_KEY: BENCH_SCHEMA_VERSION,
        "benchmark": scenario.name,
        "matrix": scenario.matrix,
        "scale": scenario.scale,
        "jobs": count,
        "events_processed": count,
        "sim_time_ms": 0.0,
        "wall_time_s": wall_time_s,
        "events_per_sec": (count / wall_time_s) if wall_time_s > 0 else 0.0,
        "canonical_digest": digest,
        "git": git_metadata(),
        "python_version": platform.python_version(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _run_sweep_overhead_benchmark(scenario: BenchScenario) -> Dict[str, object]:
    """Time the scenario's jobs through the supervised 2-worker pool.

    The timed section is the whole :func:`~repro.experiments.executor.
    execute_jobs` call — process spawn, dispatch, supervision waits, IPC
    and teardown — so the trajectory notices when supervision machinery gets
    more expensive.  The digest is computed over ``canonical_json`` in job
    order (not completion order), so it must equal the serial ``quick``
    benchmark's digest for the same jobs: supervised execution may only move
    wall time, never bytes.  One "event" is one completed delivery — the
    record-level proxy for kernel work (workers reduce collectors in-process,
    so the parent never sees raw event counts).
    """
    from repro.experiments.executor import execute_jobs

    jobs = scenario.jobs()
    started = time.perf_counter()
    records, report = execute_jobs(jobs, workers=2)
    wall_time_s = time.perf_counter() - started
    if report.quarantined or len(records) != len(jobs):
        raise RuntimeError(
            f"sweep-overhead benchmark lost jobs: {len(records)}/{len(jobs)} "
            f"completed, {report.quarantined} quarantined"
        )
    ordered = [records[job.key] for job in jobs]
    digest = hashlib.sha256(
        "\n".join(r.canonical_json() for r in ordered).encode("utf-8")
    ).hexdigest()
    deliveries = sum(r.deliveries_completed for r in ordered)
    return {
        BENCH_SCHEMA_KEY: BENCH_SCHEMA_VERSION,
        "benchmark": scenario.name,
        "matrix": scenario.matrix,
        "scale": scenario.scale,
        "jobs": len(jobs),
        "events_processed": deliveries,
        "sim_time_ms": sum(r.sim_time_ms for r in ordered),
        "wall_time_s": wall_time_s,
        "events_per_sec": (deliveries / wall_time_s) if wall_time_s > 0 else 0.0,
        "canonical_digest": digest,
        "git": git_metadata(),
        "python_version": platform.python_version(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def run_benchmark(scenario: BenchScenario) -> Dict[str, object]:
    """Run *scenario* serially in-process and return its bench record.

    The returned dict is schema-versioned and validates under
    :func:`repro.perf.schema.validate_bench_record`.
    """
    from repro.experiments.runner import ExperimentRunner

    if scenario.kind == "store-append":
        return _run_store_append_benchmark(scenario)
    if scenario.kind == "sweep-overhead":
        return _run_sweep_overhead_benchmark(scenario)
    jobs = scenario.jobs()
    canonical: List[str] = []
    total_events = 0
    total_sim_time_ms = 0.0
    started = time.perf_counter()
    for job in jobs:
        runner = ExperimentRunner(job.spec)
        record = runner.run_record(key=job.key, axes=job.axes)
        assert runner.sim is not None
        total_events += runner.sim.events_processed
        total_sim_time_ms += record.sim_time_ms
        canonical.append(record.canonical_json())
    wall_time_s = time.perf_counter() - started
    digest = hashlib.sha256("\n".join(canonical).encode("utf-8")).hexdigest()
    return {
        BENCH_SCHEMA_KEY: BENCH_SCHEMA_VERSION,
        "benchmark": scenario.name,
        "matrix": scenario.matrix,
        "scale": scenario.scale,
        "jobs": len(jobs),
        "events_processed": total_events,
        "sim_time_ms": total_sim_time_ms,
        "wall_time_s": wall_time_s,
        "events_per_sec": (total_events / wall_time_s) if wall_time_s > 0 else 0.0,
        "canonical_digest": digest,
        "git": git_metadata(),
        "python_version": platform.python_version(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def compare_bench_record(
    record: Dict[str, object], records: Sequence[Dict[str, object]]
) -> Tuple[Optional[bool], List[str]]:
    """Compare *record* against the latest trajectory record of its benchmark.

    The trajectory (``BENCH_kernel.json``) may interleave records of several
    benchmarks; the baseline is the most recent record whose ``benchmark``
    name matches.  Returns ``(matched, lines)``:

    * ``matched is None`` — the trajectory holds no earlier record of this
      benchmark (nothing to compare; first run on a fresh trajectory),
    * ``matched is True`` — the canonical digests agree; *lines* report the
      events/sec delta,
    * ``matched is False`` — digest drift: the same workload produced
      different results, which means an optimisation broke byte-identity.
    """
    baseline = None
    for prior in reversed(list(records)):
        if prior.get("benchmark") == record["benchmark"]:
            baseline = prior
            break
    if baseline is None:
        return None, [
            f"compare: no earlier {record['benchmark']!r} record in the "
            "trajectory; nothing to compare against"
        ]
    git = baseline.get("git") or {}
    described = git.get("describe", "?") if isinstance(git, dict) else "?"
    tag = f"{described} @ {baseline.get('timestamp_utc', '?')}"
    if baseline["canonical_digest"] != record["canonical_digest"]:
        return False, [
            f"compare: DIGEST DRIFT vs baseline ({tag})",
            f"  baseline digest  {baseline['canonical_digest']}",
            f"  current digest   {record['canonical_digest']}",
            "  the same workload produced different metrics — the kernel or "
            "protocol change is not byte-identical",
        ]
    old_eps = float(baseline["events_per_sec"])
    new_eps = float(record["events_per_sec"])
    delta = f" ({(new_eps - old_eps) / old_eps:+.1%})" if old_eps > 0 else ""
    return True, [
        f"compare: digest matches baseline ({tag})",
        f"  events/sec       {old_eps:.0f} -> {new_eps:.0f}{delta}",
        f"  wall time        {float(baseline['wall_time_s']):.2f} s -> "
        f"{float(record['wall_time_s']):.2f} s",
    ]


def format_bench_record(record: Dict[str, object]) -> List[str]:
    """Human-readable summary lines of a bench record (CLI output)."""
    git = record.get("git") or {}
    describe = git.get("describe", "-") if isinstance(git, dict) else "-"
    return [
        f"benchmark {record['benchmark']} "
        f"(matrix={record['matrix']}, scale={record['scale']}, jobs={record['jobs']})",
        f"  events processed   {record['events_processed']}",
        f"  wall time          {record['wall_time_s']:.2f} s",
        f"  events/sec         {record['events_per_sec']:.0f}",
        f"  canonical digest   {str(record['canonical_digest'])[:16]}…",
        f"  git                {describe}",
    ]
