"""One benchmark driver process: run a workload's jobs the way ``repro sweep`` does.

``run.py`` starts a fresh driver process for every measured pass, so each
pass pays interpreter start, ``import repro``, matrix expansion and store
opening exactly as a user's sweep does.  The driver expands the workload,
opens a :class:`~repro.results.RunStore` run directory, hands the jobs to
:func:`~repro.experiments.executor.execute_jobs`, reads every record back
with :meth:`RunStore.query` and writes one JSON result file::

    python3 perfbench/driver.py --workload grid-static --seed 1 --mode pool \\
        --work-dir .perfbench/work --out .perfbench/work/result.json

Modes:

* ``setup``: stop when ready to hand the first job to the executor;
* ``pool`` / ``serial``: untraced run with 2 workers / in-process;
* ``serial-traced``: in-process run with the in-worker layers traced
  (build, routing, sim, net, proto, metrics);
* ``pool-traced``: 2-worker run with the executor and store layers traced.

Times are ``time.monotonic()`` readings (one clock for every process on the
host), so ``run.py`` can measure from the moment it started this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("setup", "pool", "serial", "serial-traced", "pool-traced")

#: Layers whose frames the serial traced pass keeps as spans; the rest
#: (protocol handlers, network sends) are only accumulated.
SERIAL_RECORDED = ("job", "build", "routing.build", "sim.run", "metrics.summarize")
POOL_RECORDED = ("executor.execute_jobs", "store.append", "store.query")


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def digest(records) -> str:
    """SHA-256 over the records' canonical JSON, one per line, in job order."""
    return hashlib.sha256(
        "\n".join(record.canonical_json() for record in records).encode("utf-8")
    ).hexdigest()


def ordered_records(jobs, records):
    """Records read back, in job order; ``None`` if any job has not exactly one."""
    by_key = {}
    for record in records:
        if record.key in by_key:
            return None
        by_key[record.key] = record
    if set(by_key) != {job.key for job in jobs}:
        return None
    return [by_key[job.key] for job in jobs]


def log_jobs(path: Path) -> None:
    """Append one JSON line of counters per finished job to *path*.

    Workers are forked from this process, so they inherit the wrapper; one
    ``O_APPEND`` write per job keeps lines from two workers whole.
    """
    from repro.experiments.runner import ExperimentRunner

    original = ExperimentRunner.run_record

    def run_record(self, *args, **kwargs):
        record = original(self, *args, **kwargs)
        stats = self.routing.total_stats if self.routing is not None else None
        line = json.dumps({
            "key": record.key,
            "events": self.sim.events_processed,
            "receptions": sum(self.metrics.traffic_summary()["received"].values()),
            "routing_rounds": stats.rounds if stats else 0,
            "routing_messages": stats.messages if stats else 0,
            "routing_receptions": stats.receptions if stats else 0,
        })
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        return record

    ExperimentRunner.run_record = run_record


def read_jobs(path: Path, jobs):
    """Each job's logged counters, in job order; ``None`` if a job logged none."""
    logged = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            logged[entry["key"]] = entry
    if any(job.key not in logged for job in jobs):
        return None
    return [logged[job.key] for job in jobs]


def trace_in_worker_layers(tracer) -> None:
    """Wrap the in-worker layers' public methods."""
    from repro.build.builder import SimulationBuilder
    from repro.core.network import Network
    from repro.core.spin import SpinNode
    from repro.core.spms import SpmsNode
    from repro.experiments.runner import ExperimentRunner
    from repro.metrics.collector import MetricsCollector
    from repro.routing.manager import RoutingManager
    from repro.sim.engine import Simulator

    tracer.wrap(
        ExperimentRunner, "run_record", "job", job_key=lambda args, kwargs: kwargs.get("key")
    )
    tracer.wrap(SimulationBuilder, "build", "build")
    tracer.wrap(RoutingManager, "build", "routing.build")
    tracer.wrap(Simulator, "run", "sim.run")
    tracer.wrap(Network, "broadcast", "net.broadcast")
    tracer.wrap(Network, "unicast", "net.unicast")
    for node_class in (SpmsNode, SpinNode):
        tracer.wrap(node_class, "on_adv", "proto.adv")
        tracer.wrap(node_class, "on_packet", "proto.packet")
    tracer.wrap(MetricsCollector, "summarize", "metrics.summarize")


def trace_executor_and_store(tracer, waits):
    """Wrap the store's public methods and count the supervisor's waits.

    ``waits`` counts ``multiprocessing.connection.wait`` calls in this
    process, and how many of them were asked not to block (timeout <= 0).
    """
    from multiprocessing import connection

    from repro.results import RunStore

    tracer.wrap(RunStore, "append", "store.append")
    tracer.wrap(RunStore, "query", "store.query")
    original = connection.wait

    def wait(object_list, timeout=None):
        waits["calls"] += 1
        if timeout is not None and timeout <= 0:
            waits["busy"] += 1
        return original(object_list, timeout)

    connection.wait = wait


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--max-jobs", type=int, default=None)
    parser.add_argument(
        "--recheck", type=int, default=0,
        help="after timing, re-run the first N jobs in-process and compare records",
    )
    args = parser.parse_args(argv)

    import_repro()
    from spans import Tracer
    from workloads import WORKERS, get_workload

    from repro.experiments.executor import execute_jobs
    from repro.experiments.runner import ExperimentRunner
    from repro.results import RunStore

    jobs = get_workload(args.workload).jobs(args.seed, args.max_jobs)
    run_dir = args.work_dir / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    store = RunStore(run_dir)
    workers = WORKERS if args.mode.startswith("pool") else 1
    log_path = args.work_dir / "jobs.jsonl"
    log_path.unlink(missing_ok=True)
    log_jobs(log_path)
    tracer, waits = None, {"calls": 0, "busy": 0}
    if args.mode == "serial-traced":
        tracer = Tracer(SERIAL_RECORDED)
        trace_in_worker_layers(tracer)
    elif args.mode == "pool-traced":
        tracer = Tracer(POOL_RECORDED)
        trace_executor_and_store(tracer, waits)

    t_ready = time.monotonic()
    result = {"mode": args.mode, "jobs": len(jobs), "t_ready": t_ready}
    if args.mode == "setup":
        args.out.write_text(json.dumps(result))
        return 0
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    pool_traced = args.mode == "pool-traced"
    with tracer.span("executor.execute_jobs") if pool_traced else nullcontext():
        _, report = execute_jobs(jobs, workers=workers, store=store)
    read_back = RunStore(run_dir).query()
    t_end = time.monotonic()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    ordered = ordered_records(jobs, read_back)
    result.update(
        t_end=t_end,
        records=len(read_back),
        complete=ordered is not None,
        digest=digest(ordered) if ordered is not None else None,
        quarantined=report.quarantined,
        retried=report.retried,
        in_worker_s=sum(record.wall_time_s for record in read_back),
        parent_cpu_s=cpu_s(self_after) - cpu_s(self_before),
        worker_cpu_s=cpu_s(children_after) - cpu_s(children_before),
        peak_rss_kb=max(self_after.ru_maxrss, children_after.ru_maxrss),
    )
    job_stats = read_jobs(log_path, jobs)
    result["events"] = sum(stats["events"] for stats in job_stats) if job_stats else None
    if tracer is not None:
        result["trace"] = {
            "layers": tracer.layers(),
            "spans": tracer.spans,
            "jobs": job_stats,
            "waits": waits,
        }

    mismatched = []
    if ordered is not None:
        for job, stored in list(zip(jobs, ordered))[: args.recheck]:
            fresh = ExperimentRunner(job.spec).run_record(key=job.key, axes=job.axes)
            if fresh.canonical_json() != stored.canonical_json():
                mismatched.append(job.key)
    result["recheck"] = {"checked": min(args.recheck, len(jobs)), "mismatched": mismatched}
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
