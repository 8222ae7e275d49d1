"""Parallel execution of expanded sweep jobs, streaming run records.

The executor takes the flat job list produced by
:meth:`repro.experiments.matrix.ScenarioMatrix.expand` and runs it either
serially (``workers <= 1``; zero multiprocessing overhead) or across a
**supervised** worker pool (:mod:`repro.experiments.supervisor`).  Because
every job is self-contained and carries its own derived seed, the two paths
produce **identical** results — the determinism regression tests assert
byte-equality of the canonical record renderings.

Since PR 9 job failure is an outcome, not an abort: a raising job is retried
(bounded, deterministic backoff) and quarantined into a structured
:class:`~repro.results.JobFailure` if it keeps failing; a hung job is killed
at ``job_timeout`` and its worker respawned; a worker that dies (SIGKILL,
segfault) is respawned with its in-flight job requeued.  Quarantined jobs
surface in the :class:`ExecutionReport` and in the run directory's
``failures.jsonl`` sidecar — the sweep always completes every job it can.
Surviving records are byte-identical to a fault-free run no matter which
other jobs failed (the fault-injection tests pin this over canonical bytes).

Workers reduce their :class:`~repro.metrics.collector.MetricsCollector` to a
compact :class:`~repro.metrics.summary.MetricsSummary` *in-process* and ship a
single :class:`~repro.results.RunRecord` back per job, so the IPC payload is
O(1) instead of O(deliveries) — ``benchmarks/test_ipc_payload.py`` pins the
reduction.  :func:`stream_jobs` is the core generator, yielding a
:class:`JobCompletion` the moment each job finishes (serial: in expansion
order; parallel: completion order); :func:`execute_jobs` drains it into the
keyed-dictionary form most callers want, handling ``KeyboardInterrupt`` /
``SIGTERM`` by tearing the pool down and returning a partial report.

Results are keyed by the job's stable key (never by completion order).  An
optional :class:`~repro.results.RunStore` receives every completed record
append-only (the run directory ``repro run --spec-dir`` and ``repro report``
share); with ``resume=True`` jobs whose spec fingerprint is already stored
there are served from it instead of being simulated again.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.chaos import ChaosSpec
from repro.experiments.matrix import SweepJob
from repro.experiments.runner import ExperimentRunner
from repro.experiments.supervisor import (
    DEFAULT_MAX_ATTEMPTS,
    SupervisedPool,
    SupervisedResult,
    run_serial,
)
from repro.metrics.summary import MetricsSummary
from repro.results import (
    JobFailure,
    RunRecord,
    RunStore,
    SweepResult,
    spec_fingerprint,
)

#: Environment variable consulted for the default worker count (used by the
#: figure generators and benchmarks so `REPRO_SWEEP_WORKERS=4 pytest
#: benchmarks` parallelises every figure without code changes).
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"

#: *record* is ``None`` when the completion is a quarantined failure.
ProgressCallback = Callable[[SweepJob, Optional[RunRecord], bool], None]

_workers_warning_emitted = False


def default_workers() -> int:
    """Worker count from ``REPRO_SWEEP_WORKERS`` (defaults to serial).

    An unparseable value falls back to serial but **warns once** on stderr —
    a typo like ``REPRO_SWEEP_WORKERS=four`` silently serialising a long
    sweep is exactly the kind of quiet degradation this repo lints against.
    """
    global _workers_warning_emitted
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        if not _workers_warning_emitted:
            _workers_warning_emitted = True
            print(
                f"repro: warning: {WORKERS_ENV_VAR}={raw!r} is not an integer; "
                "falling back to serial execution",
                file=sys.stderr,
            )
        return 1


@dataclass(frozen=True)
class JobCompletion:
    """One finished job, as yielded by :func:`stream_jobs`.

    Attributes:
        job: The job that completed.
        record: Its canonical run record, or ``None`` if the job was
            quarantined (see *failure*).
        from_cache: Whether the record was served from the run directory
            on resume instead of being simulated.
        attempts: Attempts the supervisor consumed (0 for resumed jobs,
            1 for a clean first-try run, >1 when retries were needed).
        failure: The structured failure, when every attempt was exhausted.
    """

    job: SweepJob
    record: Optional[RunRecord]
    from_cache: bool
    attempts: int = 1
    failure: Optional[JobFailure] = None

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class ExecutionReport:
    """Bookkeeping of one :func:`execute_jobs` call.

    Attributes:
        total_jobs: Jobs requested.
        executed: Jobs actually simulated to a successful record.
        cache_hits: Jobs served from the run directory on resume.
        retried: Successful jobs that needed more than one attempt.
        quarantined: Jobs that exhausted every attempt (see *failures*).
        failed_attempts: Total failed attempts across the run (retries that
            eventually succeeded plus every attempt of quarantined jobs).
        workers: Worker processes used (1 = serial in-process).
        elapsed_s: Wall-clock duration of the whole execution.
        interrupted: Whether the run was cut short by SIGINT/SIGTERM; the
            report then covers only the jobs completed before shutdown.
        job_keys: Keys in expansion order (provenance).
        failures: The quarantined jobs' structured failure records.
        merged_summary: Fold of every record's :class:`MetricsSummary`, in
            expansion order (so serial and parallel executions aggregate
            byte-identically).  Covers resumed jobs too — stored records carry
            their summaries.
    """

    total_jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    retried: int = 0
    quarantined: int = 0
    failed_attempts: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    interrupted: bool = False
    job_keys: List[str] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)
    merged_summary: Optional[MetricsSummary] = None

    @property
    def completed(self) -> int:
        """Jobs that produced a record (simulated or resumed)."""
        return self.executed + self.cache_hits


def _run_job(job: SweepJob) -> Tuple[int, RunRecord]:
    """Run one job in-process, unsupervised (module-level, hence picklable).

    Kept as the plain single-attempt entry point: the overhead benchmark
    uses it as the un-supervised baseline, and it documents exactly what one
    attempt inside the supervised pool executes.
    """
    runner = ExperimentRunner(job.spec)
    return job.index, runner.run_record(key=job.key, axes=job.axes)


def _resumed(job: SweepJob, store: RunStore) -> Optional[RunRecord]:
    """The stored record serving *job* on resume, or ``None`` to run it.

    A record stored under the job's own key is served as it is, so a resumed
    sweep never duplicates records.  The fingerprint identifies the *spec*,
    not the job, so two matrices can share one (fig06 and fig06-placement's
    placement=grid points do): a record stored under another key is
    re-stamped with this job's key and axes, so its provenance describes
    this sweep, and appended once.
    """
    stored = store.records_by_fingerprint(spec_fingerprint(job.spec))
    if not stored:
        return None
    for record in stored:
        if record.key == job.key:
            return record
    return store.append(
        dataclasses.replace(stored[0], key=job.key, axes=dict(job.axes))
    )


def stream_jobs(
    jobs: Sequence[SweepJob],
    workers: int = 1,
    resume: bool = False,
    store: Optional[RunStore] = None,
    job_timeout: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    chaos: Optional[ChaosSpec] = None,
) -> Iterator[JobCompletion]:
    """Run every job, yielding each completion as soon as it is available.

    Resumed jobs are yielded first (they cost one indexed read each); the
    remaining jobs then stream back from the supervised pool in completion
    order, or in expansion order when running serially.  Every job yields
    exactly one completion — quarantined jobs yield one with
    ``record=None`` and a :class:`~repro.results.JobFailure` attached.

    Args:
        jobs: Expanded sweep jobs (any order; results are keyed, not ordered).
        workers: Worker processes; ``<= 1`` runs serially in-process.
        resume: When true, jobs whose spec fingerprint is already in *store*
            are served from it instead of being simulated (see
            :func:`_resumed`).  Requires *store*.
        store: Optional run store; every simulated record is appended, so
            the run directory describes the full requested set.  Appends
            happen in the parent under the store's advisory file lock, so
            several executors (or CLI runs) may share one ``--run-dir``
            concurrently without losing records.
            Quarantined jobs are appended to the store's ``failures.jsonl``
            sidecar instead — canonical record bytes stay untouched.
        job_timeout: Per-attempt wall-clock budget in seconds.  Requires a
            worker pool (``workers >= 2``): a serial run has no supervisor
            to kill a hung attempt.
        max_attempts: Total tries per job before quarantine (>= 1).
        chaos: Optional deterministic fault-injection spec (tests and the
            ``--chaos`` dev flag).  ``hang``/``kill`` injections require a
            worker pool for the same reason *job_timeout* does.

    Raises:
        ValueError: When *resume* is requested without a *store*, or
            *job_timeout* or a pool-only chaos spec is combined with serial
            execution.
    """
    if resume and store is None:
        raise ValueError("resume=True needs a store to resume from")
    workers = max(1, int(workers))
    if workers < 2:
        if job_timeout is not None:
            raise ValueError(
                "job_timeout requires a worker pool (workers >= 2); a serial "
                "run has no supervisor to kill a hung attempt"
            )
        if chaos is not None and chaos.needs_pool():
            raise ValueError(
                f"chaos spec {chaos.describe()!r} injects hang/kill faults, "
                "which act on worker processes; use workers >= 2"
            )
    pending: List[SweepJob] = []

    def complete(result: SupervisedResult) -> JobCompletion:
        job = result.job
        if result.failure is not None:
            if store is not None:
                store.append_failure(result.failure)
            return JobCompletion(
                job=job,
                record=None,
                from_cache=False,
                attempts=result.attempts,
                failure=result.failure,
            )
        record = result.record
        if store is not None:
            record = store.append(record)
        return JobCompletion(
            job=job, record=record, from_cache=False, attempts=result.attempts
        )

    for job in jobs:
        hit = _resumed(job, store) if resume else None
        if hit is not None:
            yield JobCompletion(job=job, record=hit, from_cache=True, attempts=0)
        else:
            pending.append(job)

    # A pool is only worth its process overhead when there is real
    # parallelism to exploit — except that timeout enforcement and
    # hang/kill chaos *need* worker processes even for a single job.
    use_pool = workers >= 2 and bool(pending) and (
        len(pending) > 1
        or job_timeout is not None
        or (chaos is not None and chaos.needs_pool())
    )
    if not use_pool:
        yield from map(
            complete,
            run_serial(pending, max_attempts=max_attempts, chaos=chaos),
        )
        return
    pool = SupervisedPool(
        workers=workers,
        job_timeout_s=job_timeout,
        max_attempts=max_attempts,
        chaos=chaos,
    )
    yield from map(complete, pool.run(pending))


def execute_jobs(
    jobs: Sequence[SweepJob],
    workers: int = 1,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    store: Optional[RunStore] = None,
    job_timeout: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    chaos: Optional[ChaosSpec] = None,
) -> Tuple[Dict[str, RunRecord], ExecutionReport]:
    """Run every job and return ``(records_by_key, report)``.

    A convenience wrapper draining :func:`stream_jobs`; see there for the
    argument semantics.  *progress* is invoked ``(job, record, from_cache)``
    as each job completes (serial: in order; parallel: completion order);
    ``record`` is ``None`` for a quarantined failure.

    ``KeyboardInterrupt`` (and ``SIGTERM``, when running on the main thread)
    shuts down gracefully: the pool is torn down — supervised workers are
    daemonic and explicitly killed, so no children leak — records completed
    so far are already flushed to the store, and a *partial* report is
    returned with ``interrupted=True`` instead of dying mid-append.
    """
    started = time.perf_counter()
    workers = max(1, int(workers))
    report = ExecutionReport(
        total_jobs=len(jobs), workers=workers, job_keys=[j.key for j in jobs]
    )
    records: Dict[str, RunRecord] = {}
    stream = stream_jobs(
        jobs,
        workers=workers,
        resume=resume,
        store=store,
        job_timeout=job_timeout,
        max_attempts=max_attempts,
        chaos=chaos,
    )
    sigterm_installed = False
    previous_sigterm = None

    def _sigterm_to_interrupt(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
            sigterm_installed = True
        except (ValueError, OSError):  # pragma: no cover - restricted envs
            sigterm_installed = False
    try:
        for completion in stream:
            if completion.failure is not None:
                report.quarantined += 1
                report.failures.append(completion.failure)
                report.failed_attempts += completion.failure.attempt_count
            else:
                records[completion.job.key] = completion.record
                if completion.from_cache:
                    report.cache_hits += 1
                else:
                    report.executed += 1
                    if completion.attempts > 1:
                        report.retried += 1
                        report.failed_attempts += completion.attempts - 1
            if progress is not None:
                progress(completion.job, completion.record, completion.from_cache)
    except KeyboardInterrupt:
        # Graceful shutdown: closing the generator runs the supervisor's
        # ``finally`` (kill + join every worker).  Completed records were
        # flushed as they arrived, so the partial report is durable.
        report.interrupted = True
        stream.close()
    finally:
        if sigterm_installed:
            signal.signal(
                signal.SIGTERM,
                previous_sigterm if previous_sigterm is not None else signal.SIG_DFL,
            )
    # Fold the aggregate view in expansion order — not completion order — so
    # the merged floats are byte-identical between serial and parallel runs.
    merged = MetricsSummary()
    for job in jobs:
        if job.key in records:
            merged = merged.merge(records[job.key].summary)
    report.merged_summary = merged
    report.elapsed_s = time.perf_counter() - started
    return records, report


def series_label(job: SweepJob) -> str:
    """The sweep-series name of a job: its protocol, plus secondary axes.

    Single-axis matrices keep the historical bare-protocol labels; a matrix
    with secondary axes (config or non-config) gets one series per
    (protocol, secondary coordinates) combination, e.g.
    ``"spms[placement=random]"``.
    """
    extras = {k: v for k, v in job.axes.items() if k != job.parameter}
    if not extras:
        return job.protocol
    coords = ",".join(f"{axis}={value}" for axis, value in sorted(extras.items()))
    return f"{job.protocol}[{coords}]"


def assemble_sweep(
    jobs: Sequence[SweepJob], records: Dict[str, RunRecord]
) -> SweepResult:
    """Fold keyed job records into a :class:`SweepResult`.

    Rows follow the expansion order of *jobs*, so serial and parallel
    executions (whose completion orders differ) assemble identical sweeps.
    Jobs missing from *records* (skipped, quarantined, failed upstream) are
    tolerated — their cells simply stay empty.
    """
    if not jobs:
        return SweepResult(parameter="value")
    sweep = SweepResult(parameter=jobs[0].parameter)
    for job in jobs:
        if job.key in records:
            sweep.add(series_label(job), job.value, records[job.key])
    return sweep
