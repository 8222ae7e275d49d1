"""Supervised worker pool: timeouts, crash respawn, deterministic retries.

The plain ``multiprocessing.Pool`` the executor used through PR 8 had a
fault model of "abort everything": one raising job propagated out of
``imap_unordered`` and killed the sweep; a SIGKILLed worker deadlocked or
crashed the pool; a hung simulation hung the parent forever.  This module
replaces it with a small supervisor in which **job failure is a recorded
outcome, not a process-killing exception**:

* every job gets a wall-clock budget (``job_timeout_s``) — a hung attempt's
  worker is SIGKILLed and the job retried;
* a worker that dies under a job (killed, segfaulted, OOM) is detected via
  its pipe, respawned, and the in-flight job is requeued;
* retries are bounded (``max_attempts``) with **deterministic** capped
  exponential backoff — no jitter, no entropy, so a supervised run is as
  replayable as a serial one;
* a job that fails every attempt is *quarantined*: the sweep continues and
  the job becomes a structured :class:`~repro.results.failures.JobFailure`
  carrying its full attempt trail.

The key invariant, which the fault-injection tests state over canonical
record bytes: because jobs are independently spawn-seeded and self-contained,
**surviving records are byte-identical no matter which other jobs fail, time
out, retry, or run on a respawned worker** — serial or parallel, with or
without injected faults.

Supervision uses one duplex pipe per worker (no shared queue): a worker
SIGKILLed mid-``send`` can corrupt only its own pipe, which the supervisor
discards wholesale when it respawns the worker — a shared result queue would
be poisoned for everyone.  Workers are daemonic, so even a crashed parent
cannot leak simulation processes.

The supervisor is event-driven: it blocks in ``connection.wait`` on the busy
workers' pipes and wakes only when one is readable (a result, or EOF from a
dead worker), when the nearest job deadline arrives, or when a queued
retry's backoff ends while a worker is idle to take it.  With nothing
time-bound it waits with no timeout, so the parent uses next to no CPU
while its workers simulate.  Idle workers are refilled before outcomes are
yielded, so none sits idle while the caller stores a record.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.chaos import ChaosSpec
from repro.experiments.matrix import SweepJob
from repro.experiments.runner import ExperimentRunner
from repro.results import JobAttempt, JobFailure, RunRecord

#: Default attempt budget per job (1 first try + 2 retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Deterministic backoff: ``base * 2**(attempt - 2)`` seconds before retry
#: *attempt*, capped.  No jitter — grid jobs are seed-isolated, so there is
#: no thundering herd to stagger and determinism wins.
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0


def retry_backoff_s(
    attempt: int,
    base_s: float = DEFAULT_BACKOFF_BASE_S,
    cap_s: float = DEFAULT_BACKOFF_CAP_S,
) -> float:
    """Seconds to wait before starting *attempt* (1-based; attempt 1 is 0)."""
    if attempt <= 1:
        return 0.0
    return min(base_s * (2.0 ** (attempt - 2)), cap_s)


@dataclass(frozen=True)
class SupervisedResult:
    """Terminal outcome of one job under supervision.

    Exactly one of ``record`` (success) and ``failure`` (quarantined) is set.

    Attributes:
        job: The job this outcome belongs to.
        record: The run record, when any attempt succeeded.
        attempts: Total attempts consumed (1 = first try succeeded).
        failed_attempts: The failed tries that preceded the outcome.
        failure: The structured quarantine record, when every attempt failed.
    """

    job: SweepJob
    record: Optional[RunRecord]
    attempts: int
    failed_attempts: Tuple[JobAttempt, ...] = ()
    failure: Optional[JobFailure] = None

    @property
    def ok(self) -> bool:
        return self.record is not None


def _quarantine(job: SweepJob, attempts: Sequence[JobAttempt]) -> JobFailure:
    return JobFailure(
        key=job.key,
        index=job.index,
        matrix=job.matrix,
        protocol=job.protocol,
        attempts=tuple(attempts),
    )


def _attempt_job(job: SweepJob, attempt: int, chaos: Optional[ChaosSpec]) -> RunRecord:
    """Run one attempt of *job* (chaos fires first, so faults never touch
    another job's RNG streams)."""
    if chaos is not None:
        chaos.apply(job.index, attempt)
    runner = ExperimentRunner(job.spec)
    return runner.run_record(key=job.key, axes=job.axes)


def _worker_main(conn, chaos: Optional[ChaosSpec]) -> None:
    """Worker loop: receive ``(job, attempt)``, send one result back.

    Module-level (fork/spawn-safe, and L502 requires it: no store handle is
    reachable from here).  The *only* payload shipped back per job is the
    compact run record or the exception text — the supervisor never unpickles
    collectors.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):  # parent went away; nothing to clean up
            return
        if task is None:
            return
        job, attempt = task
        started = time.perf_counter()
        try:
            record = _attempt_job(job, attempt, chaos)
        except Exception as exc:
            # Converted into a JobAttempt by the supervisor — failures are
            # data, not control flow (the R701 contract).
            message = (
                "error",
                job.index,
                attempt,
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - started,
            )
        else:
            message = ("ok", job.index, attempt, record, time.perf_counter() - started)
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # parent shut down mid-send
            return


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap on Linux), otherwise spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


@dataclass
class _Task:
    """One dispatched attempt: the job, which try this is, and its budget."""

    job: SweepJob
    attempt: int
    started: float
    deadline: Optional[float]


class _Worker:
    """One supervised worker process plus its private duplex pipe."""

    def __init__(
        self,
        context: multiprocessing.context.BaseContext,
        chaos: Optional[ChaosSpec],
    ) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child_conn, chaos), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[_Task] = None

    def dispatch(self, task: _Task) -> bool:
        """Send an attempt to the worker; false if the pipe is already dead."""
        try:
            self.conn.send((task.job, task.attempt))
        except (BrokenPipeError, OSError):
            return False
        self.task = task
        return True

    def retire(self, kill: bool = False) -> Optional[int]:
        """Shut the worker down (SIGKILL when *kill*); returns the exitcode."""
        if kill and self.process.is_alive():
            self.process.kill()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - kill is not ignorable
            self.process.kill()
            self.process.join(timeout=5.0)
        return self.process.exitcode


class SupervisedPool:
    """A worker pool whose jobs can fail, hang or die without aborting it.

    :meth:`run` sleeps until a worker pipe is readable or until the nearest
    time-bound event: a job deadline, or a due retry when a worker is idle.
    Without either it blocks with no timeout.

    Args:
        workers: Worker processes to keep alive (>= 1).
        job_timeout_s: Per-attempt wall-clock budget; ``None`` disables
            timeout supervision (a hung job then hangs its worker forever,
            exactly like the pre-supervisor executor).
        max_attempts: Total tries per job before quarantine (>= 1).
        backoff_base_s / backoff_cap_s: Deterministic retry backoff shape.
        chaos: Optional fault-injection spec, forwarded into every worker.
    """

    def __init__(
        self,
        workers: int,
        job_timeout_s: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"a supervised pool needs >= 1 worker, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError(f"job_timeout_s must be positive, got {job_timeout_s}")
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.chaos = chaos

    # ------------------------------------------------------------------ run

    def run(self, jobs: Sequence[SweepJob]) -> Iterator[SupervisedResult]:
        """Run every job, yielding terminal outcomes in completion order.

        Every job yields exactly one :class:`SupervisedResult` — succeeded
        or quarantined — so callers can stream completions without tracking
        the retry machinery.  Workers are always torn down on exit, normal
        or not (generator ``close()`` included), so an interrupted sweep
        leaks no children.
        """
        context = _pool_context()
        pool_size = min(self.workers, max(1, len(jobs)))
        # Min-heap of (ready_at, dispatch order, attempt, job): backoff
        # scheduling with FIFO tie-breaks, so retry order is deterministic.
        waiting: List[Tuple[float, int, int, SweepJob]] = []
        order = 0
        now = time.monotonic()
        for job in jobs:
            heapq.heappush(waiting, (now, order, 1, job))
            order += 1
        failed: Dict[int, List[JobAttempt]] = {}
        pool: List[_Worker] = [_Worker(context, self.chaos) for _ in range(pool_size)]
        try:
            while waiting or any(worker.task is not None for worker in pool):
                now = time.monotonic()
                order = self._dispatch_ready(pool, waiting, order, now)
                ready = self._wait(pool, waiting, now)
                now = time.monotonic()
                outcomes: List[SupervisedResult] = []
                for worker in [worker for worker in pool if worker.conn in ready]:
                    outcome, order = self._handle_message(
                        worker, pool, waiting, failed, order, now
                    )
                    if outcome is not None:
                        outcomes.append(outcome)
                for worker in pool:
                    task = worker.task
                    if task is None or task.deadline is None or now < task.deadline:
                        continue
                    outcome, order = self._handle_timeout(
                        worker, pool, waiting, failed, order, now
                    )
                    if outcome is not None:
                        outcomes.append(outcome)
                # Refill before yielding: the consumer appends each outcome
                # to the store, and no worker should sit idle meanwhile.
                order = self._dispatch_ready(pool, waiting, order, time.monotonic())
                yield from outcomes
        finally:
            for worker in pool:
                worker.retire(kill=True)

    # ------------------------------------------------------- loop plumbing

    def _dispatch_ready(
        self,
        pool: List[_Worker],
        waiting: List[Tuple[float, int, int, SweepJob]],
        order: int,
        now: float,
    ) -> int:
        for slot, worker in enumerate(pool):
            if not waiting or waiting[0][0] > now:
                break
            if worker.task is not None:
                continue
            if not worker.process.is_alive():
                # Died idle (between jobs): no attempt to charge, just respawn.
                worker.retire()
                worker = pool[slot] = _Worker(_pool_context(), self.chaos)
            ready_at, _, attempt, job = heapq.heappop(waiting)
            deadline = (
                now + self.job_timeout_s if self.job_timeout_s is not None else None
            )
            task = _Task(job=job, attempt=attempt, started=now, deadline=deadline)
            if not worker.dispatch(task):
                # The pipe broke under the send: respawn and requeue without
                # burning an attempt — the job never started.
                worker.retire()
                pool[slot] = _Worker(_pool_context(), self.chaos)
                heapq.heappush(waiting, (ready_at, order, attempt, job))
                order += 1
        return order

    def _wait(
        self,
        pool: List[_Worker],
        waiting: List[Tuple[float, int, int, SweepJob]],
        now: float,
    ) -> List[object]:
        """Block until a busy worker's pipe is readable, the nearest deadline
        arrives, or a queued retry's backoff ends while a worker is idle to
        take it; return the readable pipes.

        With none of those time-bound, block with no timeout.  *now* must be
        the time the caller last dispatched at: every retry due by then with
        an idle worker has been dispatched, so the backoff term is positive.
        """
        busy = [worker for worker in pool if worker.task is not None]
        wake_at = [
            worker.task.deadline for worker in busy if worker.task.deadline is not None
        ]
        if waiting and len(busy) < len(pool):
            wake_at.append(waiting[0][0])
        timeout = max(0.0, min(wake_at) - now) if wake_at else None
        if busy:
            return mp_connection.wait([worker.conn for worker in busy], timeout=timeout)
        # Every worker is idle and the only queued work is in backoff.
        time.sleep(timeout)
        return []

    def _handle_message(
        self,
        worker: _Worker,
        pool: List[_Worker],
        waiting: List[Tuple[float, int, int, SweepJob]],
        failed: Dict[int, List[JobAttempt]],
        order: int,
        now: float,
    ) -> Tuple[Optional[SupervisedResult], int]:
        task = worker.task
        try:
            message = worker.conn.recv()
        except Exception as exc:
            # EOF (worker died), or a pipe poisoned by a kill mid-send: the
            # pipe is discarded with the worker either way, and the attempt
            # is recorded as a worker crash — never silently dropped.
            return self._handle_worker_death(worker, pool, waiting, failed, order, now, exc)
        status, job_index, attempt, payload, elapsed = message
        if task is None or job_index != task.job.index or attempt != task.attempt:
            # A message from a superseded attempt (cannot happen with
            # per-worker pipes, but a stale result must never complete a
            # requeued job twice).
            return None, order  # pragma: no cover - defensive
        worker.task = None
        if status == "ok":
            failed_attempts = tuple(failed.pop(task.job.index, ()))
            result = SupervisedResult(
                job=task.job,
                record=payload,
                attempts=attempt,
                failed_attempts=failed_attempts,
            )
            return result, order
        return self._register_failure(
            task, "raised", str(payload), float(elapsed), waiting, failed, order, now
        )

    def _handle_worker_death(
        self,
        worker: _Worker,
        pool: List[_Worker],
        waiting: List[Tuple[float, int, int, SweepJob]],
        failed: Dict[int, List[JobAttempt]],
        order: int,
        now: float,
        cause: Exception,
    ) -> Tuple[Optional[SupervisedResult], int]:
        task = worker.task
        exitcode = worker.retire()
        slot = pool.index(worker)
        pool[slot] = _Worker(_pool_context(), self.chaos)
        if task is None:  # pragma: no cover - death is only seen via a task
            return None, order
        detail = f"worker died under the job (exitcode {exitcode}, {type(cause).__name__})"
        return self._register_failure(
            task, "worker-crash", detail, now - task.started, waiting, failed, order, now
        )

    def _handle_timeout(
        self,
        worker: _Worker,
        pool: List[_Worker],
        waiting: List[Tuple[float, int, int, SweepJob]],
        failed: Dict[int, List[JobAttempt]],
        order: int,
        now: float,
    ) -> Tuple[Optional[SupervisedResult], int]:
        task = worker.task
        worker.retire(kill=True)
        slot = pool.index(worker)
        pool[slot] = _Worker(_pool_context(), self.chaos)
        detail = (
            f"attempt exceeded the job timeout ({self.job_timeout_s:g} s); "
            "worker killed"
        )
        return self._register_failure(
            task, "timeout", detail, now - task.started, waiting, failed, order, now
        )

    def _register_failure(
        self,
        task: _Task,
        outcome: str,
        detail: str,
        elapsed_s: float,
        waiting: List[Tuple[float, int, int, SweepJob]],
        failed: Dict[int, List[JobAttempt]],
        order: int,
        now: float,
    ) -> Tuple[Optional[SupervisedResult], int]:
        trail = failed.setdefault(task.job.index, [])
        trail.append(
            JobAttempt(
                attempt=task.attempt,
                outcome=outcome,
                detail=detail,
                elapsed_s=elapsed_s,
            )
        )
        if task.attempt >= self.max_attempts:
            attempts = tuple(failed.pop(task.job.index))
            result = SupervisedResult(
                job=task.job,
                record=None,
                attempts=task.attempt,
                failed_attempts=attempts,
                failure=_quarantine(task.job, attempts),
            )
            return result, order
        ready_at = now + retry_backoff_s(
            task.attempt + 1, self.backoff_base_s, self.backoff_cap_s
        )
        heapq.heappush(waiting, (ready_at, order, task.attempt + 1, task.job))
        return None, order + 1


def run_serial(
    jobs: Sequence[SweepJob],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
    chaos: Optional[ChaosSpec] = None,
) -> Iterator[SupervisedResult]:
    """Serial in-process twin of :meth:`SupervisedPool.run`.

    Same retry/quarantine semantics and the same outcome type, without any
    multiprocessing overhead.  Wall-clock timeouts are not enforced (there
    is no supervisor to kill the attempt), and chaos ``hang``/``kill``
    injections are rejected upstream for exactly that reason.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    for job in jobs:
        trail: List[JobAttempt] = []
        record: Optional[RunRecord] = None
        attempt = 0
        for attempt in range(1, max_attempts + 1):
            backoff = retry_backoff_s(attempt, backoff_base_s, backoff_cap_s)
            if backoff > 0:
                time.sleep(backoff)
            started = time.perf_counter()
            try:
                record = _attempt_job(job, attempt, chaos)
            except Exception as exc:
                trail.append(
                    JobAttempt(
                        attempt=attempt,
                        outcome="raised",
                        detail=f"{type(exc).__name__}: {exc}",
                        elapsed_s=time.perf_counter() - started,
                    )
                )
                continue
            break
        if record is not None:
            yield SupervisedResult(
                job=job,
                record=record,
                attempts=attempt,
                failed_attempts=tuple(trail),
            )
        else:
            yield SupervisedResult(
                job=job,
                record=None,
                attempts=attempt,
                failed_attempts=tuple(trail),
                failure=_quarantine(job, trail),
            )
