"""Supervised-pool overhead benchmark: supervision must cost <= 10%.

PR 9 replaced the executor's plain ``multiprocessing.Pool`` with the
supervised pool (:mod:`repro.experiments.supervisor`): per-worker pipes,
``connection.wait`` multiplexing, deadline tracking, retry bookkeeping.
That machinery runs in the parent while workers simulate.  The parent
blocks until a worker pipe is readable or a deadline or due retry arrives,
so on a healthy (fault-free) grid it is idle between completions and its
cost is little more than the IPC itself — the acceptance bar is
**supervised wall time <= 1.10x the plain pool** on the quick fig06 grid,
plus a byte-identity check: both executions must produce identical canonical
records.

Both pools run the same jobs with 2 workers, timed back-to-back in one
benchmark so machine load skews both sides equally.  A small constant
epsilon keeps the ratio meaningful when the grid runs fast enough that
process-spawn jitter dominates the measurement.
"""

import multiprocessing
import time

from benchmarks.conftest import emit, run_once
from repro.experiments.executor import _run_job, execute_jobs
from repro.experiments.matrix import get_matrix

#: The tentpole's acceptance bar: supervision adds at most 10% wall time.
MAX_OVERHEAD_FACTOR = 1.10

#: Absolute slack (seconds) added to the bar: worker spawn/teardown is a
#: fixed cost, so on a sub-second grid it would dominate the ratio and the
#: test would measure process-start jitter instead of supervision overhead.
EPSILON_S = 0.25


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


def _run_plain_pool(jobs):
    """The pre-supervisor executor: a bare Pool.imap_unordered over the jobs."""
    records = {}
    started = time.perf_counter()
    by_index = {job.index: job for job in jobs}
    with _pool_context().Pool(processes=2) as pool:
        for index, record in pool.imap_unordered(_run_job, jobs, chunksize=1):
            records[by_index[index].key] = record
    return records, time.perf_counter() - started


def _run_supervised_pool(jobs):
    started = time.perf_counter()
    records, report = execute_jobs(jobs, workers=2)
    assert report.quarantined == 0 and not report.interrupted
    return records, time.perf_counter() - started


def _measure_overhead(scale):
    jobs = get_matrix("fig06", scale=scale).expand()[:4]
    plain_records, plain_s = _run_plain_pool(jobs)
    supervised_records, supervised_s = _run_supervised_pool(jobs)
    return jobs, plain_records, plain_s, supervised_records, supervised_s


def test_supervised_pool_overhead(benchmark, figure_scale):
    jobs, plain_records, plain_s, supervised_records, supervised_s = run_once(
        benchmark, _measure_overhead, figure_scale
    )

    emit("\n=== Supervised pool overhead vs plain Pool (fig06 quick grid) ===")
    emit(f"{'jobs':>6} {'plain (s)':>10} {'supervised (s)':>15} {'factor':>8}")
    factor = supervised_s / plain_s
    emit(f"{len(jobs):>6} {plain_s:>10.3f} {supervised_s:>15.3f} {factor:>7.2f}x")

    # Byte-identity first: supervision must not change a single record.
    assert set(supervised_records) == set(plain_records)
    for key, record in plain_records.items():
        assert supervised_records[key].canonical_json() == record.canonical_json(), key

    budget_s = plain_s * MAX_OVERHEAD_FACTOR + EPSILON_S
    assert supervised_s <= budget_s, (
        f"supervised pool cost {factor:.2f}x the plain pool "
        f"({plain_s:.3f} s -> {supervised_s:.3f} s); the acceptance bar "
        f"is <= {MAX_OVERHEAD_FACTOR}x + {EPSILON_S:g} s spawn allowance "
        f"({budget_s:.3f} s)"
    )
