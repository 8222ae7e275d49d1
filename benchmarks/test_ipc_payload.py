"""IPC payload benchmark: streamed record summaries vs shipped collectors.

The pre-redesign executor returned ``(index, flat result, MetricsCollector)``
from every worker — the collector alone carries one entry per (item,
destination) delivery, so the pickled payload grew with the traffic volume.
The redesigned executor reduces to a :class:`MetricsSummary` in-process and
ships a single :class:`RunRecord` per job.

This benchmark runs the full fig06 grid and measures both pickled payloads
per job.  The acceptance bar of the redesign is a >= 5x total reduction; at
bench scale the observed factor is far larger and grows with node count
(the record payload is O(1) while the collector payload is O(deliveries)).
"""

import pickle

from benchmarks.conftest import emit, run_once
from repro.experiments.matrix import get_matrix
from repro.experiments.runner import ExperimentRunner

#: The redesign's acceptance bar for total payload reduction on fig06.
REQUIRED_REDUCTION_FACTOR = 5.0


def _measure_fig06_payloads(scale):
    rows = []
    for job in get_matrix("fig06", scale=scale).expand():
        runner = ExperimentRunner(job.spec)
        record = runner.run_record(key=job.key, axes=job.axes)
        # What the pre-redesign worker pickled back per job (its flat
        # result emulated by the record's flat view)...
        old_payload = pickle.dumps((job.index, record.as_dict(), runner.metrics))
        # ...vs the streamed record the redesigned worker ships.
        new_payload = pickle.dumps((job.index, record))
        rows.append((job.key, len(old_payload), len(new_payload)))
    return rows


def test_ipc_payload_reduction(benchmark, figure_scale):
    rows = run_once(benchmark, _measure_fig06_payloads, figure_scale)

    emit("\n=== IPC payload per fig06 job: collector shipping vs streamed records ===")
    emit(f"{'job':>32} {'collector (B)':>14} {'record (B)':>11} {'factor':>7}")
    for key, old_bytes, new_bytes in rows:
        emit(f"{key:>32} {old_bytes:>14} {new_bytes:>11} {old_bytes / new_bytes:>6.1f}x")
    total_old = sum(old for _, old, _ in rows)
    total_new = sum(new for _, _, new in rows)
    factor = total_old / total_new
    emit(f"{'TOTAL':>32} {total_old:>14} {total_new:>11} {factor:>6.1f}x")

    assert factor >= REQUIRED_REDUCTION_FACTOR, (
        f"expected >= {REQUIRED_REDUCTION_FACTOR}x IPC payload reduction, "
        f"got {factor:.1f}x ({total_old} -> {total_new} bytes)"
    )
    # Every single job must shrink, not just the total.
    assert all(old > new for _, old, new in rows)
