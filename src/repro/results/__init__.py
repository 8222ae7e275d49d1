"""The unified results API.

Everything a run produces flows through one canonical, schema-versioned type:

* :class:`RunRecord` — one run's outcome: provenance (key, spec fingerprint,
  seed, grid axes), a compact :class:`MetricsSummary`, routing/fault
  bookkeeping and wall time.  JSON round-trip with strict validation.
* :class:`MetricsSummary` / :class:`DistributionSummary` — the compact,
  *mergeable* metrics reduction workers compute in-process (defined in
  :mod:`repro.metrics.summary`, re-exported here).
* :class:`RunStore` — a run directory of sharded JSONL record logs with
  ``query(protocol=..., metric=...)`` and optional lazy raw-metrics blobs.
  ``--resume`` serves jobs from it by :func:`spec_fingerprint`.
* :class:`SweepResult` — the tabular view over one sweep's records, aligned
  by each record's grid coordinates.
"""

from repro.metrics.summary import DistributionSummary, MetricsSummary
from repro.results.failures import (
    ATTEMPT_OUTCOMES,
    FAILURE_SCHEMA_KEY,
    FAILURE_SCHEMA_VERSION,
    FailureValidationError,
    JobAttempt,
    JobFailure,
)
from repro.results.record import (
    CANONICAL_SCHEMA_VERSION,
    FINGERPRINT_SCHEMA_VERSION,
    FLAT_FIELDS,
    RECORD_SCHEMA_KEY,
    RESULTS_SCHEMA_VERSION,
    RecordValidationError,
    RunRecord,
    spec_fingerprint,
)
from repro.results.store import RunStore, RunStoreError
from repro.results.sweep import SweepResult

__all__ = [
    "ATTEMPT_OUTCOMES",
    "CANONICAL_SCHEMA_VERSION",
    "DistributionSummary",
    "FAILURE_SCHEMA_KEY",
    "FAILURE_SCHEMA_VERSION",
    "FINGERPRINT_SCHEMA_VERSION",
    "FLAT_FIELDS",
    "FailureValidationError",
    "JobAttempt",
    "JobFailure",
    "MetricsSummary",
    "RECORD_SCHEMA_KEY",
    "RESULTS_SCHEMA_VERSION",
    "RecordValidationError",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "SweepResult",
    "spec_fingerprint",
]
