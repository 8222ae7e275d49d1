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
* :class:`ScenarioResult` / :class:`SweepResult` — thin flat/tabular views
  kept for the historical API surface.
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
from repro.results.legacy import ScenarioResult, SweepResult
from repro.results.record import (
    CANONICAL_SCHEMA_VERSION,
    FINGERPRINT_SCHEMA_VERSION,
    RECORD_SCHEMA_KEY,
    RESULTS_SCHEMA_VERSION,
    RecordValidationError,
    RunRecord,
    spec_fingerprint,
)
from repro.results.store import RunStore, RunStoreError

__all__ = [
    "ATTEMPT_OUTCOMES",
    "CANONICAL_SCHEMA_VERSION",
    "DistributionSummary",
    "FAILURE_SCHEMA_KEY",
    "FAILURE_SCHEMA_VERSION",
    "FINGERPRINT_SCHEMA_VERSION",
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
    "ScenarioResult",
    "SweepResult",
    "spec_fingerprint",
]
