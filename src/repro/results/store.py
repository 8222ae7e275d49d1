"""On-disk run store: sharded JSONL of run records plus optional raw blobs.

A :class:`RunStore` owns one *run directory*::

    <root>/
      manifest.json              # schema version + sharding parameters
      index.jsonl                # sidecar fingerprint index, one line/record
      shards/records-0000.jsonl  # one RunRecord per line, appended in order
      shards/records-0001.jsonl  # next shard once the previous one fills up
      shards/records-0000.jsonl.partial  # quarantined torn write tails
      raw/<key>-<keyhash>.json   # optional raw-metrics blobs, lazily loaded
      failures.jsonl             # one JobFailure per quarantined job (sidecar)
      .lock                      # advisory lock file serialising appends

**Failure sidecar.**  Jobs the supervised executor quarantines land in
``failures.jsonl`` — one schema-versioned :class:`~repro.results.JobFailure`
line each, appended under the same advisory lock as records.  Failures are
deliberately *not* records: the shards, the fingerprint index and every
canonical record byte stay untouched by fault bookkeeping, so pinned digests
cannot move because a sweep had casualties.  ``repro report`` reads the
sidecar to render its failure notice (and ``--strict`` exit).

Records are appended as they complete (the executor streams them in), so an
interrupted fleet leaves a readable prefix rather than nothing.  Shards are
rolled over every ``records_per_shard`` appends, keeping individual files
small enough to scan/ship independently when a run directory accumulates
thousands of records.

Raw metrics (per-delivery delays, per-node energy, full traffic counters) are
deliberately *not* part of a record: a producer may attach them as a blob,
which lands in ``raw/`` — keyed by the **record key** (not the spec
fingerprint, which several records may legitimately share) — and is
referenced by ``record.raw_ref``; :meth:`RunStore.load_raw` reads it back on
demand.

**Sidecar fingerprint index.**  ``index.jsonl`` holds one
``{"fingerprint", "shard", "offset"}`` line per stored record, appended right
after the record itself, so fingerprint-keyed reads
(:meth:`RunStore.records_by_fingerprint`, ``query(spec_fingerprint=...)``)
seek straight to the matching shard lines.  Because the index is itself an
append-only log, each append is O(1) amortized.  A store without
``index.jsonl`` (it was deleted) is still readable — fingerprint reads fall
back to scanning the shards — and the next locked append rebuilds it.

**Concurrency.**  Appends take an exclusive advisory lock
(``fcntl.flock`` on ``<root>/.lock``) and re-validate the cached tail state
(tail shard, line count, byte size, index tail) under it before writing, so
any number of processes — streaming-executor parents, fleet CLI runs sharing
a ``--run-dir``, a future sweep coordinator — can append to one store
without corrupting shards or the index.  Reads never take the lock: shards
and index are append-only, so previously indexed offsets stay valid forever.

**Crash safety.**  Appends flush but do not fsync ("fsync-light"): a kill
can lose the OS-buffered tail but never corrupts what was already durable.
A kill *mid-write* leaves a newline-less partial line; on the next locked
append (or an explicit :meth:`recover`) the partial tail is quarantined to
``shards/<shard>.partial`` and the shard truncated back to whole lines.  A
kill *between* the shard append and the index append leaves the sidecar one
entry short; recovery rebuilds the missing index tail by scanning only the
last shard.  Plain reads simply skip a torn final line.

Manifests and record lines must carry exactly
:data:`~repro.results.record.RESULTS_SCHEMA_VERSION`; a store written under
any other version fails loudly rather than being half-read.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

try:  # pragma: no cover - fcntl is always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - Windows: appends fall back unlocked
    fcntl = None  # type: ignore[assignment]

from repro.results.failures import FailureValidationError, JobFailure
from repro.results.record import (
    RECORD_SCHEMA_KEY,
    RESULTS_SCHEMA_VERSION,
    RecordValidationError,
    RunRecord,
)

MANIFEST_NAME = "manifest.json"
INDEX_NAME = "index.jsonl"
LOCK_NAME = ".lock"
SHARD_DIR = "shards"
RAW_DIR = "raw"
FAILURES_NAME = "failures.jsonl"

#: Suffix of quarantine files holding torn write tails (partial lines left by
#: a killed writer), next to the shard they were recovered from.
PARTIAL_SUFFIX = ".partial"

_SHARD_STEM = re.compile(r"records-(\d+)$")
_RAW_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


class RunStoreError(ValueError):
    """A run directory is unreadable or was written by an incompatible build."""


class _StoreLock:
    """Re-entrant exclusive advisory lock on the store's ``.lock`` file.

    ``flock`` locks the open file description, so two :class:`RunStore`
    instances — in one process or many — serialise against each other; the
    re-entrancy counter only guards nested use within a single instance.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fd: Optional[int] = None
        self._depth = 0

    def __enter__(self) -> "_StoreLock":
        if self._depth == 0 and fcntl is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


class RunStore:
    """Appendable, sharded store of :class:`RunRecord` objects.

    Args:
        root: The run directory (created lazily on first append).
        records_per_shard: Records per JSONL shard before rolling over.
    """

    def __init__(self, root: Union[str, Path], records_per_shard: int = 512) -> None:
        if records_per_shard < 1:
            raise ValueError(
                f"records_per_shard must be positive, got {records_per_shard}"
            )
        self.root = Path(root)
        self.records_per_shard = records_per_shard
        self._lock = _StoreLock(self.root / LOCK_NAME)
        # Cached append tail: (shard number, line count, byte size).  Only
        # trusted under the lock, and re-validated there before every write.
        self._tail_shard = 0
        self._tail_count = 0
        self._tail_size = 0
        self._append_ready = False
        # In-memory mirror of the sidecar index: fingerprint -> [[shard,
        # offset], ...], plus how many bytes of index.jsonl it covers and the
        # last entry consumed (the watermark index-tail repair resumes from).
        self._index: Optional[Dict[str, List[List[int]]]] = None
        self._index_bytes = 0
        self._last_indexed: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------- layout

    @property
    def shard_dir(self) -> Path:
        return self.root / SHARD_DIR

    @property
    def raw_dir(self) -> Path:
        return self.root / RAW_DIR

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    @property
    def failures_path(self) -> Path:
        return self.root / FAILURES_NAME

    def shard_path(self, index: int) -> Path:
        return self.shard_dir / f"records-{index:04d}.jsonl"

    def shard_paths(self) -> List[Path]:
        """Existing shard files, in append order."""
        if not self.shard_dir.is_dir():
            return []
        return sorted(self.shard_dir.glob("records-*.jsonl"))

    def partial_paths(self) -> List[Path]:
        """Quarantine files holding torn write tails recovered from shards."""
        if not self.shard_dir.is_dir():
            return []
        return sorted(self.shard_dir.glob(f"records-*.jsonl{PARTIAL_SUFFIX}"))

    @staticmethod
    def _shard_number(path: Path) -> int:
        match = _SHARD_STEM.search(path.stem)
        if match is None:  # pragma: no cover - glob already guarantees this
            raise RunStoreError(f"unrecognised shard file name {path.name}")
        return int(match.group(1))

    # ----------------------------------------------------------- manifest

    def _read_manifest(self) -> Optional[Dict[str, object]]:
        """Parsed, version-checked manifest, or ``None`` when absent."""
        manifest_path = self.root / MANIFEST_NAME
        if not manifest_path.is_file():
            return None
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise RunStoreError(f"unreadable manifest {manifest_path}: {exc}") from exc
        version = manifest.get(RECORD_SCHEMA_KEY)
        if version != RESULTS_SCHEMA_VERSION:
            raise RunStoreError(
                f"run store {self.root} was written under record schema "
                f"{version!r}; this build reads version {RESULTS_SCHEMA_VERSION}"
            )
        return manifest

    def _write_manifest(self) -> None:
        # Atomic replace so a kill mid-write never leaves a truncated
        # manifest.  Written once per store — never on the append path.
        payload: Dict[str, object] = {
            RECORD_SCHEMA_KEY: RESULTS_SCHEMA_VERSION,
            "records_per_shard": self.records_per_shard,
        }
        manifest_path = self.root / MANIFEST_NAME
        tmp_path = manifest_path.with_suffix(".json.tmp")
        tmp_path.write_text(json.dumps(payload, sort_keys=True, indent=1))
        os.replace(tmp_path, manifest_path)

    # ----------------------------------------------------- sidecar index

    @staticmethod
    def _line_fingerprint(raw: bytes, path: Path, offset: int) -> str:
        """The ``spec_fingerprint`` of one serialized record line."""
        try:
            fingerprint = json.loads(raw)["spec_fingerprint"]
        except (ValueError, KeyError, TypeError) as exc:
            raise RunStoreError(
                f"corrupt record at {path} offset {offset}: {exc}"
            ) from exc
        if not isinstance(fingerprint, str):
            raise RunStoreError(
                f"corrupt record at {path} offset {offset}: "
                f"non-string spec_fingerprint {fingerprint!r}"
            )
        return fingerprint

    def _refresh_index(self) -> None:
        """Fold index lines appended since the last look into the mirror.

        Only whole (newline-terminated) lines are consumed, so this is safe
        from unlocked read paths; a torn final line — a writer killed mid
        index append — is left in place here and truncated away by
        :meth:`_repair_torn_index_tail` on the locked append path.
        """
        path = self.index_path
        if not path.is_file():
            return
        if self._index is None:
            self._index, self._index_bytes, self._last_indexed = {}, 0, None
        size = path.stat().st_size
        if size < self._index_bytes:
            # The file shrank under us (an external recovery truncated a torn
            # tail we had not consumed anyway, or the index was rebuilt):
            # drop the mirror and reload from scratch.
            self._index, self._index_bytes, self._last_indexed = {}, 0, None
        elif size == self._index_bytes:
            return
        with path.open("rb") as handle:
            handle.seek(self._index_bytes)
            data = handle.read()
        end = data.rfind(b"\n") + 1
        for raw in data[:end].splitlines():
            try:
                entry = json.loads(raw)
                fingerprint = entry["fingerprint"]
                shard, offset = int(entry["shard"]), int(entry["offset"])
            except (ValueError, KeyError, TypeError) as exc:
                raise RunStoreError(
                    f"corrupt index entry in {path}: {raw!r}: {exc}"
                ) from exc
            self._index.setdefault(fingerprint, []).append([shard, offset])
            self._last_indexed = (shard, offset)
        self._index_bytes += end

    def _repair_torn_index_tail(self) -> None:
        """Truncate a torn (newline-less) final index line.  Locked only.

        Runs after :meth:`_refresh_index` on the append path, where the
        advisory lock guarantees no concurrent appender: any bytes past the
        consumed whole lines are a torn tail, and the record they pointed at
        is still in its shard, re-indexed by :meth:`_repair_index_tail`.
        """
        path = self.index_path
        if not path.is_file():
            return
        if path.stat().st_size > self._index_bytes:
            with path.open("r+b") as handle:
                handle.truncate(self._index_bytes)

    def _append_index_entry(self, fingerprint: str, shard: int, offset: int) -> None:
        line = (
            json.dumps(
                {"fingerprint": fingerprint, "shard": shard, "offset": offset},
                sort_keys=True,
            )
            + "\n"
        )
        with self.index_path.open("a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
        if self._index is None:
            self._index = {}
        self._index.setdefault(fingerprint, []).append([shard, offset])
        self._index_bytes += len(line)
        self._last_indexed = (shard, offset)

    def _rebuild_sidecar(self) -> None:
        """Write the complete index by scanning every shard.  Locked only.

        Creates the index of a fresh store and rebuilds a deleted one.
        Written atomically (temp file + rename) so a kill mid-rebuild leaves
        no index at all — the next writer simply rebuilds again.
        """
        entries: List[str] = []
        index: Dict[str, List[List[int]]] = {}
        last: Optional[Tuple[int, int]] = None
        for path in self.shard_paths():
            shard = self._shard_number(path)
            offset = 0
            with path.open("rb") as handle:
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break  # torn tail; already quarantined by recovery
                    fingerprint = self._line_fingerprint(raw, path, offset)
                    entries.append(
                        json.dumps(
                            {"fingerprint": fingerprint, "shard": shard,
                             "offset": offset},
                            sort_keys=True,
                        )
                    )
                    index.setdefault(fingerprint, []).append([shard, offset])
                    last = (shard, offset)
                    offset += len(raw)
        text = "".join(entry + "\n" for entry in entries)
        tmp = self.index_path.with_name(INDEX_NAME + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.index_path)
        self._index, self._index_bytes, self._last_indexed = index, len(text), last

    def _repair_index_tail(self) -> None:
        """Append index entries for tail-shard records the sidecar misses.

        A kill between a shard append and its index append leaves the sidecar
        short; because every writer repairs before appending, the gap can
        only ever sit at the end of the *last* shard — so recovery scans that
        shard alone, starting just past the last indexed record.
        """
        if self._index is None:
            return
        path = self.shard_path(self._tail_shard)
        if not path.is_file():
            return
        start = 0
        if self._last_indexed is not None:
            shard, offset = self._last_indexed
            if shard > self._tail_shard:
                raise RunStoreError(
                    f"index of {self.root} points at shard {shard} past the "
                    f"tail shard {self._tail_shard}"
                )
            if shard == self._tail_shard:
                with path.open("rb") as handle:
                    handle.seek(offset)
                    start = offset + len(handle.readline())
        if start >= self._tail_size:
            return
        with path.open("rb") as handle:
            handle.seek(start)
            offset = start
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break
                fingerprint = self._line_fingerprint(raw, path, offset)
                self._append_index_entry(fingerprint, self._tail_shard, offset)
                offset += len(raw)

    def _load_index_for_read(self) -> Optional[Dict[str, List[List[int]]]]:
        """The fingerprint index for reads (``None`` = fall back to scans)."""
        if not self.index_path.is_file():
            return None
        self._refresh_index()
        return self._index

    # ---------------------------------------------------- crash recovery

    def _recover_torn_shard_tail(self) -> None:
        """Quarantine a newline-less tail left by a killed writer.

        The partial line is appended to ``<shard>.partial`` and the shard
        truncated back to whole lines, so the next append starts a fresh line
        instead of concatenating onto the torn one.
        """
        existing = self.shard_paths()
        if not existing:
            return
        tail = existing[-1]
        data = tail.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        quarantine = tail.with_name(tail.name + PARTIAL_SUFFIX)
        with quarantine.open("ab") as handle:
            handle.write(data[cut:] + b"\n")
        with tail.open("r+b") as handle:
            handle.truncate(cut)

    def _locate_tail(self) -> None:
        """Measure the shard the next append goes to (whole lines only)."""
        existing = self.shard_paths()
        if not existing:
            self._tail_shard, self._tail_count, self._tail_size = 0, 0, 0
            return
        tail = existing[-1]
        self._tail_shard = self._shard_number(tail)
        count = size = 0
        with tail.open("rb") as handle:
            for raw in handle:
                count += 1
                size += len(raw)
        self._tail_count, self._tail_size = count, size

    def _prepare_append(self) -> None:
        """One-time (per process) open-for-append: recover, index, locate.

        Runs under the lock.  Quarantines a torn shard tail, loads the
        sidecar index (or builds it when absent), repairs a missing index
        tail, and writes the manifest of a new store.
        """
        if self._append_ready:
            return
        manifest = self._read_manifest()
        self.root.mkdir(parents=True, exist_ok=True)
        self._recover_torn_shard_tail()
        if self.index_path.is_file():
            self._refresh_index()
            self._repair_torn_index_tail()
        else:
            # A new store or a deleted sidecar: build the complete index.
            self._rebuild_sidecar()
        self._locate_tail()
        self._repair_index_tail()
        if manifest is None:
            self._write_manifest()
        self._append_ready = True

    def _revalidate_tail(self) -> None:
        """Re-sync cached tail state if another writer moved it (locked).

        Cheap stat-based check first; only when the tail shard grew, shrank
        or rolled over does the store re-read the index tail, re-run torn
        write recovery and re-measure the last shard.
        """
        tail_path = self.shard_path(self._tail_shard)
        try:
            size = tail_path.stat().st_size
        except OSError:
            size = 0
        if size == self._tail_size and not self.shard_path(self._tail_shard + 1).exists():
            return
        self._recover_torn_shard_tail()
        self._refresh_index()
        self._repair_torn_index_tail()
        self._locate_tail()
        self._repair_index_tail()

    def recover(self) -> None:
        """Run crash recovery now, without appending anything.

        Takes the append lock, quarantines any torn shard tail and rebuilds
        the missing sidecar-index tail.  Appends do this implicitly; call
        this to repair a store that is only ever read.
        """
        with self._lock:
            self._append_ready = False
            self._prepare_append()

    # -------------------------------------------------------------- writes

    @staticmethod
    def _raw_ref_for(key: str) -> str:
        """Store-relative raw-blob path for the record key *key*.

        Keyed by the full record key — not the spec fingerprint, which
        several records (same spec, different seed/axes re-stamping) may
        share — with a hash suffix so sanitising the key for the filesystem
        can never collide two distinct keys.
        """
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
        safe = _RAW_UNSAFE.sub("-", key).strip("-")[:48] or "record"
        return f"{RAW_DIR}/{safe}-{digest}.json"

    def append(self, record: RunRecord, raw: Optional[Dict[str, object]] = None) -> RunRecord:
        """Append *record* (optionally with a raw-metrics blob); returns it.

        Serialised against every other writer by the store lock; the cached
        tail state is re-validated under the lock before the write.  When
        *raw* is given it is written to ``raw/`` keyed by the record key and
        the stored record's ``raw_ref`` points at it.  The (possibly updated)
        record is returned so callers can keep the stored identity.
        """
        with self._lock:
            self._prepare_append()
            self._revalidate_tail()
            if raw is not None:
                ref = self._raw_ref_for(record.key)
                self.raw_dir.mkdir(parents=True, exist_ok=True)
                (self.root / ref).write_text(json.dumps(raw, sort_keys=True))
                record = record.with_execution(raw_ref=ref)
            if self._tail_count >= self.records_per_shard:
                self._tail_shard += 1
                self._tail_count = 0
                self._tail_size = 0
            self.shard_dir.mkdir(parents=True, exist_ok=True)
            line = record.to_json() + "\n"
            with self.shard_path(self._tail_shard).open("a", encoding="utf-8") as handle:
                offset = handle.tell()
                handle.write(line)
                handle.flush()
            self._tail_count += 1
            self._tail_size = offset + len(line)
            self._append_index_entry(
                record.spec_fingerprint, self._tail_shard, offset
            )
        return record

    def append_failure(self, failure: JobFailure) -> JobFailure:
        """Append a quarantined job's failure to the ``failures.jsonl`` sidecar.

        Takes the same advisory lock as record appends (so fleet runs sharing
        one ``--run-dir`` interleave whole lines), but touches neither the
        shards nor the fingerprint index — failures are bookkeeping, not
        results, and canonical record bytes must not move because of them.
        Flush-but-no-fsync, like record appends: a kill mid-write leaves at
        worst a torn final line, which reads skip.
        """
        with self._lock:
            self.root.mkdir(parents=True, exist_ok=True)
            with self.failures_path.open("a", encoding="utf-8") as handle:
                handle.write(failure.to_json() + "\n")
                handle.flush()
        return failure

    def failures(self) -> List[JobFailure]:
        """Every quarantined-job failure recorded in this run directory.

        Lock-free like every other read.  A newline-less final line (a writer
        killed mid-append) is skipped; any other unparsable line is a loud
        :class:`RunStoreError`.
        """
        path = self.failures_path
        if not path.is_file():
            return []
        selected: List[JobFailure] = []
        with path.open(encoding="utf-8") as handle:
            for line_number, raw in enumerate(handle, start=1):
                if not raw.endswith("\n"):
                    break
                line = raw.strip()
                if not line:
                    continue
                try:
                    selected.append(JobFailure.from_json(line))
                except FailureValidationError as exc:
                    raise RunStoreError(
                        f"corrupt failure at {path}:{line_number}: {exc}"
                    ) from exc
        return selected

    # --------------------------------------------------------------- reads

    def records(self) -> Iterator[RunRecord]:
        """Every stored record, in append order (streamed shard by shard).

        A newline-less final line in the last shard — the torn tail of a
        killed writer, quarantined by the next locked append — is skipped;
        any other unparsable line is a loud :class:`RunStoreError`.
        """
        paths = self.shard_paths()
        for path in paths:
            last_shard = path == paths[-1]
            with path.open() as handle:
                for line_number, raw in enumerate(handle, start=1):
                    if last_shard and not raw.endswith("\n"):
                        break
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        yield RunRecord.from_json(line)
                    except RecordValidationError as exc:
                        raise RunStoreError(
                            f"corrupt record at {path}:{line_number}: {exc}"
                        ) from exc

    def __len__(self) -> int:
        """Stored record count, from shard line counts alone.

        Counts newline-terminated lines without parsing or validating them,
        so ``len()`` is cheap and still works on a store whose torn tail was
        (or has yet to be) quarantined — unlike the historical behaviour of
        deserialising every record just to count them.
        """
        total = 0
        for path in self.shard_paths():
            with path.open("rb") as handle:
                while True:
                    chunk = handle.read(1 << 20)
                    if not chunk:
                        break
                    total += chunk.count(b"\n")
        return total

    def records_by_fingerprint(self, fingerprint: str) -> List[RunRecord]:
        """Every record whose spec fingerprint is *fingerprint*.

        Indexed stores seek straight to the matching shard lines (the shards
        are never scanned); a store without ``index.jsonl`` falls back to
        streaming every shard.
        """
        index = self._load_index_for_read()
        if index is None:
            return [
                record
                for record in self.records()
                if record.spec_fingerprint == fingerprint
            ]
        selected: List[RunRecord] = []
        locations = index.get(fingerprint, [])
        # Group by shard so each shard file opens once even when a spec was
        # appended many times.
        by_shard: Dict[int, List[int]] = {}
        for shard, offset in locations:
            by_shard.setdefault(int(shard), []).append(int(offset))
        for shard in sorted(by_shard):
            path = self.shard_path(shard)
            try:
                with path.open() as handle:
                    for offset in sorted(by_shard[shard]):
                        handle.seek(offset)
                        line = handle.readline().strip()
                        try:
                            selected.append(RunRecord.from_json(line))
                        except RecordValidationError as exc:
                            raise RunStoreError(
                                f"corrupt indexed record at {path} offset "
                                f"{offset}: {exc}"
                            ) from exc
            except OSError as exc:
                raise RunStoreError(
                    f"fingerprint index points at unreadable shard {path}: {exc}"
                ) from exc
        return selected

    def query(
        self,
        protocol: Optional[str] = None,
        scenario: Optional[str] = None,
        metric: Optional[str] = None,
        spec_fingerprint: Optional[str] = None,
        **axes,
    ) -> Union[List[RunRecord], List[Tuple[RunRecord, float]]]:
        """Filtered records, optionally paired with one metric's values.

        Args:
            protocol: Keep only records of this protocol.
            scenario: Keep only records of this scenario name.
            metric: When given, return ``(record, value)`` pairs for the named
                record attribute/property (e.g. ``"energy_per_item_uj"``),
                silently skipping records that lack it — reports over
                heterogeneous fleets tolerate partial coverage.
            spec_fingerprint: Keep only records of this spec fingerprint; on
                indexed stores this skips the shard scan entirely (see
                :meth:`records_by_fingerprint`).
            **axes: Grid-coordinate filters, e.g. ``placement="random"`` or
                ``num_nodes=64`` (matched against ``record.axes``).
        """
        if spec_fingerprint is not None:
            candidates = iter(self.records_by_fingerprint(spec_fingerprint))
        else:
            candidates = self.records()
        selected = []
        for record in candidates:
            if protocol is not None and record.protocol != protocol:
                continue
            if scenario is not None and record.scenario != scenario:
                continue
            if any(record.axes.get(axis) != value for axis, value in axes.items()):
                continue
            selected.append(record)
        if metric is None:
            return selected
        pairs: List[Tuple[RunRecord, float]] = []
        for record in selected:
            value = getattr(record, metric, None)
            if value is not None:
                pairs.append((record, value))
        return pairs

    def load_raw(self, record: RunRecord) -> Optional[Dict[str, object]]:
        """The raw-metrics blob referenced by *record*, or ``None``.

        Blobs are lazily loaded — nothing is read until a consumer asks.
        """
        if record.raw_ref is None:
            return None
        path = self.root / record.raw_ref
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None
