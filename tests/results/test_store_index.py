"""Tests for the RunStore fingerprint -> shard-offset sidecar index."""

import json

import pytest

from repro.results import RESULTS_SCHEMA_VERSION, RunStore, RunStoreError
from repro.results.store import INDEX_NAME, MANIFEST_NAME

from tests.results.test_record import make_record


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "run", records_per_shard=2)


def fp(i: int) -> str:
    return f"{i:02d}" * 32


def fill(store, count):
    return [
        store.append(
            make_record(
                key=f"t/num_nodes={i}/spms",
                spec_fingerprint=fp(i),
                axes={"num_nodes": i},
            )
        )
        for i in range(count)
    ]


def read_sidecar(root):
    return [
        json.loads(line)
        for line in (root / INDEX_NAME).read_text().splitlines()
        if line
    ]


class TestIndexWrites:
    def test_sidecar_carries_one_entry_per_record(self, store):
        fill(store, 5)  # records_per_shard=2 -> shards of 2, 2, 1
        entries = read_sidecar(store.root)
        assert [e["fingerprint"] for e in entries] == [fp(i) for i in range(5)]
        assert entries[0] == {"fingerprint": fp(0), "shard": 0, "offset": 0}
        assert entries[4]["shard"] == 2 and entries[4]["offset"] == 0

    def test_manifest_no_longer_embeds_the_index(self, store):
        fill(store, 3)
        manifest = json.loads((store.root / MANIFEST_NAME).read_text())
        assert manifest == {
            "records_per_shard": 2,
            "schema_version": RESULTS_SCHEMA_VERSION,
        }

    def test_appends_never_rewrite_the_manifest(self, store):
        fill(store, 1)
        manifest_path = store.root / MANIFEST_NAME
        before = manifest_path.stat().st_mtime_ns
        fill(store, 4)
        assert manifest_path.stat().st_mtime_ns == before

    def test_duplicate_fingerprints_accumulate_locations(self, store):
        record = make_record(spec_fingerprint=fp(1))
        store.append(record)
        store.append(record)
        entries = read_sidecar(store.root)
        assert len(entries) == 2
        assert {e["fingerprint"] for e in entries} == {fp(1)}
        assert len({(e["shard"], e["offset"]) for e in entries}) == 2

    def test_reopened_store_keeps_indexing(self, store):
        fill(store, 3)
        reopened = RunStore(store.root, records_per_shard=2)
        reopened.append(make_record(key="later", spec_fingerprint=fp(9)))
        entries = read_sidecar(store.root)
        assert [e["fingerprint"] for e in entries] == [*(fp(i) for i in range(3)), fp(9)]


class TestIndexedReads:
    def test_records_by_fingerprint_matches_scan(self, store):
        written = fill(store, 5)
        for i, record in enumerate(written):
            (got,) = store.records_by_fingerprint(fp(i))
            assert got.to_dict() == record.to_dict()
        assert store.records_by_fingerprint("no" * 32) == []

    def test_indexed_read_does_not_scan_other_shards(self, store, tmp_path):
        fill(store, 5)
        # Corrupt every shard except the one fp(4) lives in; an indexed read
        # must still succeed because only its own shard is opened.
        for path in store.shard_paths()[:-1]:
            path.write_text("{corrupt\n")
        fresh = RunStore(store.root, records_per_shard=2)
        (got,) = fresh.records_by_fingerprint(fp(4))
        assert got.axes == {"num_nodes": 4}
        with pytest.raises(RunStoreError):
            list(fresh.records())

    def test_reader_sees_entries_appended_by_another_store_handle(self, store):
        fill(store, 2)
        reader = RunStore(store.root, records_per_shard=2)
        (got,) = reader.records_by_fingerprint(fp(1))
        assert got.axes == {"num_nodes": 1}
        # A second writer handle appends; the same reader must see it.
        writer = RunStore(store.root, records_per_shard=2)
        writer.append(make_record(key="later", spec_fingerprint=fp(7)))
        (late,) = reader.records_by_fingerprint(fp(7))
        assert late.key == "later"

    def test_query_by_fingerprint_applies_remaining_filters(self, store):
        fill(store, 4)
        assert len(store.query(spec_fingerprint=fp(2))) == 1
        assert store.query(spec_fingerprint=fp(2), protocol="spin") == []
        pairs = store.query(spec_fingerprint=fp(2), metric="energy_per_item_uj")
        assert len(pairs) == 1
        record, value = pairs[0]
        assert value == record.energy_per_item_uj


class TestLegacyStores:
    """A deleted sidecar or manifest is rebuilt; other schemas are refused."""

    def test_deleted_index_is_rebuilt_on_next_append(self, store):
        fill(store, 3)
        (store.root / INDEX_NAME).unlink()
        reader = RunStore(store.root, records_per_shard=2)
        # Reads fall back to scanning the shards and write nothing.
        (got,) = reader.records_by_fingerprint(fp(1))
        assert got.axes == {"num_nodes": 1}
        assert len(reader.query(spec_fingerprint=fp(0))) == 1
        assert not (store.root / INDEX_NAME).exists()
        # The next locked append rebuilds the complete index.
        reader.append(make_record(key="later", spec_fingerprint=fp(9)))
        entries = read_sidecar(store.root)
        assert [e["fingerprint"] for e in entries] == [*(fp(i) for i in range(3)), fp(9)]
        for i in (0, 1, 2, 9):
            (got,) = reader.records_by_fingerprint(fp(i))
            assert got.spec_fingerprint == fp(i)

    def test_manifestless_directory_with_shards_migrates(self, tmp_path):
        # A lost manifest and index: the next append rebuilds the complete
        # index over the surviving shards and writes a current manifest.
        root = tmp_path / "run"
        store = RunStore(root, records_per_shard=2)
        fill(store, 2)
        (root / MANIFEST_NAME).unlink()
        (root / INDEX_NAME).unlink()
        reopened = RunStore(root, records_per_shard=2)
        reopened.append(make_record(key="later", spec_fingerprint=fp(9)))
        assert len(list(reopened.records())) == 3
        entries = read_sidecar(root)
        assert [e["fingerprint"] for e in entries] == [fp(0), fp(1), fp(9)]
        assert json.loads((root / MANIFEST_NAME).read_text())[
            "schema_version"
        ] == RESULTS_SCHEMA_VERSION

    @pytest.mark.parametrize("target", ("manifest", "record"))
    def test_v1_manifest_or_record_line_is_rejected(self, store, target):
        fill(store, 1)
        path = store.root / MANIFEST_NAME if target == "manifest" else store.shard_paths()[0]
        payload = json.loads(path.read_text())
        payload["schema_version"] = 1
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        fresh = RunStore(store.root, records_per_shard=2)
        with pytest.raises(RunStoreError, match="1; this build reads version 2"):
            if target == "manifest":
                fresh.append(make_record(key="later", spec_fingerprint=fp(9)))
            else:
                list(fresh.records())
