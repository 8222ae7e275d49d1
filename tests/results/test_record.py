"""Round-trip and validation regressions for the canonical run record."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.summary import DistributionSummary, MetricsSummary
from repro.results import (
    CANONICAL_SCHEMA_VERSION,
    FLAT_FIELDS,
    RECORD_SCHEMA_KEY,
    RESULTS_SCHEMA_VERSION,
    RecordValidationError,
    RunRecord,
)

# --------------------------------------------------------------- strategies

finite = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
counters = st.dictionaries(st.sampled_from(("ADV", "REQ", "DATA")), st.integers(0, 10_000), max_size=3)

distributions = st.builds(
    DistributionSummary,
    count=st.integers(min_value=0, max_value=100_000),
    mean=finite,
    minimum=finite,
    maximum=finite,
    stddev=finite,
    median=finite,
)

summaries = st.builds(
    MetricsSummary,
    items_generated=st.integers(0, 10_000),
    expected_deliveries=st.integers(0, 100_000),
    deliveries_completed=st.integers(0, 100_000),
    total_energy_uj=finite,
    energy_breakdown_uj=st.dictionaries(
        st.sampled_from(("tx", "rx", "routing")), finite, max_size=3
    ),
    packets_sent=counters,
    packets_received=counters,
    packets_dropped=st.dictionaries(st.text(min_size=1, max_size=8), st.integers(0, 100), max_size=2),
    delay=distributions,
)

records = st.builds(
    RunRecord,
    key=st.text(min_size=1, max_size=30),
    protocol=st.sampled_from(("spms", "spin", "flooding", "gossip")),
    scenario=st.text(min_size=1, max_size=20),
    spec_fingerprint=st.text(alphabet="0123456789abcdef", min_size=8, max_size=64),
    seed=st.integers(min_value=0, max_value=2**31),
    num_nodes=st.integers(min_value=2, max_value=400),
    transmission_radius_m=st.floats(min_value=5.0, max_value=100.0, allow_nan=False),
    summary=summaries,
    axes=st.dictionaries(
        st.sampled_from(("num_nodes", "placement", "spec")),
        st.one_of(st.integers(0, 400), st.text(max_size=8)),
        max_size=2,
    ),
    routing_rebuilds=st.integers(0, 50),
    routing_energy_uj=finite,
    sim_time_ms=finite,
    failures_injected=st.integers(0, 100),
    wall_time_s=finite,
    raw_ref=st.one_of(st.none(), st.text(min_size=1, max_size=20)),
)


def make_record(**overrides) -> RunRecord:
    params = dict(
        key="t/num_nodes=9/spms",
        protocol="spms",
        scenario="t",
        spec_fingerprint="ab" * 32,
        seed=7,
        num_nodes=9,
        transmission_radius_m=20.0,
        summary=MetricsSummary(
            items_generated=9,
            expected_deliveries=72,
            deliveries_completed=72,
            total_energy_uj=90.0,
            energy_breakdown_uj={"tx": 50.0, "rx": 40.0},
            packets_sent={"ADV": 9},
            delay=DistributionSummary(72, 5.0, 1.0, 9.0, 2.0, 5.0),
        ),
        axes={"num_nodes": 9},
        wall_time_s=1.25,
    )
    params.update(overrides)
    return RunRecord(**params)


def metric_record(protocol="spms", nodes=16, energy=10.0, delay=5.0) -> RunRecord:
    """A record of *protocol* at ``num_nodes=nodes`` with the given metrics."""
    return make_record(
        key=f"t/num_nodes={nodes}/{protocol}",
        protocol=protocol,
        num_nodes=nodes,
        axes={"num_nodes": nodes},
        summary=MetricsSummary(
            items_generated=4,
            expected_deliveries=12,
            deliveries_completed=12,
            total_energy_uj=energy * 4,
            delay=DistributionSummary(12, delay, delay, delay, 0.0, delay),
        ),
    )


class TestRoundTrip:
    @given(record=records)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, record):
        assert RunRecord.from_dict(record.to_dict()) == record

    @given(record=records)
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip(self, record):
        assert RunRecord.from_json(record.to_json()) == record

    @given(record=records)
    @settings(max_examples=30, deadline=None)
    def test_to_dict_is_json_native(self, record):
        json.dumps(record.to_dict())

    def test_serialized_form_carries_the_schema_version(self):
        # Schema v2: the store layout rework (sidecar index, key-addressed
        # raw blobs).  Re-pin this — and the v1 rejection below — on the next
        # layout bump, per the ROADMAP schema policy.
        assert RESULTS_SCHEMA_VERSION == 2
        assert make_record().to_dict()[RECORD_SCHEMA_KEY] == RESULTS_SCHEMA_VERSION

    def test_v1_records_are_rejected(self):
        # Nothing writes v1 any more; a v1 line fails loudly, naming the
        # version it carried and the one this build reads.
        payload = make_record().to_dict()
        payload[RECORD_SCHEMA_KEY] = 1
        with pytest.raises(RecordValidationError, match="version 1; this build reads version 2"):
            RunRecord.from_dict(payload)


class TestValidation:
    def test_unknown_key_rejected(self):
        payload = make_record().to_dict()
        payload["wall_time"] = 1.0  # typo of wall_time_s
        with pytest.raises(RecordValidationError, match="wall_time"):
            RunRecord.from_dict(payload)

    def test_unknown_summary_key_rejected(self):
        payload = make_record().to_dict()
        payload["summary"]["item_generated"] = 1
        with pytest.raises(RecordValidationError, match="item_generated"):
            RunRecord.from_dict(payload)

    def test_unknown_delay_key_rejected(self):
        payload = make_record().to_dict()
        payload["summary"]["delay"]["p50"] = 1.0
        with pytest.raises(RecordValidationError, match="p50"):
            RunRecord.from_dict(payload)

    @pytest.mark.parametrize("version", (0, 3, 99, "1", "2", None))
    def test_bad_schema_version_rejected(self, version):
        payload = make_record().to_dict()
        payload[RECORD_SCHEMA_KEY] = version
        with pytest.raises(RecordValidationError, match="schema version"):
            RunRecord.from_dict(payload)

    def test_missing_schema_version_rejected(self):
        payload = make_record().to_dict()
        del payload[RECORD_SCHEMA_KEY]
        with pytest.raises(RecordValidationError, match="schema version"):
            RunRecord.from_dict(payload)

    def test_missing_required_field_rejected(self):
        payload = make_record().to_dict()
        del payload["protocol"]
        with pytest.raises(RecordValidationError, match="protocol"):
            RunRecord.from_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(RecordValidationError, match="JSON"):
            RunRecord.from_json("{not json")

    def test_non_mapping_rejected(self):
        with pytest.raises(RecordValidationError, match="mapping"):
            RunRecord.from_dict([1, 2, 3])


class TestCanonicalForm:
    def test_canonical_json_ignores_volatile_fields(self):
        fast = make_record(wall_time_s=0.1)
        slow = make_record(wall_time_s=99.9, raw_ref="raw/abc.json")
        assert fast.to_json() != slow.to_json()
        assert fast.canonical_json() == slow.canonical_json()

    def test_canonical_json_tracks_result_changes(self):
        base = make_record()
        reseeded = make_record(seed=8)
        assert base.canonical_json() != reseeded.canonical_json()

    def test_canonical_rendering_is_pinned_to_the_contract_version(self):
        # The canonical form is the byte-identity contract every pinned
        # digest (BENCH_kernel.json, repro bench --compare) is stated over;
        # it stays at version 1 because the v1 -> v2 serialization bump
        # changed no deterministic result content.  Bumping this constant
        # moves every digest — only do it when results themselves change.
        assert CANONICAL_SCHEMA_VERSION == 1
        rendered = make_record().canonical_dict()
        assert rendered[RECORD_SCHEMA_KEY] == CANONICAL_SCHEMA_VERSION


class TestViews:
    def test_metric_properties_delegate_to_the_summary(self):
        record = make_record()
        assert record.items_generated == 9
        assert record.energy_per_item_uj == pytest.approx(10.0)
        assert record.average_delay_ms == pytest.approx(5.0)
        assert record.delivery_ratio == pytest.approx(1.0)
        assert record.packets_sent == {"ADV": 9}
        assert record.energy_breakdown_uj["tx"] == 50.0

    def test_as_dict_is_the_flat_headline_view(self):
        record = make_record()
        flat = record.as_dict()
        assert tuple(flat) == FLAT_FIELDS
        assert flat["protocol"] == "spms"
        assert flat["energy_per_item_uj"] == pytest.approx(10.0)
        for metric, value in flat.items():
            assert getattr(record, metric) == value, metric
