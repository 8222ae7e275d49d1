"""Serialization regressions for the declarative scenario API.

Three guarantees are pinned here:

* **Round-trip** — ``ScenarioSpec.from_dict(spec.to_dict()) == spec`` for
  arbitrary (hypothesis-generated) specs, and likewise through JSON text.
* **Validation** — unknown keys at any level and bad schema versions are
  rejected with :class:`SpecValidationError`.
* **Fingerprint stability** — the spec fingerprints of the registered
  figure matrices are pinned to literal hashes, so an accidental change to
  the serialized layout (which would move every record's canonical bytes and
  stop ``--resume`` from matching any stored record) fails loudly.  The
  migration to spec schema v2 (``labels``) was itself a *deliberate*
  one-shot change, recorded as ``FINGERPRINT_SCHEMA_VERSION = 3`` in
  :mod:`repro.results.record`.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import (
    FailureConfig,
    MobilityConfig,
    SimulationConfig,
    SpecValidationError,
)
from repro.experiments.matrix import get_matrix
from repro.results import FINGERPRINT_SCHEMA_VERSION, spec_fingerprint
from repro.experiments.scenarios import (
    SCHEMA_KEY,
    SPEC_SCHEMA_VERSION,
    ScenarioSpec,
)

# --------------------------------------------------------------- strategies

option_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.booleans(),
    st.text(max_size=12),
)
option_dicts = st.dictionaries(
    st.text(min_size=1, max_size=12).filter(str.isidentifier), option_values, max_size=3
)

configs = st.builds(
    SimulationConfig,
    num_nodes=st.integers(min_value=2, max_value=400),
    transmission_radius_m=st.floats(min_value=5.0, max_value=100.0, allow_nan=False),
    grid_spacing_m=st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    packets_per_node=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
    contention=st.sampled_from(("quadratic", "polynomial", "exponential")),
    channel_reservation=st.booleans(),
    random_backoff=st.booleans(),
)

failures = st.one_of(
    st.none(),
    st.builds(
        FailureConfig,
        mean_interarrival_ms=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        repair_min_ms=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        repair_max_ms=st.floats(min_value=10.0, max_value=50.0, allow_nan=False),
    ),
)

mobility = st.one_of(
    st.none(),
    st.builds(
        MobilityConfig,
        num_epochs=st.integers(min_value=1, max_value=5),
        move_fraction=st.floats(
            min_value=0.01, max_value=1.0, exclude_min=False, allow_nan=False
        ),
        max_displacement_m=st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=50.0, allow_nan=False)
        ),
    ),
)

specs = st.builds(
    ScenarioSpec,
    name=st.text(min_size=1, max_size=20),
    protocol=st.sampled_from(("spms", "spin", "flooding", "gossip", "f-spms")),
    config=configs,
    workload=st.sampled_from(("all_to_all", "cluster", "single_pair")),
    workload_options=option_dicts,
    protocol_options=option_dicts,
    placement=st.sampled_from(("grid", "random")),
    placement_options=option_dicts,
    failures=failures,
    mobility=mobility,
    labels=option_dicts,
    charge_initial_routing=st.booleans(),
    settle_margin_ms=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    trace=st.booleans(),
)


class TestRoundTrip:
    @given(spec=specs)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @given(spec=specs)
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @given(spec=specs)
    @settings(max_examples=30, deadline=None)
    def test_to_dict_is_json_native(self, spec):
        # The canonical form must be writable as a spec file as-is.
        json.dumps(spec.to_dict())

    @given(config=configs)
    @settings(max_examples=60, deadline=None)
    def test_config_round_trip(self, config):
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_sub_config_round_trips(self):
        failure = FailureConfig(mean_interarrival_ms=7.0)
        assert FailureConfig.from_dict(failure.to_dict()) == failure
        mob = MobilityConfig(num_epochs=3, max_displacement_m=None)
        assert MobilityConfig.from_dict(mob.to_dict()) == mob


class TestValidation:
    def _payload(self, **overrides):
        payload = ScenarioSpec(
            name="t", protocol="spms", config=SimulationConfig(num_nodes=9)
        ).to_dict()
        payload.update(overrides)
        return payload

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown scenario spec keys"):
            ScenarioSpec.from_dict(self._payload(workloadd="all_to_all"))

    def test_unknown_config_key_rejected(self):
        payload = self._payload()
        payload["config"]["num_nodez"] = 9
        with pytest.raises(SpecValidationError, match="num_nodez"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_failure_key_rejected(self):
        payload = self._payload(failures={"mean_interarrival_mz": 50.0})
        with pytest.raises(SpecValidationError, match="mean_interarrival_mz"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_mobility_key_rejected(self):
        payload = self._payload(mobility={"epochs": 2})
        with pytest.raises(SpecValidationError, match="epochs"):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize("version", (0, 1, 99, "2", None))
    def test_bad_schema_version_rejected(self, version):
        payload = self._payload()
        payload[SCHEMA_KEY] = version
        with pytest.raises(SpecValidationError, match="schema version"):
            ScenarioSpec.from_dict(payload)

    def test_missing_schema_version_rejected(self):
        payload = self._payload()
        del payload[SCHEMA_KEY]
        with pytest.raises(SpecValidationError, match="schema version"):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize("required", ("name", "protocol", "config"))
    def test_missing_required_field_rejected(self, required):
        payload = self._payload()
        del payload[required]
        with pytest.raises(SpecValidationError, match=required):
            ScenarioSpec.from_dict(payload)

    def test_config_validators_still_apply(self):
        payload = self._payload()
        payload["config"]["num_nodes"] = 1  # < 2 rejected by __post_init__
        with pytest.raises(SpecValidationError, match="two nodes"):
            ScenarioSpec.from_dict(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecValidationError, match="mapping"):
            ScenarioSpec.from_dict([1, 2, 3])

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecValidationError, match="JSON"):
            ScenarioSpec.from_json("{not json")

    def test_schema_version_is_two(self):
        # Bumping the schema version is an API break for on-disk spec files;
        # this pin makes the bump a conscious, reviewed act.  v1 -> v2 added
        # the `labels` field (together with FINGERPRINT_SCHEMA_VERSION 2 -> 3).
        assert SPEC_SCHEMA_VERSION == 2

    def test_unknown_labels_shape_rejected(self):
        with pytest.raises(SpecValidationError, match="labels"):
            ScenarioSpec.from_dict(self._payload(labels=["not", "a", "mapping"]))


class TestCacheKeyStability:
    """Pin the spec fingerprints (resume keys) of the registered matrices.

    These hashes cover the full canonical spec serialization (every config
    field, the placement, the component selectors and the fingerprint schema
    version).  If this test fails, either revert the layout change or bump
    ``FINGERPRINT_SCHEMA_VERSION`` (a deliberate change of every record's
    canonical bytes) and re-pin.
    """

    #: (matrix, job key) -> expected fingerprint under FINGERPRINT_SCHEMA_VERSION 3.
    PINNED = {
        ("fig06", "fig06/num_nodes=16/spms"): "68e9bd607b22625e6d38d0c118d0f7cf68d5db3f3787b83ad3ed52c6c495e994",
        ("fig06", "fig06/num_nodes=16/spin"): "4869e45c7541b23b9b7c963b19466376a96060a98ab2014ae7ed66f777ea0252",
        ("fig06", "fig06/num_nodes=36/spms"): "4386ec011487a1f55c91868f9b1159de8efb1d72e2fc5b3101cc53ff0eef0ffb",
        ("fig06", "fig06/num_nodes=36/spin"): "2ac5bddffd488f9457915f5a2d097bae15df140606bc5d496f83b5b7fc157592",
        ("fig06-placement", "fig06-placement/num_nodes=16/placement=grid/spms"): "68e9bd607b22625e6d38d0c118d0f7cf68d5db3f3787b83ad3ed52c6c495e994",
        ("fig06-placement", "fig06-placement/num_nodes=16/placement=random/spms"): "9c6249361915fd515c5eb5104dca66f88fefa0e1445086b57c9edb72a5bb95f0",
        ("fig13-cluster", "fig13-cluster/transmission_radius_m=10/spms"): "4d31f906806ffc952d80ec28383e3ac59061e4499e4daddf3ccc218595c49181",
        ("fig13-cluster", "fig13-cluster/transmission_radius_m=10/spin"): "ee027de64a22d0f994b9014db7747cb3f75b2158b94cca4c53102854afe10b83",
        ("fig13-cluster", "fig13-cluster/transmission_radius_m=15/spms"): "1d52677182e1de121c00d6ee40fd9ac5962b18e48a4fd931d1213588e97446a5",
        ("fig13-cluster", "fig13-cluster/transmission_radius_m=15/spin"): "cfdf8e78380481c1683fee250c73f4c8ccbea5c7d28251b6a743ba6c015caa97",
    }

    def test_fingerprint_schema_version_is_three(self):
        assert FINGERPRINT_SCHEMA_VERSION == 3

    def test_placement_grid_point_shares_the_single_placement_entry(self):
        # The non-config `placement` axis materialises the *same* canonical
        # spec as the single-placement fig06 matrix at the same grid point,
        # so the two share one fingerprint — resuming a superset matrix in the
        # same run directory never re-simulates what a subset sweep stored.
        assert (
            self.PINNED[("fig06", "fig06/num_nodes=16/spms")]
            == self.PINNED[
                ("fig06-placement", "fig06-placement/num_nodes=16/placement=grid/spms")
            ]
        )

    def test_figure_matrix_cache_keys_are_pinned(self):
        by_matrix = {}
        for (matrix_name, _key) in self.PINNED:
            by_matrix.setdefault(matrix_name, get_matrix(matrix_name).expand())
        for (matrix_name, job_key), expected in self.PINNED.items():
            job = next(j for j in by_matrix[matrix_name] if j.key == job_key)
            assert spec_fingerprint(job.spec) == expected, job_key

    def test_fingerprint_tracks_placement(self):
        spec = ScenarioSpec(name="t", protocol="spms", config=SimulationConfig())
        randomized = ScenarioSpec(
            name="t", protocol="spms", config=SimulationConfig(), placement="random"
        )
        assert spec_fingerprint(spec) != spec_fingerprint(randomized)
