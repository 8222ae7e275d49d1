"""Tests for constructing protocol nodes through the component registry."""

import pytest

from repro.build import PROTOCOL, available, default_registry, normalize_protocol_name
from repro.core.flooding import FloodingNode
from repro.core.gossip import GossipNode
from repro.core.interests import AllInterested
from repro.core.spin import SpinNode
from repro.core.spms import SpmsNode

from tests.helpers import build_network, chain_positions


@pytest.fixture
def harness():
    return build_network(chain_positions(3, spacing=5.0))


def create_node(protocol, *args, **kwargs):
    return default_registry().create(PROTOCOL, protocol, *args, **kwargs)


class TestRegistry:
    def test_available_protocols(self):
        assert set(available(PROTOCOL)) == {"spms", "spin", "flooding", "gossip"}

    def test_normalize_accepts_failure_prefix_and_case(self):
        assert normalize_protocol_name("F-SPMS") == "spms"
        assert normalize_protocol_name("f-spin") == "spin"
        assert normalize_protocol_name("  SPIN ") == "spin"

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ValueError):
            normalize_protocol_name("aodv")

    def test_create_spms_requires_routing(self, harness):
        with pytest.raises(ValueError):
            create_node("spms", 0, harness.network, AllInterested(), routing=None)

    def test_create_each_protocol(self, harness):
        interest = AllInterested()
        # Fresh ids are unavailable (already registered) so we only construct,
        # not register — construction must not raise.
        spms = create_node("spms", 0, harness.network, interest, routing=harness.routing)
        spin = create_node("spin", 1, harness.network, interest)
        flood = create_node("flooding", 2, harness.network, interest)
        gossip = create_node("gossip", 0, harness.network, interest)
        assert isinstance(spms, SpmsNode)
        assert isinstance(spin, SpinNode)
        assert isinstance(flood, FloodingNode)
        assert isinstance(gossip, GossipNode)

    def test_protocol_options_forwarded(self, harness):
        node = create_node(
            "spms",
            0,
            harness.network,
            AllInterested(),
            routing=harness.routing,
            tout_adv_ms=9.0,
            serve_from_cache=True,
        )
        assert node.tout_adv_ms == 9.0
        assert node.serve_from_cache is True
