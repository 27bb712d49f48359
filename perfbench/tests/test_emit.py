"""The emitted DSL parses back to the networks the library generators build."""

import pytest

from perfbench import emit
from repro import Plankton
from repro.config.parser import parse_config
from repro.incremental import result_signature_digest
from repro.policies import LoopFreedom
from repro.topology.io import format_topology, parse_topology


def _reparsed(network):
    return parse_config(parse_topology(format_topology(network.topology)), emit.config_text(network))


@pytest.mark.parametrize(
    "build", [lambda: emit.ospf_fat_tree(8), lambda: emit.ebgp_fat_tree(4)], ids=["ospf-k8", "ebgp-k4"]
)
def test_emitted_network_verifies_like_the_generated_one(build):
    generated = build()
    parsed = _reparsed(generated)
    cold = Plankton(generated).verify(LoopFreedom())
    from_text = Plankton(parsed).verify(LoopFreedom())
    assert len(Plankton(parsed).pecs) == len(Plankton(generated).pecs)
    assert result_signature_digest(from_text) == result_signature_digest(cold)


def test_med_clause_round_trips():
    parsed = _reparsed(emit.with_med(emit.ebgp_fat_tree(4)))
    clause = parsed.device(emit.MED_RACK).route_map("EXPORT_OWN").clauses[0]
    assert clause.actions.med == 1


def test_unexpressible_configuration_is_refused():
    network = emit.ebgp_fat_tree(4)
    network.device(emit.MED_RACK).bgp.default_local_pref = 150
    with pytest.raises(ValueError):
        emit.config_text(network)
