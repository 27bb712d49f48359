"""Differential oracle for the OSPF shortest-path computation.

:func:`reference_compute` is the per-call SPF that walked the topology's
links and the device configs on every relaxation, and :func:`reference_peers`
the matching per-node adjacency walk.  They live only here, as the reference
the compiled-adjacency :meth:`OspfComputation.compute` and
:meth:`OspfComputation.adjacent` must match on random OSPF networks:
asymmetric link weights, interface cost overrides, one-sided passive
interfaces, parallel links, devices without OSPF, several origins at equal
distance and random failure sets.  The end-to-end digests pin whole
verifications on two fixtures.
"""

import heapq
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Plankton, PlanktonOptions
from repro.config.builder import ConfigBuilder, ospf_everywhere
from repro.config.objects import NetworkConfig, OspfInterface
from repro.config.parser import parse_config
from repro.incremental import result_signature_digest
from repro.policies import LoopFreedom
from repro.protocols.ospf import INFINITY, OspfComputation
from repro.topology import Topology, fat_tree
from repro.topology.io import load_topology

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "configs"


def reference_compute(
    network: NetworkConfig,
    origins: Sequence[str],
    failed_links: Optional[Set[int]] = None,
) -> Tuple[Dict[str, float], Dict[str, Tuple[str, ...]], Dict[str, str], Tuple[str, ...]]:
    """Multi-source Dijkstra that re-reads links and configs on every edge."""
    topology = network.topology

    def runs_ospf(node: str) -> bool:
        return network.device(node).ospf is not None

    def link_cost(node: str, neighbor: str, link_weight: int) -> float:
        config = network.device(node).ospf
        if config is None or config.is_passive(neighbor):
            return INFINITY
        return config.cost_to(neighbor, link_weight)

    distances: Dict[str, float] = {}
    chosen_origin: Dict[str, str] = {}
    heap: List[Tuple[float, str, str]] = []
    for origin in origins:
        if not runs_ospf(origin):
            continue
        distances[origin] = 0.0
        chosen_origin[origin] = origin
        heapq.heappush(heap, (0.0, origin, origin))

    settled: Set[str] = set()
    while heap:
        dist, node, origin = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for link in topology.edges(node, failed_links):
            neighbor = link.other(node)
            if not runs_ospf(neighbor):
                continue
            if network.device(node).ospf.is_passive(neighbor):
                continue
            cost = link_cost(neighbor, node, link.weight_from(neighbor))
            if cost == INFINITY:
                continue
            candidate = dist + cost
            best = distances.get(neighbor, INFINITY)
            if candidate < best:
                distances[neighbor] = candidate
                chosen_origin[neighbor] = origin
                heapq.heappush(heap, (candidate, neighbor, origin))
            elif candidate == best and origin < chosen_origin.get(neighbor, origin):
                chosen_origin[neighbor] = origin
                heapq.heappush(heap, (candidate, neighbor, origin))

    next_hops: Dict[str, Tuple[str, ...]] = {}
    origin_set = {o for o in origins if runs_ospf(o)}
    for node, dist in distances.items():
        if node in origin_set:
            next_hops[node] = ()
            continue
        hops = []
        for link in topology.edges(node, failed_links):
            neighbor = link.other(node)
            if neighbor not in distances or not runs_ospf(neighbor):
                continue
            if network.device(neighbor).ospf.is_passive(node):
                continue
            cost = link_cost(node, neighbor, link.weight_from(node))
            if cost == INFINITY:
                continue
            if distances[neighbor] + cost == dist:
                hops.append(neighbor)
        next_hops[node] = tuple(sorted(set(hops)))

    order = tuple(sorted(distances, key=lambda n: (distances[n], n)))
    return distances, next_hops, chosen_origin, order


def reference_peers(network: NetworkConfig, node: str, failed_links: Set[int]) -> Tuple[str, ...]:
    """OSPF neighbours of ``node``: both ends speak OSPF, neither side passive."""
    config = network.device(node).ospf
    if config is None:
        return ()
    peers = set()
    for link in network.topology.edges(node, failed_links):
        neighbor = link.other(node)
        theirs = network.device(neighbor).ospf
        if theirs is None or config.is_passive(neighbor) or theirs.is_passive(node):
            continue
        peers.add(neighbor)
    return tuple(sorted(peers))


@st.composite
def ospf_networks(draw):
    """A random OSPF network plus origins and a failure set over its links."""
    size = draw(st.integers(2, 7))
    names = [f"r{i}" for i in range(size)]
    topology = Topology("random")
    for name in names:
        topology.add_node(name)
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
        lambda pair: pair[0] != pair[1]
    )
    # Small weights make equal-cost paths and equidistant origins common;
    # drawing pairs with replacement yields parallel links.
    for a, b in draw(st.lists(pairs, min_size=1, max_size=3 * size)):
        topology.add_link(
            names[a], names[b], weight=draw(st.integers(1, 3)), weight_ba=draw(st.integers(1, 3))
        )
    builder = ConfigBuilder(topology)
    speakers = [name for name in names if draw(st.integers(0, 5)) > 0]
    for name in speakers:
        builder.enable_ospf(name)
    for name in speakers:
        for neighbor in topology.neighbors(name):
            choice = draw(st.sampled_from(("default", "default", "cost", "passive")))
            if choice == "cost":
                builder.device(name).ospf.interfaces[neighbor] = OspfInterface(
                    neighbor=neighbor, cost=draw(st.integers(1, 4))
                )
            elif choice == "passive":
                builder.device(name).ospf.interfaces[neighbor] = OspfInterface(
                    neighbor=neighbor, passive=True
                )
    origins = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    link_ids = [link.link_id for link in topology.links]
    failed = draw(st.sets(st.sampled_from(link_ids), max_size=len(link_ids)))
    return builder.build(), origins, failed


class TestSpfOracle:
    @given(ospf_networks())
    @settings(max_examples=300, deadline=None)
    def test_compute_matches_reference(self, case):
        network, origins, failed = case
        computation = OspfComputation(network)
        # Warm the compiled adjacency on another failure set first: it must
        # not carry anything of the failures it was first used with.
        computation.compute(origins, {link.link_id for link in network.topology.links})
        table = computation.compute(origins, failed)
        distances, next_hops, chosen_origin, order = reference_compute(network, origins, failed)
        assert table.distances == distances
        assert list(table.distances) == list(distances)
        assert table.next_hops == next_hops
        assert table.chosen_origin == chosen_origin
        assert table.deterministic_order == order
        for node in network.topology.nodes:
            assert computation.adjacent(node, failed) == reference_peers(network, node, failed)

    def test_equidistant_origins_pick_the_smaller_name(self):
        topology = Topology("tie")
        for name in ("a", "m", "z"):
            topology.add_node(name)
        topology.add_link("a", "m", weight=2)
        topology.add_link("z", "m", weight=2)
        network = ospf_everywhere(topology, originate_roles=())
        table = OspfComputation(network).compute(["z", "a"])
        assert table.chosen_origin["m"] == "a"
        assert table.next_hops["m"] == ("a", "z")
        assert reference_compute(network, ["z", "a"])[2] == table.chosen_origin


def _campus() -> NetworkConfig:
    topology = load_topology(str(EXAMPLES / "campus.topo"))
    return parse_config(topology, (EXAMPLES / "campus.cfg").read_text())


#: ``result_signature_digest`` of a loop-freedom verify, as the per-call SPF
#: produced it, per (fixture, max_failures).
PINNED_DIGESTS = {
    ("fat_tree4", 0): "5bd84cfac61d439b7b8993a726bf2e09892a799d26d38775a14015d2010bd576",
    ("fat_tree4", 1): "75e9c1020c1f35726fcf86f847588560aab9d20823e6ec6b4d21d3ccf264dc98",
    ("campus", 0): "ac373f5fb61646b2294844ec48f4b3b6e95fe4bd8fe617ae701ecf8ab50611fa",
    ("campus", 1): "5c666ec50ecff391bf44976761cad67e43ac940afdf9065b82ffc350709f48ec",
}


def test_verify_digests_are_unchanged():
    fixtures = {"fat_tree4": lambda: ospf_everywhere(fat_tree(4)), "campus": _campus}
    for (name, max_failures), digest in PINNED_DIGESTS.items():
        result = Plankton(fixtures[name](), PlanktonOptions(max_failures=max_failures)).verify(
            LoopFreedom()
        )
        assert result_signature_digest(result) == digest, (name, max_failures)
