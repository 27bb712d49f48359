"""OSPF shortest-path computation.

OSPF is deterministic: given a topology, link costs and the set of origins of
a prefix, the converged state is a shortest-path DAG toward the closest
origin, with ECMP when several neighbours lie on equal-cost shortest paths.

Every SPF run walks one compiled adjacency: per OSPF speaker, the incoming
and outgoing arcs ``(neighbor, cost, link_id)`` of all its links, with both
sides' passive flags, interface cost overrides, directional link weights and
the "both ends run OSPF" rule already applied.  None of that depends on which
links have failed, so the table is built once per :class:`OspfComputation`
and a run only skips the arcs whose ``link_id`` is in its failure set.
Symmetry reduction gives nearly every PEC its own failure set, so the
per-(origins, failures) table cache rarely hits on a cold verify, and a
per-failure adjacency would be rebuilt almost as often as SPF itself runs.

Two consumers use this module:

* the OSPF :class:`~repro.protocols.ospf_instance.OspfInstance` path-vector
  model, whose deterministic-node detection heuristic (paper §4.1.2: "picks
  each node only after all nodes with shorter paths have executed") needs the
  network-wide distance computation, cached per (topology, failures, origins);
* the FIB builder, which needs per-node next hops for redistributed and
  directly computed OSPF routes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig

INFINITY = float("inf")

#: One directed OSPF adjacency over one link: (neighbor, cost, link_id).
Arc = Tuple[str, int, int]


@dataclass(frozen=True)
class OspfRoutingTable:
    """Result of an OSPF computation for one prefix.

    Attributes:
        distances: Cost of the best path from each node to its closest origin
            (absent when unreachable).
        next_hops: For each node, the sorted tuple of ECMP next hops on
            shortest paths (empty for origins and unreachable nodes).
        chosen_origin: The origin each node routes towards.
        deterministic_order: Nodes sorted by increasing distance — the order
            in which the deterministic-node POR heuristic lets them execute.
    """

    distances: Dict[str, float]
    next_hops: Dict[str, Tuple[str, ...]]
    chosen_origin: Dict[str, str]
    deterministic_order: Tuple[str, ...]

    def is_reachable(self, node: str) -> bool:
        """True if ``node`` has a finite-cost route to some origin."""
        return self.distances.get(node, INFINITY) < INFINITY


class OspfComputation:
    """Cached OSPF shortest-path computations.

    The cache key is (origins, failed links), matching the paper: "We cache
    this computation so it is only run once for a given topology, set of
    failures, and set of sources."
    """

    def __init__(self, network: NetworkConfig) -> None:
        self.network = network
        self.topology = network.topology
        self._cache: Dict[Tuple[FrozenSet[str], FrozenSet[int]], OspfRoutingTable] = {}
        self._filter_caches: Dict[FrozenSet[int], Dict[str, Dict]] = {}
        self._arcs: Optional[Dict[str, Tuple[Tuple[Arc, ...], Tuple[Arc, ...]]]] = None

    def shared_filter_caches(self, failure_key: FrozenSet[int]) -> Dict[str, Dict]:
        """Filter/rank memo dicts shared by all instances of one failure set.

        OSPF export, import and ranking depend on the topology, the link
        costs and the failed links — never on the prefix — so the per-prefix
        :class:`~repro.protocols.ospf_instance.OspfInstance` objects built
        over this computation can share one set of
        :class:`~repro.protocols.base.PathVectorInstance` memo dicts instead
        of re-evaluating the identical filters per PEC.
        """
        caches = self._filter_caches.get(failure_key)
        if caches is None:
            caches = {
                "export": {},
                "import": {},
                "advertisement": {},
                "rank": {},
                "edge_cost": {},
                # Id-keyed memos adopted by the RPVP CandidateEngine (one
                # engine per prefix, all over the shared intern table).
                "adv_edge": {},
                "rank_at": {},
            }
            self._filter_caches[failure_key] = caches
        return caches

    # ------------------------------------------------------------------ costs
    def link_cost(self, node: str, neighbor: str, link_weight: int) -> float:
        """The OSPF cost of the edge ``node -> neighbor``.

        Interface cost overrides in the device config win over the topology
        weight; a passive interface means no adjacency (infinite cost).
        """
        config = self.network.device(node).ospf
        if config is None:
            return INFINITY
        if config.is_passive(neighbor):
            return INFINITY
        return config.cost_to(neighbor, link_weight)

    def _adjacency(self) -> Dict[str, Tuple[Tuple[Arc, ...], Tuple[Arc, ...]]]:
        """Per OSPF speaker, its (incoming, outgoing) arcs over every link.

        An arc exists when both ends run OSPF and neither side's interface
        towards the other is passive.  The incoming arc of ``node`` carries
        the neighbour's cost of ``neighbor -> node``, the outgoing arc
        ``node``'s own cost of ``node -> neighbor``.  Arcs keep the order of
        :meth:`~repro.topology.Topology.edges`, so SPF relaxes them as a link walk would.
        """
        if self._arcs is None:
            ospf = {
                name: config.ospf
                for name, config in self.network.devices.items()
                if config.ospf is not None
            }
            arcs: Dict[str, Tuple[Tuple[Arc, ...], Tuple[Arc, ...]]] = {}
            for node, mine in ospf.items():
                incoming: List[Arc] = []
                outgoing: List[Arc] = []
                for link in self.topology.edges(node):
                    neighbor = link.other(node)
                    theirs = ospf.get(neighbor)
                    if theirs is None or mine.is_passive(neighbor) or theirs.is_passive(node):
                        continue
                    incoming.append(
                        (neighbor, theirs.cost_to(node, link.weight_from(neighbor)), link.link_id)
                    )
                    outgoing.append(
                        (neighbor, mine.cost_to(neighbor, link.weight_from(node)), link.link_id)
                    )
                arcs[node] = (tuple(incoming), tuple(outgoing))
            self._arcs = arcs
        return self._arcs

    def adjacent(self, node: str, failed_links: Optional[Set[int]] = None) -> Tuple[str, ...]:
        """The sorted OSPF neighbours of ``node`` over links not in ``failed_links``."""
        arcs = self._adjacency().get(node)
        if arcs is None:
            return ()
        failed = failed_links or ()
        return tuple(sorted({neighbor for neighbor, _, link_id in arcs[1] if link_id not in failed}))

    # ------------------------------------------------------------------ SPF
    def compute(
        self,
        origins: Sequence[str],
        failed_links: Optional[Set[int]] = None,
    ) -> OspfRoutingTable:
        """Multi-source Dijkstra from ``origins`` over the OSPF-speaking subgraph.

        The computation follows reverse link costs (cost of the edge leaving
        the node towards the origin side), so ``distances[n]`` is the cost of
        the best n -> origin path, exactly what each router's SPF run yields.
        """
        failed = frozenset(failed_links or ())
        key = (frozenset(origins), failed)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        adjacency = self._adjacency()
        heappush, heappop = heapq.heappush, heapq.heappop
        distances: Dict[str, float] = {}
        chosen_origin: Dict[str, str] = {}
        heap: List[Tuple[float, str, str]] = []
        for origin in origins:
            if origin not in adjacency:
                continue
            distances[origin] = 0.0
            chosen_origin[origin] = origin
            heappush(heap, (0.0, origin, origin))

        settled: Set[str] = set()
        while heap:
            dist, node, origin = heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for neighbor, cost, link_id in adjacency[node][0]:
                if link_id in failed:
                    continue
                candidate = dist + cost
                best = distances.get(neighbor, INFINITY)
                if candidate < best:
                    distances[neighbor] = candidate
                    chosen_origin[neighbor] = origin
                    heappush(heap, (candidate, neighbor, origin))
                elif candidate == best and origin < chosen_origin.get(neighbor, origin):
                    # Deterministic tie-break between equally distant origins.
                    chosen_origin[neighbor] = origin
                    heappush(heap, (candidate, neighbor, origin))

        next_hops: Dict[str, Tuple[str, ...]] = {}
        origin_set = {o for o in origins if o in adjacency}
        for node, dist in distances.items():
            if node in origin_set:
                next_hops[node] = ()
                continue
            hops = {
                neighbor
                for neighbor, cost, link_id in adjacency[node][1]
                if link_id not in failed
                and neighbor in distances
                and distances[neighbor] + cost == dist
            }
            next_hops[node] = tuple(sorted(hops))

        order = tuple(sorted(distances, key=lambda n: (distances[n], n)))
        table = OspfRoutingTable(
            distances=distances,
            next_hops=next_hops,
            chosen_origin=chosen_origin,
            deterministic_order=order,
        )
        self._cache[key] = table
        return table

    def igp_cost_between(
        self,
        source: str,
        target: str,
        failed_links: Optional[Set[int]] = None,
    ) -> float:
        """The IGP cost from ``source`` to ``target`` (used by BGP ranking)."""
        table = self.compute([target], failed_links)
        return table.distances.get(source, INFINITY)

    def clear_cache(self) -> None:
        """Drop everything derived from the configs (used when they are mutated).

        That is the SPF tables, the compiled adjacency and the filter/rank
        memos shared by the :class:`~repro.protocols.ospf_instance.OspfInstance`
        objects built afterwards.
        """
        self._cache.clear()
        self._filter_caches.clear()
        self._arcs = None
