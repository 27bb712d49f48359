"""The ``serve-edit-stream`` push list: a pure function of the workload seed.

The network is the eBGP RFC 7938 fat tree with k=4 (20 devices, 8 racks, one
PEC per rack prefix).  The stream is a list of *try-and-roll-back* pairs, as
an operator's change pipeline produces them: each pair applies one change
and its second push restores the baseline.  Pairs come in blocks of
:data:`BLOCK` with a fixed count of each change kind, shuffled by the seed,
so every whole block has exactly these shares of the pushes.  A random mix
would move ``op_p90_s`` between the drain and the filter costs from seed to
seed, and drains make up 15% rather than 10% of the pushes so that the p90
push of a run lies inside the drain costs, not on their lower edge:

* ``filter`` (65%): one rack's ``EXPORT_OWN`` map tags its routes with one
  of two communities; a one-device overlay that dirties that rack's PEC
  (no prepend or MED: those multiply the PEC's states, which is the
  ``mc-ebgp-med`` workload's subject);
* ``announce`` (15%): one rack announces and exports an extra /24, then
  withdraws it; a one-device overlay that adds and removes a PEC;
* ``drain`` (15%): one aggregation-core link and its BGP session leave the
  topology, then return; full-snapshot pushes, which dirty every PEC;
* ``loop`` (5%): static routes on an adjacent aggregation/core pair send a
  remote rack's prefix back and forth; a two-device overlay whose verdict is
  VIOLATED.

Every push names the network it composes to (``network``).  A stream can
compose only the few dozen networks :func:`networks` lists, so their
expected verdicts are computed once before timing (:func:`composed`), and a
run draws pushes for as long as it lasts.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.config.objects import RouteMapClause, MatchConditions, StaticRoute
from repro.config.builder import edge_prefix
from repro.netaddr import Prefix
from repro.topology.io import format_topology

from perfbench import emit

#: Pairs of each change kind in one block of :data:`BLOCK` pairs.
KIND_COUNTS = (("filter", 13), ("announce", 3), ("drain", 3), ("loop", 1))
BLOCK = sum(count for _, count in KIND_COUNTS)
FILTER_VARIANTS = ("65000:7", "65000:8")
POLICIES = [{"policy": "loop"}]
BASE = "base"


@lru_cache(maxsize=1)
def _base():
    return emit.ebgp_fat_tree(4)


def _racks() -> List[str]:
    return [name for name in _base().topology.nodes if name.startswith("edge")]


def _agg_core_links() -> List[Tuple[str, str]]:
    return [(link.a, link.b) for link in _base().topology.links if link.b.startswith("core")]


def _loop_sites() -> List[Tuple[str, str, str]]:
    """(aggregation, core, prefix of a rack in the next pod): one per pod."""
    sites = []
    for pod in range(4):
        agg = f"agg{pod}_0"
        core = next(b for a, b in _agg_core_links() if a == agg)
        sites.append((agg, core, str(edge_prefix((pod + 1) % 4, 0))))
    return sites


def _edited(label: str):
    """The network ``label`` names, and the topology link it removes (if any)."""
    network = copy.deepcopy(_base())
    kind, _, rest = label.partition(" ")
    drained = None
    if kind == "filter":
        rack, community = rest.split()
        network.device(rack).route_map("EXPORT_OWN").clauses[0].actions.add_communities.append(community)
    elif kind == "announce":
        rack = rest
        extra = Prefix(f"172.16.{_racks().index(rack)}.0/24")
        device = network.device(rack)
        device.bgp.networks.append(extra)
        device.route_map("EXPORT_OWN").clauses.append(
            RouteMapClause(sequence=20, match=MatchConditions(prefixes=[extra]))
        )
    elif kind == "drain":
        agg, core = rest.split()
        for near, far in ((agg, core), (core, agg)):
            bgp = network.device(near).bgp
            bgp.neighbors = [n for n in bgp.neighbors if n.peer != far]
        drained = (agg, core)
    elif kind == "loop":
        agg, core, prefix = rest.split()
        network.device(agg).static_routes.append(StaticRoute(Prefix(prefix), next_hop_node=core))
        network.device(core).static_routes.append(StaticRoute(Prefix(prefix), next_hop_node=agg))
    elif label != BASE:
        raise ValueError(f"unknown network {label!r}")
    return network, drained


def composed(label: str) -> Tuple[str, str]:
    """(topology text, config text) of the whole network ``label`` names."""
    network, drained = _edited(label)
    topology = format_topology(network.topology)
    if drained is not None:
        agg, core = drained
        topology = "\n".join(
            line for line in topology.splitlines() if not line.startswith(f"link {agg} {core} ")
        ) + "\n"
    return topology, emit.config_text(network)


def _touched(label: str) -> List[str]:
    kind, _, rest = label.partition(" ")
    if kind in ("filter", "announce"):
        return [rest.split()[0]]
    if kind == "loop":
        return rest.split()[:2]
    return []


@lru_cache(maxsize=None)
def payload(label: str) -> Dict[str, object]:
    """The push that installs ``label`` starting from the baseline (or back)."""
    kind = label.partition(" ")[0]
    if kind in ("drain", BASE):
        topology, config = composed(label)
        return {"kind": "verify", "topology": topology, "config": config, "policies": POLICIES}
    network, _ = _edited(label)
    devices = {name: emit.device_body(network.device(name)) for name in _touched(label)}
    return {"kind": "verify", "devices": devices, "policies": POLICIES}


@lru_cache(maxsize=None)
def _revert(label: str) -> Dict[str, object]:
    if label.startswith("drain"):
        return payload(BASE)
    devices = {name: emit.device_body(_base().device(name)) for name in _touched(label)}
    return {"kind": "verify", "devices": devices, "policies": POLICIES}


def _draw(rng: random.Random, kind: str) -> str:
    if kind == "filter":
        return f"filter {rng.choice(_racks())} {rng.choice(FILTER_VARIANTS)}"
    if kind == "announce":
        return f"announce {rng.choice(_racks())}"
    if kind == "drain":
        return "drain {} {}".format(*rng.choice(_agg_core_links()))
    return "loop {} {} {}".format(*rng.choice(_loop_sites()))


def networks() -> List[str]:
    """Every network a stream can compose, whatever its seed."""
    labels = [BASE]
    labels += [f"filter {rack} {variant}" for rack in _racks() for variant in FILTER_VARIANTS]
    labels += [f"announce {rack}" for rack in _racks()]
    labels += ["drain {} {}".format(*link) for link in _agg_core_links()]
    labels += ["loop {} {} {}".format(*site) for site in _loop_sites()]
    return labels


class EditStream:
    """The push list for one seed, generated a block at a time as it is read.

    ``stream[i]`` is push ``i`` (``{"edit", "network", "payload"}``); a run
    never runs out of pushes, and :attr:`pushes` holds those generated so far.
    Each measuring process of a run (``part``) has a stream of its own.
    """

    def __init__(self, seed: int, part: int = 0) -> None:
        self._rng = random.Random(f"{seed}/{part}")
        self.pushes: List[Dict[str, object]] = []

    def __getitem__(self, index: int) -> Dict[str, object]:
        while index >= len(self.pushes):
            self._extend()
        return self.pushes[index]

    def _extend(self) -> None:
        kinds = [kind for kind, count in KIND_COUNTS for _ in range(count)]
        self._rng.shuffle(kinds)
        for kind in kinds:
            label = _draw(self._rng, kind)
            self.pushes.append({"edit": kind, "network": label, "payload": payload(label)})
            self.pushes.append({"edit": kind, "network": BASE, "payload": _revert(label)})


def edit_stream(seed: int, blocks: int, part: int = 0) -> List[Dict[str, object]]:
    """The first ``blocks`` blocks of the push list for ``seed`` and ``part``."""
    stream = EditStream(seed, part)
    stream[2 * BLOCK * blocks - 1]
    return stream.pushes


def stream_digest(pushes: List[Dict[str, object]]) -> str:
    """SHA-256 of the push list, recorded in the benchmark output."""
    return hashlib.sha256(json.dumps(pushes, sort_keys=True).encode("utf-8")).hexdigest()
