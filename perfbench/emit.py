"""Emit the benchmark's networks as the text inputs an operator would write.

The workloads drive public entry points (the CLI, the library parser, the
HTTP API), so their inputs are ``.topo`` text plus configuration DSL text,
emitted here from the library's generators.  :func:`config_text` is the
inverse of :func:`repro.config.parser.parse_config` for every construct the
parser understands, and raises on anything it cannot express, so an emitted
file never silently drops configuration.  ``tests/test_emit.py`` checks that
parsing the emitted text gives the networks the generators build.
"""

from __future__ import annotations

from typing import List

from repro.config.objects import (
    DEFAULT_LOCAL_PREF,
    DEFAULT_STATIC_DISTANCE,
    DeviceConfig,
    NetworkConfig,
    RouteMap,
)

#: The eBGP fat tree's rack whose export map sets a MED (``mc-ebgp-med``).
MED_RACK = "edge0_0"


def _route_map_lines(rmap: RouteMap) -> List[str]:
    lines: List[str] = []
    for clause in rmap.clauses:
        action = "permit" if clause.permit else "deny"
        lines.append(f"  route-map {rmap.name} {action} {clause.sequence}")
        match = clause.match
        if (
            match.as_path_contains is not None
            or match.min_prefix_length is not None
            or match.max_prefix_length is not None
        ):
            raise ValueError(f"route-map {rmap.name}: match has no DSL form")
        if match.prefix_list is not None:
            lines.append(f"    match prefix-list {match.prefix_list}")
        lines.extend(f"    match prefix {prefix}" for prefix in match.prefixes)
        lines.extend(f"    match community {community}" for community in match.communities)
        actions = clause.actions
        if actions.remove_communities:
            raise ValueError(f"route-map {rmap.name}: community removal has no DSL form")
        if actions.local_preference is not None:
            lines.append(f"    set local-preference {actions.local_preference}")
        if actions.med is not None:
            lines.append(f"    set med {actions.med}")
        if actions.ospf_metric is not None:
            lines.append(f"    set metric {actions.ospf_metric}")
        if actions.prepend_count:
            lines.append(f"    set prepend {actions.prepend_count}")
        lines.extend(f"    set community {community}" for community in actions.add_communities)
        if actions.next_hop_self:
            lines.append("    set next-hop-self")
    return lines


def device_body(config: DeviceConfig) -> str:
    """The DSL body of one device (no ``device`` line), as overlay pushes carry it."""
    lines: List[str] = []
    if config.ospf is not None:
        ospf = config.ospf
        if ospf.external_metric != 20 or ospf.process_id != 1:
            raise ValueError(f"{config.name}: OSPF process settings have no DSL form")
        lines.append("  ospf")
        lines.extend(f"    network {prefix}" for prefix in ospf.networks)
        if ospf.redistribute_static:
            lines.append("    redistribute static")
        for neighbor, interface in ospf.interfaces.items():
            text = f"    interface {neighbor}"
            if interface.cost is not None:
                text += f" cost {interface.cost}"
            if interface.passive:
                text += " passive"
            lines.append(text)
    if config.bgp is not None:
        bgp = config.bgp
        if bgp.router_id is not None or bgp.default_local_pref != DEFAULT_LOCAL_PREF:
            raise ValueError(f"{config.name}: BGP process settings have no DSL form")
        lines.append(f"  bgp {bgp.asn}")
        lines.extend(f"    network {prefix}" for prefix in bgp.networks)
        if bgp.redistribute_ospf:
            lines.append("    redistribute ospf")
        if bgp.redistribute_static:
            lines.append("    redistribute static")
        if bgp.multipath:
            lines.append("    multipath")
        for neighbor in bgp.neighbors:
            text = f"    neighbor {neighbor.peer} remote-as {neighbor.remote_asn}"
            if neighbor.import_map is not None:
                text += f" import-map {neighbor.import_map}"
            if neighbor.export_map is not None:
                text += f" export-map {neighbor.export_map}"
            if neighbor.next_hop_self:
                text += " next-hop-self"
            if neighbor.route_reflector_client:
                text += " route-reflector-client"
            if neighbor.weight:
                text += f" weight {neighbor.weight}"
            lines.append(text)
    for route in config.static_routes:
        if route.drop:
            text = f"  static {route.prefix} drop"
        elif route.next_hop_node is not None:
            text = f"  static {route.prefix} next-hop {route.next_hop_node}"
        else:
            text = f"  static {route.prefix} next-hop-ip {route.next_hop_ip}"
        if route.distance != DEFAULT_STATIC_DISTANCE:
            if route.drop:
                raise ValueError(f"{config.name}: a drop route's distance has no DSL form")
            text += f" distance {route.distance}"
        lines.append(text)
    for plist in config.prefix_lists.values():
        for entry in plist.entries:
            text = f"  prefix-list {plist.name} {'permit' if entry.permit else 'deny'} {entry.prefix}"
            if entry.ge is not None:
                text += f" ge {entry.ge}"
            if entry.le is not None:
                text += f" le {entry.le}"
            lines.append(text)
    for rmap in config.route_maps.values():
        lines.extend(_route_map_lines(rmap))
    return "\n".join(lines)


def config_text(network: NetworkConfig) -> str:
    """The whole network's configuration as DSL text, devices in topology order."""
    blocks = []
    for name in network.topology.nodes:
        body = device_body(network.device(name))
        blocks.append(f"device {name}\n{body}" if body else f"device {name}")
    return "\n\n".join(blocks) + "\n"


def ospf_fat_tree(k: int) -> NetworkConfig:
    """The ``cli-ospf-fattree`` network: OSPF everywhere on a k-ary fat tree."""
    from repro.config import ospf_everywhere
    from repro.topology import fat_tree

    return ospf_everywhere(fat_tree(k))


def ebgp_fat_tree(k: int) -> NetworkConfig:
    """The eBGP RFC 7938 fat tree the other three workloads start from."""
    from repro.config import ebgp_rfc7938
    from repro.topology import bgp_fat_tree

    return ebgp_rfc7938(bgp_fat_tree(k))


def with_med(network: NetworkConfig, rack: str = MED_RACK, med: int = 1) -> NetworkConfig:
    """``network`` with ``rack``'s ``EXPORT_OWN`` clause setting ``med`` (mutates)."""
    for clause in network.device(rack).route_map("EXPORT_OWN").clauses:
        clause.actions.med = med
    return network


def ebgp_square() -> NetworkConfig:
    """A four-node eBGP square (``o`` originates; ``m`` joins it to ``a`` and ``b``).

    Small enough that transient searches of its lifecycle scenarios
    complete, which the ``transient-scenarios`` POR probe needs.
    """
    from repro.config.parser import parse_config
    from repro.topology.io import parse_topology

    topology = "\n".join([
        "topology square",
        "node o role edge", "node m role core", "node a role core", "node b role core",
        "link o m weight 10", "link m a weight 10", "link m b weight 10", "link a b weight 10",
    ])
    peers = {"o": "m", "m": "oab", "a": "mb", "b": "ma"}
    asn = {"o": 65000, "m": 65001, "a": 65002, "b": 65003}
    blocks = []
    for name in "omab":
        lines = [f"device {name}", f"  bgp {asn[name]}"]
        if name == "o":
            lines.append("    network 10.9.0.0/24")
        lines += [f"    neighbor {peer} remote-as {asn[peer]}" for peer in peers[name]]
        blocks.append("\n".join(lines))
    return parse_config(parse_topology(topology + "\n"), "\n".join(blocks) + "\n")
