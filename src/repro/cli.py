"""Command-line interface to the Plankton reproduction.

The CLI mirrors how configuration verifiers are run in practice: the operator
points the tool at a topology file and the device configurations, names the
policy to check and the failure environment, and reads a verdict plus a
counterexample trail when the check fails.

Subcommands:

``verify``
    Run the Plankton verifier against one or more policies.  Exit code 0 when
    every policy holds, 1 when a violation is found, 2 on input errors or
    when the run degraded to a partial result (some tasks exhausted their
    retries; see the report's ``errors`` section).

``pecs``
    Print the Packet Equivalence Class partition and the PEC dependency graph
    (paper §3.1/§3.2) without running any verification.

``simulate``
    Run the Batfish-style single-execution simulation and dump the resulting
    FIBs — useful to inspect what "the" converged data plane looks like, with
    the usual caveat that other convergences may exist.

``trace``
    Follow the forwarding branches of one packet (source device + destination
    address) through the simulated data plane.

``transient``
    Explore SPVP message interleavings and check transient properties
    (micro-loops, momentary black holes) in every reachable state, with the
    partial-order reduction, frontier and witness-minimisation knobs of
    :mod:`repro.transient` exposed as flags.

``serve``
    Run the long-lived verification service: warm per-namespace incremental
    sessions behind a JSON-over-HTTP API (:mod:`repro.serve`).  ``verify``,
    ``diff-verify`` and ``transient`` accept ``--server URL`` to run against
    such a service instead of in-process — same output, same exit codes,
    plus exit code 3 when the server cannot be reached.

``diff-verify``
    Verify an old configuration, then *incrementally* re-verify a new one:
    the structural delta is computed, only the impacted Packet Equivalence
    Classes are recomputed, and clean results are merged from the cache
    (:mod:`repro.incremental`).  ``--cache-dir`` persists the cache so a
    later invocation restarts warm; the same flag on ``verify`` gives the
    warm-restart workflow for a single configuration.

Examples::

    python -m repro verify --topology campus.topo --config campus.cfg \\
        --policy reachability --sources acc0,acc1 --max-failures 1
    python -m repro verify --topology campus.topo --config campus.cfg \\
        --policy loop --cache-dir .plankton-cache
    python -m repro diff-verify old.cfg new.cfg --topology campus.topo \\
        --policy loop --cache-dir .plankton-cache
    python -m repro transient --topology dc.topo --config dc.cfg \\
        --fail-session agg0_0,edge0_0 --frontier priority
    python -m repro pecs --topology campus.topo --config campus.cfg
    python -m repro trace --topology campus.topo --config campus.cfg \\
        --source acc0 --destination 10.1.0.9
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path as FilePath
from typing import Dict, List, Optional, Sequence

from repro.baselines.simulation import SimulationVerifier
from repro.config.objects import NetworkConfig
from repro.config.parser import parse_config, parse_device_config
from repro.core.options import PlanktonOptions
from repro.core.verifier import Plankton
from repro.dataplane.forwarding import trace_paths
from repro.engine import BACKEND_CHOICES
from repro.exceptions import ReproError, ServerProtocolError, ServiceUnavailable, SpecError
from repro.netaddr import Prefix, ip_to_int
from repro.pec.classes import compute_pecs
from repro.pec.dependencies import build_dependency_graph
from repro.policies import LoopFreedom, Policy
from repro.topology.io import load_topology

#: Exit codes (documented in ``docs/cli.md``).  A *partial* result — every
#: completed task holds but some tasks exhausted their retries — exits with
#: ``EXIT_ERROR``: "we could not prove it holds" must never look like
#: "it holds" to a CI gate.  A violation wins over partiality (a found
#: counterexample is definitive regardless of other tasks' fate).
EXIT_HOLDS = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
#: ``--server`` mode only: the verification server could not be reached or
#: answered unintelligibly.  Distinct from ``EXIT_ERROR`` so CI gates can
#: tell "the check failed" from "the checking infrastructure failed".
EXIT_UNAVAILABLE = 3


class CliError(ReproError):
    """Raised for bad command-line input; reported without a traceback."""


def _configure_logging(verbosity: int) -> None:
    """Surface the engine's structured event stream (``repro.*`` loggers).

    ``-v`` shows supervision events at INFO/WARNING (retries, timeouts,
    pool rebuilds, cache cold starts); ``-vv`` adds DEBUG (per-task
    start/finish).  Without ``-v`` only warnings and errors reach stderr —
    so a degraded run is never silent, even unasked.
    """
    logger = logging.getLogger("repro")
    level = (
        logging.WARNING
        if verbosity <= 0
        else logging.INFO if verbosity == 1 else logging.DEBUG
    )
    logger.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)


# --------------------------------------------------------------------------- input loading
def _load_network(args: argparse.Namespace) -> NetworkConfig:
    """Build the :class:`NetworkConfig` named by ``--topology`` and ``--config``/``--config-dir``."""
    topology = load_topology(args.topology)
    if getattr(args, "config", None):
        text = FilePath(args.config).read_text()
        return parse_config(topology, text)
    if getattr(args, "config_dir", None):
        directory = FilePath(args.config_dir)
        if not directory.is_dir():
            raise CliError(f"--config-dir {directory} is not a directory")
        network = NetworkConfig(topology)
        config_files = sorted(directory.glob("*.cfg"))
        if not config_files:
            raise CliError(f"no *.cfg files in {directory}")
        for config_file in config_files:
            device_name = config_file.stem
            if device_name not in topology:
                raise CliError(
                    f"config file {config_file.name} does not match any topology device"
                )
            network.set_device(parse_device_config(device_name, config_file.read_text()))
        network.validate()
        return network
    raise CliError("one of --config or --config-dir is required")


def _split_list(value: Optional[str]) -> List[str]:
    """Split a comma-separated CLI value, dropping empty entries."""
    if not value:
        return []
    return [item.strip() for item in value.split(",") if item.strip()]


def _parse_destination_prefix(value: Optional[str]) -> Optional[Prefix]:
    if value is None:
        return None
    text = value if "/" in value else value + "/32"
    try:
        return Prefix(text)
    except Exception as exc:
        raise CliError(f"bad destination prefix {value!r}: {exc}") from exc


def _policy_spec(args: argparse.Namespace) -> Dict[str, object]:
    """The wire-format policy spec of the ``--policy`` flags.

    In local mode the spec is materialised immediately via
    :func:`repro.serve.specs.policy_from_spec`; in ``--server`` mode it is
    shipped verbatim, so both paths construct the policy identically.
    """
    spec: Dict[str, object] = {"policy": args.policy}
    if args.sources:
        spec["sources"] = _split_list(args.sources)
    if args.waypoints:
        spec["waypoints"] = _split_list(args.waypoints)
    protected = _split_list(getattr(args, "protected", None))
    if protected:
        spec["protected"] = protected
    if args.destination_prefix:
        spec["destination_prefix"] = args.destination_prefix
    if getattr(args, "max_hops", None) is not None:
        spec["max_hops"] = args.max_hops
    if getattr(args, "any_branch", False):
        spec["any_branch"] = True
    return spec


def _build_policy(args: argparse.Namespace, network: NetworkConfig) -> Policy:
    """Instantiate the policy selected by ``--policy`` and its options."""
    from repro.serve.specs import policy_from_spec

    try:
        return policy_from_spec(_policy_spec(args), network)
    except SpecError as exc:
        raise CliError(str(exc)) from exc


def _options_spec(args: argparse.Namespace) -> Dict[str, object]:
    """The wire-format options spec of the engine flags (shared local/remote)."""
    spec: Dict[str, object] = {
        "max_failures": args.max_failures,
        "cores": args.cores,
        "backend": args.backend,
        "stop_at_first_violation": not args.all_violations,
        "task_timeout": args.task_timeout,
        "task_retries": args.task_retries,
    }
    if getattr(args, "no_optimizations", False):
        spec["no_optimizations"] = True
    return spec


def _build_options(args: argparse.Namespace) -> PlanktonOptions:
    from repro.serve.specs import options_from_spec

    try:
        return options_from_spec(_options_spec(args))
    except SpecError as exc:
        raise CliError(str(exc)) from exc


# --------------------------------------------------------------------------- subcommands
def _print_verify_result(args: argparse.Namespace, result, policy) -> None:
    if args.json:
        from repro.reporting import verify_document

        print(json.dumps(verify_document(result, policy.name), indent=2))
    else:
        print(result.summary())
        if result.incremental is not None:
            print(result.incremental.describe())
        for violation in result.violations:
            print()
            print(violation.render())
        for failure in result.errors:
            print()
            print(failure.render())


def _verify_exit_code(result) -> int:
    """Verdict → exit code: violation beats partial beats holds."""
    if not result.holds:
        return EXIT_VIOLATION
    if getattr(result, "errors", None):
        return EXIT_ERROR
    return EXIT_HOLDS


# --------------------------------------------------------------------------- server mode
_VERDICT_EXIT_CODES = {"holds": EXIT_HOLDS, "violated": EXIT_VIOLATION, "partial": EXIT_ERROR}


def _remote_client(args: argparse.Namespace):
    from repro.client import ServiceClient

    return ServiceClient(args.server)


def _remote_namespace(args: argparse.Namespace) -> str:
    return getattr(args, "namespace", None) or "default"


def _network_payload(args: argparse.Namespace) -> Dict[str, object]:
    """The full-config push payload of ``--topology`` + ``--config``/``--config-dir``.

    The topology file may be DSL text or JSON; it is normalised through the
    regular loader and re-serialised so the server always receives canonical
    topology text.
    """
    from repro.topology.io import format_topology

    topology_text = format_topology(load_topology(args.topology))
    if getattr(args, "config", None):
        return {"topology": topology_text, "config": FilePath(args.config).read_text()}
    if getattr(args, "config_dir", None):
        directory = FilePath(args.config_dir)
        if not directory.is_dir():
            raise CliError(f"--config-dir {directory} is not a directory")
        config_files = sorted(directory.glob("*.cfg"))
        if not config_files:
            raise CliError(f"no *.cfg files in {directory}")
        sections = [
            f"device {config_file.stem}\n{config_file.read_text()}"
            for config_file in config_files
        ]
        return {"topology": topology_text, "config": "\n".join(sections)}
    raise CliError("one of --config or --config-dir is required")


def _remote_result(args: argparse.Namespace, payload: Dict[str, object]) -> Dict[str, object]:
    """Push one job and wait for its result payload; failed jobs raise."""
    document = _remote_client(args).run(_remote_namespace(args), payload)
    if document.get("state") == "failed":
        raise CliError(f"server job {document.get('job')} failed: {document.get('error')}")
    result = document.get("result")
    if not isinstance(result, dict):
        raise ServerProtocolError(
            f"finished job {document.get('job')} carries no result payload"
        )
    return result


def _write_remote_report(path: str, result: Dict[str, object]) -> None:
    """Mirror :func:`repro.reporting.write_report`'s suffix dispatch using the
    server-rendered report documents."""
    file_path = FilePath(path)
    if file_path.suffix.lower() == ".json":
        file_path.write_text(json.dumps(result["report"], indent=2) + "\n")
    else:
        file_path.write_text(str(result["markdown"]))


def _print_remote_result(args: argparse.Namespace, result: Dict[str, object]) -> int:
    if args.report:
        _write_remote_report(args.report, result)
    if args.json:
        print(json.dumps(result["document"], indent=2))
    else:
        print(result["text"])
    return _VERDICT_EXIT_CODES.get(str(result.get("verdict")), EXIT_ERROR)


def _remote_verify(args: argparse.Namespace) -> int:
    payload = dict(_network_payload(args))
    payload.update(
        {"kind": "verify", "policies": [_policy_spec(args)], "options": _options_spec(args)}
    )
    return _print_remote_result(args, _remote_result(args, payload))


def _remote_diff_verify(args: argparse.Namespace) -> int:
    from repro.topology.io import format_topology

    topology_text = format_topology(load_topology(args.topology))
    common = {"kind": "verify", "policies": [_policy_spec(args)], "options": _options_spec(args)}
    old_payload = dict(common, topology=topology_text, config=FilePath(args.old_config).read_text())
    new_payload = dict(common, topology=topology_text, config=FilePath(args.new_config).read_text())

    old_result = _remote_result(args, old_payload)
    new_result = _remote_result(args, new_payload)
    delta_summary = new_result.get("delta", "no configuration changes")

    if args.report:
        _write_remote_report(args.report, new_result)
    if args.json:
        document = {
            "old": old_result["document"],
            "new": new_result["document"],
            "delta": delta_summary,
        }
        print(json.dumps(document, indent=2))
    else:
        old_lines = str(old_result["text"]).splitlines()
        print(f"old configuration: {old_lines[0] if old_lines else ''}")
        print()
        print(f"config delta: {delta_summary}")
        print()
        new_text = str(new_result["text"]).splitlines()
        if new_text:
            print(f"new configuration: {new_text[0]}")
            for line in new_text[1:]:
                print(line)
    return _VERDICT_EXIT_CODES.get(str(new_result.get("verdict")), EXIT_ERROR)


def _remote_transient(args: argparse.Namespace) -> int:
    payload = dict(_network_payload(args))
    payload.update(
        {
            "kind": "transient",
            "options": _options_spec(args),
            "transient": _transient_spec(args),
            "property": _transient_property_spec(args),
        }
    )
    if args.fail_session:
        payload["fail_session"] = args.fail_session
    if args.scenario:
        payload["scenarios"] = list(args.scenario)
    if args.destination_prefix:
        payload["destination_prefix"] = args.destination_prefix
    return _print_remote_result(args, _remote_result(args, payload))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the verification service until SIGTERM/SIGINT/Ctrl-C."""
    import signal

    from repro.serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.workers,
        queue_depth=args.queue_depth,
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _signum, _frame: server.request_stop())
    # Announce the bound address (port 0 binds an ephemeral port) before
    # blocking, so wrappers can scrape the URL from the first stdout line.
    print(f"repro serve listening on {server.url}", flush=True)
    server.serve_forever()
    return EXIT_HOLDS


def _cmd_verify(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        return _remote_verify(args)
    network = _load_network(args)
    policy = _build_policy(args, network)
    options = _build_options(args)
    if getattr(args, "cache_dir", None):
        from repro.incremental import IncrementalVerifier

        result = IncrementalVerifier(network, options, cache_dir=args.cache_dir).verify(
            policy
        )
    else:
        result = Plankton(network, options).verify(policy)

    if args.report:
        from repro.reporting import write_report

        write_report(result, args.report, title=f"{policy.name} on {network.topology.name}")

    _print_verify_result(args, result, policy)
    return _verify_exit_code(result)


def _cmd_diff_verify(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        return _remote_diff_verify(args)
    from repro.incremental import IncrementalVerifier

    old_network = parse_config(load_topology(args.topology), FilePath(args.old_config).read_text())
    new_network = parse_config(load_topology(args.topology), FilePath(args.new_config).read_text())
    policy = _build_policy(args, new_network)
    options = _build_options(args)

    service = IncrementalVerifier(
        old_network, options, cache_dir=getattr(args, "cache_dir", None) or None
    )
    old_result = service.verify(policy)
    delta = service.update(new_network)
    new_result = service.verify(policy)

    if args.report:
        from repro.reporting import write_report

        write_report(
            new_result,
            args.report,
            title=f"{policy.name} on {new_network.topology.name} (incremental)",
        )

    if args.json:
        from repro.reporting import verify_document

        document = {
            "old": verify_document(old_result, policy.name),
            "new": verify_document(new_result, policy.name),
            "delta": delta.summary(),
        }
        print(json.dumps(document, indent=2))
    else:
        print(f"old configuration: {old_result.summary()}")
        print()
        print(delta.describe())
        print()
        print(f"new configuration: {new_result.summary()}")
        if new_result.incremental is not None:
            print(new_result.incremental.describe())
        for violation in new_result.violations:
            print()
            print(violation.render())
        for failure in new_result.errors:
            print()
            print(failure.render())
    return _verify_exit_code(new_result)


def _parse_scenario(spec: str, network):
    """Parse one ``--scenario`` value into a lifecycle :class:`Scenario`
    (delegates to the shared wire-format parser in :mod:`repro.serve.specs`)."""
    from repro.serve.specs import scenario_from_spec

    try:
        return scenario_from_spec(spec, network)
    except SpecError as exc:
        raise CliError(str(exc)) from exc


def _transient_spec(args: argparse.Namespace) -> Dict[str, object]:
    """The wire-format transient-options spec of the exploration flags."""
    spec: Dict[str, object] = {
        "max_states": args.max_states,
        "max_depth": args.max_depth,
        "stop_at_first_violation": not args.all_violations,
        "por": args.por,
        "frontier": args.frontier,
        "minimize_witnesses": args.minimize_witness,
        "rank_immunity": not args.no_rank_immunity,
        "scenario_events": args.scenario_events,
    }
    if args.scenario_kinds:
        spec["scenario_kinds"] = args.scenario_kinds
    return spec


def _transient_property_spec(args: argparse.Namespace) -> Dict[str, object]:
    """The wire-format transient-property spec of ``--property`` et al."""
    spec: Dict[str, object] = {"property": args.property}
    if args.sources:
        spec["sources"] = _split_list(args.sources)
    if args.include_converged:
        spec["include_converged"] = True
    return spec


def _cmd_transient(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        return _remote_transient(args)

    from repro.incremental import IncrementalVerifier
    from repro.serve.specs import (
        fail_session_events,
        scenarios_from_specs,
        transient_options_from_spec,
        transient_property_from_spec,
    )

    network = _load_network(args)
    options = _build_options(args)
    try:
        prop = transient_property_from_spec(_transient_property_spec(args), network)
        initial_events = fail_session_events(args.fail_session, network)
        scenarios = scenarios_from_specs(args.scenario, network)
        transient_options = transient_options_from_spec(_transient_spec(args))
    except SpecError as exc:
        raise CliError(str(exc)) from exc

    destination = _parse_destination_prefix(args.destination_prefix)

    service = IncrementalVerifier(
        network, options, cache_dir=getattr(args, "cache_dir", None) or None
    )
    bgp_pecs = [pec for pec in service.plankton.pecs if pec.has_bgp()]
    pecs = bgp_pecs
    if destination is not None:
        target = destination.to_range()
        pecs = [pec for pec in bgp_pecs if pec.address_range.overlaps(target)]
    if pecs:
        campaign = service.verify_transients(
            [prop],
            transient=transient_options,
            initial_events=initial_events,
            scenarios=scenarios,
            pecs=pecs,
        )
    else:
        # Nothing to analyse still honours --json/--report: emit an empty
        # (vacuously holding) campaign document instead of bare text.
        from repro.transient import TransientCampaignResult

        campaign = TransientCampaignResult()
        if not args.json:
            if bgp_pecs:
                print(
                    f"--destination-prefix {args.destination_prefix} matches no "
                    "BGP-originated PEC; nothing to analyse"
                )
            else:
                print("no BGP-originated prefixes to analyse")

    if args.report:
        from repro.reporting import write_transient_report

        write_transient_report(
            campaign,
            args.report,
            title=f"Transient analysis of {network.topology.name}",
        )

    if args.json:
        from repro.reporting import transient_campaign_to_dict

        print(json.dumps(transient_campaign_to_dict(campaign), indent=2))
    else:
        print(campaign.summary())
        if campaign.incremental is not None:
            print(campaign.incremental.describe())
        for violation in campaign.violations:
            print()
            print(violation.render())
        for failure in campaign.errors:
            print()
            print(failure.render())
    return _verify_exit_code(campaign)


def _cmd_pecs(args: argparse.Namespace) -> int:
    network = _load_network(args)
    pecs = compute_pecs(network)
    graph = build_dependency_graph(network, pecs)
    print(f"{len(pecs)} packet equivalence class(es)")
    for pec in pecs:
        print(pec.describe())
    print()
    print("dependency graph (PEC index -> depends on):")
    any_dependency = False
    for pec in pecs:
        dependencies = sorted(graph.dependencies_of(pec.index) - {pec.index})
        if dependencies:
            any_dependency = True
            print(f"  {pec.index} -> {', '.join(str(d) for d in dependencies)}")
    if not any_dependency:
        print("  (no cross-PEC dependencies)")
    sccs = [scc for scc in graph.strongly_connected_components() if len(scc) > 1]
    if sccs:
        print("strongly connected components larger than one PEC:")
        for scc in sccs:
            print(f"  {sorted(scc)}")
    return EXIT_HOLDS


def _cmd_simulate(args: argparse.Namespace) -> int:
    network = _load_network(args)
    simulator = SimulationVerifier(network, seed=args.seed)
    pecs = compute_pecs(network)
    printed = 0
    for pec in pecs:
        if pec.is_empty:
            continue
        result = simulator.check(LoopFreedom(destination_prefix=pec.most_specific_prefix))
        printed += 1
        print(pec.describe())
        explorer_result = _single_pec_data_plane(network, pec, args.seed)
        print(explorer_result)
        print()
    if printed == 0:
        print("no configured prefixes; nothing to simulate")
    return EXIT_HOLDS


def _single_pec_data_plane(network: NetworkConfig, pec, seed: int) -> str:
    """One simulated converged data plane of ``pec``, rendered as text."""
    from repro.core.network_model import DependencyContext, PecExplorer
    from repro.protocols.spvp import SpvpSimulator
    from repro.topology.failures import FailureScenario

    explorer = PecExplorer(
        network, pec, FailureScenario(), PlanktonOptions(), dependency_context=DependencyContext()
    )
    bgp_states: Dict = {}
    for prefix, devices in pec.bgp_origins:
        if not devices:
            continue
        instance = explorer.bgp_instance(prefix)
        bgp_states[prefix] = SpvpSimulator(instance, seed=seed).run()
    data_plane, _control = explorer.build_data_plane(bgp_states)
    return data_plane.describe()


def _cmd_trace(args: argparse.Namespace) -> int:
    network = _load_network(args)
    if args.source not in network.topology:
        raise CliError(f"unknown source device {args.source!r}")
    try:
        address = ip_to_int(args.destination)
    except Exception as exc:
        raise CliError(f"bad destination address {args.destination!r}: {exc}") from exc

    pecs = compute_pecs(network, include_default=True)
    target_pec = None
    for pec in pecs:
        if pec.address_range.contains_address(address):
            target_pec = pec
            break
    if target_pec is None or target_pec.is_empty:
        print(f"{args.destination}: no configured prefix covers this address; dropped everywhere")
        return EXIT_HOLDS

    print(f"destination {args.destination} falls into:")
    print(target_pec.describe())
    data_plane_text = _single_pec_data_plane(network, target_pec, args.seed)

    from repro.core.network_model import DependencyContext, PecExplorer
    from repro.protocols.spvp import SpvpSimulator
    from repro.topology.failures import FailureScenario

    explorer = PecExplorer(
        network,
        target_pec,
        FailureScenario(),
        PlanktonOptions(),
        dependency_context=DependencyContext(),
    )
    bgp_states: Dict = {}
    for prefix, devices in target_pec.bgp_origins:
        if not devices:
            continue
        instance = explorer.bgp_instance(prefix)
        bgp_states[prefix] = SpvpSimulator(instance, seed=args.seed).run()
    data_plane, _control = explorer.build_data_plane(bgp_states)

    print()
    print(f"forwarding branches from {args.source}:")
    for branch in trace_paths(data_plane, args.source, address):
        print(f"  {branch.describe()}")
    if args.show_fibs:
        print()
        print(data_plane_text)
    return EXIT_HOLDS


# --------------------------------------------------------------------------- argument parsing
def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", required=True, help="topology file (.topo text or .json)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="multi-device configuration file (DSL)")
    group.add_argument(
        "--config-dir", help="directory of per-device <device>.cfg configuration files"
    )


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        required=True,
        choices=[
            "reachability",
            "loop",
            "blackhole",
            "waypoint",
            "segmentation",
            "bounded-path-length",
            "multipath-consistency",
            "path-consistency",
        ],
    )
    parser.add_argument("--sources", help="comma-separated source devices")
    parser.add_argument("--waypoints", help="comma-separated waypoint devices")
    parser.add_argument("--protected", help="comma-separated protected devices (segmentation)")
    parser.add_argument("--destination-prefix", help="restrict the check to one destination prefix")
    parser.add_argument("--max-hops", type=int, help="hop budget for bounded-path-length")
    parser.add_argument(
        "--any-branch",
        action="store_true",
        help="reachability: accept delivery on any ECMP branch instead of all branches",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-failures", type=int, default=0, help="link-failure budget")
    parser.add_argument("--cores", type=int, default=1, help="worker processes for PEC tasks")
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_CHOICES),
        default="auto",
        help="execution engine backend (auto: process pool when --cores > 1)",
    )
    parser.add_argument(
        "--all-violations",
        action="store_true",
        help="keep searching after the first violation",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help=(
            "per-task deadline in seconds; a task that overruns is retried "
            "and, on exhaustion, reported in the result's errors section"
        ),
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        default=2,
        help="retries per failed/timed-out task before it is recorded as failed",
    )
    parser.add_argument(
        "--cache-dir",
        help="directory for the persistent incremental result cache (warm restarts)",
    )
    parser.add_argument(
        "--server",
        help=(
            "run against a repro serve instance at this URL instead of "
            "in-process (e.g. http://127.0.0.1:8080); exit code 3 when the "
            "server is unreachable"
        ),
    )
    parser.add_argument(
        "--namespace",
        default=None,
        help="server namespace (warm session) to push into (default: 'default')",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--report",
        help="also write a report file (.json for structured output, anything else for Markdown)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and documentation tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Plankton-style network configuration verification",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help=(
            "surface the engine's event stream on stderr (-v: supervision "
            "events — retries, timeouts, pool rebuilds, cache cold starts; "
            "-vv: per-task debug)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify = subparsers.add_parser("verify", help="verify a policy over all converged data planes")
    _add_input_arguments(verify)
    _add_policy_arguments(verify)
    _add_engine_arguments(verify)
    verify.add_argument(
        "--no-optimizations",
        action="store_true",
        help="disable the §4 optimizations (naive model checking; for ablation only)",
    )
    verify.set_defaults(handler=_cmd_verify)

    diff_verify = subparsers.add_parser(
        "diff-verify",
        help="verify OLD, then incrementally re-verify NEW (only impacted PECs recomputed)",
    )
    diff_verify.add_argument("old_config", help="the old multi-device configuration file")
    diff_verify.add_argument("new_config", help="the new multi-device configuration file")
    diff_verify.add_argument(
        "--topology", required=True, help="topology file (.topo text or .json)"
    )
    _add_policy_arguments(diff_verify)
    _add_engine_arguments(diff_verify)
    diff_verify.add_argument(
        "--no-optimizations",
        action="store_true",
        help="disable the §4 optimizations (naive model checking; for ablation only)",
    )
    diff_verify.set_defaults(handler=_cmd_diff_verify)

    transient = subparsers.add_parser(
        "transient",
        help="explore SPVP interleavings and check transient properties",
    )
    _add_input_arguments(transient)
    transient.add_argument(
        "--property",
        choices=["loop", "blackhole"],
        default="loop",
        help="transient property to check (default: loop)",
    )
    transient.add_argument(
        "--sources", help="blackhole: restrict the check to these source devices"
    )
    transient.add_argument(
        "--destination-prefix", help="restrict the analysis to PECs covering this prefix"
    )
    transient.add_argument(
        "--include-converged",
        action="store_true",
        help="loop: also flag loops that persist in converged states",
    )
    transient.add_argument(
        "--max-states", type=int, default=20_000, help="state budget per exploration"
    )
    transient.add_argument(
        "--max-depth", type=int, default=64, help="delivery-depth budget per exploration"
    )
    transient.add_argument(
        "--por",
        choices=["ample", "sleep", "full"],
        default="ample",
        help="partial-order reduction mode (full = unreduced oracle)",
    )
    transient.add_argument(
        "--frontier",
        choices=["fifo", "priority"],
        default="fifo",
        help="exploration order (priority drains convergence chains first)",
    )
    transient.add_argument(
        "--minimize-witness",
        action="store_true",
        help="shrink violation witnesses by dropping independent deliveries",
    )
    transient.add_argument(
        "--no-rank-immunity",
        action="store_true",
        help=(
            "disable the rank-bound session-immunity refinement of the ample "
            "reduction (por=ample only; escape hatch for A/B comparisons)"
        ),
    )
    transient.add_argument(
        "--fail-session",
        help="converge, then flap the session between these two devices (A,B)",
    )
    transient.add_argument(
        "--scenario",
        action="append",
        help=(
            "lifecycle scenario to cross with every failure scenario; "
            "KIND:ARGS parts joined with + (crash:NODE, restart:NODE, "
            "drain:NODE, return:NODE, maintenance:NODE, flap:A,B, gray:A,B); "
            "repeatable, one campaign scenario per flag"
        ),
    )
    transient.add_argument(
        "--scenario-events",
        type=int,
        default=0,
        help=(
            "enumerate all symmetry-reduced lifecycle scenarios of up to K "
            "events and cross them with every failure scenario (default: 0)"
        ),
    )
    transient.add_argument(
        "--scenario-kinds",
        help=(
            "restrict --scenario-events to these event kinds "
            "(comma-separated: crash, restart, drain, maintenance, flap, gray)"
        ),
    )
    _add_engine_arguments(transient)
    transient.set_defaults(handler=_cmd_transient)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived verification service (warm incremental sessions over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 binds an ephemeral port)"
    )
    serve.add_argument(
        "--cache-dir",
        help="root directory for per-namespace persistent result caches",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="verification worker threads (default: 2)"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admission control: maximum queued jobs before pushes get HTTP 429",
    )
    serve.set_defaults(handler=_cmd_serve)

    pecs = subparsers.add_parser("pecs", help="show packet equivalence classes and dependencies")
    _add_input_arguments(pecs)
    pecs.set_defaults(handler=_cmd_pecs)

    simulate = subparsers.add_parser("simulate", help="single-execution simulation; dump FIBs")
    _add_input_arguments(simulate)
    simulate.add_argument("--seed", type=int, default=0, help="message-ordering seed")
    simulate.set_defaults(handler=_cmd_simulate)

    trace = subparsers.add_parser("trace", help="trace one packet through the simulated data plane")
    _add_input_arguments(trace)
    trace.add_argument("--source", required=True, help="source device")
    trace.add_argument("--destination", required=True, help="destination IPv4 address")
    trace.add_argument("--seed", type=int, default=0, help="message-ordering seed")
    trace.add_argument("--show-fibs", action="store_true", help="also dump the simulated FIBs")
    trace.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return int(args.handler(args))
    except (ServiceUnavailable, ServerProtocolError) as exc:
        # Transport-layer failures get their own exit code so CI can tell
        # "the check failed" apart from "the checking service failed".
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except (CliError, ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
