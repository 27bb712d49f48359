"""The program's layer boundaries, and how the traced run turns spans into metrics.

:func:`install` wraps each public function named in :data:`SPANS` /
:data:`TIMERS` where its caller looks it up.  The per-layer metrics of the
traced run are per-operation means over the traced operations; every ``_s``
layer metric is *self* time, so the layers of one operation add up to its
root span (the remainder is ``trace.unattributed_ratio``).
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.spans import Span, Tracer, layer_calls, layer_self_times
from perfbench.stats import ratio

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class; a plain one names a module global.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "parse_config", "config.parse"),
    ("repro.cli", "_print_verify_result", "reporting.render"),
    ("repro.config.parser", "parse_config", "config.parse"),
    ("repro.config.parser", "parse_device_config", "config.parse"),
    ("repro.topology.io", "parse_topology", "topology.parse"),
    ("repro.core.verifier", "Plankton.__init__", "core.plankton_init"),
    ("repro.core.verifier", "Plankton.verify", "core.verify"),
    ("repro.core.verifier", "compute_pecs", "pec.compute"),
    ("repro.core.verifier", "build_dependency_graph", "pec.dependency_graph"),
    ("repro.protocols.ospf", "OspfComputation.compute", "ospf.compute"),
    ("repro.engine", "build_task_graph", "engine.task_graph"),
    ("repro.engine.graph", "build_transient_task_graph", "engine.task_graph"),
    ("repro.engine.backends", "SerialBackend.execute", "engine.execute"),
    ("repro.engine.worker", "execute_task", "engine.task"),
    ("repro.core.network_model", "PecExplorer.explore", "network_model.explore"),
    ("repro.core.network_model", "PecExplorer.build_data_plane", "network_model.data_plane"),
    ("repro.modelcheck.explorer", "Explorer.run", "modelcheck.run"),
    ("repro.incremental.service", "IncrementalVerifier.update", "incremental.update"),
    ("repro.incremental.service", "diff_networks", "incremental.delta"),
    ("repro.incremental.service", "impacted_pecs", "incremental.impact"),
    ("repro.incremental.service", "IncrementalVerifier.verify", "incremental.verify"),
    ("repro.incremental.cache", "ResultCache.save", "incremental.cache_save"),
    ("repro.serve.http", "execute_job", "serve.execute"),
    ("repro.serve.registry", "network_from_payload", "serve.compose"),
    ("repro.serve.jobs", "_verify_result_payload", "reporting.render"),
    ("repro.client", "ServiceClient.push", "serve.push"),
    ("repro.client", "ServiceClient.wait", "client.wait"),
    ("repro.client", "ServiceClient.job", "client.poll"),
    ("repro.scenarios.enumerator", "enumerate_event_scenarios", "scenarios.enumerate"),
    ("repro.transient.explorer", "TransientAnalyzer.analyze", "transient.analyze"),
)

#: Entered once per explored state: accumulated, never recorded as spans.
TIMERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.successors", "CandidateEngine.candidates", "successors.candidates"),
    ("repro.core.determinism", "BgpDeterminism.analyze", "determinism.decide"),
    ("repro.core.determinism", "BgpDeterminism.decisions_are_stable", "determinism.stability"),
)

#: Policies whose ``check`` is wrapped as ``policies.check``.
POLICY_MODULE = "repro.policies"

#: Self-time metric of each span name (names without one only feed parents).
SELF_TIME_METRICS = {
    "cli.startup": "cli.startup_s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_self_s",
    "reporting.render": "reporting.render_s",
    "config.parse": "config.parse_s",
    "topology.parse": "topology.parse_s",
    "core.plankton_init": "core.plankton_init_s",
    "core.verify": "core.verify_s",
    "pec.compute": "pec.compute_s",
    "pec.dependency_graph": "pec.dependency_graph_s",
    "ospf.compute": "ospf.compute_s",
    "engine.task_graph": "engine.task_graph_s",
    "engine.execute": "engine.overhead_s",
    "engine.task": "engine.task_s",
    "network_model.explore": "network_model.explore_s",
    "network_model.data_plane": "network_model.data_plane_s",
    "modelcheck.run": "modelcheck.run_self_s",
    "policies.check": "policies.check_s",
    "incremental.update": "incremental.update_s",
    "incremental.delta": "incremental.delta_s",
    "incremental.impact": "incremental.impact_s",
    "incremental.verify": "incremental.verify_s",
    "incremental.cache_save": "incremental.cache_save_s",
    "serve.execute": "serve.execute_self_s",
    "serve.compose": "serve.compose_s",
    "serve.push": "serve.push_rtt_s",
    "client.wait": "client.wait_self_s",
    "client.poll": "client.poll_s",
    "transient.analyze": "transient.analyze_s",
    "trace.install": "trace.install_s",
}

CALL_METRICS = {
    "ospf.compute": "ospf.compute_calls",
    "engine.task": "engine.tasks",
    "network_model.data_plane": "network_model.data_plane_calls",
    "policies.check": "policies.check_calls",
}

TIMER_METRICS = {
    "successors.candidates": "successors.candidates_s",
    "determinism.decide": "determinism.decide_s",
    "determinism.stability": "determinism.stability_s",
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of :data:`SPANS`, :data:`TIMERS` and the policies."""
    for module_name, path, name in SPANS:
        owner, attribute = _resolve(module_name, path)
        tracer.wrap(owner, attribute, name)
    for module_name, path, name in TIMERS:
        owner, attribute = _resolve(module_name, path)
        tracer.time(owner, attribute, name)
    policies = importlib.import_module(POLICY_MODULE)
    from repro.policies.base import Policy

    for value in vars(policies).values():
        if isinstance(value, type) and issubclass(value, Policy) and "check" in vars(value):
            tracer.wrap(value, "check", "policies.check")


def span_metrics(spans: Sequence[Span], timers: Dict, ops: Sequence[str]) -> Dict[str, float]:
    """Per-op means of self times, call counts and timers over ``ops``."""
    wanted = set(ops)
    count = max(len(wanted), 1)
    in_ops = lambda op: op in wanted  # noqa: E731
    own = layer_self_times(spans, in_ops)
    calls = layer_calls(spans, in_ops)
    metrics: Dict[str, float] = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    metrics.update({metric: 0.0 for metric in CALL_METRICS.values()})
    metrics.update({metric: 0.0 for metric in TIMER_METRICS.values()})
    for name, seconds in own.items():
        if name in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[name]] += seconds / count
    for name, calls_made in calls.items():
        if name in CALL_METRICS:
            metrics[CALL_METRICS[name]] += calls_made / count
    for (op, name), (calls_made, seconds) in timers.items():
        if op in wanted and name in TIMER_METRICS:
            metrics[TIMER_METRICS[name]] += seconds / count
    roots = [span for span in spans if span.name == "op" and span.op in wanted]
    root_time = sum(span.duration for span in roots)
    metrics["trace.unattributed_ratio"] = (own.get("op", 0.0) / root_time) if root_time else 0.0
    metrics["trace.ops"] = float(len(wanted))
    return metrics


def traced_metrics(spans: Sequence[Span], timers: Dict, records: Sequence[Dict],
                   notes: Dict) -> Dict[str, float]:
    """Every per-layer metric of a traced run.

    ``records`` are the traced ops (each with the program's own statistics
    under ``stats``); ``notes`` carry the workload's set-up statistics.
    """
    ops = [record["op"] for record in records]
    in_ops = set(ops)
    metrics = span_metrics(spans, timers, ops)
    durations: Dict[str, float] = {}
    polls: Dict[Optional[str], List[float]] = {}
    for span in spans:
        if span.op in in_ops:
            durations[span.name] = durations.get(span.name, 0.0) + span.duration
            if span.name == "client.poll":
                polls.setdefault(span.op, []).append(span.start)
    gaps = [b - a for starts in polls.values() for a, b in zip(sorted(starts), sorted(starts)[1:])]
    metrics["scenarios.enumerate_s"] = sum(
        span.duration for span in spans if span.op == "setup" and span.name == "scenarios.enumerate"
    )
    metrics["client.polls_per_op"] = sum(len(starts) for starts in polls.values()) / len(ops)
    metrics["client.poll_gap_s"] = sum(gaps) / len(gaps) if gaps else 0.0
    metrics.update(program_metrics(records, notes, durations))
    return metrics


def program_metrics(records: Sequence[Dict], notes: Dict, durations: Dict[str, float]) -> Dict[str, float]:
    """Per-op means of the program's own statistics, and ratios with their bases.

    ``durations`` holds the summed span time per layer name, the
    denominators of the per-second rates.
    """
    count = len(records)
    sums: Dict[str, float] = {}
    for record in records:
        for key, value in record.get("stats", {}).items():
            sums[key] = sums.get(key, 0) + value
    mean = lambda key: sums.get(key, 0) / count  # noqa: E731
    rate = lambda key, layer: sums.get(key, 0) / durations[layer] if durations.get(layer) else 0.0  # noqa: E731
    metrics = {
        "pec.count": mean("pecs"),
        "modelcheck.states_expanded": mean("states_expanded"),
        "modelcheck.states_max_pec": mean("states_max_pec"),
        "modelcheck.approx_bytes": mean("approx_bytes"),
        "modelcheck.states_per_s": rate("states_expanded", "modelcheck.run"),
        "incremental.cache_bytes": float(records[-1].get("stats", {}).get("cache_bytes", 0)),
        "incremental.cache_grew_ratio": mean("cache_grew"),
        "serve.queue_wait_s": mean("queue_wait_s"),
        "serve.job_s": mean("job_s"),
        "scenarios.emitted": float(notes.get("scenarios", {}).get("emitted", 0)),
        "scenarios.brute": float(notes.get("scenarios", {}).get("brute", 0)),
        "transient.runs": mean("runs"),
        "transient.states_explored": mean("states_explored"),
        "transient.states_per_s": rate("states_explored", "transient.analyze"),
        "por.rank_immune_sessions": mean("rank_immune"),
        "por.depth_bound_gaps": mean("depth_gaps"),
    }
    # Each ratio is reported with its base (a per-op mean of the denominator).
    for name, numerator, base, base_name in (
        ("policies.pruned_ratio", "policy_suppressed", "policy_outcomes", "policies.outcomes"),
        ("incremental.dirty_pec_ratio", "pecs_recomputed", "pecs_total", "incremental.pecs_total"),
        ("incremental.cache_hit_ratio", "pecs_from_cache", "cache_lookups", "incremental.cache_lookups"),
        ("por.expanded_ratio", "transitions_expanded", "transitions_enabled", "por.transitions_enabled"),
    ):
        value = ratio(sums.get(numerator, 0), sums.get(base, 0))
        metrics[name], metrics[base_name] = value["value"], value["base"] / count
    return metrics
