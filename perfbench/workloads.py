"""The four workloads: inputs, one operation, and the verdict check of each op.

Each workload drives one public entry point and defines its operation:

* ``cli-ospf-fattree`` — one ``python -m repro verify --policy loop
  --max-failures 1 --json`` process on an OSPF fat tree with k=8.  The cold
  one-shot path operators run: import, parse, PEC partition, SPF and
  data-plane building carry it, and the model checker has no work.
* ``mc-ebgp-med`` — ``Plankton(network).verify(LoopFreedom())`` on a freshly
  parsed eBGP fat tree (k=4) whose rack ``edge0_0`` sets MED 1 on export.
  The model-checker workload: exploration, determinism and stability checks,
  BGP data-plane building and the policy check carry it.
* ``serve-edit-stream`` — one push of a seeded edit stream into an
  in-process ``repro serve`` daemon through ``ServiceClient``, closed loop,
  one client, one worker thread.  The incremental layer's traffic: delta,
  impact, fingerprints, cache reads and writes, HTTP and job dispatch.
* ``transient-scenarios`` — one ``analyze_pec_transients_over_failures``
  campaign over the 40 symmetry-reduced one-event lifecycle scenarios of one
  BGP PEC.  The only workload that runs ``transient``, ``protocols.spvp``,
  ``modelcheck.por`` and ``scenarios``.

Checks are verdict-level and never look at work counts, so a reduction that
explores fewer states is not a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from perfbench import edits, emit
from perfbench.spans import Span, Tracer

#: The checkout's source tree; the benchmark runs the program from it.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def verification_stats(result) -> Dict[str, float]:
    """Program statistics of one :class:`~repro.core.results.VerificationResult`."""
    per_pec: Dict[int, int] = {}
    checked = suppressed = 0
    for run in result.pec_runs:
        checked += run.checked_states
        suppressed += run.suppressed_states
        if run.statistics is not None:
            per_pec[run.pec_index] = per_pec.get(run.pec_index, 0) + run.statistics.states_expanded
    return {
        "pecs": result.pecs_analyzed,
        "states_expanded": result.total_states_expanded,
        "states_max_pec": max(per_pec.values(), default=0),
        "approx_bytes": result.approximate_memory_bytes,
        "policy_outcomes": checked + suppressed,
        "policy_suppressed": suppressed,
    }


def violation_keys(violations) -> List[List[str]]:
    """The verdict-level identity of a violation list: (policy, PEC, failures)."""
    return sorted([v["policy"], v["pec"], v["failures"]] for v in violations)


def result_verdict(result) -> Dict[str, object]:
    return {
        "holds": result.holds,
        "violations": violation_keys(
            {"policy": v.policy, "pec": v.pec_description, "failures": v.failure_description}
            for v in result.violations
        ),
    }


class Workload:
    """One workload: ``load`` and ``prepare`` are its set-up, ``run_op`` one op.

    ``load`` only imports what the op drives, so that a traced run can wrap
    the layer boundaries before ``prepare`` builds the inputs.
    """

    name = ""
    uses_seed = False
    #: Ops a run makes at least, whatever its length.
    min_ops = 1
    #: Whether the verification runs in child processes (their peak RSS counts).
    verifies_in_children = False
    #: Ops take about a second or more; ``run_op`` then reports the timed
    #: interval as ``started``/``ended`` (``perf_counter``), and the host
    #: speed is also timed during the op.
    long_ops = True

    def __init__(self, rundir: Path, seed: int, part: int = 0) -> None:
        self.rundir = rundir
        self.seed = seed
        #: Which of a run's measuring processes this is.
        self.part = part
        #: The expected verdicts, for workloads that compute them before timing.
        self.expected: Dict[str, object] = {}

    def load(self) -> None:
        import repro.engine  # noqa: F401  (the verify path imports it lazily)

    def prepare(self) -> None:
        """Build the inputs (part of set-up)."""

    def more_ops(self, done: int) -> bool:
        """Whether a run that has made ``done`` ops must go on though its time is up."""
        return False

    def run_op(self, index: int, tracer: Optional[Tracer]) -> Dict[str, object]:
        raise NotImplementedError

    def setup_failure(self) -> Optional[str]:
        """A wrong verdict produced during set-up, if any."""
        return None

    def close(self) -> None:
        pass

    def notes(self) -> Dict[str, object]:
        return {"seed_used": self.uses_seed}


@contextmanager
def traced_op(tracer: Optional[Tracer], index: int) -> Iterator[None]:
    """The root span of op ``index`` when tracing."""
    frame = tracer.begin_op(f"op{index}") if tracer is not None else None
    try:
        yield
    finally:
        if frame is not None:
            tracer.end_op(frame)


# --------------------------------------------------------------------------- cli
class CliOspfFatTree(Workload):
    name = "cli-ospf-fattree"
    verifies_in_children = True
    K = 8

    def load(self) -> None:
        import repro.topology.io  # noqa: F401

    def prepare(self) -> None:
        from repro.topology.io import format_topology

        network = emit.ospf_fat_tree(self.K)
        self.topology_file = self.rundir / "fattree.topo"
        self.config_file = self.rundir / "fattree.cfg"
        self.topology_file.write_text(format_topology(network.topology))
        self.config_file.write_text(emit.config_text(network))

    def argv(self) -> List[str]:
        return [
            "verify", "--topology", str(self.topology_file), "--config", str(self.config_file),
            "--policy", "loop", "--max-failures", "1", "--json",
        ]

    def run_op(self, index: int, tracer: Optional[Tracer]) -> Dict[str, object]:
        spans_file = self.rundir / f"spans-{index}.json"
        if tracer is None:
            command = [sys.executable, "-m", "repro", *self.argv()]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(spans_file), *self.argv()]
        start = time.perf_counter()
        process = subprocess.run(command, capture_output=True, text=True, env=program_env(), cwd=self.rundir)
        end = time.perf_counter()
        record: Dict[str, object] = {
            "op_s": end - start, "wait_s": end - start, "ok": False, "started": start, "ended": end,
        }
        try:
            document = json.loads(process.stdout)
        except ValueError:
            record["reason"] = f"exit {process.returncode}, no JSON: {process.stderr.strip()[-200:]}"
            return record
        record["ok"] = process.returncode == 0 and document.get("holds") is True
        if not record["ok"]:
            record["reason"] = f"exit {process.returncode}, holds {document.get('holds')}"
        if tracer is not None:
            record["stats"] = self._adopt(tracer, index, start, end, json.loads(spans_file.read_text()))
            spans_file.unlink()
        return record

    @staticmethod
    def _adopt(tracer: Tracer, index: int, start: float, end: float, child: Dict) -> Dict:
        """Take the child interpreter's spans in under a root span of the whole process."""
        op = f"op{index}"
        root = tracer.add("op", start, end, op=op)
        tracer.add("cli.startup", start, child["started"], parent=root, op=op)
        tracer.adopt([Span(*fields) for fields in child["spans"]], op, root)
        for name, (calls, seconds) in child["timers"].items():
            entry = tracer.timers[(op, name)]
            entry[0] += calls
            entry[1] += seconds
        return child["stats"]


# --------------------------------------------------------------------------- model checker
class McEbgpMed(Workload):
    name = "mc-ebgp-med"
    #: An op takes seconds; each process makes at least two.
    min_ops = 2

    def prepare(self) -> None:
        from repro.topology.io import format_topology

        network = emit.with_med(emit.ebgp_fat_tree(4))
        self.topology_text = format_topology(network.topology)
        self.config_text = emit.config_text(network)
        self.parse()

    def parse(self):
        from repro.config.parser import parse_config
        from repro.topology.io import parse_topology

        return parse_config(parse_topology(self.topology_text), self.config_text)

    def run_op(self, index: int, tracer: Optional[Tracer]) -> Dict[str, object]:
        from repro import Plankton
        from repro.policies import LoopFreedom

        network = self.parse()
        with traced_op(tracer, index):
            start = time.perf_counter()
            result = Plankton(network).verify(LoopFreedom())
            end = time.perf_counter()
        ok = result.holds and not result.violations and not result.errors
        record = {
            "op_s": end - start, "wait_s": end - start, "ok": ok, "started": start, "ended": end,
            "stats": verification_stats(result),
        }
        if not ok:
            record["reason"] = f"holds {result.holds}, {len(result.violations)} violation(s)"
        return record


# --------------------------------------------------------------------------- serve
class ServeEditStream(Workload):
    name = "serve-edit-stream"
    uses_seed = True
    long_ops = False
    #: The three measuring processes of a run make at least 100 pushes between them.
    min_ops = 34
    NAMESPACE = "bench"

    def load(self) -> None:
        import repro.client  # noqa: F401
        import repro.serve  # noqa: F401

    def prepare(self) -> None:
        from repro.client import ServiceClient
        from repro.serve import ReproServer

        self.pushes = edits.EditStream(self.seed, self.part)
        self.cache_file = self.rundir / "cache" / self.NAMESPACE / "plankton_cache.json"
        self.server = ReproServer(port=0, workers=1, cache_dir=str(self.rundir / "cache")).start()
        self.client = ServiceClient(self.server.url)
        self.cold = self.client.run(self.NAMESPACE, edits.payload(edits.BASE), timeout=120)
        if self.cold.get("state") != "done":
            raise RuntimeError(f"cold push failed: {self.cold.get('error')}")
        self.cache_bytes = self.cache_file.stat().st_size

    def more_ops(self, done: int) -> bool:
        # Stop only at a block boundary, so every run has the stream's mix.
        return done % (2 * edits.BLOCK) != 0

    def setup_failure(self) -> Optional[str]:
        return self._mismatch(self.cold, edits.BASE)

    def _mismatch(self, document: Dict, network: str) -> Optional[str]:
        if document.get("state") != "done":
            return f"job {document.get('state')}: {document.get('error')}"
        produced = document["result"]["document"]
        got = {"holds": produced["holds"], "violations": violation_keys(produced["violations"])}
        if got != self.expected[network]:
            return f"verdict {got} != cold verify {self.expected[network]}"
        return None

    def run_op(self, index: int, tracer: Optional[Tracer]) -> Dict[str, object]:
        from repro.exceptions import ReproError

        push = self.pushes[index]
        with traced_op(tracer, index):
            pushed_at = time.time()
            start = time.perf_counter()
            try:
                receipt = self.client.push(self.NAMESPACE, push["payload"])
                document = self.client.wait(receipt["job"], timeout=120)
            except ReproError as exc:  # HTTP errors and 429s count as failed ops
                document = {"state": "failed", "error": str(exc)}
            end = time.perf_counter()
        finished = document.get("finished_at", time.time())
        record: Dict[str, object] = {"op_s": finished - pushed_at, "wait_s": end - start, "edit": push["edit"]}
        reason = self._mismatch(document, push["network"])
        record["ok"] = reason is None
        if reason is not None:
            record["reason"] = reason
            return record
        incremental = document["result"]["document"]["incremental"]
        total = incremental["pecs_total"]
        cache_bytes = self.cache_file.stat().st_size
        record["stats"] = {
            "pecs": document["result"]["document"]["pecs_analyzed"],
            "pecs_total": total,
            "pecs_recomputed": incremental["pecs_recomputed"],
            "pecs_from_cache": incremental["pecs_from_cache"],
            # Impact-dirty PECs are recomputed without a cache lookup.
            "cache_lookups": total - len([p for p in incremental["impacted_pecs"] if p < total]),
            "cache_bytes": cache_bytes,
            "cache_grew": int(cache_bytes > self.cache_bytes),
            "queue_wait_s": document["started_at"] - document["created_at"],
            "job_s": document["finished_at"] - document["started_at"],
        }
        self.cache_bytes = cache_bytes
        return record

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()

    def notes(self) -> Dict[str, object]:
        return {
            "seed_used": True,
            "push_list_sha256": edits.stream_digest(self.pushes.pushes),
            "pushes_generated": len(self.pushes.pushes),
        }


# --------------------------------------------------------------------------- transient
class TransientScenarios(Workload):
    name = "transient-scenarios"
    MAX_DEPTH = 6

    def load(self) -> None:
        super().load()
        import repro.scenarios  # noqa: F401
        import repro.transient  # noqa: F401

    def prepare(self) -> None:
        from repro import Plankton, PlanktonOptions
        from repro.engine.graph import event_scenarios_for_pec
        from repro.scenarios import ScenarioLedger
        from repro.transient import TransientOptions

        self.network = emit.ebgp_fat_tree(4)
        self.plankton = Plankton(self.network, PlanktonOptions(stop_at_first_violation=False))
        self.pec = next(pec for pec in self.plankton.pecs if pec.has_bgp())
        self.options = TransientOptions(
            scenario_events=1, max_depth=self.MAX_DEPTH, por="ample", stop_at_first_violation=False
        )
        self.ledger = ScenarioLedger()
        self.scenarios = event_scenarios_for_pec(self.network, self.pec, self.options, ledger=self.ledger)

    def run_op(self, index: int, tracer: Optional[Tracer]) -> Dict[str, object]:
        from repro.transient import analyze_pec_transients_over_failures
        from repro.transient.properties import TransientLoopFreedom

        with traced_op(tracer, index):
            start = time.perf_counter()
            campaign = analyze_pec_transients_over_failures(
                self.network, self.pec, [TransientLoopFreedom()], transient=self.options,
                scenarios=self.scenarios, plankton=self.plankton,
            )
            end = time.perf_counter()
        reason = check_transient(campaign, self.expected["runs"])
        reductions = [run.result.reduction for run in campaign.runs if run.result.reduction is not None]
        record: Dict[str, object] = {
            "op_s": end - start, "wait_s": end - start, "ok": reason is None, "started": start, "ended": end,
            "stats": {
                "pecs": len(self.plankton.pecs),
                "runs": len(campaign.runs),
                "states_explored": sum(run.result.states_explored for run in campaign.runs),
                "transitions_enabled": sum(r.transitions_enabled for r in reductions),
                "transitions_expanded": sum(r.transitions_expanded for r in reductions),
                "rank_immune": sum(r.rank_immune_sessions for r in reductions),
                "depth_gaps": len(depth_bound_gaps(campaign, self.expected["runs"])),
            },
        }
        if reason is not None:
            record["reason"] = reason
        return record

    def setup_failure(self) -> Optional[str]:
        return self.expected["por_probe"]

    def notes(self) -> Dict[str, object]:
        return {"seed_used": False, "scenarios": self.ledger.as_dict()}


def run_key(run) -> str:
    return f"{run.failure.failed_links}|{run.scenario}|{run.prefix}"


def depth_bound_gaps(campaign, expected: Dict[str, bool]) -> List[str]:
    """Runs violating under ``por="full"`` that the depth-pruned ample run missed."""
    return [run_key(run) for run in campaign.runs if expected.get(run_key(run)) and not run.result.violations]


def check_transient(campaign, expected: Dict[str, bool]) -> Optional[str]:
    """The verdict check against the ``por="full"`` violating-run set.

    Every run the ample reduction reports violating must violate under the
    full search too (its witness is a real interleaving).  The two searches
    must agree on every run the ample search explored without depth
    pruning or truncation; the program promises verdict equality across
    POR modes only for such complete searches, so a depth-pruned ample run
    may miss a violation deeper than its bound (counted as
    ``por.depth_bound_gaps``, not as a failure).
    """
    if campaign.errors:
        return f"{len(campaign.errors)} task(s) failed"
    keys = {run_key(run) for run in campaign.runs}
    if keys != set(expected):
        return f"campaign ran {len(keys)} runs, the full search {len(expected)}"
    for run in campaign.runs:
        key = run_key(run)
        violated = bool(run.result.violations)
        if violated and not expected[key]:
            return f"run {key} violates under por=ample but not under por=full"
        reduction = run.result.reduction
        complete = not run.result.truncated and (reduction is None or reduction.depth_pruned == 0)
        if complete and violated != expected[key]:
            return f"complete run {key}: ample {violated}, full {expected[key]}"
    return None


# --------------------------------------------------------------------------- oracles
def expected_verdicts(name: str) -> Dict[str, object]:
    """The expected verdicts of a workload's ops, computed before timing."""
    if name == ServeEditStream.name:
        return serve_verdicts()
    if name == TransientScenarios.name:
        return {
            "runs": full_search_verdicts(emit.ebgp_fat_tree(4), TransientScenarios.MAX_DEPTH),
            "por_probe": por_probe(),
        }
    return {}


def serve_verdicts() -> Dict[str, object]:
    """Cold ``Plankton.verify`` verdicts of every network an edit stream can compose."""
    from repro import Plankton
    from repro.config.parser import parse_config
    from repro.policies import LoopFreedom
    from repro.topology.io import parse_topology

    verdicts = {}
    for label in edits.networks():
        topology, config = edits.composed(label)
        network = parse_config(parse_topology(topology), config)
        verdicts[label] = result_verdict(Plankton(network).verify(LoopFreedom()))
    return verdicts


def _first_bgp_pec(plankton):
    return next(pec for pec in plankton.pecs if pec.has_bgp())


def full_search_verdicts(network, max_depth: int) -> Dict[str, bool]:
    """Whether each (failure, scenario, prefix) run violates under ``por="full"``.

    The runs are those of a campaign over the one-event scenarios of the
    network's first BGP PEC.
    """
    from repro import Plankton, PlanktonOptions
    from repro.engine.graph import event_scenarios_for_pec
    from repro.transient import TransientOptions, analyze_pec_transients_over_failures
    from repro.transient.properties import TransientLoopFreedom

    plankton = Plankton(network, PlanktonOptions(stop_at_first_violation=True))
    pec = _first_bgp_pec(plankton)
    scenarios = event_scenarios_for_pec(network, pec, TransientOptions(scenario_events=1, max_depth=max_depth))
    # One campaign per scenario, each stopping at its first violation: the
    # violating-run set is all the check needs.
    full = TransientOptions(max_depth=max_depth, por="full", stop_at_first_violation=True)
    verdicts: Dict[str, bool] = {}
    for scenario in scenarios:
        campaign = analyze_pec_transients_over_failures(
            network, pec, [TransientLoopFreedom()], transient=full,
            scenarios=[scenario], plankton=plankton,
        )
        for run in campaign.runs:
            verdicts[run_key(run)] = bool(run.result.violations)
    return verdicts


def por_probe() -> Optional[str]:
    """The ample reduction against the full search where both searches complete.

    Every violating run of the ``transient-scenarios`` campaign is cut by
    its depth bound, where the program promises nothing about ample against
    full, so the op's own check catches false positives only.  This probe
    runs the same kind of campaign on a four-node eBGP square at depth
    :data:`PROBE_DEPTH`, where the violating runs complete, and applies
    :func:`check_transient` to it: an ample selection that drops violations
    fails here.  It returns the failure, or None.
    """
    from repro import Plankton, PlanktonOptions
    from repro.engine.graph import event_scenarios_for_pec
    from repro.transient import TransientOptions, analyze_pec_transients_over_failures
    from repro.transient.properties import TransientLoopFreedom

    network = emit.ebgp_square()
    expected = full_search_verdicts(network, PROBE_DEPTH)
    plankton = Plankton(network, PlanktonOptions(stop_at_first_violation=False))
    pec = _first_bgp_pec(plankton)
    options = TransientOptions(
        scenario_events=1, max_depth=PROBE_DEPTH, por="ample", stop_at_first_violation=False
    )
    campaign = analyze_pec_transients_over_failures(
        network, pec, [TransientLoopFreedom()], transient=options,
        scenarios=event_scenarios_for_pec(network, pec, options), plankton=plankton,
    )
    reason = check_transient(campaign, expected)
    return None if reason is None else f"POR probe on the eBGP square: {reason}"


#: Depth bound of :func:`por_probe`; the square's violating runs complete within it.
PROBE_DEPTH = 16


WORKLOADS = {cls.name: cls for cls in (CliOspfFatTree, McEbgpMed, ServeEditStream, TransientScenarios)}
