"""The repository's benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in ``BENCHMARK.json``; ``DESCRIPTION.md``
says why each workload was chosen, what the traced run found and how
steady the metrics are.
With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every process of a run is a fresh interpreter started here: an oracle that
computes the expected verdicts before timing (where a workload needs them),
then :data:`PROCESSES` measuring processes one after another, each setting
up and running ops for its share of the time.  Op times vary from one
process to the next in ways no host-speed timing sees, so the end-to-end
metrics pool the ops of all of them; ``setup_s`` is the median of their set-up times.  A
traced run has one measuring process.  Temporary files live under
``.perfbench/`` in the checkout and are removed at the end.

Times are reported in reference seconds (:mod:`perfbench.hostspeed`): each
op's wall time, and each process's set-up time, is scaled by how fast the
host ran a fixed loop around it.  The human-readable lines give the
unscaled medians as well.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import scale  # noqa: E402
from perfbench.stats import beyond, percentile, tail_percentile  # noqa: E402

#: Measuring processes per end-to-end run.
PROCESSES = 3
#: Everything a run does must end within this many seconds.
RUN_BUDGET_S = 170.0


def run_child(args, deadline: float) -> None:
    """Run one child process in its own session; kill the session at ``deadline``."""
    process = subprocess.Popen(args, cwd=ROOT, start_new_session=True)
    try:
        process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"{args[2]} process of {args[3]} timed out")
    if process.returncode != 0:
        raise RuntimeError(f"{args[2]} process of {args[3]} exited {process.returncode}")


def worker(role: str, options, rundir: Path, deadline: float, seconds: float = 0.0, part: int = 0) -> dict:
    out = rundir / f"{role}.json" if role == "oracle" else rundir / f"{role}-{part}.json"
    run_child(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), role, options.workload,
         str(options.seed), str(seconds), str(options.trace), str(part), str(rundir), str(out)],
        deadline,
    )
    return json.loads(out.read_text())


def reference_op_times(ops) -> list:
    """Each op's wall time in reference seconds."""
    return [scale(op["op_s"], op["loop_s"]) for op in ops]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if options.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {options.workload!r}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    rundir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        worker("oracle", options, rundir, deadline)
        count = 1 if options.trace else PROCESSES
        parts = [worker("main", options, rundir, deadline, options.seconds / count, part)
                 for part in range(count)]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return report(options, spec, parts)


def report(options, spec, parts: list) -> int:
    measured = parts[0]
    ops = [op for part in parts for op in part["ops"] + part.get("traced_ops", [])]
    setup_failures = [part["setup_failure"] for part in parts if part["setup_failure"] is not None]
    attempted = len(ops) + len(setup_failures)
    failed = sum(1 for op in ops if not op["ok"]) + len(setup_failures)
    timed = [op for part in parts for op in part["ops"]]
    op_times = reference_op_times(timed)
    seed_used = measured["notes"]["seed_used"]
    print(f"workload {options.workload}, seed {options.seed} "
          f"({'used' if seed_used else 'ignored: fixed input'}), trace {options.trace}, "
          f"{len(parts)} measuring process(es)")
    for key in measured["notes"]:
        values = [part["notes"][key] for part in parts]
        if key != "seed_used":
            print(f"  {key}: {values[0] if all(v == values[0] for v in values) else values}")
    print(f"  failed_op_ratio: {failed / attempted:.4f} ratio ({failed} of {attempted} ops)")
    for op in ops:
        if not op["ok"]:
            print(f"  failed {op.get('op', 'cold push')}: {op.get('reason')}")
    for failure in setup_failures:
        print(f"  failed in set-up: {failure}")

    if options.trace:
        traced = reference_op_times(measured["traced_ops"])
        values = dict(measured["layers"])
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(op_times) - 1.0
        wanted = spec["per_layer"]
        samples = f"{len(traced)} traced ops"
    else:
        setups = [scale(part["setup_s"], part["setup_loop_s"]) for part in parts]
        # The client's wait past the job's end is ServiceClient's poll sleep
        # (0 outside serve-edit-stream); a sleep does not scale with the host.
        waits = [ref + op["wait_s"] - op["op_s"] for ref, op in zip(op_times, timed)]
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(op_times),
            "op_p90_s": percentile(op_times, 90),
            "client_wait_p50_s": statistics.median(waits),
            "peak_rss_mib": max(part["peak_rss_kib"] for part in parts) / 1024.0,
        }
        loops = [sample for op in timed for sample in op["loop_s"]]
        print(f"  unscaled: op_p50 {statistics.median(op['op_s'] for op in timed):.4f} s, "
              f"client wait p50 {statistics.median(op['wait_s'] for op in timed):.4f} s, "
              f"setup {statistics.median(part['setup_s'] for part in parts):.4f} s; "
              f"host loop median {1000 * statistics.median(loops):.2f} ms over {len(loops)} timings")
        wanted = spec["end_to_end"]
        tail = tail_percentile(op_times)
        samples = f"{len(op_times)} ops, {len(setups)} set-ups"
        print(f"  op_p90_s: {beyond(len(op_times), 90)} samples beyond p90; highest percentile "
              f"with >= 10 beyond: {'none' if tail is None else f'p{tail[0]:g} = {tail[1]:.4f} s'}")
    for metric in wanted:
        print(f"  {metric['name']}: {values[metric['name']]:.6g} {metric['unit']} ({samples})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
