"""One workload process: set up, run ops for a while, write what it measured.

Usage: ``python perfbench/worker.py ROLE WORKLOAD SEED SECONDS TRACE PART RUNDIR OUT``
with ROLE ``main`` (set up and run ops for SECONDS) or ``oracle`` (compute
the expected verdicts).  :mod:`perfbench.run` starts these, PART numbering
the measuring processes of one run; each is a fresh process so that set-up
time includes imports and peak RSS belongs to the process that verifies.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import hostspeed  # noqa: E402


def peak_rss_kib(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def run_op(workload, index: int, tracer):
    """One op; the host-speed loop timings taken during it are in ``record["loop_s"]``.

    Those timings are taken for ops that report their timed interval
    (``started``/``ended``) and only untraced; their CPU time is taken out
    of the op's time.
    """
    if tracer is not None or not workload.long_ops:
        record = workload.run_op(index, tracer)
        record["loop_s"] = []
        return record
    with hostspeed.DuringOp() as during:
        record = workload.run_op(index, tracer)
    inside = during.within(record.pop("started"), record.pop("ended"))
    record["op_s"] -= sum(inside)
    record["wait_s"] -= sum(inside)
    record["loop_s"] = inside
    return record


def measure(workload, tracer, first: int, seconds: float, min_ops: int):
    """Run ops from index ``first`` for ``seconds`` and at least ``min_ops``.

    Each op's record carries ``loop_s``, the host-speed loop timings taken
    during it and right before and right after it (:mod:`perfbench.hostspeed`).
    """
    records = []
    deadline = time.perf_counter() + seconds
    index = first
    before = hostspeed.samples(2)
    while time.perf_counter() < deadline or len(records) < max(1, min_ops) or workload.more_ops(index):
        record = run_op(workload, index, tracer)
        after = hostspeed.samples_after(record["wait_s"])
        record["op"] = f"op{index}"
        record["loop_s"] += before + after
        records.append(record)
        before = after
        index += 1
    return records


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    The host-speed loop then always runs on the CPU the ops ran on; on a
    shared host the two CPUs of a VM can be slowed by different neighbours.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    pin_to_one_cpu()
    role, name, seed, seconds, trace, part, rundir, out = sys.argv[1:9]
    seed, seconds, trace, part = int(seed), float(seconds), trace == "1", int(part)
    rundir, out = Path(rundir), Path(out)

    from perfbench import workloads

    if role == "oracle":
        out.write_text(json.dumps(workloads.expected_verdicts(name)))
        return 0

    workload = workloads.WORKLOADS[name](rundir, seed, part)
    tracer = None
    try:
        workload.load()
        if trace:
            from perfbench import layers
            from perfbench.spans import Tracer

            tracer = Tracer()
            layers.install(tracer)
            frame = tracer.begin_op("setup")
            workload.prepare()
            tracer.end_op(frame)
            tracer.uninstall()
        else:
            workload.prepare()
        setup_s = time.perf_counter() - STARTED
        document = {"setup_s": setup_s, "setup_loop_s": hostspeed.samples(5)}
        workload.expected = json.loads((rundir / "oracle.json").read_text())
        document["setup_failure"] = workload.setup_failure()
        if not trace:
            document["ops"] = measure(workload, None, 0, seconds, workload.min_ops)
        else:
            untraced = measure(workload, None, 0, seconds / 2, 3)
            layers.install(tracer)
            traced = measure(workload, tracer, len(untraced), seconds / 2, 3)
            tracer.uninstall()
            document["ops"] = untraced
            document["traced_ops"] = traced
            document["layers"] = layers.traced_metrics(
                tracer.records(), tracer.timers, traced, workload.notes()
            )
        document["peak_rss_kib"] = peak_rss_kib(children=workload.verifies_in_children)
        document["notes"] = workload.notes()
    finally:
        workload.close()
    out.write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
