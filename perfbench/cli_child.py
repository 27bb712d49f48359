"""One traced ``repro verify`` in a fresh interpreter (the traced CLI op).

Usage: ``python perfbench/cli_child.py SPANS_FILE VERIFY_ARGS...``.  Imports
``repro.cli`` (timed as the ``cli.import`` span), wraps the layer boundaries,
runs ``repro.cli.main(VERIFY_ARGS)`` with its usual output and exit code,
and writes the spans, timers and the result's statistics to SPANS_FILE.
Installing the wrappers is recorded too (``trace.install``), so that the
tracing's own cost is not mistaken for unattributed time.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root), str(root / "src")]

    import_started = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import verification_stats
    from repro.core.verifier import Plankton

    tracer = Tracer()
    tracer.add("cli.import", import_started, imported)
    layers.install(tracer)
    tracer.add("trace.install", imported, time.perf_counter())
    results = []
    traced_verify = Plankton.verify

    def capture(self, policies):
        result = traced_verify(self, policies)
        results.append(result)
        return result

    Plankton.verify = capture
    frame = tracer.open("cli.main")
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.close(frame)
        sys.stdout.flush()
    document = {
        "started": STARTED,
        "spans": [
            [span.id, span.name, span.start, span.end, span.parent, span.op, span.inner, span.lane]
            for span in tracer.records()
        ],
        "timers": {name: entry for (_op, name), entry in tracer.timers.items()},
        "stats": verification_stats(results[-1]) if results else {},
    }
    Path(spans_file).write_text(json.dumps(document))
    return code


if __name__ == "__main__":
    sys.exit(main())
