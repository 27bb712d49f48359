"""Shared configuration and helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (see DESIGN.md §4 and EXPERIMENTS.md).  Sizes are scaled down from
the paper's testbed (a 32-core Xeon running a C++/SPIN prototype) to what a
pure-Python reproduction can explore in seconds, but each benchmark keeps the
paper's workload structure, sweeps the same parameter, and prints the same
kind of rows so the qualitative shape (who wins, how it scales) can be
compared directly.
"""

import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

#: The PR-over-PR throughput trend file the non-gating CI bench job emits.
BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_explorer.json")


def report(figure: str, row: str) -> None:
    """Print one row of a reproduced table/figure (captured by --capture=no,
    and summarised in EXPERIMENTS.md)."""
    print(f"[{figure}] {row}")


def merge_bench_rows(rows: dict) -> None:
    """Update ``BENCH_explorer.json`` in place, keeping other emitters' rows.

    Several benchmarks contribute rows to the same trend file (explorer
    throughput, transient-exploration throughput), so each one
    read-modify-writes instead of clobbering the file.
    """
    existing = {}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = {}
    existing.update(rows)
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)
        handle.write("\n")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_json: emits a BENCH_explorer.json row (run by the non-gating bench job only)",
    )


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    """Mark every test that uses the ``bench_json`` fixture with ``bench_json``.

    Runs before ``-m`` deselection, so ``-m "not bench_json"`` keeps the
    trend-file emitters out of a run and ``-m bench_json`` selects just them.
    """
    for item in items:
        if "bench_json" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.bench_json)


@pytest.fixture
def reporter():
    """Fixture handing benchmarks the row printer."""
    return report


@pytest.fixture
def bench_json():
    """Fixture handing benchmarks the BENCH_explorer.json row merger."""
    return merge_bench_rows
