"""The repository's benchmark (see ``BENCHMARK.json`` and ``run.py``)."""
