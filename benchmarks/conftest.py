"""Benchmark-suite helpers: result emission and shared fixtures.

Every benchmark prints the table/figure rows it reproduces (visible in the
pytest output via ``report()``, which bypasses capture) and also writes
them under ``results/`` for EXPERIMENTS.md.
"""

import os
import sys

import pytest

from repro.util.formatting import write_result

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


@pytest.fixture
def report(capsys):
    """Print a reproduction artifact to the real stdout and persist it.

    Benchmarks that already write a canonical JSON under ``results/``
    (throughput, serving) pass ``persist=False`` so the printed
    summary does not leave a duplicate ``.txt`` twin next to it.
    """

    def _report(name: str, text: str, *, persist: bool = True) -> None:
        if persist:
            write_result(name, text, results_dir=RESULTS_DIR)
        with capsys.disabled():
            sys.stdout.write(f"\n=== {name} ===\n{text}\n")

    return _report


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (reproductions are
    deterministic; statistical repetition adds nothing but wall time)."""

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _once
