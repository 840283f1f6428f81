"""Shared benchmark fixtures.

Each benchmark regenerates one paper artifact (table or figure), checks the
paper-vs-measured shape, and writes the rendered rows to
``benchmarks/results/<id>.txt``.  Those tables are tracked: CI reruns the
benches and fails on ``git diff -- benchmarks/results``.

Every test starts from the same RNG state (`_seed_rngs`) and none reads
a host clock, so scenario outputs are bit-identical run to run.  The
files whose scenario is registered in
``repro.analysis.experiments.EXPERIMENTS`` call that product function,
which ``repro obs run`` also runs (with the same seed) into
``BENCH_<name>.json``.
"""

import pathlib
import random

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Keep in sync with ``repro.obs.schema.DEFAULT_SEED``.
BENCH_SEED = 20090917


@pytest.fixture(autouse=True)
def _seed_rngs():
    """Pin the global RNG a scenario might consult, per test."""
    random.seed(BENCH_SEED)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Write a named artifact and echo it to stdout."""

    def _save(name: str, text: str) -> None:
        path = results_dir / (name + ".txt")
        path.write_text(text + "\n")
        print("\n" + text)

    return _save
