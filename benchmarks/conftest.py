"""Shared helpers for the figure/table benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

``test_bench_figures.py`` regenerates the paper's figures and tables end
to end (generation -> deployment -> simulated trial -> collection ->
analysis) and writes each rendering to ``benchmarks/output/<id>.txt`` so
the rows/series can be compared against the paper (see EXPERIMENTS.md).
"""

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture
def emit():
    """Persist and echo a FigureResult's rendering."""

    def _emit(figure_result):
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / f"{figure_result.figure_id}.txt"
        path.write_text(figure_result.rendered + "\n")
        print()
        print(figure_result.rendered)
        return path

    return _emit


@pytest.fixture
def once(benchmark):
    """Run a figure reproduction exactly once under pytest-benchmark."""

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _once
