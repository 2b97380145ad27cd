"""The module attributes that the benchmark's traced runs reach for.

perfbench/spans.py wraps csiloc functions by attribute name, and perfbench's
environment record imports csiloc.evaluation._threads. A rename in src/
would otherwise only show when the benchmark runs with --trace 1.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_and_undo():
    from csiloc import cli
    train = importlib.import_module("csiloc.train")   # the package re-exports train()

    spans = load_spans()
    before = (cli.train, train._batched_mde)
    undo = spans.instrument(spans.Tracer())
    try:
        assert (cli.train, train._batched_mde) != before
    finally:
        undo()
    assert (cli.train, train._batched_mde) == before


def test_thread_count_import():
    from csiloc.evaluation import _threads

    assert _threads() >= 1
