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


def test_traced_pipeline_records_data_spans(tmp_path):
    """The wrapped names are still the ones split, train and eval call."""
    from csiloc import cli
    from csiloc.data import SynthConfig, generate_synthetic, write_canonical

    write_canonical(tmp_path / "full", generate_synthetic(
        SynthConfig(num_samples=60, num_subcarriers=8, seed=1)))
    spans = load_spans()
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        for argv in (["split", "--data", f"{tmp_path}/full", "--kind", "random", "--out", f"{tmp_path}/s"],
                     ["train", "--train", f"{tmp_path}/s/train", "--model", "linear",
                      "--max-epochs", "1", "--batch-size", "8", "--out", f"{tmp_path}/m"],
                     ["eval", "--checkpoint", f"{tmp_path}/m/model.ckpt", "--eval", f"{tmp_path}/s/eval",
                      "--out", f"{tmp_path}/r"]):
            assert cli.main(argv) == 0
    finally:
        undo()
    names = {s.name for s in tracer.spans}
    assert {"data.fit_normalizer", "data.apply_normalizer", "data.split", "train.monitor"} <= names
