"""The module attributes that the benchmark's traced runs reach for.

perfbench/spans.py wraps csiloc functions by attribute name, and perfbench's
environment record imports csiloc.evaluation._threads. A rename in src/
would otherwise only show when the benchmark runs with --trace 1.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_passes():
    """The harness's own self-test, which runs the pipeline at tiny sizes under its tracer."""
    done = subprocess.run([sys.executable, str(SPANS.parent / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and "selftest: OK" in done.stdout, done.stdout + done.stderr


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


def traced_pipeline(tmp_path, model, subcarriers, config=None):
    """Run split, train and eval of `model` in this process under the benchmark's tracer."""
    from csiloc import cli
    from csiloc.data import SynthConfig, generate_synthetic, write_canonical

    write_canonical(tmp_path / "full", generate_synthetic(
        SynthConfig(num_samples=60, num_subcarriers=subcarriers, seed=1)))
    train = ["train", "--train", f"{tmp_path}/s/train", "--model", model,
             "--max-epochs", "1", "--batch-size", "8", "--out", f"{tmp_path}/m"]
    if config is not None:
        (tmp_path / "arch.json").write_text(json.dumps(config))
        train += ["--config", f"{tmp_path}/arch.json"]
    spans = load_spans()
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        for argv in (["split", "--data", f"{tmp_path}/full", "--kind", "random", "--out", f"{tmp_path}/s"],
                     train,
                     ["eval", "--checkpoint", f"{tmp_path}/m/model.ckpt", "--eval", f"{tmp_path}/s/eval",
                      "--out", f"{tmp_path}/r"]):
            assert cli.main(argv) == 0
    finally:
        undo()
    return spans, tracer


def test_traced_pipeline_records_data_spans(tmp_path):
    """The wrapped names are still the ones split, train and eval call."""
    _, tracer = traced_pipeline(tmp_path, "linear", 8)
    names = {s.name for s in tracer.spans}
    assert {"data.fit_normalizer", "data.apply_normalizer", "data.split", "train.monitor"} <= names


def test_traced_cnn4r_records_layer_spans(tmp_path):
    """Training calls forward and backward through the instance attributes the tracer wraps."""
    spans, tracer = traced_pipeline(tmp_path, "cnn4r", 32, {
        "base_filters": 2, "kernel": 3, "stride": 2, "head_units": 8, "residual_units_per_block": 1})
    metrics, steps = spans.span_metrics(tracer)
    for name in ("layers.conv.fwd_ms", "layers.conv.bwd_ms", "layers.relu_ms",
                 "layers.dense.bwd_ms", "layers.residual.self_ms"):
        assert metrics[name] > 0, name
    assert steps
    assert spans.check_tree(tracer.spans) == []
    # every layer a training step runs forward is traced in its backward too, and none is skipped
    traced = Counter()
    for s in tracer.spans:
        owner = s.parent
        while owner is not None and not owner.name.startswith("network."):
            owner = owner.parent
        if s.name.startswith("layers.") and owner is not None and owner.parent.name == "train.train":
            traced[owner.name] += 1
    assert traced["network.forward"] == traced["network.backward"] > 0
