import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from csiloc import layers
from csiloc.data import Dataset, NormStats, SynthConfig, fit_normalizer, generate_synthetic, write_canonical
from csiloc.errors import CsilocError
from csiloc.evaluation import EvalReport, emit_reports, evaluate, mde, nmde, predict, rmse
from csiloc.layers import ResidualUnit
from csiloc.models import build_model, build_tiny, count_weights, save_checkpoint

from conftest import CountingPool, desk_arch

SRC = Path(__file__).resolve().parent.parent / "src"


def brute_mde(errors):
    total = 0.0
    for e in errors:
        total += float(e)
    return total / len(errors)


def brute_rmse(errors):
    total = 0.0
    for e in errors:
        total += float(e) * float(e)
    return math.sqrt(total / len(errors))


def brute_nmde(truth, estimate):
    total = 0.0
    for t, e in zip(truth, estimate):
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(t, e)))
        norm = math.sqrt(sum(a * a for a in t))
        total += dist / norm
    return total / len(truth)


class TestMetrics:
    def test_mde_examples(self):
        assert mde([0.0, 0.0, 0.0]) == 0.0
        assert mde([3.0, 4.0]) == 3.5

    def test_rmse_examples(self):
        assert abs(rmse([3.0, 4.0]) - math.sqrt(12.5)) < 1e-15
        assert abs(rmse([2.0] * 7) - 2.0) < 1e-15

    def test_nmde_examples(self):
        truth = np.array([[3.0, 4.0, 0.0]])
        est = np.array([[3.0, 4.0, 1.0]])
        assert abs(nmde(truth, est) - 0.2) < 1e-15
        assert nmde(truth, truth) == 0.0

    def test_nmde_scale_invariance(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(1, 4, (20, 3))
        est = truth + rng.standard_normal((20, 3)) * 0.2
        base = nmde(truth, est)
        assert abs(nmde(5.0 * truth, 5.0 * est) - base) < 1e-12

    def test_nmde_rejects_origin(self):
        truth = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"indices \[1, 2\]"):
            nmde(truth, truth + 1.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            mde([])
        with pytest.raises(ValueError):
            rmse([])

    def test_brute_force_oracles(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            errors = rng.uniform(0, 10, n)
            assert abs(mde(errors) - brute_mde(errors)) <= 1e-12 * max(brute_mde(errors), 1e-12)
            assert abs(rmse(errors) - brute_rmse(errors)) <= 1e-12 * max(brute_rmse(errors), 1e-12)
            truth = rng.uniform(1, 5, (n, 3))
            est = truth + rng.standard_normal((n, 3))
            ref = brute_nmde(truth, est)
            assert abs(nmde(truth, est) - ref) <= 1e-12 * ref

    def test_rmse_at_least_mde(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            errors = rng.uniform(0, 5, int(rng.integers(1, 30)))
            assert rmse(errors) >= mde(errors) - 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        errors = rng.uniform(0, 5, 50)
        perm = rng.permutation(50)
        assert abs(mde(errors) - mde(errors[perm])) < 1e-12
        assert abs(rmse(errors) - rmse(errors[perm])) < 1e-12
        truth = rng.uniform(1, 5, (50, 3))
        est = truth + rng.standard_normal((50, 3))
        assert abs(nmde(truth, est) - nmde(truth[perm], est[perm])) < 1e-12

    def test_translation_behaviour(self):
        rng = np.random.default_rng(5)
        truth = rng.uniform(1, 5, (30, 3))
        est = truth + rng.standard_normal((30, 3)) * 0.3
        shift = np.array([10.0, -3.0, 2.0])
        d0 = np.linalg.norm(truth - est, axis=1)
        d1 = np.linalg.norm((truth + shift) - (est + shift), axis=1)
        assert abs(mde(d0) - mde(d1)) < 1e-12
        assert abs(rmse(d0) - rmse(d1)) < 1e-12
        # nmde is NOT translation invariant: the truth norms shift
        assert abs(nmde(truth, est) - nmde(truth + shift, est + shift)) > 1e-6


def crafted_linear_dataset(n=12, a=2, w=4, seed=6):
    """Positions are an exact linear map of the CSI; the matching linear model
    reproduces them bit for bit. Small integer CSI and weights in eighths keep every
    product and sum exact, in float32 as in float64 and in any order."""
    rng = np.random.default_rng(seed)
    csi = rng.integers(-3, 4, (n, 2, a, w)).astype(np.float64)
    weights = rng.integers(-2, 3, (3, 2 * a * w)) / 8.0
    pos = csi.reshape(n, -1) @ weights.T + np.array([2.0, 1.0, 1.0])
    ds = Dataset(csi, np.zeros((n, a)), pos)
    net = build_model("linear", {"seed": 0}, (2, a, w))
    net.params()[0].value[...] = weights
    net.params()[1].value[...] = [2.0, 1.0, 1.0]
    return ds, net


class TestEvaluate:
    def test_oracle_model_zero_error(self):
        ds, net = crafted_linear_dataset()
        report = evaluate(net, ds, NormStats(1.0))
        assert report.mde_m == 0.0 and report.rmse_m == 0.0 and report.nmde == 0.0

    def test_centroid_model_on_square(self):
        # 4-point square of side 2 at z=0 centered at (5, 0, 0)
        pos = np.array([[4.0, -1.0, 0.0], [4.0, 1.0, 0.0], [6.0, -1.0, 0.0], [6.0, 1.0, 0.0]])
        csi = np.zeros((4, 2, 1, 4))
        csi[:, 0, 0, 0] = [1.0, 2.0, 3.0, 4.0]  # arbitrary non-constant, finite
        ds = Dataset(csi, np.zeros((4, 1)), pos)
        net = build_model("linear", {"seed": 0}, (2, 1, 4))
        net.params()[0].value[...] = 0.0
        net.params()[1].value[...] = [5.0, 0.0, 0.0]
        report = evaluate(net, ds, NormStats(1.0))
        assert abs(report.mde_m - math.sqrt(2.0)) < 1e-12

    def test_aggregates_match_records(self):
        ds, net = crafted_linear_dataset(seed=7)
        net.params()[1].value[...] += [0.3, -0.2, 0.1]  # imperfect now
        report = evaluate(net, ds, NormStats(1.0))
        npt.assert_allclose(report.mde_m, report.distance_error.mean(), rtol=0, atol=0)
        npt.assert_allclose(report.rmse_m, np.sqrt((report.distance_error ** 2).mean()))
        npt.assert_allclose(report.nmde, (report.distance_error / report.norm_truth).mean())
        assert report.nmde_percent == 100.0 * report.nmde
        assert report.metadata["weights"] == count_weights(net)

    def test_width_mismatch(self):
        ds, net = crafted_linear_dataset()
        wrong = build_model("linear", {"seed": 0}, (2, 2, 5))
        with pytest.raises(ValueError, match="model expects"):
            evaluate(wrong, ds, NormStats(1.0))

    def test_thread_cap_invariance(self, monkeypatch):
        ds, net = crafted_linear_dataset(n=600, seed=8)
        net.params()[1].value[...] += 0.25
        monkeypatch.setenv("CSILOC_THREADS", "1")
        a = evaluate(net, ds, NormStats(1.0))
        monkeypatch.setenv("CSILOC_THREADS", "4")
        b = evaluate(net, ds, NormStats(1.0))
        npt.assert_array_equal(a.estimate, b.estimate)

    def test_each_chunk_divided_by_norm(self, monkeypatch):
        ds, net = crafted_linear_dataset(n=600, seed=9)   # three chunks, on two workers
        monkeypatch.setenv("CSILOC_THREADS", "2")
        a = evaluate(net, ds, NormStats(3.0))
        # each 256-sample chunk's float64 quotient, forwarded on its own
        b = np.vstack([net.forward(ds.csi[s:s + 256].astype(np.float64) / 3.0)
                       for s in range(0, len(ds), 256)])
        npt.assert_array_equal(a.estimate, b)

    def test_malformed_thread_cap(self, monkeypatch):
        ds, net = crafted_linear_dataset()
        for cap in ("two", "0", "-3"):
            monkeypatch.setenv("CSILOC_THREADS", cap)
            with pytest.raises(CsilocError, match="CSILOC_THREADS"):
                evaluate(net, ds, NormStats(1.0))


class TestEmitReports:
    def make_report(self, errors=(1.0, 2.0, 3.0, 4.0)):
        n = len(errors)
        truth = np.zeros((n, 3))
        truth[:, 0] = np.arange(n) + 1.0
        estimate = truth.copy()
        estimate[:, 1] = errors  # all error on the y axis
        dist = np.linalg.norm(truth - estimate, axis=1)
        return EvalReport(truth=truth, estimate=estimate, distance_error=dist,
                          norm_truth=np.linalg.norm(truth, axis=1),
                          mde_m=float(dist.mean()),
                          rmse_m=float(np.sqrt((dist ** 2).mean())),
                          rmse_per_coord_m=float(np.sqrt((dist ** 2).mean() / 3)),
                          nmde=0.1, nmde_percent=10.0,
                          metadata={"model": "stub", "split": "random", "weights": 42})

    def test_cdf_probabilities(self, tmp_path):
        paths = emit_reports(self.make_report(), tmp_path)
        lines = paths["cdf"].read_text().splitlines()
        assert lines[0] == "distance_error_m,probability"
        probs = [float(l.split(",")[1]) for l in lines[1:]]
        assert probs == [0.25, 0.5, 0.75, 1.0]
        errs = [float(l.split(",")[0]) for l in lines[1:]]
        assert errs == sorted(errs) and probs[-1] == 1.0

    def test_histogram_counts_sum_to_n(self, tmp_path):
        paths = emit_reports(self.make_report(), tmp_path)
        rows = [l.split(",") for l in paths["err_hist"].read_text().splitlines()[1:]]
        for axis in ("x", "y"):
            counts = [int(r[3]) for r in rows if r[0] == axis]
            assert len(counts) == 50 and sum(counts) == 4

    def test_perfect_model_artifacts(self, tmp_path):
        report = self.make_report(errors=(0.0, 0.0, 0.0, 0.0))
        paths = emit_reports(report, tmp_path)
        rows = [l.split(",") for l in paths["err_hist"].read_text().splitlines()[1:]]
        for axis in ("x", "y"):
            hits = [r for r in rows if r[0] == axis and int(r[3]) > 0]
            assert all(float(r[1]) <= 0.0 <= float(r[2]) for r in hits)
        quiver = [l.split(",") for l in paths["quiver"].read_text().splitlines()[1:]]
        assert all(float(r[2]) == 0.0 and float(r[3]) == 0.0 for r in quiver)

    def test_quiver_consistency(self, tmp_path):
        report = self.make_report()
        paths = emit_reports(report, tmp_path)
        rows = [l.split(",") for l in paths["quiver"].read_text().splitlines()[1:]]
        for i, r in enumerate(rows):
            assert abs(float(r[0]) + float(r[2]) - report.estimate[i, 0]) < 1e-9
            assert abs(float(r[1]) + float(r[3]) - report.estimate[i, 1]) < 1e-9

    def test_summary_fields(self, tmp_path):
        paths = emit_reports(self.make_report(), tmp_path)
        summary = json.loads(paths["summary"].read_text())
        for key in ("mde_m", "rmse_m", "rmse_per_coord_m", "nmde", "nmde_percent",
                    "n_samples", "weights", "split", "model", "rmse_definition_note"):
            assert key in summary
        assert summary["n_samples"] == 4
        assert summary["rmse_m"] >= summary["mde_m"]
        assert "sqrt(3)" in summary["rmse_definition_note"]

    def test_byte_identical_across_runs(self, tmp_path):
        report = self.make_report()
        a = emit_reports(report, tmp_path / "a")
        b = emit_reports(report, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()


def _arrays_held(layer):
    """Names of the layer's attributes that hold an ndarray, directly or in a tuple or list."""
    def holds(value):
        if isinstance(value, (tuple, list)):
            return any(holds(v) for v in value)
        return isinstance(value, np.ndarray)
    return [name for name, value in vars(layer).items() if holds(value)]


def desk_cnn4r():
    return build_model("cnn4r", desk_arch(), (2, 16, 64))


class TestThreadBudget:
    """predict's chunk tasks and the conv forwards inside them share CSILOC_THREADS."""

    def test_chunk_workers_split_no_conv(self, monkeypatch):
        net = desk_cnn4r()   # its block-1 convs split a 256-sample chunk on two threads
        x = np.random.default_rng(32).standard_normal((2 * 256 + 1,) + net.input_shape)  # three chunks
        monkeypatch.setenv("CSILOC_THREADS", "1")
        serial = predict(net, x, NormStats(2.0))
        pool = CountingPool(layers._POOL)
        monkeypatch.setattr(layers, "_POOL", pool)
        monkeypatch.setenv("CSILOC_THREADS", "2")
        npt.assert_array_equal(predict(net, x, NormStats(2.0)), serial)
        assert pool.submits == 2      # the two parts' tasks; parts of one thread each split no conv
        pool.submits = 0
        npt.assert_array_equal(predict(net, x[:256], NormStats(2.0)), serial[:256])
        assert pool.submits > 0       # one chunk: its task has both threads

    def test_caller_only_waits(self, monkeypatch):
        """Pool threads forward every chunk while predict's caller waits, so a profiler
        that parents a pool thread's calls to the caller's open call sees them in it."""
        net = desk_cnn4r()
        x = np.random.default_rng(33).standard_normal((2 * 256 + 1,) + net.input_shape)  # three chunks
        monkeypatch.setenv("CSILOC_THREADS", "1")
        serial = predict(net, x, NormStats(2.0))
        threads = []
        forward = net.forward
        monkeypatch.setattr(net, "forward", lambda *a: threads.append(threading.get_ident()) or forward(*a))
        monkeypatch.setenv("CSILOC_THREADS", "2")
        npt.assert_array_equal(predict(net, x, NormStats(2.0)), serial)
        assert len(threads) == 3 and threading.get_ident() not in threads

    def test_chunk_tasks_split_their_share(self, monkeypatch):
        """At four threads, each of two chunk tasks gets two: its block-1 convs split
        as a lone chunk's do at two threads."""
        net = desk_cnn4r()
        x = np.random.default_rng(34).standard_normal((2 * 256,) + net.input_shape)  # two full chunks
        monkeypatch.setenv("CSILOC_THREADS", "1")
        serial = predict(net, x, NormStats(2.0))
        pool = CountingPool(layers._POOL)
        monkeypatch.setattr(layers, "_POOL", pool)
        monkeypatch.setenv("CSILOC_THREADS", "2")
        predict(net, x[:256], NormStats(2.0))
        per_chunk, pool.submits = pool.submits, 0   # a lone chunk runs on the caller
        assert per_chunk > 1
        monkeypatch.setenv("CSILOC_THREADS", "4")
        npt.assert_array_equal(predict(net, x, NormStats(2.0)), serial)
        assert pool.submits == 2 + 2 * per_chunk   # the two chunk tasks, then each task's conv splits

    def test_eval_process_exits(self, tmp_path):
        """A pool thread left running would keep csiloc eval's interpreter alive."""
        # 40 samples: the block-1 convs split, so the pool has started a thread
        write_canonical(tmp_path / "eval", generate_synthetic(
            SynthConfig(num_samples=40, num_subcarriers=64, seed=2)))
        save_checkpoint(tmp_path / "model.ckpt", desk_cnn4r(), norm_scale=1.0)
        env = {**os.environ, "CSILOC_THREADS": "2",
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "csiloc.cli", "eval", "--checkpoint", str(tmp_path / "model.ckpt"),
             "--eval", str(tmp_path / "eval"), "--out", str(tmp_path / "report")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "evaluated 40 samples" in done.stdout


class TestStatelessInference:
    """predict keeps nothing on the layers, so its threads share no mutable state."""

    def test_no_layer_state_after_threaded_predict(self, monkeypatch):
        net, _, _ = build_tiny("cnn4r")
        x = np.random.default_rng(30).standard_normal((2 * 256 + 1,) + net.input_shape)  # three chunks
        monkeypatch.setenv("CSILOC_THREADS", "1")
        serial = predict(net, x, NormStats(1.0))
        monkeypatch.setenv("CSILOC_THREADS", "2")
        npt.assert_array_equal(predict(net, x, NormStats(1.0)), serial)
        layers = list(net.layers)
        for unit in [layer for layer in layers if isinstance(layer, ResidualUnit)]:
            layers += [unit.conv_a, unit.relu_mid, unit.conv_b, unit.relu_out]
        assert len(layers) > len(net.layers)
        held = {layer.label: _arrays_held(layer) for layer in layers}
        assert not any(held.values()), held

    def test_desk_cnn4r_predict_memory(self):
        net = desk_cnn4r()
        x = np.random.default_rng(31).standard_normal((128, 2, 16, 64))
        tracemalloc.start()
        try:
            out = predict(net, x, NormStats(1.0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (128, 3)
        assert peak < 40e6   # each layer's input is freed once the next layer has its output
        assert held < 1e6    # no activations stay on the layers
