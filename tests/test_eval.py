import json
import math
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from csiloc.data import Dataset, NormStats, fit_normalizer
from csiloc.errors import CsilocError
from csiloc.evaluation import EvalReport, emit_reports, evaluate, mde, nmde, predict, rmse
from csiloc.layers import ResidualUnit
from csiloc.models import ArchConfig, build_fcnn, build_model, count_weights, resolve_arch
from csiloc.network import build_tiny

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    reproduces them bit for bit (same matmul on the same floats)."""
    rng = np.random.default_rng(seed)
    csi = rng.standard_normal((n, 2, a, w))
    weights = rng.standard_normal((3, 2 * a * w)) * 0.1
    pos = csi.reshape(n, -1) @ weights.T + np.array([2.0, 1.0, 1.0])
    ds = Dataset(csi, np.zeros((n, a)), pos)
    net = build_fcnn([], (2, a, w), seed=0)
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
        net = build_fcnn([], (2, 1, 4), seed=0)
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
        wrong = build_fcnn([], (2, 2, 5), seed=0)
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
        b = evaluate(net, Dataset(ds.csi / 3.0, ds.snr, ds.pos), NormStats(1.0))
        npt.assert_array_equal(a.estimate, b.estimate)

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
        flat = json.loads((CONFIGS / "desk64_cnn4.json").read_text())
        arch_fields = {f.name for f in fields(ArchConfig)}
        arch = resolve_arch("cnn4r", {k: v for k, v in flat.items() if k in arch_fields})
        net = build_model("cnn4r", arch, (2, 16, 64))
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
