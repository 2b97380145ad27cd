"""CSI precision: float32 at rest, float64 one batch at a time.

A container or complex64 NPY keeps its CSI as float32; apply_normalizer turns
one gathered batch or chunk into the float64 array the network computes on.
The normaliser and training must give the same bits as the float64 copy of
the same values, and split, train and evaluate must hold few copies of the
CSI at once.
"""

import tracemalloc

import numpy as np
import pytest

from csiloc import cli
from csiloc.cli import main
from csiloc.data import (Dataset, NormStats, SynthConfig, apply_normalizer, export_npy,
                         fit_normalizer, generate_synthetic, import_npy, load_canonical,
                         write_canonical)
from csiloc.evaluation import evaluate
from csiloc.layers import Flatten
from csiloc.models import build_model
from csiloc.train import TrainConfig, train


def float32_dataset(n, a, w, seed, offset=0.0):
    """A float32 dataset with the container's layout: a transposed (N, A, W, 2) array."""
    rng = np.random.default_rng(seed)
    disk = (rng.standard_normal((n, a, w, 2)) * 10.0 ** rng.uniform(-4, 1, (n, a, 1, 1))
            + offset).astype("<f4")
    return Dataset(disk.transpose(0, 3, 1, 2), rng.uniform(5, 30, (n, a)),
                   rng.uniform(0.5, 4.0, (n, 3)))


def as_float64(ds):
    return Dataset(ds.csi.astype(np.float64), ds.snr, ds.pos)


def bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


class TestDtype:
    def test_float32_kept_other_input_float64(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_samples=6, num_subcarriers=16, seed=1))
        assert ds.csi.dtype == np.float64
        write_canonical(tmp_path / "c", ds)
        assert load_canonical(tmp_path / "c").csi.dtype == np.float32
        export_npy(tmp_path / "npy", ds)
        imported = import_npy(tmp_path / "npy" / "csi.npy", tmp_path / "npy" / "snr.npy",
                              tmp_path / "npy" / "pos.npy")
        assert imported.csi.dtype == np.float32
        np.testing.assert_array_equal(imported.csi, ds.csi.astype(np.float32))
        ints = Dataset(np.ones((1, 2, 1, 8), np.int64), np.ones((1, 1)), np.ones((1, 3)))
        assert ints.csi.dtype == np.float64

    def test_normalised_csi_is_float64(self):
        ds = float32_dataset(4, 2, 8, seed=0)
        out = apply_normalizer(ds.csi[[2, 0]], NormStats(0.5))
        assert out.dtype == np.float64 and out.shape == (2, 2, 2, 8)
        assert ds.csi.dtype == np.float32

    def test_flatten_of_a_normalised_batch_is_a_view(self):
        # the container view is (N, A, W, 2) in memory; the quotient must be C-ordered
        # in (N, 2, A, W) so the linear and fcnn models flatten it without a copy
        batch = apply_normalizer(float32_dataset(4, 2, 8, seed=0).csi[[2, 0]], NormStats(0.5))
        assert np.shares_memory(Flatten().forward(batch), batch)


# (n, antennas, subcarriers, offset); the last three hold over 8,192 values
SHAPES = [(3, 2, 8, 0.0), (1, 1, 8, 0.0), (40, 16, 64, 0.0), (9, 16, 924, 0.0), (50, 4, 64, 3.0)]


@pytest.mark.parametrize("n,a,w,offset", SHAPES)
def test_normalizer_float32_equals_float64_path(n, a, w, offset):
    ds32 = float32_dataset(n, a, w, seed=n * w, offset=offset)
    ds64 = as_float64(ds32)
    stats = fit_normalizer(ds32)
    # the scale is ndarray.std() of the float64 values, whichever dtype holds them
    assert stats == fit_normalizer(ds64) and stats.scale == float(ds64.csi.std())
    out32, out64 = apply_normalizer(ds32.csi, stats), apply_normalizer(ds64.csi, stats)
    assert bits(out32) == bits(out64) == bits(ds64.csi / stats.scale)


def test_normalizer_on_loaded_container(tmp_path):
    ds = generate_synthetic(SynthConfig(num_samples=20, num_subcarriers=64, seed=4))
    write_canonical(tmp_path / "c", ds)
    loaded = load_canonical(tmp_path / "c")
    assert loaded.csi.dtype == np.float32 and not loaded.csi.flags.c_contiguous
    copy = as_float64(loaded)
    stats = fit_normalizer(loaded)
    assert stats == fit_normalizer(copy)
    assert bits(apply_normalizer(loaded.csi, stats)) == bits(apply_normalizer(copy.csi, stats))


@pytest.mark.parametrize("kind,arch", [("linear", {}),
                                       ("cnn4", {"base_filters": 2, "kernel": 3, "stride": 2,
                                                 "head_units": 8})])
def test_train_float32_equals_float64_copy(tmp_path, kind, arch):
    ds = generate_synthetic(SynthConfig(num_samples=70, num_subcarriers=32, seed=6))
    write_canonical(tmp_path / "c", ds)
    loaded = load_canonical(tmp_path / "c")
    cfg = TrainConfig(max_epochs=3, batch_size=8, seed=2)
    norm = fit_normalizer(loaded)
    runs = []
    for data in (loaded, as_float64(loaded)):
        net = build_model(kind, arch, (2, 16, 32))
        net, history = train(net, data, cfg, norm)
        runs.append(([bits(v) for v in net.snapshot()],
                     [(r.epoch, r.train_mde, r.monitor_mde, r.lr) for r in history.records]))
    assert runs[0] == runs[1]


def traced_peak(argv):
    """Peak bytes traced while csiloc runs argv in this process."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """400 samples x 16 antennas x 128 subcarriers: 6.6 MB of csi.f32."""
    root = tmp_path_factory.mktemp("precision")
    write_canonical(root / "full", generate_synthetic(
        SynthConfig(num_samples=400, num_subcarriers=128, seed=3)))
    return root / "full"


def test_split_memory(tmp_path, container):
    peak = traced_peak(["split", "--data", str(container), "--kind", "random",
                        "--out", str(tmp_path / "s")])
    # the read bytes, the two subsets and small change; no float64 copy
    assert peak < 3.0 * (container / "csi.f32").stat().st_size


def test_train_memory(tmp_path, container):
    peak = traced_peak(["train", "--train", str(container), "--model", "linear",
                        "--max-epochs", "1", "--out", str(tmp_path / "m")])
    # the read float32 bytes and fit_normalizer's float64 temporary
    assert peak < 4.5 * (container / "csi.f32").stat().st_size


def test_train_memory_after_fit(tmp_path, container, monkeypatch):
    fit = cli.fit_normalizer

    def fit_then_reset_peak(ds):
        norm = fit(ds)
        tracemalloc.reset_peak()
        return norm
    monkeypatch.setattr(cli, "fit_normalizer", fit_then_reset_peak)
    peak = traced_peak(["train", "--train", str(container), "--model", "linear",
                        "--max-epochs", "1", "--out", str(tmp_path / "m")])
    # the read float32 bytes, the float32 monitor rows and one float64 batch or
    # chunk at a time; no normalised copy of the training set
    assert peak < 2.0 * (container / "csi.f32").stat().st_size


@pytest.mark.parametrize("threads,bound", [(1, 1.25), (2, 2.25)])
def test_evaluate_memory(tmp_path, monkeypatch, threads, bound):
    """1,200 samples at 16 x 64 are five 256-sample chunks; each chunk in flight
    holds its float64 quotient and the dense layer's flattened copy of it."""
    ds = generate_synthetic(SynthConfig(num_samples=1200, num_subcarriers=64, seed=8))
    write_canonical(tmp_path / "c", ds)
    loaded = load_canonical(tmp_path / "c")
    net = build_model("linear", {}, (2, 16, 64))
    norm = fit_normalizer(loaded)
    monkeypatch.setenv("CSILOC_THREADS", str(threads))
    tracemalloc.start()
    try:
        report = evaluate(net, loaded, norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_samples == 1200
    # no normalised float64 copy of the evaluation set (2x the float32 bytes)
    assert peak < bound * loaded.csi.nbytes
