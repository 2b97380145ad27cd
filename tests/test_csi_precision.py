"""Precision: float32 at rest, float64 one batch at a time.

Every Dataset array is float32, the values its container holds, however the
Dataset was made; apply_normalizer turns one gathered batch or chunk into the
float64 array the network computes on. The normaliser must give the bits of
float64 arithmetic on those values, a generated dataset must train and
evaluate as its container does, and gen, split, train and evaluate must hold
few copies of the CSI at once.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CountingPool, StalledPool
from csiloc import cli, data, layers
from csiloc.cli import main
from csiloc.data import (Dataset, NormStats, SplitStrategy, SynthConfig, apply_normalizer,
                         export_npy, fit_normalizer, generate_synthetic, import_npy,
                         load_canonical, split, write_canonical)
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


def bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


def dataset_bits(ds):
    return [bits(arr) for arr in (ds.csi, ds.snr, ds.pos)]


class TestDtype:
    def test_every_array_float32(self, tmp_path):
        """Generated, loaded, imported, float64 and int input: all three arrays float32."""
        ds = generate_synthetic(SynthConfig(num_samples=6, num_subcarriers=16, seed=1))
        write_canonical(tmp_path / "c", ds)
        export_npy(tmp_path / "npy", ds)
        imported = import_npy(tmp_path / "npy" / "csi.npy", tmp_path / "npy" / "snr.npy",
                              tmp_path / "npy" / "pos.npy")
        loaded = load_canonical(tmp_path / "c")
        doubles = Dataset(*(arr.astype(np.float64) for arr in (ds.csi, ds.snr, ds.pos)))
        ints = Dataset(np.ones((1, 2, 1, 8), np.int64), np.ones((1, 1), np.int64),
                       np.ones((1, 3), np.int64))
        for d in (ds, loaded, imported, doubles, ints):
            assert [arr.dtype for arr in (d.csi, d.snr, d.pos)] == [np.float32] * 3
        for d in (loaded, imported, doubles):
            assert dataset_bits(d) == dataset_bits(ds)

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
    ds = float32_dataset(n, a, w, seed=n * w, offset=offset)
    csi64 = ds.csi.astype(np.float64)
    stats = fit_normalizer(ds)
    # the scale is ndarray.std() of the float64 values, the quotient float64 division
    assert stats.scale == float(csi64.std())
    assert bits(apply_normalizer(ds.csi, stats)) == bits(csi64 / stats.scale)


def test_normalizer_on_loaded_container(tmp_path):
    ds = generate_synthetic(SynthConfig(num_samples=20, num_subcarriers=64, seed=4))
    write_canonical(tmp_path / "c", ds)
    loaded = load_canonical(tmp_path / "c")
    assert loaded.csi.dtype == np.float32 and not loaded.csi.flags.c_contiguous
    csi64 = loaded.csi.astype(np.float64)
    stats = fit_normalizer(loaded)
    assert stats.scale == float(csi64.std())
    assert bits(apply_normalizer(loaded.csi, stats)) == bits(csi64 / stats.scale)


LAYOUTS = ("container", "c_order", "subset", "strided", "flat")


def csi_in_layout(size, layout, offset, seed):
    """float32 CSI of size values in one layout a training set's CSI can have: the
    container's transposed view, C order, a fancy-indexed subset or a strided slice
    of the container's view (each (N, 2, A, W), so size is even), or a flat run."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return (rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 1) + offset).astype("<f4")
    if layout == "flat":
        return draw(size)
    m = size // 2
    a = 2 if m % 2 == 0 else 1
    n = 2 if m // a % 2 == 0 else 1
    w = m // (a * n)
    if layout == "subset":
        return draw(2 * n, a, w, 2).transpose(0, 3, 1, 2)[rng.permutation(2 * n)[:n]]
    if layout == "strided":
        return draw(n, a, 2 * w, 2)[:, :, ::2].transpose(0, 3, 1, 2)
    csi = draw(n, a, w, 2).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(csi) if layout == "c_order" else csi


@st.composite
def normaliser_cases(draw):
    chunk = draw(st.sampled_from([128, 136, 1000, data._NORM_CHUNK]))
    layout = draw(st.sampled_from(LAYOUTS))
    edges = [1, 7, 8, 127, 128, 129, chunk, 2 * chunk - 8, 2 * chunk + 8]
    size = draw(st.sampled_from(edges) | st.integers(1, 3 * chunk))
    if layout != "flat":
        size = max(2, size + size % 2)
    return chunk, layout, size, draw(st.floats(-8.0, 8.0)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(normaliser_cases())
def test_normalizer_is_numpys_std_bit_for_bit(case):
    """The chunked mean and scale are astype(np.float64).mean() and .std(), to the bit,
    at the sizes where numpy's pairwise tree and the chunked walk split."""
    chunk, layout, size, offset, seed = case
    csi = csi_in_layout(size, layout, offset, seed)
    assert csi.size == size
    csi64 = csi.astype(np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_NORM_CHUNK", chunk)
        mean, scale = data._mean_and_std(csi.ravel(order="K"))
        assert (mean, scale) == (csi64.mean(), csi64.std())
        if layout != "flat" and scale > 0:
            n, _, a, _ = csi.shape
            ds = Dataset(csi, np.zeros((n, a)), np.zeros((n, 3)))
            assert fit_normalizer(ds).scale == float(csi64.std())


def test_normalizer_bits_do_not_depend_on_threads(monkeypatch):
    """The root's two subtrees go to two threads, and their sums combine as in one."""
    ds = float32_dataset(40, 16, 128, seed=12, offset=0.5)   # 163,840 values, 2.5 chunks
    scales = []
    for threads in (1, 2, 3, 4):
        pool = CountingPool(layers._POOL)
        monkeypatch.setattr(layers, "_POOL", pool)
        monkeypatch.setenv("CSILOC_THREADS", str(threads))
        scales.append(fit_normalizer(ds).scale)
        assert pool.submits == (0 if threads == 1 else 2), threads   # one a pass
    monkeypatch.setattr(layers, "_POOL", StalledPool())
    scales.append(fit_normalizer(ds).scale)
    assert {scale.hex() for scale in scales} == {float(ds.csi.astype(np.float64).std()).hex()}


def test_normalizer_memory_does_not_grow_with_n():
    """fit_normalizer holds two chunk buffers, whatever the size of the training set."""
    peaks = []
    for n in (20, 320):   # 2.5 and 40 chunks of CSI values
        ds = float32_dataset(n, 16, 256, seed=n)
        tracemalloc.start()
        try:
            fit_normalizer(ds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < data._NORM_CHUNK * 8, peaks


@pytest.mark.parametrize("kind,arch", [("linear", {}),
                                       ("cnn4", {"base_filters": 2, "kernel": 3, "stride": 2,
                                                 "head_units": 8})])
def test_in_memory_equals_container(tmp_path, kind, arch):
    """A generated dataset trains and evaluates as its container does, bit for bit."""
    ds = generate_synthetic(SynthConfig(num_samples=70, num_subcarriers=32, seed=6))
    write_canonical(tmp_path / "c", ds)
    cfg = TrainConfig(max_epochs=3, batch_size=8, seed=2)
    runs = []
    for data in (ds, load_canonical(tmp_path / "c")):
        train_ids, eval_ids = split(data, SplitStrategy("random", 0.2, 3))
        train_set, eval_set = data.subset(train_ids), data.subset(eval_ids)
        norm = fit_normalizer(train_set)
        net, history = train(build_model(kind, arch, (2, 16, 32)), train_set, cfg, norm)
        report = evaluate(net, eval_set, norm)
        arrays = (report.truth, report.estimate, report.distance_error, report.norm_truth)
        assert all(arr.dtype == np.float64 for arr in arrays)
        runs.append((norm, [bits(v) for v in net.snapshot()],
                     [(r.epoch, r.train_mde, r.monitor_mde, r.lr) for r in history.records],
                     [bits(arr) for arr in arrays], (report.mde_m, report.rmse_m, report.nmde)))
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


def test_gen_memory_slope(tmp_path):
    """Doubling n adds about one csi.f32 to gen's peak: no whole-set float64 array or copy."""
    peaks, sizes = [], []
    for n in (512, 1024):
        out = tmp_path / str(n)
        peaks.append(traced_peak(["gen", "--out", str(out), "--samples", str(n),
                                  "--subcarriers", "128", "--seed", "5"]))
        sizes.append((out / "csi.f32").stat().st_size)
    assert peaks[1] - peaks[0] <= 1.25 * (sizes[1] - sizes[0])


def test_gen_memory(tmp_path):
    """gen holds the float32 CSI and, per 256-sample chunk, the channel response
    with one more complex128 array (a path, or the noise and one of its parts)."""
    out = tmp_path / "g"
    peak = traced_peak(["gen", "--out", str(out), "--samples", "512", "--subcarriers", "128",
                        "--seed", "5"])
    chunk_bytes = 256 * 16 * 128 * np.dtype(np.complex128).itemsize
    assert peak < (out / "csi.f32").stat().st_size + 3 * chunk_bytes


def test_split_memory(tmp_path, container):
    peak = traced_peak(["split", "--data", str(container), "--kind", "random",
                        "--out", str(tmp_path / "s")])
    # the read bytes, the two subsets and small change; no float64 copy
    assert peak < 3.0 * (container / "csi.f32").stat().st_size


def test_train_memory(tmp_path, container):
    peak = traced_peak(["train", "--train", str(container), "--model", "linear",
                        "--max-epochs", "1", "--out", str(tmp_path / "m")])
    # the read float32 bytes, the float32 monitor rows and one float64 batch at a
    # time; test_train_memory_whole_run holds the same run to 1.5x
    assert peak < 4.5 * (container / "csi.f32").stat().st_size


def test_train_memory_whole_run(tmp_path, container):
    peak = traced_peak(["train", "--train", str(container), "--model", "linear",
                        "--max-epochs", "1", "--out", str(tmp_path / "m")])
    # the read float32 bytes, the float32 monitor rows and one float64 batch or
    # chunk at a time; fit_normalizer converts one span at a time
    assert peak <= 1.5 * (container / "csi.f32").stat().st_size


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
