import hashlib
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from csiloc import data
from csiloc.cli import main
from csiloc.data import (CANONICAL_FILES, Dataset, NormStats, SplitStrategy, SynthConfig,
                         antenna_positions, apply_normalizer, channel_response, export_npy,
                         fit_normalizer, generate_synthetic, load_canonical, round_half_up,
                         scene_reflectors, split, split_indices, subcarrier_frequencies,
                         write_canonical, SPEED_OF_LIGHT, SYNTH_X_RANGE, SYNTH_Y_RANGE,
                         SYNTH_Z_RANGE)
from csiloc.errors import DataFormatError, DegenerateGeometryError


def tiny_dataset(n=3, a=2, w=8, seed=0):
    rng = np.random.default_rng(seed)
    # values on the float32 grid so the container round-trips bit-exactly
    csi = rng.standard_normal((n, 2, a, w)).astype(np.float32).astype(np.float64)
    snr = rng.uniform(5, 30, (n, a)).astype(np.float32).astype(np.float64)
    pos = rng.uniform(0, 4, (n, 3)).astype(np.float32).astype(np.float64)
    return Dataset(csi, snr, pos)


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(DataFormatError, match="nonempty"):
            Dataset(np.zeros((0, 2, 2, 4)), np.zeros((0, 2)), np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        csi = np.zeros((1, 2, 2, 4))
        csi[0, 0, 0, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            Dataset(csi, np.zeros((1, 2)), np.zeros((1, 3)))

    @pytest.mark.parametrize("csi_shape", [(10, 2, 2, 8), (3, 2, 16, 64)])   # 2 samples a chunk, or 1
    @pytest.mark.parametrize("field", ["csi", "snr", "pos"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_any_chunk(self, monkeypatch, csi_shape, field, value):
        monkeypatch.setattr(data, "_FINITE_CHUNK", 64)
        n, _, a, _ = csi_shape
        arrays = {"csi": np.zeros(csi_shape, np.float32), "snr": np.zeros((n, a)), "pos": np.zeros((n, 3))}
        Dataset(**arrays)
        size = arrays[field].size
        for at in sorted({0, 63, 64, size // 2, size - 1} & set(range(size))):
            bad = {**arrays, field: arrays[field].copy()}
            bad[field].flat[at] = value
            with pytest.raises(DataFormatError, match=f"^non-finite values in {field}$"):
                Dataset(**bad)

    def test_finiteness_check_memory(self):
        """The check holds one chunk's bools at a time, not one per CSI value."""
        csi = np.ones((400, 2, 16, 128), np.float32)
        snr, pos = np.zeros((400, 16)), np.zeros((400, 3))
        tracemalloc.start()
        try:
            Dataset(csi, snr, pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < csi.size / 8, peak

    def test_rejects_inconsistent(self):
        with pytest.raises(DataFormatError):
            Dataset(np.zeros((2, 2, 2, 4)), np.zeros((2, 3)), np.zeros((2, 3)))


class TestCanonicalContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = tiny_dataset()
        write_canonical(tmp_path / "d", ds)
        back = load_canonical(tmp_path / "d")
        npt.assert_array_equal(back.csi, ds.csi)
        npt.assert_array_equal(back.snr, ds.snr)
        npt.assert_array_equal(back.pos, ds.pos)
        assert back.fc_hz == ds.fc_hz and back.bandwidth_hz == ds.bandwidth_hz

    def test_second_pass_fixed_point(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_samples=5, num_subcarriers=16, seed=1))
        write_canonical(tmp_path / "a", ds)
        first = load_canonical(tmp_path / "a")
        write_canonical(tmp_path / "b", first)
        second = load_canonical(tmp_path / "b")
        npt.assert_array_equal(first.csi, second.csi)
        npt.assert_array_equal(first.snr, second.snr)
        npt.assert_array_equal(first.pos, second.pos)

    def test_declared_sizes(self, tmp_path):
        ds = tiny_dataset(n=3, a=2, w=8)
        write_canonical(tmp_path / "d", ds)
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        n, a, w = meta["n"], meta["antennas"], meta["subcarriers"]
        assert (tmp_path / "d" / "csi.f32").stat().st_size == n * a * w * 2 * 4
        assert (tmp_path / "d" / "snr.f32").stat().st_size == n * a * 4
        assert (tmp_path / "d" / "pos.f32").stat().st_size == n * 3 * 4

    def test_truncated_csi(self, tmp_path):
        ds = tiny_dataset()
        write_canonical(tmp_path / "d", ds)
        blob = (tmp_path / "d" / "csi.f32").read_bytes()
        (tmp_path / "d" / "csi.f32").write_bytes(blob[:-4])
        with pytest.raises(DataFormatError, match="size mismatch"):
            load_canonical(tmp_path / "d")

    def test_missing_file(self, tmp_path):
        ds = tiny_dataset()
        write_canonical(tmp_path / "d", ds)
        (tmp_path / "d" / "snr.f32").unlink()
        with pytest.raises(DataFormatError, match="missing snr.f32"):
            load_canonical(tmp_path / "d")

    def test_malformed_json(self, tmp_path):
        ds = tiny_dataset()
        write_canonical(tmp_path / "d", ds)
        (tmp_path / "d" / "meta.json").write_text("{broken")
        with pytest.raises(DataFormatError, match="malformed JSON"):
            load_canonical(tmp_path / "d")
        (tmp_path / "d" / "meta.json").write_bytes(b"\xff\xfe{}")   # not UTF-8
        with pytest.raises(DataFormatError, match="malformed JSON"):
            load_canonical(tmp_path / "d")

    @pytest.mark.parametrize("edit", [{"n": None}, {"antennas": [16]}, {"n": "six"}, {"fc_hz": "x"},
                                      5, {"n": 6.7}, {"n": True}, {"n": -6, "antennas": -2},
                                      {"bandwidth_hz": None}, {"frame": 3}])
    def test_malformed_meta_typed(self, tmp_path, capsys, edit):
        write_canonical(tmp_path / "d", tiny_dataset(n=6))
        meta_path = tmp_path / "d" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, **edit} if isinstance(edit, dict) else edit))
        with pytest.raises(DataFormatError):
            load_canonical(tmp_path / "d")
        argv = ["split", "--data", str(tmp_path / "d"), "--kind", "random", "--out", str(tmp_path / "s")]
        assert main(argv) == 1
        assert "csiloc split:" in capsys.readouterr().err

    def test_non_finite_on_disk(self, tmp_path):
        ds = tiny_dataset()
        write_canonical(tmp_path / "d", ds)
        blob = bytearray((tmp_path / "d" / "csi.f32").read_bytes())
        blob[0:4] = np.array([np.inf], "<f4").tobytes()
        (tmp_path / "d" / "csi.f32").write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="non-finite"):
            load_canonical(tmp_path / "d")


class TestSyntheticChannel:
    CFG = SynthConfig(num_samples=8, num_subcarriers=32, num_reflectors=0, seed=5)

    def test_single_path_flat_magnitude(self):
        pos = np.array([[2.0, 0.3, 1.0], [4.0, -0.5, 0.9]])
        h = channel_response(self.CFG, pos)
        mag = np.abs(h)
        npt.assert_allclose(mag, np.broadcast_to(mag[:, :, :1], mag.shape), rtol=1e-12)

    def test_single_path_phase_ramp(self):
        pos = np.array([[3.0, 0.2, 1.1]])
        h = channel_response(self.CFG, pos)
        freqs = subcarrier_frequencies(self.CFG)
        ants = antenna_positions()
        delta_f = freqs[1] - freqs[0]
        tau = np.linalg.norm(pos[0] - ants, axis=1) / SPEED_OF_LIGHT
        # phase is affine in f with slope -2*pi*tau
        dphi = np.angle(h[0, :, 1:] * np.conj(h[0, :, :-1]))
        npt.assert_allclose(dphi, np.tile((-2 * np.pi * delta_f * tau)[:, None], (1, 31)),
                            rtol=1e-9)

    def test_los_gain_is_inverse_distance(self):
        pos = np.array([[2.0, 0.0, 1.0]])
        h = channel_response(self.CFG, pos)
        d = np.linalg.norm(pos[0] - antenna_positions(), axis=1)
        npt.assert_allclose(np.abs(h[0, :, 0]), 1.0 / d, rtol=1e-12)

    def test_reflectors_break_flatness(self):
        cfg = SynthConfig(num_samples=1, num_subcarriers=32, num_reflectors=3, seed=5)
        points, gains = scene_reflectors(cfg, np.random.default_rng(5))
        h = channel_response(cfg, np.array([[3.0, 0.0, 1.0]]), points, gains)
        assert np.abs(h).std() > 1e-6


# sha256 of `csiloc gen --samples 300 --subcarriers 64 --seed 4`'s container and of
# export_npy's NPYs of the same dataset, taken when the generator still held float64
GEN_SHA256 = {
    "meta.json": "5bdb52f10cb0e32bbc5741f660f95a6255e9bb68b961f0af8dce2aa6d054644d",
    "csi.f32": "37a04945974918a148f9ecda90feb417bb333468cddceb6ff44ec3c1f396e994",
    "snr.f32": "91992e53278afbb3ab274bfd92a473b785e3078bd34cec505c508ec326678528",
    "pos.f32": "9054ad8b0bf7ec6dbc85ab0a47c732ccc8331bca2d16157785ab40f3ff90acfd",
    "csi.npy": "e969c9735cdc8e63a53204a3fdf7c8ad7f225df271e60a81927a26b88688f181",
    "snr.npy": "c5a0e2e026e80ad2743bbec4611d26c7197ab6710f2c2e85221d8761df70311b",
    "pos.npy": "fec12e050f5c28764fea34a0414d0bacf628a0eac406d4c8df934cf95195e1b5",
}


class TestGenerator:
    def test_seed_determinism(self):
        cfg = SynthConfig(num_samples=20, num_subcarriers=16, seed=9)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        npt.assert_array_equal(a.csi, b.csi)
        npt.assert_array_equal(a.snr, b.snr)
        npt.assert_array_equal(a.pos, b.pos)

    def test_recorded_snr_is_realized(self):
        cfg = SynthConfig(num_samples=12, num_subcarriers=16, num_reflectors=2, seed=10)
        ds = generate_synthetic(cfg)
        # the generator's float64 positions, redrawn: the reflectors are its first draw
        rng = np.random.default_rng(cfg.seed)
        scene = scene_reflectors(cfg, rng)
        pos = rng.uniform(*zip(SYNTH_X_RANGE, SYNTH_Y_RANGE, SYNTH_Z_RANGE), size=(cfg.num_samples, 3))
        npt.assert_array_equal(pos.astype(np.float32), ds.pos)
        clean = channel_response(cfg, pos, *scene)
        csi = ds.csi.astype(np.float64)
        noise = (csi[:, 0] + 1j * csi[:, 1]) - clean
        realized = 10 * np.log10(np.mean(np.abs(clean) ** 2, axis=2)
                                 / np.mean(np.abs(noise) ** 2, axis=2))
        # the stored SNR and CSI are float32: each is within a few float32 roundings
        npt.assert_allclose(ds.snr, realized, rtol=1e-6)

    def test_gen_bytes_pinned(self, tmp_path):
        """csiloc gen's container, and export_npy of the same dataset, keep their bytes."""
        out = tmp_path / "gen"
        assert main(["gen", "--out", str(out), "--samples", "300", "--subcarriers", "64",
                     "--seed", "4"]) == 0
        export_npy(tmp_path / "npy", generate_synthetic(
            SynthConfig(num_samples=300, num_subcarriers=64, seed=4)))
        files = [out / name for name in CANONICAL_FILES] + [
            tmp_path / "npy" / name for name in ("csi.npy", "snr.npy", "pos.npy")]
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files} == GEN_SHA256

    def test_snr_near_target_range(self):
        cfg = SynthConfig(num_samples=30, num_subcarriers=64, seed=11,
                          snr_db_range=(15.0, 15.0))
        ds = generate_synthetic(cfg)
        assert np.all(np.abs(ds.snr - 15.0) < 3.0)

    def test_positions_inside_extents(self):
        cfg = SynthConfig(num_samples=50, num_subcarriers=16, seed=12)
        ds = generate_synthetic(cfg)
        assert ds.pos[:, 0].min() >= SYNTH_X_RANGE[0] and ds.pos[:, 0].max() <= SYNTH_X_RANGE[1]
        assert ds.pos[:, 1].min() >= SYNTH_Y_RANGE[0] and ds.pos[:, 1].max() <= SYNTH_Y_RANGE[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(num_samples=0)
        with pytest.raises(ValueError):
            SynthConfig(num_subcarriers=4)
        with pytest.raises(ValueError):
            SynthConfig(num_reflectors=-1)


class TestNormalizer:
    def test_plus_minus_c(self):
        csi = np.where(np.random.default_rng(14).random((4, 2, 2, 8)) < 0.5, -2.5, 2.5)
        ds = Dataset(csi, np.zeros((4, 2)), np.ones((4, 3)))
        stats = fit_normalizer(ds)
        assert stats.scale == 2.5
        npt.assert_array_equal(np.abs(apply_normalizer(ds.csi, stats)), np.ones((4, 2, 2, 8)))

    def test_train_std_one(self):
        ds = generate_synthetic(SynthConfig(num_samples=10, num_subcarriers=16, seed=15))
        stats = fit_normalizer(ds)
        assert abs(apply_normalizer(ds.csi, stats).std() - 1.0) < 1e-12

    def test_positions_untouched(self):
        train = generate_synthetic(SynthConfig(num_samples=10, num_subcarriers=16, seed=16))
        ev = generate_synthetic(SynthConfig(num_samples=5, num_subcarriers=16, seed=17))
        stats = fit_normalizer(train)
        before = (ev.csi.copy(), ev.pos.copy(), ev.snr.copy())
        out = apply_normalizer(ev.csi, stats)
        npt.assert_array_equal(out, ev.csi.astype(np.float64) / stats.scale)
        for was, now in zip(before, (ev.csi, ev.pos, ev.snr)):
            npt.assert_array_equal(was, now)

    @pytest.mark.parametrize("scale", [0.0, -2.0, float("inf"), float("-inf"), float("nan")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="finite and positive"):
            NormStats(scale)

    def test_zero_variance(self):
        ds = Dataset(np.full((2, 2, 2, 8), 3.0), np.zeros((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="zero variance"):
            fit_normalizer(ds)


def table_positions(n=17486, seed=20):
    rng = np.random.default_rng(seed)
    pos = np.empty((n, 3))
    pos[:, 0] = rng.uniform(1.0, 5.0, n)   # long axis, 4 m
    pos[:, 1] = rng.uniform(-1.0, 1.0, n)  # short axis, 2 m
    pos[:, 2] = rng.uniform(0.8, 1.2, n)
    return pos


class TestSplits:
    def test_random_counts_at_published_scale(self):
        pos = table_positions()
        train, ev = split_indices(pos, SplitStrategy("random", 0.1, seed=3))
        assert len(ev) == 1749 and len(train) == 15737

    @pytest.mark.parametrize("kind", ["random", "narrow", "wide", "within"])
    def test_partition_property(self, kind):
        pos = table_positions(n=2000)
        train, ev = split_indices(pos, SplitStrategy(kind, 0.1, seed=4))
        merged = np.sort(np.concatenate([train, ev]))
        npt.assert_array_equal(merged, np.arange(2000))
        assert len(np.intersect1d(train, ev)) == 0

    @pytest.mark.parametrize("kind", ["random", "narrow", "wide", "within"])
    def test_fraction_within_one_percent(self, kind):
        pos = table_positions()
        _, ev = split_indices(pos, SplitStrategy(kind, 0.1, seed=5))
        assert abs(len(ev) - 1748.6) <= 0.01 * len(pos)

    def test_narrow_is_short_axis_strip(self):
        pos = table_positions(n=5000)
        train, ev = split_indices(pos, SplitStrategy("narrow", 0.1))
        # short axis is y here; all eval beyond the 90% quantile plane
        q90 = np.quantile(pos[:, 1], 0.9)
        assert pos[ev, 1].min() > q90 - 1e-12
        assert pos[train, 1].max() < pos[ev, 1].min()
        # strip spans the long axis
        assert np.ptp(pos[ev, 0]) > 0.9 * np.ptp(pos[:, 0])

    def test_wide_is_long_axis_strip(self):
        pos = table_positions(n=5000)
        train, ev = split_indices(pos, SplitStrategy("wide", 0.1))
        assert pos[train, 0].max() < pos[ev, 0].min()
        assert np.ptp(pos[ev, 1]) > 0.9 * np.ptp(pos[:, 1])

    def test_wide_collinear_example(self):
        pos = np.zeros((10, 3))
        pos[:, 0] = np.arange(10.0)
        train, ev = split_indices(pos, SplitStrategy("wide", 0.2))
        npt.assert_array_equal(ev, [8, 9])

    def test_within_rectangle_containment(self):
        pos = table_positions(n=5000)
        train, ev = split_indices(pos, SplitStrategy("within", 0.1))
        center = pos[:, :2].mean(axis=0)
        cheb = np.abs(pos[:, :2] - center).max(axis=1)
        half = cheb[ev].max()
        assert (cheb[ev] <= half).all()
        assert (cheb[train] > half).all()

    def test_deterministic(self):
        pos = table_positions(n=1000)
        for kind in ("random", "narrow", "wide", "within"):
            a = split_indices(pos, SplitStrategy(kind, 0.1, seed=6))
            b = split_indices(pos, SplitStrategy(kind, 0.1, seed=6))
            npt.assert_array_equal(a[0], b[0])
            npt.assert_array_equal(a[1], b[1])

    def test_random_seed_changes_split(self):
        pos = table_positions(n=1000)
        a = split_indices(pos, SplitStrategy("random", 0.1, seed=1))[1]
        b = split_indices(pos, SplitStrategy("random", 0.1, seed=2))[1]
        assert not np.array_equal(a, b)

    def test_degenerate_geometry(self):
        pos = np.zeros((10, 3))
        pos[:, 0] = np.arange(10.0)
        with pytest.raises(DegenerateGeometryError):
            split_indices(pos, SplitStrategy("narrow", 0.2))  # short axis has no spread
        same = np.ones((10, 3))
        for kind in ("narrow", "wide", "within"):
            with pytest.raises(DegenerateGeometryError):
                split_indices(same, SplitStrategy(kind, 0.2))

    def test_split_datasets(self):
        ds = generate_synthetic(SynthConfig(num_samples=40, num_subcarriers=16, seed=21))
        train, ev = split(ds, SplitStrategy("random", 0.25, seed=7))
        assert len(train) + len(ev) == 40 and len(ev) == 10
        all_pos = np.vstack([train.pos, ev.pos])
        npt.assert_array_equal(np.sort(all_pos, axis=0), np.sort(ds.pos, axis=0))

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            SplitStrategy("diagonal")
        with pytest.raises(ValueError):
            SplitStrategy("random", eval_fraction=0.0)


@st.composite
def _positions(draw):
    """2 to 24 positions on a coarse grid, so ties are common; any axis may be constant."""
    n = draw(st.integers(2, 24))
    axes = []
    for _ in range(3):
        if draw(st.booleans()):
            axes.append([draw(st.sampled_from([0.0, 1.5]))] * n)
        else:
            axes.append(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n)))
    return np.array(axes).T


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_positions(), st.sampled_from(["random", "narrow", "wide", "within"]),
       st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
def test_property_split_partitions(pos, kind, fraction, seed):
    """Disjoint, exhaustive, sorted, eval at least the quota; else only DegenerateGeometryError."""
    try:
        train, ev = split_indices(pos, SplitStrategy(kind, fraction, seed))
    except DegenerateGeometryError:
        return
    n = len(pos)
    for ids in (train, ev):
        assert len(ids) and np.all(np.diff(ids) > 0)
    npt.assert_array_equal(np.sort(np.concatenate([train, ev])), np.arange(n))
    quota = max(1, round_half_up(n * fraction))
    assert len(ev) == quota if kind == "random" else len(ev) >= quota
