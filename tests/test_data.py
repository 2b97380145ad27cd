import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

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
from csiloc.models import build_model, save_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_chunked_write_bytes(self, tmp_path, monkeypatch):
        """Rows gathered and written a row or two at a time, in their order, hold the
        bytes of the subset of those rows written whole."""
        ds, rows = tiny_dataset(n=6), [4, 0, 2, 5]
        write_canonical(tmp_path / "whole", ds.subset(rows))
        monkeypatch.setattr(data, "_WRITE_CHUNK", 20)   # csi 1 row, snr 2 rows, pos 1 row per chunk
        write_canonical(tmp_path / "chunked", ds, rows)
        for name in CANONICAL_FILES:
            assert (tmp_path / "chunked" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

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
                                      {"bandwidth_hz": None}, {"frame": 3},
                                      # split would write a NaN or infinite band field as invalid JSON
                                      {"fc_hz": float("nan")}, {"fc_hz": float("inf")}, {"fc_hz": -1.25e9},
                                      {"bandwidth_hz": float("nan")}, {"bandwidth_hz": float("-inf")},
                                      {"bandwidth_hz": -20e6},
                                      # equal to 1 in Python, but a bool is no number, 1.0 no integer
                                      {"format_version": True}, {"format_version": 1.0}])
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

    @pytest.mark.parametrize("field", ["antennas", "subcarriers"])
    @pytest.mark.parametrize("command", ["split", "train", "eval"])
    def test_zero_size_samples(self, tmp_path, capsys, field, command):
        """A container whose samples hold no antenna or no subcarrier, with blobs of the
        matching empty size, fails with one csiloc line and no traceback."""
        write_canonical(tmp_path / "d", tiny_dataset(n=6))
        meta_path = tmp_path / "d" / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), field: 0}))
        for name in ("csi.f32", "snr.f32") if field == "antennas" else ("csi.f32",):
            (tmp_path / "d" / name).write_bytes(b"")
        with pytest.raises(DataFormatError, match="both > 0"):
            load_canonical(tmp_path / "d")
        data, ckpt = str(tmp_path / "d"), str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, build_model("linear", {}, (2, 2, 8)), norm_scale=1.0)
        args = {"split": ["--data", data, "--kind", "random"], "train": ["--train", data, "--model", "linear"],
                "eval": ["--eval", data, "--checkpoint", ckpt]}[command]
        assert main([command, *args, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"csiloc {command}: csi must be"), err

    @pytest.mark.parametrize("n", [100, 400])
    def test_load_maps_without_copying(self, tmp_path, n):
        """The blobs are mapped, not read: the traced peak stays under 1 MB whatever n is."""
        ds = tiny_dataset(n=n, a=16, w=128)   # csi.f32 is 1.6 MB at n=100, 6.6 MB at n=400
        write_canonical(tmp_path / "d", ds)
        tracemalloc.start()
        try:
            back = load_canonical(tmp_path / "d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        for name in ("csi", "snr", "pos"):
            assert not getattr(back, name).flags.writeable, name
            npt.assert_array_equal(getattr(back, name), getattr(ds, name))

    def test_map_failure_names_the_file(self, tmp_path, monkeypatch):
        write_canonical(tmp_path / "d", tiny_dataset())

        def refuse(*args, **kwargs):
            raise OSError(errno.ENODEV, "No such device")
        monkeypatch.setattr(np, "memmap", refuse)
        with pytest.raises(DataFormatError, match=r"csi\.f32: cannot map: No such device"):
            load_canonical(tmp_path / "d")

    def test_overwrite_keeps_loaded_arrays(self, tmp_path):
        """write_canonical over a loaded container renames new files into place, so the loaded
        arrays keep the old mapped bytes. Truncating a mapped file kills the reader (SIGBUS),
        hence the separate process."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from csiloc.data import SynthConfig, generate_synthetic, load_canonical, write_canonical\n"
            "d = sys.argv[1]\n"
            "write_canonical(d, generate_synthetic(SynthConfig(num_samples=300, num_subcarriers=64, seed=1)))\n"
            "ds = load_canonical(d)\n"
            "before = [np.array(a) for a in (ds.csi, ds.snr, ds.pos)]\n"
            "write_canonical(d, generate_synthetic(SynthConfig(num_samples=10, num_subcarriers=64, seed=2)))\n"
            "assert all(np.array_equal(a, b) for a, b in zip(before, (ds.csi, ds.snr, ds.pos)))\n"
            "assert len(load_canonical(d)) == 10\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "d")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (done.returncode, done.stderr)
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == sorted(CANONICAL_FILES)

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


# sha256 of `csiloc split --kind K --out S` of GEN_SHA256's container, per S/<sub>/<file>,
# taken when split still gathered each subset whole before writing it
SPLIT_SHA256 = {
    "random/train/meta.json": "9c5c0d9acc96892925139cdae36a92c30e573c47e90bc8903690b78148882097",
    "random/train/csi.f32": "77f9938d028a38545748656856c0890ca879349b84128f36086ca9e97ae2ca4a",
    "random/train/snr.f32": "f517a793db664a8fb2dc5538dbfe3ea2b07ef8a87091fad02758c410739ac292",
    "random/train/pos.f32": "3b32b12e36375b18baa089dffd02f8113966edd8882c83409eff26f06dc450de",
    "random/eval/meta.json": "0ad40989c585d114dc18e78fc371b15c2d2b292c758a49bbd91f56a0ce1f3909",
    "random/eval/csi.f32": "f1d515252e5ff68afc3983cbb520323d42fff42a06638050751332f1827146e2",
    "random/eval/snr.f32": "7ca782fe7f0202b2e021d3cc8401c108cffabb5e437eb8c83391335a38002d05",
    "random/eval/pos.f32": "f4dbd70f97b6a5417574e90c148c5435a14b418eebc43ce1f77f14a7b60034f6",
    "narrow/train/meta.json": "9c5c0d9acc96892925139cdae36a92c30e573c47e90bc8903690b78148882097",
    "narrow/train/csi.f32": "9e6b27febe7a88258d471039d9520254a0197838f0c31e320959a6bdc9d54f9f",
    "narrow/train/snr.f32": "61451fb3f2ad789693b3958f6639ff4c50bd0f19c3cf317d7cfe2e935de5ce0a",
    "narrow/train/pos.f32": "99dd70e5d7704bc7f1bf9ca7773bd1bfcbf288e27d19a2e146040859acbeec0f",
    "narrow/eval/meta.json": "0ad40989c585d114dc18e78fc371b15c2d2b292c758a49bbd91f56a0ce1f3909",
    "narrow/eval/csi.f32": "f75160867c0b4699306a5a564201b90cf175306c704d4b6913a865fdaa74bdf1",
    "narrow/eval/snr.f32": "bb5dd0434e16c956b9c21cd3f71ddcb4fed4074f9c6914dd510f08af5e8b96f6",
    "narrow/eval/pos.f32": "845eb69a75e583d94f8937065fb3ef42bbdda2e1a989929f5be0cb4d9b2cad79",
    "wide/train/meta.json": "9c5c0d9acc96892925139cdae36a92c30e573c47e90bc8903690b78148882097",
    "wide/train/csi.f32": "d306604fcd8d20b9732f195f943c2b926f860a4540c278749d74251c593b8103",
    "wide/train/snr.f32": "75f61dc8cd54cd6f1a3109852d8fa83b0ba2372e4a92d93bd48924871727727f",
    "wide/train/pos.f32": "a28595f80d27fc5770320a73b5e6ad9bef90ae631914d7328d6bae10747bea28",
    "wide/eval/meta.json": "0ad40989c585d114dc18e78fc371b15c2d2b292c758a49bbd91f56a0ce1f3909",
    "wide/eval/csi.f32": "4f67a122ffeaea29d34cd9e88192f9649810d8ea4f25ef7790626b6298b5f5bf",
    "wide/eval/snr.f32": "cf605744c351471c63c518e62d9ea6de8e22dcf9d54490c75e60aa831846d334",
    "wide/eval/pos.f32": "f9134906405bd9a88a9f057f769f1086d4cd769fb69689a2763aadfa5c6294e5",
    "within/train/meta.json": "9c5c0d9acc96892925139cdae36a92c30e573c47e90bc8903690b78148882097",
    "within/train/csi.f32": "166cf142528fa14424ed2f3af702b13bb8afc926d84915b461492ff86754bb76",
    "within/train/snr.f32": "25a23f42cc6a5c34bcf70c714da82ebb23ad19b5a08c02cf9ba68185f7f7ee74",
    "within/train/pos.f32": "12cd1912e6e05a989865e9676e0217f0d16b2e0780afabd96e7353c6811caf6d",
    "within/eval/meta.json": "0ad40989c585d114dc18e78fc371b15c2d2b292c758a49bbd91f56a0ce1f3909",
    "within/eval/csi.f32": "6f60958049d0395b7074735f4758f6c4170c7c41225d7c4472d96ca0c4df2256",
    "within/eval/snr.f32": "6b69adb38104242d3d8ab524ea536f5502e46366f8895f087607e40f272165e7",
    "within/eval/pos.f32": "550becc62c8f18286559b890ca01b19425a67667caf007547436089c69220538",
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

    def test_split_bytes_pinned(self, tmp_path):
        """csiloc split of the pinned container keeps its bytes, for every kind."""
        assert main(["gen", "--out", str(tmp_path / "gen"), "--samples", "300", "--subcarriers", "64",
                     "--seed", "4"]) == 0
        got = {}
        for kind in ("random", "narrow", "wide", "within"):
            assert main(["split", "--data", str(tmp_path / "gen"), "--kind", kind,
                         "--out", str(tmp_path / kind)]) == 0
            for sub in ("train", "eval"):
                for name in CANONICAL_FILES:
                    path = tmp_path / kind / sub / name
                    got[f"{kind}/{sub}/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == SPLIT_SHA256

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_fit_keeps_no_reference_to_the_data(self, monkeypatch, threads):
        """Nothing fit_normalizer makes outlives it: without the cyclic collector,
        deleting the dataset frees its CSI. At two threads the second subtree is a
        pool task, whose queued work item holds nothing once it has run."""
        monkeypatch.setenv("CSILOC_THREADS", threads)
        csi = np.random.default_rng(18).standard_normal((40, 2, 4, 1024)).astype(np.float32)
        ds = Dataset(csi, np.zeros((40, 4)), np.ones((40, 3)))   # 5 spans of _NORM_CHUNK
        alive = weakref.ref(csi)
        enabled = gc.isenabled()
        gc.disable()
        try:
            fit_normalizer(ds)
            del ds, csi
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

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
        train_ids, ev_ids = split(ds, SplitStrategy("random", 0.25, seed=7))
        train, ev = ds.subset(train_ids), ds.subset(ev_ids)
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
