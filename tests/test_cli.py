import argparse
import ast
import importlib.util
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from csiloc import cli, layers
from csiloc.cli import main
from csiloc.data import (Dataset, export_npy, fit_normalizer, generate_synthetic, load_canonical,
                         SynthConfig, write_canonical)
from csiloc.models import DEFAULT_ARCH, build_model, count_weights, load_checkpoint, save_checkpoint
from csiloc.npyio import write_npy
from csiloc.train import TrainConfig

from conftest import CONFIGS, desk_arch


DATA_FILES = ("meta.json", "csi.f32", "snr.f32", "pos.f32")
WRITING_COMMANDS = ("gen", "import", "split", "train", "eval")


def run(*argv):
    return main([str(a) for a in argv])


def gen_small(tmp_path, name="data", samples=60, seed=7):
    out = tmp_path / name
    assert run("gen", "--out", out, "--samples", samples, "--subcarriers", "16",
               "--seed", seed) == 0
    return out


class TestGen:
    def test_deterministic_dataset_files(self, tmp_path):
        a = gen_small(tmp_path, "a")
        b = gen_small(tmp_path, "b")
        for name in DATA_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_samples_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--out", tmp_path / "x", "--samples", "0")
        assert exc.value.code == 2

    def test_meta_declares_config(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen", "--out", out, "--samples", "100", "--subcarriers", "64",
                   "--seed", "7") == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n"] == 100 and meta["subcarriers"] == 64

    def test_manifest_written(self, tmp_path):
        out = gen_small(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen" and manifest["parameters"]["seed"] == 7

    @pytest.mark.parametrize("low, high", [("-1e308", "1e308"), ("nan", "10"), ("10", "inf"),
                                           ("30", "10")])
    def test_bad_snr_range_fails(self, tmp_path, capsys, low, high):
        assert run("gen", "--out", tmp_path / "x", "--samples", "5", f"--snr-low={low}",
                   f"--snr-high={high}") == 1
        assert "csiloc gen: snr_db_range" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestSplit:
    def test_random_counts(self, tmp_path):
        data = gen_small(tmp_path, samples=100)
        out = tmp_path / "s"
        assert run("split", "--data", data, "--kind", "random", "--fraction", "0.1",
                   "--seed", "3", "--out", out) == 0
        assert len(load_canonical(out / "eval")) == 10
        assert len(load_canonical(out / "train")) == 90

    def test_all_kinds_partition(self, tmp_path):
        data = gen_small(tmp_path, samples=80)
        ds = load_canonical(data)
        for kind in ("random", "narrow", "wide", "within"):
            out = tmp_path / f"s_{kind}"
            assert run("split", "--data", data, "--kind", kind, "--out", out) == 0
            tr = load_canonical(out / "train")
            ev = load_canonical(out / "eval")
            assert len(tr) + len(ev) == len(ds)
            merged = np.vstack([tr.pos, ev.pos])
            assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.pos, axis=0))

    def test_same_seed_same_split(self, tmp_path):
        data = gen_small(tmp_path, samples=50)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run("split", "--data", data, "--kind", "random", "--seed", "9", "--out", out1)
        run("split", "--data", data, "--kind", "random", "--seed", "9", "--out", out2)
        for name in DATA_FILES:
            assert (out1 / "eval" / name).read_bytes() == (out2 / "eval" / name).read_bytes()

    def test_split_into_its_own_parent(self, tmp_path):
        """split --data P/train --out P replaces the files it reads: the bytes of splitting a copy."""
        data = gen_small(tmp_path, samples=80)
        parent, copy, expected = tmp_path / "p", tmp_path / "copy", tmp_path / "q"
        assert run("split", "--data", data, "--kind", "random", "--out", parent) == 0
        shutil.copytree(parent / "train", copy)
        assert run("split", "--data", copy, "--kind", "narrow", "--out", expected) == 0
        assert run("split", "--data", parent / "train", "--kind", "narrow", "--out", parent) == 0
        for sub in ("train", "eval"):
            assert sorted(p.name for p in (parent / sub).iterdir()) == sorted(DATA_FILES)
            for name in DATA_FILES:
                assert (parent / sub / name).read_bytes() == (expected / sub / name).read_bytes()

    def test_split_memory(self, tmp_path):
        """split gathers each subset from the mapped input a 16 MiB chunk at a time: its
        traced peak does not grow with n beyond the index arrays."""
        peaks = []
        for n in (200, 800):   # csi.f32 is 23.7 MB at n=200 and 94.6 MB at n=800
            rng = np.random.default_rng(n)
            write_canonical(tmp_path / f"d{n}", Dataset(
                rng.standard_normal((n, 2, 16, 924), dtype=np.float32),
                rng.uniform(5, 30, (n, 16)), rng.uniform(0, 4, (n, 3))))
            tracemalloc.start()
            try:
                assert run("split", "--data", tmp_path / f"d{n}", "--kind", "random",
                           "--out", tmp_path / f"s{n}") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 18 << 20, peaks
        assert peaks[1] - peaks[0] < 1 << 20, peaks

    def test_unknown_kind_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("split", "--data", tmp_path, "--kind", "diagonal", "--out", tmp_path / "x")
        assert exc.value.code == 2


class TestTrain:
    def test_linear_end_to_end(self, tmp_path):
        data = gen_small(tmp_path, samples=200, seed=1)
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_epochs": 5, "batch_size": 32}))
        assert run("train", "--train", data, "--model", "linear", "--config", cfg,
                   "--out", out, "--seed", "2") == 0
        assert (out / "model.ckpt").is_file()
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_mde,monitor_mde,lr,seconds"
        assert len(lines) - 1 <= 5
        net, scale, meta = load_checkpoint(out / "model.ckpt")
        assert net.kind == "linear" and scale > 0

    def test_every_checkpoint_write(self, tmp_path, monkeypatch):
        """cmd_train makes every model.ckpt write through cli.save_checkpoint: one at each
        monitor improvement, then one when training ends, each with the fitted norm scale."""
        data = gen_small(tmp_path, samples=200, seed=1)
        out, calls = tmp_path / "run", []

        def recorded(path, net, **kw):
            save_checkpoint(path, net, **kw)
            calls.append((path, kw, Path(path).read_bytes()))
        monkeypatch.setattr(cli, "save_checkpoint", recorded)
        assert run("train", "--train", data, "--model", "linear", "--out", out,
                   "--seed", "2", "--max-epochs", "6") == 0
        monitors = [float(row.split(",")[2]) for row in (out / "history.csv").read_text().splitlines()[1:]]
        improved = [{"epoch": e, "monitor_mde": m} for e, m in enumerate(monitors, start=1)
                    if m < min(monitors[:e - 1], default=np.inf)]
        assert len(improved) >= 2
        assert [kw["meta"] for _, kw, _ in calls] == improved + [{"stop_reason": "max_epochs", "epochs": 6}]
        scale = fit_normalizer(load_canonical(data)).scale
        assert all(path == out / "model.ckpt" and kw["norm_scale"] == scale for path, kw, _ in calls)
        assert calls[-1][2] == (out / "model.ckpt").read_bytes()

    def test_only_cmd_train_writes_checkpoints(self):
        """No other function in src/csiloc calls save_checkpoint."""
        callers = [(path.name, fn.name) for path in sorted(Path(cli.__file__).parent.glob("*.py"))
                   for fn in ast.parse(path.read_text()).body if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", getattr(node.func, "attr", None)) == "save_checkpoint"]
        assert callers == [("cli.py", "cmd_train")]

    def test_missing_train_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("train", "--model", "linear", "--out", "x")
        assert exc.value.code == 2

    def test_unknown_config_field(self, tmp_path):
        data = gen_small(tmp_path, samples=60)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_epochs": 1, "bogus_knob": 5}))
        assert run("train", "--train", data, "--model", "linear", "--config", cfg,
                   "--out", tmp_path / "o") == 1

    def test_cnn_desk_scale(self, tmp_path):
        data = tmp_path / "wide"
        assert run("gen", "--out", data, "--samples", "60", "--subcarriers", "40",
                   "--seed", "4") == 0
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_epochs": 1, "batch_size": 16, "base_filters": 2,
                                   "kernel": 3, "stride": 2, "head_units": 8}))
        assert run("train", "--train", data, "--model", "cnn4", "--config", cfg,
                   "--out", out) == 0
        net, _, _ = load_checkpoint(out / "model.ckpt")
        assert net.kind == "cnn4" and net.input_shape == (2, 16, 40)


class TestEval:
    def prepare(self, tmp_path):
        """Crafted dataset whose positions are an exact linear map of the CSI,
        plus the matching linear checkpoint: a perfect oracle."""
        rng = np.random.default_rng(12)
        n, a, w = 20, 2, 8
        csi = rng.standard_normal((n, 2, a, w)).astype(np.float32).astype(np.float64)
        weights = rng.standard_normal((3, 2 * a * w)) * 0.1
        pos = csi.reshape(n, -1) @ weights.T
        pos += np.array([3.0, 1.0, 1.0])
        from csiloc.data import Dataset, write_canonical
        ds = Dataset(csi, np.zeros((n, a)), pos)
        data_dir = tmp_path / "eval_data"
        write_canonical(data_dir, ds)
        net = build_model("linear", {"seed": 0}, (2, a, w))
        net.params()[0].value[...] = weights
        net.params()[1].value[...] = [3.0, 1.0, 1.0]
        ckpt = tmp_path / "oracle.ckpt"
        save_checkpoint(ckpt, net, norm_scale=1.0)
        return ckpt, data_dir

    def test_oracle_checkpoint_zero_mde(self, tmp_path):
        ckpt, data = self.prepare(tmp_path)
        out = tmp_path / "report"
        assert run("eval", "--checkpoint", ckpt, "--eval", data, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        # float32 round trip of the dataset perturbs the last bits only
        assert summary["mde_m"] < 1e-6

    def test_output_file_set(self, tmp_path):
        ckpt, data = self.prepare(tmp_path)
        out = tmp_path / "report"
        run("eval", "--checkpoint", ckpt, "--eval", data, "--out", out)
        assert sorted(p.name for p in out.iterdir()) == [
            "cdf.csv", "err_hist.csv", "manifest.json", "quiver.csv", "summary.json"]

    def test_summary_weights_match(self, tmp_path):
        ckpt, data = self.prepare(tmp_path)
        out = tmp_path / "report"
        run("eval", "--checkpoint", ckpt, "--eval", data, "--out", out)
        net, _, _ = load_checkpoint(ckpt)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["weights"] == count_weights(net)

    def test_byte_identical_reruns(self, tmp_path):
        ckpt, data = self.prepare(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run("eval", "--checkpoint", ckpt, "--eval", data, "--out", out1)
        run("eval", "--checkpoint", ckpt, "--eval", data, "--out", out2)
        for name in ("cdf.csv", "err_hist.csv", "quiver.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mismatched_width_fails(self, tmp_path):
        ckpt, _ = self.prepare(tmp_path)
        other = gen_small(tmp_path, "other", samples=30)
        assert run("eval", "--checkpoint", ckpt, "--eval", other,
                   "--out", tmp_path / "x") == 1

    @staticmethod
    def set_norm_scale(ckpt, scale):
        """Rewrite the header's norm_scale; json writes inf and nan as Infinity and NaN."""
        blob = ckpt.read_bytes()
        nl = blob.index(b"\n", len(b"CSILOC1\n"))
        header = {**json.loads(blob[len(b"CSILOC1\n"):nl]), "norm_scale": scale}
        ckpt.write_bytes(b"CSILOC1\n" + json.dumps(header).encode() + blob[nl:])

    @pytest.mark.parametrize("scale", [-np.inf, np.inf, np.nan, 0, -2])
    def test_bad_norm_scale_fails_without_report(self, tmp_path, capsys, scale):
        ckpt, data = self.prepare(tmp_path)
        self.set_norm_scale(ckpt, scale)
        out = tmp_path / "report"
        assert run("eval", "--checkpoint", ckpt, "--eval", data, "--out", out) == 1
        assert "norm_scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_fails_without_report(self, tmp_path, capsys, bad):
        ckpt, data = self.prepare(tmp_path)
        net, scale, _ = load_checkpoint(ckpt)
        net.params()[0].value[1, 5] = bad
        save_checkpoint(ckpt, net, norm_scale=scale)
        out = tmp_path / "report"
        assert run("eval", "--checkpoint", ckpt, "--eval", data, "--out", out) == 1
        assert "non-finite position estimates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_csi_overflowing_the_scale_fails_without_report(self, tmp_path, capsys):
        ckpt, data = self.prepare(tmp_path)
        self.set_norm_scale(ckpt, 1e-308)   # |csi| > 1.8 overflows float64
        out = tmp_path / "report"
        assert run("eval", "--checkpoint", ckpt, "--eval", data, "--out", out) == 1
        assert "non-finite position estimates" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFields:
    def write(self, tmp_path, flat):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flat))
        return cfg

    @pytest.mark.parametrize("flat", [
        {"hidden": 5}, {"hidden": [4, "8"]}, {"max_epochs": "3"}, {"kernel": 2.5},
        {"lr0": True}, {"train_seed": None},
    ], ids=repr)
    @pytest.mark.parametrize("command", ["train", "count-weights"])
    def test_wrong_type_names_field(self, tmp_path, capsys, command, flat):
        cfg = self.write(tmp_path, flat)
        args = ["--train", gen_small(tmp_path), "--out", tmp_path / "o"] if command == "train" else []
        assert run(command, "--model", "fcnn", "--config", cfg, *args) == 1
        err = capsys.readouterr().err
        assert f"config field {next(iter(flat))!r}" in err and "wrong type" in err

    # JSON's NaN and Infinity parse as floats; a negative rate climbs the loss
    @pytest.mark.parametrize("flat", [
        {"lr0": -1e-3}, {"lr0": 0.0}, {"lr0": float("nan")}, {"lr0": float("inf")},
        {"momentum": 1.5}, {"momentum": 1.0}, {"momentum": -0.2}, {"momentum": float("nan")},
    ], ids=repr)
    def test_untrainable_rate_or_momentum_fails(self, tmp_path, capsys, flat):
        data = gen_small(tmp_path)
        capsys.readouterr()
        cfg = self.write(tmp_path, flat)
        assert run("train", "--model", "linear", "--config", cfg, "--train", data,
                   "--out", tmp_path / "o") == 1
        lines = capsys.readouterr().err.splitlines()
        field = next(iter(flat))
        assert len(lines) == 1 and lines[0].startswith(f"csiloc train: {field} must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "count-weights"])
    def test_hidden_on_cnn_rejected(self, tmp_path, capsys, command):
        cfg = self.write(tmp_path, {"hidden": [4]})
        args = ["--train", gen_small(tmp_path), "--out", tmp_path / "o"] if command == "train" else []
        assert run(command, "--model", "cnn4", "--config", cfg, *args) == 1
        assert "hidden does not apply to cnn4" in capsys.readouterr().err

    @pytest.mark.parametrize("model, flat", [("fcnn", {"seed": 3}), ("linear", {"kernel": 3})])
    def test_field_of_another_kind_rejected(self, tmp_path, capsys, model, flat):
        assert run("count-weights", "--model", model, "--config", self.write(tmp_path, flat)) == 1
        assert f"{next(iter(flat))} does not apply to {model}" in capsys.readouterr().err

    @pytest.mark.parametrize("growth", [1e200, 1e308])
    @pytest.mark.parametrize("command", ["train", "count-weights"])
    def test_overflowing_growth_fails(self, tmp_path, capsys, command, growth):
        cfg = self.write(tmp_path, {"growth": growth})
        args = ["--train", gen_small(tmp_path), "--out", tmp_path / "o"] if command == "train" else []
        assert run(command, "--model", "cnn4r", "--config", cfg, *args) == 1
        assert f"csiloc {command}: filter counts overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("model, flat", [
        ("cnn4", {"base_filters": 2, "kernel": 3, "stride": 2, "head_units": 8}),
        ("fcnn", {"hidden": [4]}),
        ("linear", {}),
    ])
    def test_train_and_count_weights_resolve_same_arch(self, tmp_path, capsys, model, flat):
        data = tmp_path / "wide"
        assert run("gen", "--out", data, "--samples", "60", "--subcarriers", "40",
                   "--seed", "4") == 0
        cfg = self.write(tmp_path, flat)
        out = tmp_path / "run"
        assert run("train", "--train", data, "--model", model, "--config", cfg, "--out", out,
                   "--max-epochs", "1", "--batch-size", "16") == 0
        capsys.readouterr()
        assert run("count-weights", "--model", model, "--config", cfg,
                   "--subcarriers", "40", "--antennas", "16") == 0
        raw = int(capsys.readouterr().out.split()[0])
        manifest = json.loads((out / "manifest.json").read_text())
        net, _, _ = load_checkpoint(out / "model.ckpt")
        assert net.arch == manifest["parameters"]["arch"]
        assert raw == count_weights(net)


class TestGradcheckCommand:
    def test_cnn4_tiny_ok(self, capsys):
        assert run("gradcheck", "--model", "cnn4") == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupted_backward_detected(self, capsys, monkeypatch):
        # negative control: break the dense backward and expect a failure
        original = layers.Dense.backward

        def corrupted(self, grad_out, tape):
            grad_in = original(self, grad_out, tape)
            self.w.grad *= 1.25
            return grad_in

        monkeypatch.setattr(layers.Dense, "backward", corrupted)
        assert run("gradcheck", "--model", "cnn4") == 1
        err = capsys.readouterr().err
        assert "FAILED at layer parameter" in err and "weights" in err

    def test_unknown_model(self):
        with pytest.raises(SystemExit) as exc:
            run("gradcheck", "--model", "cnn9")
        assert exc.value.code == 2


class TestCountWeights:
    def test_linear(self, capsys):
        assert run("count-weights", "--model", "linear") == 0
        assert capsys.readouterr().out.strip() == "88707 0.1"

    def test_cnn4_default_band(self, capsys):
        assert run("count-weights", "--model", "cnn4") == 0
        raw = int(capsys.readouterr().out.split()[0])
        assert abs(raw - 5.3e6) <= 0.15 * 5.3e6

    def test_unknown_model_usage(self):
        with pytest.raises(SystemExit) as exc:
            run("count-weights", "--model", "resnet50")
        assert exc.value.code == 2

    def test_counts_without_building(self, capsys):
        tracemalloc.start()
        try:
            assert run("count-weights", "--model", "cnn4s") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.strip() == "16368903 16.4"
        assert peak < 5e6   # building cnn4s at 16 x 924 allocates about 390 MB

    def test_linear_with_hidden_layers_fails(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"hidden": [4]}))
        assert run("count-weights", "--model", "linear", "--config", tmp_path / "cfg.json") == 1
        assert "csiloc count-weights: linear model takes no hidden layers" in capsys.readouterr().err


class TestImport:
    def test_import_roundtrip(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_samples=6, num_subcarriers=16, seed=3))
        raw = tmp_path / "raw"
        export_npy(raw, ds)
        out = tmp_path / "canonical"
        assert run("import", "--csi", raw / "csi.npy", "--snr", raw / "snr.npy",
                   "--pos", raw / "pos.npy", "--out", out) == 0
        back = load_canonical(out)
        assert len(back) == 6 and back.n_subcarriers == 16

    @pytest.mark.parametrize("name, value", [("csi", 1e39), ("snr", 1e39), ("pos", -1e39)])
    def test_value_beyond_float32_fails(self, tmp_path, capsys, name, value):
        """A float64 value the container cannot hold fails at import, with no output."""
        ds = generate_synthetic(SynthConfig(num_samples=6, num_subcarriers=16, seed=3))
        raw = tmp_path / "raw"
        raw.mkdir()
        arrays = {"csi": ds.csi.transpose(0, 2, 3, 1), "snr": ds.snr, "pos": ds.pos}
        for key, arr in arrays.items():
            arr = arr.astype(np.float64)
            if key == name:
                arr.flat[arr.size // 2] = value
            write_npy(raw / f"{key}.npy", arr)
        out = tmp_path / "canonical"
        assert run("import", "--csi", raw / "csi.npy", "--snr", raw / "snr.npy",
                   "--pos", raw / "pos.npy", "--out", out) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"csiloc import: values in {name} exceed float32's range"]
        assert not out.exists()


# each command's path options: read as a file, read as a directory, or made as an output directory
PATH_OPTIONS = {
    "gen": {"--out": "out"},
    "import": {"--csi": "file", "--snr": "file", "--pos": "file", "--out": "out"},
    "split": {"--data": "dir", "--out": "out"},
    "train": {"--train": "dir", "--config": "file", "--out": "out"},
    "eval": {"--checkpoint": "file", "--eval": "dir", "--out": "out"},
    "count-weights": {"--config": "file"},
}
BAD_PATHS = {"file": ("missing", "a directory"), "dir": ("missing", "a file"),
             "out": ("a file", "under a file")}


class TestPathInputs:
    """A path that is missing, or of the wrong kind, fails with one csiloc line and no traceback."""

    @staticmethod
    def workspace(tmp_path):
        """Valid arguments of every command, over a 60 x 16 x 16 dataset and a linear checkpoint."""
        data, raw, cfg, ckpt = gen_small(tmp_path), tmp_path / "raw", tmp_path / "cfg.json", tmp_path / "m.ckpt"
        export_npy(raw, load_canonical(data))
        cfg.write_text("{}")
        save_checkpoint(ckpt, build_model("linear", {}, (2, 16, 16)), norm_scale=1.0)
        (tmp_path / "a_file").write_text("x")
        (tmp_path / "a_dir").mkdir()
        out = tmp_path / "out"
        return {
            "gen": {"--out": out, "--samples": 5, "--subcarriers": 16},
            "import": {"--csi": raw / "csi.npy", "--snr": raw / "snr.npy", "--pos": raw / "pos.npy",
                       "--out": out},
            "split": {"--data": data, "--kind": "random", "--out": out},
            "train": {"--train": data, "--model": "linear", "--config": cfg, "--out": out},
            "eval": {"--checkpoint": ckpt, "--eval": data, "--out": out},
            "count-weights": {"--model": "linear", "--config": cfg},
        }

    @pytest.mark.parametrize("command", sorted(PATH_OPTIONS))
    def test_valid_paths_succeed(self, tmp_path, command):
        args = self.workspace(tmp_path)[command]
        assert run(command, *[v for item in args.items() for v in item]) == 0

    @pytest.mark.parametrize("command, option, case", [
        (command, option, case) for command, options in PATH_OPTIONS.items()
        for option, role in options.items() for case in BAD_PATHS[role]])
    def test_bad_path_fails_with_one_line(self, tmp_path, capsys, command, option, case):
        args = self.workspace(tmp_path)[command]
        capsys.readouterr()
        bad = {"missing": tmp_path / "missing", "a directory": tmp_path / "a_dir",
               "a file": tmp_path / "a_file", "under a file": tmp_path / "a_file" / "x"}[case]
        args[option] = bad
        assert run(command, *[v for item in args.items() for v in item]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"csiloc {command}: ") and str(bad) in lines[0]


    # a name each command writes inside its --out, made a directory beforehand
    @pytest.mark.parametrize("command, name", [
        ("gen", "meta.json"), ("gen", "manifest.json"), ("gen", "csi.f32"), ("gen", "csi.f32.tmp"),
        ("import", "pos.f32"), ("import", "manifest.json"), ("import", "snr.f32.tmp"),
        ("split", "train/meta.json"), ("split", "eval/snr.f32"), ("split", "train/pos.f32.tmp"),
        ("split", "manifest.json"), ("train", "model.ckpt"), ("train", "model.ckpt.tmp"),
        ("train", "history.csv"), ("train", "manifest.json"), ("eval", "cdf.csv"),
        ("eval", "summary.json"), ("eval", "manifest.json"),
        ("gen", "meta.json.tmp"), ("split", "manifest.json.tmp"), ("train", "history.csv.tmp"),
        ("eval", "summary.json.tmp")])
    def test_output_name_a_directory_fails_before_work(self, tmp_path, capsys, monkeypatch, command, name):
        args = self.workspace(tmp_path)[command]
        capsys.readouterr()
        blocked = args["--out"] / name
        blocked.mkdir(parents=True)

        def no_work(*a, **k):
            raise AssertionError("work started before the output names were checked")
        for work in ("generate_synthetic", "import_npy", "load_canonical", "load_checkpoint"):
            monkeypatch.setattr(cli, work, no_work)
        assert run(command, *[v for item in args.items() for v in item]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"csiloc {command}: ") and str(blocked) in lines[0]
        assert [p for p in args["--out"].rglob("*") if p.is_file()] == []


    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets a Linux file size limit")
    def test_failed_write_fails_with_one_line(self, tmp_path):
        """A write that the OS refuses (here a file size limit, set in the child only) fails
        with one csiloc line naming the file, not a traceback, and leaves no .tmp file."""
        def limit():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)   # a write past the limit then fails with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
        src = Path(cli.__file__).parents[1]
        # no bytecode: a .pyc cut short at the limit would be kept and break later imports
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-m", "csiloc.cli", "gen", "--out", "g", "--samples", "50"],
                              cwd=tmp_path, env=env, preexec_fn=limit, capture_output=True, text=True,
                              timeout=120)
        lines = done.stderr.splitlines()
        assert done.returncode == 1 and len(lines) == 1, done.stderr
        assert lines[0].startswith(f"csiloc gen: {Path('g', 'csi.f32')}: cannot write: ")
        assert not list(tmp_path.rglob("*.tmp"))


class TestCommandProtocol:
    """main checks the output names, runs the command and writes its manifest; no command
    does any of this itself, so every manifest has one shape."""

    def test_only_main_runs_the_protocol(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        protocol = {"_check_output_names", "_write_manifest", "_utc_now"}
        callers = {(fn.name, node.func.id) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id in protocol}
        assert {fn for fn, _ in callers} == {"main"}, callers
        assert {name for _, name in callers} == protocol

    def test_writing_commands_declare_outputs(self):
        (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        declared = {name for name, p in commands.choices.items() if p.get_default("outputs") is not None}
        assert declared == set(WRITING_COMMANDS)
        assert set(commands.choices) - declared == {"gradcheck", "count-weights"}

    @pytest.mark.parametrize("command", WRITING_COMMANDS)
    def test_manifest_of_each_writing_command(self, tmp_path, command):
        args = TestPathInputs.workspace(tmp_path)[command]
        assert run(command, *[v for item in args.items() for v in item]) == 0
        manifest = json.loads((args["--out"] / "manifest.json").read_text())
        assert manifest["command"] == command and manifest["tool"] == "csiloc"
        assert manifest["parameters"]["out"] == str(args["--out"])
        assert manifest["wall_seconds"] >= 0 and manifest["peak_rss_mb"] > 0
        assert manifest["started_utc"] <= manifest["ended_utc"]

    @pytest.mark.parametrize("argv", [("gradcheck", "--model", "linear"),
                                      ("count-weights", "--model", "linear")])
    def test_commands_without_outputs_write_no_manifest(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)

        def no_protocol(*a, **k):
            raise AssertionError(f"{argv[0]} ran the output protocol")
        for name in ("_check_output_names", "_write_manifest"):
            monkeypatch.setattr(cli, name, no_protocol)
        assert run(*argv) == 0
        assert list(tmp_path.iterdir()) == []


# a JSON array nested past Python's recursion limit: json.dumps of one would itself recurse
NESTED = "[" * 100000 + "]" * 100000


class TestNestedJson:
    """JSON nested too deep for json.loads, in any of the three JSON inputs, fails with one
    csiloc line: json.loads raises RecursionError on it, which is no ValueError."""

    @staticmethod
    def one_line(capsys, command):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"csiloc {command}: "), lines
        return lines[0]

    @pytest.mark.parametrize("command", ["split", "train", "eval"])
    def test_meta_json(self, tmp_path, capsys, command):
        data, ckpt = gen_small(tmp_path), tmp_path / "m.ckpt"
        save_checkpoint(ckpt, build_model("linear", {}, (2, 16, 16)), norm_scale=1.0)
        (data / "meta.json").write_text(NESTED)
        capsys.readouterr()
        args = {"split": ("--data", data, "--kind", "random"), "train": ("--train", data, "--model", "linear"),
                "eval": ("--checkpoint", ckpt, "--eval", data)}[command]
        assert run(command, *args, "--out", tmp_path / "out") == 1
        assert "meta.json: malformed JSON: maximum recursion depth" in self.one_line(capsys, command)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "count-weights"])
    def test_config(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(NESTED)
        args = ("--train", gen_small(tmp_path), "--out", tmp_path / "out") if command == "train" else ()
        capsys.readouterr()
        assert run(command, "--model", "linear", "--config", cfg, *args) == 1
        assert "cfg.json: malformed JSON: maximum recursion depth" in self.one_line(capsys, command)

    def test_checkpoint_header(self, tmp_path, capsys):
        data, ckpt = gen_small(tmp_path), tmp_path / "m.ckpt"
        ckpt.write_bytes(b"CSILOC1\n" + NESTED.encode() + b"\n")
        capsys.readouterr()
        assert run("eval", "--checkpoint", ckpt, "--eval", data, "--out", tmp_path / "out") == 1
        assert "m.ckpt: malformed header: maximum recursion depth" in self.one_line(capsys, "eval")


def test_architecture_too_large_to_allocate(tmp_path, capsys):
    """A head of 10^12 units over a W=64 cnn4 asks numpy for 3.07 PiB of weights, more
    than any address space holds, so the allocation fails at once; train exits 1 with one
    line. Only a size no machine can try to allocate belongs in this test."""
    data = tmp_path / "data"
    assert run("gen", "--out", data, "--samples", 60, "--subcarriers", 64) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"base_filters": 8, "kernel": 5, "stride": 2, "head_units": 1000000000000}))
    capsys.readouterr()
    assert run("train", "--train", data, "--model", "cnn4", "--config", cfg, "--out", tmp_path / "out") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("csiloc train: Unable to allocate 3.07 PiB"), lines
    assert not (tmp_path / "out").exists()


def read_config(name):
    return json.loads((CONFIGS / name).read_text())


class TestConfigFiles:
    """The shipped config files state the defaults the code holds, so neither drifts alone."""

    @pytest.mark.parametrize("kind", sorted(DEFAULT_ARCH))
    def test_architecture_file_is_the_default(self, kind):
        assert read_config(f"{kind}.json") == asdict(DEFAULT_ARCH[kind])

    def test_train_default_is_train_config(self):
        expected = asdict(TrainConfig())
        del expected["seed"]   # seeded by --seed or train_seed, not by the shipped file
        assert read_config("train_default.json") == expected

    def test_desk_architecture_is_the_benchmarks(self):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", CONFIGS.parent / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert desk_arch() == workloads.DESK_ARCH
