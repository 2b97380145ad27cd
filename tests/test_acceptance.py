"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Every test prints a single pass line; the session summary block lists all
criteria with their outcomes. Published absolute accuracy figures need the
measured challenge dataset and long training runs, and are exercised here
only in shape (criterion 7), never as numeric targets.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import csiloc
from csiloc.cli import main
from csiloc.data import (Dataset, SplitStrategy, SynthConfig, export_npy, fit_normalizer,
                         generate_synthetic, import_npy, load_canonical, split,
                         split_indices, write_canonical)
from csiloc.errors import DataFormatError
from csiloc.evaluation import emit_reports, evaluate, mde, nmde, rmse
from csiloc.layers import AvgPool1xP, Conv1xK
from csiloc.models import ArchConfig, build_cnn4, build_fcnn, build_model, count_weights
from csiloc.network import build_tiny, gradient_check
from csiloc.npyio import read_npy, write_npy
from csiloc.train import TrainConfig, train

from conftest import naive_avgpool1xp, naive_conv1xk, record_acceptance

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def done(number, name):
    record_acceptance(number, name)
    print(f"ACCEPTANCE criterion {number} [{name}]: PASS")


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    tolerance = 1e-4
    for kind in ("cnn4", "cnn4r", "cnn4s"):
        net, x, target = build_tiny(kind)
        assert net.arch["kernel"] == 3 and net.arch["base_filters"] == 2
        assert net.input_shape[2] == 60
        result = gradient_check(net, x, target, step=1e-6)
        assert result.max_rel_err < tolerance, f"{kind}: {result}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"gradient checks took {elapsed:.0f}s"
    done(1, "gradient correctness")


def test_criterion_2_layer_and_metric_oracles():
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 200:
        c = int(rng.integers(1, 5))
        f = int(rng.integers(1, 5))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 65))
        k = int(rng.integers(1, min(w, 8) + 1))
        s = int(rng.integers(1, 5))
        if (w - k) // s + 1 < 1:
            continue
        conv = Conv1xK(c, f, k, s, "valid")
        conv.w.value[...] = rng.standard_normal(conv.w.value.shape)
        conv.b.value[...] = rng.standard_normal(f)
        x = rng.standard_normal((c, h, w))
        npt.assert_array_equal(conv.forward(x[None])[0],
                               naive_conv1xk(x, conv.w.value, conv.b.value, s))
        npt.assert_array_equal(AvgPool1xP(k, s).forward(x[None])[0],
                               naive_avgpool1xp(x, k, s))
        checked += 1

    for _ in range(10_000):
        n = int(rng.integers(1, 20))
        errors = rng.uniform(0.0, 10.0, n)
        ref_mde = sum(float(e) for e in errors) / n
        ref_rmse = math.sqrt(sum(float(e) ** 2 for e in errors) / n)
        assert abs(mde(errors) - ref_mde) <= 1e-12 * max(ref_mde, 1e-12)
        assert abs(rmse(errors) - ref_rmse) <= 1e-12 * max(ref_rmse, 1e-12)
        truth = rng.uniform(1.0, 5.0, (n, 3))
        est = truth + rng.standard_normal((n, 3))
        ref_nmde = sum(
            math.dist(t, e) / math.hypot(*t) for t, e in zip(truth.tolist(), est.tolist())) / n
        assert abs(nmde(truth, est) - ref_nmde) <= 1e-12 * max(ref_nmde, 1e-12)
    done(2, "layer and metric oracles")


def test_criterion_3_weight_count_calibration():
    published = {"cnn4": 5.3e6, "cnn4r": 10.8e6, "cnn4s": 16.3e6}
    for kind, target in published.items():
        shipped = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
        net = build_model(kind, shipped)
        raw = count_weights(net)
        assert abs(raw - target) <= 0.15 * target, f"{kind}: {raw} vs {target}"
        assert raw == count_weights(build_model(kind, None))  # in-code defaults agree
    assert count_weights(build_fcnn([])) == 88707
    done(3, "weight-count calibration")


def _schedule_dataset():
    rng = np.random.default_rng(40)
    csi = rng.standard_normal((120, 2, 2, 8))
    pos = rng.uniform(1.0, 3.0, (120, 3))
    return Dataset(csi, np.zeros((120, 2)), pos)


def test_criterion_4_schedule_state_machine():
    ds = _schedule_dataset()
    cfg = TrainConfig(max_epochs=250, batch_size=16, seed=2)

    net = build_fcnn([], (2, 2, 8), seed=1)
    net, hist = train(net, ds, cfg, monitor_fn=lambda n, e: 1.0)
    lrs = [r.lr for r in hist.records]
    assert len(hist.records) == 22 and hist.stop_reason == "early_stop"
    assert lrs[:11] == [1e-3] * 11
    assert lrs[11:21] == [1e-3 * 0.1] * 10
    assert lrs[21] == 1e-3 * 0.1 * 0.1

    counter = iter(range(100_000))
    net = build_fcnn([], (2, 2, 8), seed=1)
    net, hist = train(net, ds, cfg, monitor_fn=lambda n, e: 1000.0 - next(counter))
    assert len(hist.records) == 250 and hist.stop_reason == "max_epochs"
    done(4, "schedule state machine")


def test_criterion_5_split_geometry():
    n = 17486
    rng = np.random.default_rng(55)
    pos = np.empty((n, 3))
    pos[:, 0] = rng.uniform(0.0, 4.0, n)   # long axis (4 m)
    pos[:, 1] = rng.uniform(0.0, 2.0, n)   # short axis (2 m)
    pos[:, 2] = rng.uniform(0.8, 1.2, n)
    quota = n / 10.0
    for kind in ("random", "narrow", "wide", "within"):
        train_ids, eval_ids = split_indices(pos, SplitStrategy(kind, 0.1, seed=5))
        merged = np.sort(np.concatenate([train_ids, eval_ids]))
        npt.assert_array_equal(merged, np.arange(n))            # exhaustive
        assert len(np.intersect1d(train_ids, eval_ids)) == 0    # disjoint
        assert abs(len(eval_ids) - quota) <= 0.01 * n

    _, eval_ids = split_indices(pos, SplitStrategy("narrow", 0.1))
    q90 = np.quantile(pos[:, 1], 0.9)
    assert pos[eval_ids, 1].min() > q90 - 1e-12

    _, eval_ids = split_indices(pos, SplitStrategy("within", 0.1))
    center = pos[:, :2].mean(axis=0)
    cheb = np.abs(pos[:, :2] - center).max(axis=1)
    half = cheb[eval_ids].max()
    assert (cheb[eval_ids] <= half).all()
    inside = np.flatnonzero(cheb <= half)
    npt.assert_array_equal(np.sort(inside), np.sort(eval_ids))  # rectangle == eval set
    done(5, "split geometry")


DESK_SYNTH = SynthConfig(num_samples=2000, num_subcarriers=64, num_reflectors=3,
                         snr_db_range=(10.0, 30.0), seed=42)
DESK_ARCH = ArchConfig(base_filters=8, growth=1.5, kernel=5, stride=2, head_units=256, seed=3)
DESK_TRAIN = TrainConfig(max_epochs=50, batch_size=32, seed=5)


def test_criterion_6_end_to_end_learning_signal():
    started = time.perf_counter()
    ds = generate_synthetic(DESK_SYNTH)
    train_ds, eval_ds = split(ds, SplitStrategy("random", 0.1, seed=1))
    norm = fit_normalizer(train_ds)

    baseline = build_fcnn([], (2, 16, 64), seed=3)
    baseline, _ = train(baseline, train_ds, DESK_TRAIN, norm)
    base_report = evaluate(baseline, eval_ds, norm)

    cnn = build_cnn4(DESK_ARCH, (2, 16, 64))
    cnn, hist = train(cnn, train_ds, DESK_TRAIN, norm)
    cnn_report = evaluate(cnn, eval_ds, norm)

    elapsed = time.perf_counter() - started
    assert len(hist.records) <= 50
    assert cnn_report.mde_m <= 0.70 * base_report.mde_m, (
        f"cnn {cnn_report.mde_m:.3f} m vs linear {base_report.mde_m:.3f} m")
    assert elapsed < 600.0, f"end-to-end run took {elapsed:.0f}s"

    # determinism spot check: first two epochs reproduce bit-for-bit
    short = TrainConfig(max_epochs=2, batch_size=32, seed=5)
    a, ha = train(build_cnn4(DESK_ARCH, (2, 16, 64)), train_ds, short, norm)
    b, hb = train(build_cnn4(DESK_ARCH, (2, 16, 64)), train_ds, short, norm)
    for pa, pb in zip(a.params(), b.params()):
        npt.assert_array_equal(pa.value, pb.value)
    assert [r.monitor_mde for r in ha.records] == [r.monitor_mde for r in hb.records]

    print(f"  linear eval MDE {base_report.mde_m:.4f} m, cnn4 eval MDE "
          f"{cnn_report.mde_m:.4f} m, wall {elapsed:.0f}s")
    done(6, "end-to-end learning signal")


def test_criterion_7_measured_scale_pipeline_shape(tmp_path):
    # Full-shape data: 16 antennas x 924 subcarriers, complex64 on disk, fed
    # through the NPY importer and the whole pipeline. Published absolute
    # accuracies need the real measured dataset and long training; this
    # checks completion and summary shape only.
    ds = generate_synthetic(SynthConfig(num_samples=40, num_subcarriers=924,
                                        num_reflectors=2, seed=77))
    raw = tmp_path / "npy"
    export_npy(raw, ds)
    imported = import_npy(raw / "csi.npy", raw / "snr.npy", raw / "pos.npy")
    assert imported.csi.shape == (40, 2, 16, 924)

    data_dir = tmp_path / "canonical"
    write_canonical(data_dir, imported)
    split_dir = tmp_path / "splits"
    assert main(["split", "--data", str(data_dir), "--kind", "random",
                 "--fraction", "0.1", "--seed", "2", "--out", str(split_dir)]) == 0

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_epochs": 2, "batch_size": 8}))
    run_dir = tmp_path / "run"
    assert main(["train", "--train", str(split_dir / "train"), "--model", "cnn4",
                 "--config", str(cfg), "--out", str(run_dir), "--seed", "3"]) == 0

    report_dir = tmp_path / "report"
    assert main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--eval", str(split_dir / "eval"), "--out", str(report_dir),
                 "--split-label", "random"]) == 0

    summary = json.loads((report_dir / "summary.json").read_text())
    for key in ("mde_m", "rmse_m", "rmse_per_coord_m", "nmde", "nmde_percent",
                "n_samples", "weights", "split", "model"):
        assert key in summary
    assert summary["model"] == "cnn4" and summary["split"] == "random"
    assert summary["rmse_m"] >= summary["mde_m"]          # as the formula forces
    assert "rmse_definition_note" in summary              # the discrepancy, surfaced
    assert summary["weights"] == 4909164
    done(7, "measured-scale pipeline shape")


def test_criterion_8_report_artifact_validity(tmp_path):
    ds = generate_synthetic(SynthConfig(num_samples=300, num_subcarriers=16, seed=88))
    train_ds, eval_ds = split(ds, SplitStrategy("random", 0.2, seed=9))
    norm = fit_normalizer(train_ds)
    net = build_fcnn([], (2, 16, 16), seed=4)
    net, _ = train(net, train_ds, TrainConfig(max_epochs=3, batch_size=32, seed=6), norm)
    report = evaluate(net, eval_ds, norm)
    paths_a = emit_reports(report, tmp_path / "a")
    paths_b = emit_reports(report, tmp_path / "b")

    rows = [l.split(",") for l in paths_a["cdf"].read_text().splitlines()[1:]]
    errs = [float(r[0]) for r in rows]
    probs = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(errs, errs[1:]))
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert probs[-1] == 1.0

    hist_rows = [l.split(",") for l in paths_a["err_hist"].read_text().splitlines()[1:]]
    for axis in ("x", "y"):
        assert sum(int(r[3]) for r in hist_rows if r[0] == axis) == report.n_samples

    quiver_rows = [l.split(",") for l in paths_a["quiver"].read_text().splitlines()[1:]]
    assert len(quiver_rows) == report.n_samples
    for i, r in enumerate(quiver_rows):
        assert abs(float(r[0]) + float(r[2]) - report.estimate[i, 0]) < 1e-9
        assert abs(float(r[1]) + float(r[3]) - report.estimate[i, 1]) < 1e-9

    for key in paths_a:
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes()
    done(8, "report artifact validity")


def test_criterion_9_format_robustness(tmp_path):
    ok = np.arange(1 * 16 * 4 * 2, dtype="<f4").reshape(1, 16, 4, 2)
    write_npy(tmp_path / "ok.npy", ok)
    npt.assert_array_equal(read_npy(tmp_path / "ok.npy"), ok)

    def craft(name, descr, shape, payload, version=(1, 0), fortran=False):
        header = "{'descr': '%s', 'fortran_order': %s, 'shape': %s}" % (descr, fortran, repr(shape))
        header += " " * (63 - (10 + len(header)) % 64) + "\n"
        blob = (b"\x93NUMPY" + bytes(version) + len(header).to_bytes(2, "little")
                + header.encode("latin1") + payload)
        path = tmp_path / name
        path.write_bytes(blob)
        return path

    zero4 = np.zeros(4, "<f4").tobytes()
    rejects = [
        craft("fortran.npy", "<f4", (2, 2), zero4, fortran=True),
        craft("v2.npy", "<f4", (4,), zero4, version=(2, 0)),
        craft("int.npy", "<i4", (4,), np.zeros(4, "<i4").tobytes()),
    ]
    messages = []
    for path in rejects:
        with pytest.raises(DataFormatError) as err:
            read_npy(path)
        messages.append(str(err.value).split(": ", 1)[1])
    assert len(set(messages)) == 3
    assert "fortran_order" in messages[0]
    assert "version 2.0" in messages[1]
    assert "'<i4'" in messages[2]

    ds = generate_synthetic(SynthConfig(num_samples=6, num_subcarriers=16, seed=99))
    write_canonical(tmp_path / "c1", ds)
    first = load_canonical(tmp_path / "c1")
    write_canonical(tmp_path / "c2", first)
    second = load_canonical(tmp_path / "c2")
    npt.assert_array_equal(first.csi, second.csi)
    npt.assert_array_equal(first.snr, second.snr)
    npt.assert_array_equal(first.pos, second.pos)
    for name in ("csi.f32", "snr.f32", "pos.f32", "meta.json"):
        assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()
    done(9, "format robustness")
