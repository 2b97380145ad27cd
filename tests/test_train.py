import numpy as np
import numpy.testing as npt
import pytest

from csiloc.data import Dataset, NormStats
from csiloc.errors import CsilocError, ShapeError, TrainingDivergedError
from csiloc.layers import Param
from csiloc.models import build_fcnn, load_checkpoint
from csiloc.network import build_tiny
from csiloc.train import (MIN_IMPROVEMENT, PlateauSchedule, TrainConfig, TrainHistory,
                          mde_loss, sgd_momentum_step, train)


class TestMdeLoss:
    def test_perfect_prediction(self):
        p = np.array([[1.0, 2.0, 3.0]])
        loss, _ = mde_loss(p, p)
        assert loss <= 1e-6  # epsilon floor

    def test_offset_122(self):
        loss, _ = mde_loss(np.array([[1.0, 2.0, 2.0]]), np.zeros((1, 3)))
        assert abs(loss - 3.0) < 1e-9

    def test_gradient_fd(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((4, 3))
        truth = pred + rng.uniform(0.5, 1.5, (4, 3))
        _, grad = mde_loss(pred, truth)
        step = 1e-6
        for i in range(4):
            for j in range(3):
                bumped = pred.copy()
                bumped[i, j] += step
                lp, _ = mde_loss(bumped, truth)
                bumped[i, j] -= 2 * step
                lm, _ = mde_loss(bumped, truth)
                fd = (lp - lm) / (2 * step)
                assert abs(grad[i, j] - fd) / max(abs(fd), 1e-12) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mde_loss(np.zeros((2, 3)), np.zeros((3, 3)))


class TestSgdStep:
    def test_plain_gradient_step(self):
        p = Param(np.array([5.0]))
        p.grad[...] = 2.0
        sgd_momentum_step([p], lr=1.0, momentum=0.0)
        npt.assert_array_equal(p.value, [3.0])

    def test_zero_gradient_noop(self):
        p = Param(np.array([1.0, -2.0]))
        sgd_momentum_step([p], lr=0.5, momentum=0.9)
        npt.assert_array_equal(p.value, [1.0, -2.0])

    def test_two_step_momentum_trace(self):
        p = Param(np.array([0.0]))
        p.grad[...] = 1.0
        sgd_momentum_step([p], lr=0.1, momentum=0.9)
        npt.assert_allclose(p.value, [-0.1], atol=1e-15)
        p.grad[...] = 1.0
        sgd_momentum_step([p], lr=0.1, momentum=0.9)
        npt.assert_allclose(p.vel, [-0.19], atol=1e-15)
        npt.assert_allclose(p.value, [-0.29], atol=1e-15)

    def test_non_finite_gradient(self):
        p = Param(np.array([1.0]))
        p.grad[...] = np.nan
        with pytest.raises(TrainingDivergedError):
            sgd_momentum_step([p], lr=0.1, momentum=0.9)


class TestPlateauSchedule:
    def test_constant_monitor_trace(self):
        sched = PlateauSchedule(1e-3, 0.1, 10, 21)
        lrs, stop_epoch = [], None
        for epoch in range(1, 100):
            lrs.append(sched.lr)
            _, stop = sched.update(1.0)
            if stop:
                stop_epoch = epoch
                break
        assert stop_epoch == 22
        expect1 = 1e-3 * 0.1
        expect2 = expect1 * 0.1
        assert lrs[:11] == [1e-3] * 11          # epochs 1..11 at lr0
        assert lrs[11:21] == [expect1] * 10     # decayed after epoch 11
        assert lrs[21] == expect2               # decayed again after epoch 21

    def test_improvement_resets(self):
        sched = PlateauSchedule(1e-3, 0.1, 3, 7)
        values = [1.0, 0.9, 0.9, 0.9, 0.5]  # improvement at 1, 5
        for v in values:
            improved, stop = sched.update(v)
            assert not stop
        assert sched.lr == 1e-3 and sched.bad_for_stop == 0

    def test_tiny_improvement_ignored(self):
        sched = PlateauSchedule(1e-3, 0.1, 2, 4)
        sched.update(1.0)
        improved, _ = sched.update(1.0 - MIN_IMPROVEMENT / 2)
        assert not improved


def linear_task_dataset(n=120, a=2, w=8, seed=3):
    """Targets are a fixed linear map of the CSI, so the linear model can fit."""
    rng = np.random.default_rng(seed)
    csi = rng.standard_normal((n, 2, a, w))
    mat = rng.standard_normal((3, 2 * a * w)) * 0.3
    pos = csi.reshape(n, -1) @ mat.T + np.array([2.0, 0.5, 1.0])
    return Dataset(csi, np.zeros((n, a)), pos)


class TestTrainLoop:
    def test_zero_epochs(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=1)
        before = [p.value.copy() for p in net.params()]
        net, hist = train(net, ds, TrainConfig(max_epochs=0, batch_size=16, seed=2))
        assert hist.records == [] and hist.stop_reason == "max_epochs"
        for p, b in zip(net.params(), before):
            npt.assert_array_equal(p.value, b)

    def test_linear_task_converges(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=1)
        # lr 1e-2: the distance loss has unit-magnitude gradients, so the
        # meters-scale offset of this task needs the larger step to be
        # reachable inside 50 epochs
        net, hist = train(net, ds, TrainConfig(max_epochs=50, batch_size=16, seed=2, lr0=1e-2))
        first = hist.records[0].monitor_mde
        best = min(r.monitor_mde for r in hist.records)
        assert best < 0.10 * first

    def test_schedule_stub_constant(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=1)
        net, hist = train(net, ds, TrainConfig(max_epochs=250, batch_size=16, seed=2),
                          monitor_fn=lambda net, epoch: 1.0)
        assert len(hist.records) == 22
        assert hist.stop_reason == "early_stop"
        lrs = [r.lr for r in hist.records]
        assert lrs[10] == 1e-3 and lrs[11] == 1e-3 * 0.1
        assert lrs[20] == 1e-3 * 0.1 and lrs[21] == 1e-3 * 0.1 * 0.1

    def test_schedule_stub_always_improving(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=1)
        counter = iter(range(10_000))
        net, hist = train(net, ds, TrainConfig(max_epochs=250, batch_size=16, seed=2),
                          monitor_fn=lambda net, epoch: 100.0 - next(counter))
        assert len(hist.records) == 250
        assert hist.stop_reason == "max_epochs"
        assert all(r.lr == 1e-3 for r in hist.records)

    def test_early_stop_never_before_patience(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=1)
        cfg = TrainConfig(max_epochs=250, batch_size=16, seed=2, lr_patience=2, stop_patience=5)
        net, hist = train(net, ds, cfg, monitor_fn=lambda n, e: 1.0)
        assert len(hist.records) == cfg.stop_patience + 1

    def test_lr_sequence_property(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=4)
        net, hist = train(net, ds, TrainConfig(max_epochs=60, batch_size=16, seed=5))
        lrs = [r.lr for r in hist.records]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        allowed = set()
        lr = 1e-3
        for _ in range(10):
            allowed.add(lr)
            lr *= 0.1
        assert set(lrs) <= allowed

    def test_determinism(self):
        ds = linear_task_dataset()
        cfg = TrainConfig(max_epochs=8, batch_size=16, seed=9)
        n1, h1 = train(build_fcnn([4], (2, 2, 8), seed=6), ds, cfg)
        n2, h2 = train(build_fcnn([4], (2, 2, 8), seed=6), ds, cfg)
        for a, b in zip(n1.params(), n2.params()):
            npt.assert_array_equal(a.value, b.value)
        for ra, rb in zip(h1.records, h2.records):
            assert (ra.epoch, ra.train_mde, ra.monitor_mde, ra.lr) == \
                   (rb.epoch, rb.train_mde, rb.monitor_mde, rb.lr)

    @pytest.mark.parametrize("kind", ["cnn4r", "cnn4s"])
    def test_determinism_residual_and_stem(self, kind):
        # residual units, same padding and (cnn4s) the pooled stem
        ds = linear_task_dataset(n=48, a=4, w=60)
        cfg = TrainConfig(max_epochs=3, batch_size=16, seed=9)
        n1, h1 = train(build_tiny(kind)[0], ds, cfg)
        n2, h2 = train(build_tiny(kind)[0], ds, cfg)
        for a, b in zip(n1.params(), n2.params()):
            npt.assert_array_equal(a.value, b.value)
        assert [(r.train_mde, r.monitor_mde, r.lr) for r in h1.records] == \
               [(r.train_mde, r.monitor_mde, r.lr) for r in h2.records]

    def test_two_chunk_monitor_thread_invariance(self, monkeypatch):
        # 300 monitor samples: two forward chunks, run on two workers when allowed
        ds = linear_task_dataset(n=600)
        cfg = TrainConfig(max_epochs=3, batch_size=64, seed=4, monitor_fraction=0.5)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CSILOC_THREADS", threads)
            runs.append(train(build_fcnn([4], (2, 2, 8), seed=6), ds, cfg))
        (n1, h1), (n2, h2) = runs
        for a, b in zip(n1.params(), n2.params()):
            npt.assert_array_equal(a.value, b.value)
        assert [(r.train_mde, r.monitor_mde, r.lr) for r in h1.records] == \
               [(r.train_mde, r.monitor_mde, r.lr) for r in h2.records]

    def test_each_batch_divided_by_norm(self, tmp_path):
        """Raw CSI under a scale trains as the divided CSI does under none."""
        ds = linear_task_dataset()
        cfg = TrainConfig(max_epochs=4, batch_size=16, seed=2)
        n1, h1 = train(build_fcnn([4], (2, 2, 8), seed=6), ds, cfg, NormStats(3.0),
                       checkpoint_path=tmp_path / "m.ckpt")
        n2, h2 = train(build_fcnn([4], (2, 2, 8), seed=6), Dataset(ds.csi / 3.0, ds.snr, ds.pos), cfg)
        for a, b in zip(n1.params(), n2.params()):
            npt.assert_array_equal(a.value, b.value)
        assert [(r.train_mde, r.monitor_mde) for r in h1.records] == \
               [(r.train_mde, r.monitor_mde) for r in h2.records]
        assert load_checkpoint(tmp_path / "m.ckpt")[1] == 3.0

    def test_malformed_thread_cap(self, monkeypatch):
        monkeypatch.setenv("CSILOC_THREADS", "two")
        with pytest.raises(CsilocError, match="CSILOC_THREADS"):
            train(build_fcnn([], (2, 2, 8), seed=1), linear_task_dataset(),
                  TrainConfig(max_epochs=1, batch_size=16),
                  monitor_fn=lambda net, epoch: pytest.fail("an epoch ran"))

    def test_best_weight_restoration(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=7)
        net, hist = train(net, ds, TrainConfig(max_epochs=30, batch_size=16, seed=8))
        best_recorded = min(r.monitor_mde for r in hist.records)
        # recompute the monitor on the returned weights: identical holdout split
        rng = np.random.default_rng(8)
        perm = rng.permutation(len(ds))
        n_mon = max(1, int(np.floor(len(ds) * 0.1 + 0.5)))
        mon = np.sort(perm[:n_mon])
        pred = net.forward(ds.csi[mon])
        final = float(np.linalg.norm(pred - ds.pos[mon], axis=1).mean())
        assert final <= best_recorded + 1e-12

    def test_single_small_step_decreases_loss(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=10)
        x, y = ds.csi[:16], ds.pos[:16]
        loss0, grad = mde_loss(net.forward(x), y)
        net.zero_grads()
        tape = []
        net.forward(x, tape)
        net.backward(grad, tape)
        sgd_momentum_step(net.params(), lr=1e-6, momentum=0.0)
        loss1, _ = mde_loss(net.forward(x), y)
        assert loss1 < loss0

    def test_dataset_too_small(self):
        ds = linear_task_dataset(n=20)
        net = build_fcnn([], (2, 2, 8), seed=1)
        with pytest.raises(ValueError, match="too small"):
            train(net, ds, TrainConfig(batch_size=32))

    def test_poisoned_weights_divergence(self):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=1)
        net.params()[0].value[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError) as err:
            train(net, ds, TrainConfig(max_epochs=5, batch_size=16, seed=2))
        assert err.value.history is not None

    def test_history_csv(self, tmp_path):
        ds = linear_task_dataset()
        net = build_fcnn([], (2, 2, 8), seed=1)
        net, hist = train(net, ds, TrainConfig(max_epochs=3, batch_size=16, seed=2))
        path = tmp_path / "history.csv"
        hist.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_mde,monitor_mde,lr,seconds"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[3]) == 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_factor=1.5)
        with pytest.raises(ValueError):
            TrainConfig(stop_patience=5, lr_patience=10)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
