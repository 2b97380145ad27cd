import os
import threading

import numpy as np
import numpy.testing as npt
import pytest

from csiloc import layers
from csiloc.data import Dataset, NormStats
from csiloc.errors import CsilocError, ShapeError, TrainingDivergedError
from csiloc.evaluation import predict
from csiloc.layers import Param
from csiloc.models import MODEL_KINDS, build_model, build_tiny, load_checkpoint
from csiloc.train import (MIN_IMPROVEMENT, PlateauSchedule, TrainConfig, TrainHistory,
                          mde_loss, sgd_momentum_step, train)

from conftest import CountingPool, StalledPool, desk_arch


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

    @staticmethod
    def state(nan_at=None):
        """Five parameters with random values, gradients and velocities; the second,
        third and fifth hold two floors or more, so two threads split them."""
        floor = layers._SPLIT_FLOOR
        rng = np.random.default_rng(70)
        params = []
        for shape in [(3,), (2 * floor + 5,), (7, 2 * floor // 7 + 1), (10,), (3, floor)]:
            p = Param(rng.standard_normal(shape))
            p.grad[...] = rng.standard_normal(shape)
            p.vel[...] = rng.standard_normal(shape)
            params.append(p)
        if nan_at is not None:
            params[nan_at].grad.flat[-1] = np.nan   # in its last part
        return params

    @staticmethod
    def assert_same(a, b):
        for p, q in zip(a, b, strict=True):
            npt.assert_array_equal(p.value, q.value)
            npt.assert_array_equal(p.vel, q.vel)

    @pytest.mark.parametrize("threads,submits", [("2", 3), ("3", 4)])
    def test_split_bitwise(self, monkeypatch, threads, submits):
        monkeypatch.setenv("CSILOC_THREADS", "1")
        serial = self.state()
        sgd_momentum_step(serial, lr=1e-3, momentum=0.9)
        monkeypatch.setenv("CSILOC_THREADS", threads)
        pool = CountingPool(layers._POOL)
        for stand_in in (pool, StalledPool()):
            monkeypatch.setattr(layers, "_POOL", stand_in)
            split = self.state()
            sgd_momentum_step(split, lr=1e-3, momentum=0.9)
            self.assert_same(split, serial)
        assert pool.submits == submits

    @pytest.mark.parametrize("k", range(5))
    def test_nan_in_parameter_k(self, monkeypatch, k):
        """The parameters before k are updated, k and those after it are untouched."""
        start, ends = self.state(), {}
        for threads in ("1", "2"):
            monkeypatch.setenv("CSILOC_THREADS", threads)
            ends[threads] = self.state(nan_at=k)
            with pytest.raises(TrainingDivergedError):
                sgd_momentum_step(ends[threads], lr=1e-3, momentum=0.9)
        self.assert_same(ends["2"], ends["1"])
        self.assert_same(ends["1"][k:], start[k:])
        assert all((p.value != q.value).all() for p, q in zip(ends["1"][:k], start[:k]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_gradient(self, monkeypatch, value):
        """An infinite gradient element raises like a NaN: the parameters from it on are untouched."""
        monkeypatch.setenv("CSILOC_THREADS", "2")
        start, end = self.state(), self.state()
        end[2].grad.flat[-1] = value
        with pytest.raises(TrainingDivergedError, match="non-finite gradient"):
            sgd_momentum_step(end, lr=1e-3, momentum=0.9)
        self.assert_same(end[2:], start[2:])
        assert all((p.value != q.value).all() for p, q in zip(end[:2], start[:2]))


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
        net = build_model("linear", {"seed": 1}, (2, 2, 8))
        before = [p.value.copy() for p in net.params()]
        net, hist = train(net, ds, TrainConfig(max_epochs=0, batch_size=16, seed=2))
        assert hist.records == [] and hist.stop_reason == "max_epochs"
        for p, b in zip(net.params(), before):
            npt.assert_array_equal(p.value, b)

    def test_linear_task_converges(self):
        ds = linear_task_dataset()
        net = build_model("linear", {"seed": 1}, (2, 2, 8))
        # lr 1e-2: the distance loss has unit-magnitude gradients, so the
        # meters-scale offset of this task needs the larger step to be
        # reachable inside 50 epochs
        net, hist = train(net, ds, TrainConfig(max_epochs=50, batch_size=16, seed=2, lr0=1e-2))
        first = hist.records[0].monitor_mde
        best = min(r.monitor_mde for r in hist.records)
        assert best < 0.10 * first

    def test_schedule_stub_constant(self):
        ds = linear_task_dataset()
        net = build_model("linear", {"seed": 1}, (2, 2, 8))
        net, hist = train(net, ds, TrainConfig(max_epochs=250, batch_size=16, seed=2),
                          monitor_fn=lambda net, epoch: 1.0)
        assert len(hist.records) == 22
        assert hist.stop_reason == "early_stop"
        lrs = [r.lr for r in hist.records]
        assert lrs[10] == 1e-3 and lrs[11] == 1e-3 * 0.1
        assert lrs[20] == 1e-3 * 0.1 and lrs[21] == 1e-3 * 0.1 * 0.1

    def test_schedule_stub_always_improving(self):
        ds = linear_task_dataset()
        net = build_model("linear", {"seed": 1}, (2, 2, 8))
        counter = iter(range(10_000))
        net, hist = train(net, ds, TrainConfig(max_epochs=250, batch_size=16, seed=2),
                          monitor_fn=lambda net, epoch: 100.0 - next(counter))
        assert len(hist.records) == 250
        assert hist.stop_reason == "max_epochs"
        assert all(r.lr == 1e-3 for r in hist.records)

    def test_early_stop_never_before_patience(self):
        ds = linear_task_dataset()
        net = build_model("linear", {"seed": 1}, (2, 2, 8))
        cfg = TrainConfig(max_epochs=250, batch_size=16, seed=2, lr_patience=2, stop_patience=5)
        net, hist = train(net, ds, cfg, monitor_fn=lambda n, e: 1.0)
        assert len(hist.records) == cfg.stop_patience + 1

    def test_lr_sequence_property(self):
        ds = linear_task_dataset()
        net = build_model("linear", {"seed": 4}, (2, 2, 8))
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
        n1, h1 = train(build_model("fcnn", {"hidden": [4], "seed": 6}, (2, 2, 8)), ds, cfg)
        n2, h2 = train(build_model("fcnn", {"hidden": [4], "seed": 6}, (2, 2, 8)), ds, cfg)
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
            runs.append(train(build_model("fcnn", {"hidden": [4], "seed": 6}, (2, 2, 8)), ds, cfg))
        (n1, h1), (n2, h2) = runs
        for a, b in zip(n1.params(), n2.params()):
            npt.assert_array_equal(a.value, b.value)
        assert [(r.train_mde, r.monitor_mde, r.lr) for r in h1.records] == \
               [(r.train_mde, r.monitor_mde, r.lr) for r in h2.records]

    def test_each_batch_divided_by_norm(self, tmp_path):
        """Raw CSI under a scale trains as the divided CSI does under none. The CSI is
        3x values of at most 20 significant bits, so its quotient by 3 is exact in float32."""
        ds = linear_task_dataset()
        ds = Dataset(3.0 * np.round(ds.csi * 2.0 ** 12) / 2.0 ** 12, ds.snr, ds.pos)
        cfg = TrainConfig(max_epochs=4, batch_size=16, seed=2)
        arch = {"hidden": [4], "seed": 6}
        n1, h1 = train(build_model("fcnn", arch, (2, 2, 8)), ds, cfg, NormStats(3.0),
                       checkpoint_path=tmp_path / "m.ckpt")
        n2, h2 = train(build_model("fcnn", arch, (2, 2, 8)), Dataset(ds.csi / 3.0, ds.snr, ds.pos), cfg)
        for a, b in zip(n1.params(), n2.params()):
            npt.assert_array_equal(a.value, b.value)
        assert [(r.train_mde, r.monitor_mde) for r in h1.records] == \
               [(r.train_mde, r.monitor_mde) for r in h2.records]
        assert load_checkpoint(tmp_path / "m.ckpt")[1] == 3.0

    def test_malformed_thread_cap(self, monkeypatch):
        monkeypatch.setenv("CSILOC_THREADS", "two")
        with pytest.raises(CsilocError, match="CSILOC_THREADS"):
            train(build_model("linear", {"seed": 1}, (2, 2, 8)), linear_task_dataset(),
                  TrainConfig(max_epochs=1, batch_size=16),
                  monitor_fn=lambda net, epoch: pytest.fail("an epoch ran"))

    def test_best_weight_restoration(self):
        ds = linear_task_dataset()
        net = build_model("linear", {"seed": 7}, (2, 2, 8))
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
        net = build_model("linear", {"seed": 10}, (2, 2, 8))
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
        net = build_model("linear", {"seed": 1}, (2, 2, 8))
        with pytest.raises(ValueError, match="too small"):
            train(net, ds, TrainConfig(batch_size=32))

    def test_poisoned_weights_divergence(self):
        ds = linear_task_dataset()
        net = build_model("linear", {"seed": 1}, (2, 2, 8))
        net.params()[0].value[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError) as err:
            train(net, ds, TrainConfig(max_epochs=5, batch_size=16, seed=2))
        assert err.value.history is not None

    def test_history_csv(self, tmp_path):
        ds = linear_task_dataset()
        net = build_model("linear", {"seed": 1}, (2, 2, 8))
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


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_split_training_is_bitwise(monkeypatch, kind):
    """With a one-element floor every conv, dense and optimizer step splits at two
    threads; training gives the one-thread weights, velocities and history."""
    monkeypatch.setattr(layers, "_SPLIT_FLOOR", 1)
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("CSILOC_THREADS", threads)
        pool = CountingPool(layers._POOL)
        monkeypatch.setattr(layers, "_POOL", pool)
        net, _, _ = build_tiny(kind)
        rng = np.random.default_rng(71)
        ds = Dataset(rng.standard_normal((40,) + net.input_shape), np.zeros((40, net.input_shape[1])),
                     rng.uniform(1.0, 3.0, (40, 3)))
        net, hist = train(net, ds, TrainConfig(max_epochs=2, batch_size=8, seed=3))
        runs[threads] = ([p.value for p in net.params()], [p.vel for p in net.params()],
                         [(r.epoch, r.train_mde, r.monitor_mde, r.lr) for r in hist.records])
        assert (pool.submits > 0) == (threads == "2")
    for one, two in zip(runs["1"][:2], runs["2"][:2]):
        for a, b in zip(one, two, strict=True):
            npt.assert_array_equal(a, b)
    assert runs["1"][2] == runs["2"][2]


def test_pool_holds_one_thread_per_core(monkeypatch):
    """Six desk cnn4r steps and a three-chunk predict at two threads leave no pool
    thread beyond one per core."""
    monkeypatch.setenv("CSILOC_THREADS", "2")
    net = build_model("cnn4r", desk_arch(), (2, 16, 64))
    rng = np.random.default_rng(72)
    for _ in range(6):
        net.zero_grads()
        tape = []
        _, grad = mde_loss(net.forward(rng.standard_normal((32,) + net.input_shape), tape),
                           rng.standard_normal((32, 3)))
        net.backward(grad, tape)
        sgd_momentum_step(net.params(), lr=1e-3, momentum=0.9)
    predict(net, rng.standard_normal((2 * 256 + 1,) + net.input_shape), NormStats(1.0))
    pool_threads = [t for t in threading.enumerate() if t.name.startswith("csiloc-pool")]
    assert 0 < len(pool_threads) <= (os.cpu_count() or 1)
