import ast
import importlib
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from csiloc import layers
from csiloc.data import Dataset, NormStats, fit_normalizer
from csiloc.errors import CsilocError, ShapeError, TrainingDivergedError
from csiloc.evaluation import predict
from csiloc.layers import Param
from csiloc.models import DEFAULT_INPUT_SHAPE, MODEL_KINDS, build_model, build_tiny, save_checkpoint
from csiloc.train import (MIN_IMPROVEMENT, PlateauSchedule, TrainConfig, TrainHistory,
                          mde_loss, sgd_momentum_step, train)

from conftest import CountingPool, StalledPool, desk_arch

train_module = importlib.import_module("csiloc.train")   # the package re-exports train()


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


def pending(units, features, batch, seed):
    """A (units, features) Param with random value and velocity whose gradient is pending
    as a dense backward leaves it, with factors grad_out.T and x. Gradient element (0, 0)
    underflows to -0.0 and its velocity is -0.0, so a step that did not make it +0.0, as
    a made gradient is, would leave a velocity of +0.0, not -0.0."""
    rng = np.random.default_rng(seed)
    p = Param(rng.standard_normal((units, features)))
    p.vel[...] = rng.standard_normal(p.vel.shape)
    p.vel[0, 0] = -0.0
    a, b = rng.standard_normal((batch, units)).T, rng.standard_normal((batch, features))
    a[0], b[:, 0] = -1e-200, 1e-200
    p.factors = (a, b)
    return p


def _bits(a):
    return a.view(np.uint64).copy()


class TestPendingStep:
    """A pending gradient's step gives the bits of reading grad (which makes it whole), then
    stepping, and raises where that would, without making the gradient whole."""

    @staticmethod
    def stepped(params, made):
        if made:
            for p in params:
                p.grad   # makes a pending gradient whole
        sgd_momentum_step(params, lr=1e-3, momentum=0.9)
        return [(_bits(p.value), _bits(p.vel)) for p in params]

    @pytest.mark.parametrize("units", [1, 2, 3, 5, 7, 1000])
    @pytest.mark.parametrize("features", [3, 9, 4896])
    @pytest.mark.parametrize("batch", [1, 2, 17, 32])
    def test_matches_made_gradient_bitwise(self, monkeypatch, units, features, batch):
        """Every split, row block and ragged last block at one and two threads, each part
        holding whole rows: 1000 rows of 4896 go 6 rows a block, 7 rows of 4896 as one block."""
        monkeypatch.setattr(layers, "_SPLIT_FLOOR", 1)
        for threads in ("1", "2"):
            monkeypatch.setenv("CSILOC_THREADS", threads)
            want = self.stepped([pending(units, features, batch, 80)], made=True)
            p = pending(units, features, batch, 80)
            got = self.stepped([p], made=False)
            npt.assert_array_equal(got[0][0], want[0][0])
            npt.assert_array_equal(got[0][1], want[0][1])
            assert p.factors is not None and not p._grad.any()   # its array was never written

    def test_one_row_block_changes_bits(self, monkeypatch):
        """Blocks that may end in a lone row (7 rows of 4896 in blocks of 6 and 1): numpy
        makes that row by gemv, and the step's bits differ from the made gradient's."""
        monkeypatch.setenv("CSILOC_THREADS", "1")
        want = self.stepped([pending(7, 4896, 17, 81)], made=True)
        monkeypatch.setattr(train_module, "_blocks",
                            lambda lo, hi, rows: ((i, min(i + rows, hi)) for i in range(lo, hi, rows)))
        got = self.stepped([pending(7, 4896, 17, 81)], made=False)
        assert (got[0][0] != want[0][0]).any()

    @staticmethod
    def state(bad_at=None, factor=0, value=np.nan):
        """Five parameters, the second, fourth and fifth pending; the fourth splits over two
        threads. value goes into the last row of factor 0 or the last column of factor 1 of
        the parameter at bad_at."""
        params = [Param(np.random.default_rng(82).standard_normal(3)), pending(6, 40, 8, 83),
                  Param(np.random.default_rng(84).standard_normal(10)), pending(64, 1100, 8, 85),
                  pending(9, 500, 8, 86)]
        for p, seed in ((params[0], 87), (params[2], 88)):
            p.grad[...] = np.random.default_rng(seed).standard_normal(p.size)
        if bad_at is not None:
            a, b = params[bad_at].factors
            (a[-1] if factor == 0 else b[:, -1])[-1] = value
        return params

    @staticmethod
    def assert_same(a, b):
        for p, q in zip(a, b, strict=True):
            npt.assert_array_equal(p.value, q.value)
            npt.assert_array_equal(p.vel, q.vel)

    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize("factor", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor(self, monkeypatch, k, factor, value):
        """The parameters before k are stepped, k and those after it are untouched."""
        start, stepped, ends = self.state(), self.state(), {}
        sgd_momentum_step(stepped, lr=1e-3, momentum=0.9)
        for threads in ("1", "2"):
            monkeypatch.setenv("CSILOC_THREADS", threads)
            ends[threads] = self.state(k, factor, value)
            with pytest.raises(TrainingDivergedError, match="non-finite gradient"):
                sgd_momentum_step(ends[threads], lr=1e-3, momentum=0.9)
        self.assert_same(ends["2"], ends["1"])
        self.assert_same(ends["1"][k:], start[k:])
        self.assert_same(ends["1"][:k], stepped[:k])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_product(self, monkeypatch, threads):
        """Finite factors whose product overflows in one element, in the last part, raise
        before any of that parameter is updated."""
        monkeypatch.setenv("CSILOC_THREADS", threads)
        start, stepped, end = self.state(), self.state(), self.state()
        sgd_momentum_step(stepped, lr=1e-3, momentum=0.9)
        a, b = end[3].factors
        a[-1, -1], b[-1, -1] = 1e200, 1e200
        with pytest.raises(TrainingDivergedError, match="non-finite gradient"):
            sgd_momentum_step(end, lr=1e-3, momentum=0.9)
        self.assert_same(end[3:], start[3:])
        self.assert_same(end[:3], stepped[:3])

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("alone", [False, True])
    def test_finite_product_past_the_bound(self, monkeypatch, threads, alone):
        """Factors with max|a| * max|b| past any float whose product stays finite (1e200
        never meets 1e200) step to the made gradient's bits, in the five parameters or in
        a lone 5-row gradient, split 2 + 3 rows at two threads."""
        monkeypatch.setattr(layers, "_SPLIT_FLOOR", 1)
        monkeypatch.setenv("CSILOC_THREADS", threads)
        runs = []
        for made in (True, False):
            params = [pending(5, 4896, 17, 90)] if alone else self.state()
            a, b = params[-1].factors
            a[-1, 0], b[1, -1] = 1e200, 1e200
            runs.append(self.stepped(params, made))
        for (value, vel), (want_value, want_vel) in zip(runs[1], runs[0], strict=True):
            npt.assert_array_equal(value, want_value)
            npt.assert_array_equal(vel, want_vel)


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

    def test_each_batch_divided_by_norm(self):
        """Raw CSI under a scale trains as the divided CSI does under none. The CSI is
        3x values of at most 20 significant bits, so its quotient by 3 is exact in float32."""
        ds = linear_task_dataset()
        ds = Dataset(3.0 * np.round(ds.csi * 2.0 ** 12) / 2.0 ** 12, ds.snr, ds.pos)
        cfg = TrainConfig(max_epochs=4, batch_size=16, seed=2)
        arch = {"hidden": [4], "seed": 6}
        n1, h1 = train(build_model("fcnn", arch, (2, 2, 8)), ds, cfg, NormStats(3.0))
        n2, h2 = train(build_model("fcnn", arch, (2, 2, 8)), Dataset(ds.csi / 3.0, ds.snr, ds.pos), cfg)
        for a, b in zip(n1.params(), n2.params()):
            npt.assert_array_equal(a.value, b.value)
        assert [(r.train_mde, r.monitor_mde) for r in h1.records] == \
               [(r.train_mde, r.monitor_mde) for r in h2.records]

    def test_on_improve_sees_each_improved_net(self):
        """on_improve(epoch, monitor) runs at each new best monitor, with the net holding
        that epoch's weights; the last it saw are the weights train() restores."""
        ds = linear_task_dataset()
        monitors = [5.0, 4.0, 4.5, 3.0, 3.0, 3.5]   # epochs 1, 2 and 4 improve
        seen, after = [], []   # (epoch, monitor, weights) at each call; the weights at each monitor
        net = build_model("linear", {"seed": 3}, (2, 2, 8))

        def monitor_fn(net, epoch):
            after.append(net.snapshot())
            return monitors[epoch - 1]
        _, hist = train(net, ds, TrainConfig(max_epochs=6, batch_size=16, seed=5), monitor_fn=monitor_fn,
                        on_improve=lambda epoch, monitor: seen.append((epoch, monitor, net.snapshot())))
        assert [(e, m) for e, m, _ in seen] == [(1, 5.0), (2, 4.0), (4, 3.0)]
        assert [r.monitor_mde for r in hist.records] == monitors
        for epoch, _, weights in seen:
            for a, b in zip(weights, after[epoch - 1], strict=True):
                npt.assert_array_equal(a, b)
        for a, b in zip(seen[-1][2], net.snapshot(), strict=True):
            npt.assert_array_equal(a, b)
        assert any((a != b).any() for a, b in zip(after[3], after[5]))   # the restore undid epochs 5-6

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

    @pytest.mark.parametrize("cause,message", [("loss", "non-finite loss in epoch 3"),
                                               ("gradient", "non-finite gradient .* in epoch 3")])
    def test_divergence_names_cause_and_epoch(self, monkeypatch, cause, message):
        """Epoch 2's monitor poisons a weight (so epoch 3's first loss is NaN) or every later
        gradient (so the real optimizer step refuses it). Either stops the run as diverged,
        with the finished epochs' history and the epoch named."""
        poisoned = []

        def monitor_fn(net, epoch):
            if epoch == 2 and cause == "loss":
                net.params()[0].value[0, 0] = np.nan
            elif epoch == 2:
                poisoned.append(epoch)
            return 10.0 - epoch

        def sgd(params, lr, momentum):
            if poisoned:
                params[-1].grad[0] = np.inf
            sgd_momentum_step(params, lr, momentum)
        monkeypatch.setattr(train_module, "sgd_momentum_step", sgd)
        with pytest.raises(TrainingDivergedError) as err:
            train(build_model("linear", {"seed": 1}, (2, 2, 8)), linear_task_dataset(),
                  TrainConfig(max_epochs=5, batch_size=16, seed=2), monitor_fn=monitor_fn)
        assert re.fullmatch(message, str(err.value))
        assert err.value.history.stop_reason == "diverged"
        assert [(r.epoch, r.monitor_mde) for r in err.value.history.records] == [(1, 9.0), (2, 8.0)]

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


def desk_cnn4r_steps(rng):
    """A desk cnn4r after six batch-32 training steps on random data."""
    net = build_model("cnn4r", desk_arch(), (2, 16, 64))
    for _ in range(6):
        net.zero_grads()
        tape = []
        _, grad = mde_loss(net.forward(rng.standard_normal((32,) + net.input_shape), tape),
                           rng.standard_normal((32, 3)))
        net.backward(grad, tape)
        sgd_momentum_step(net.params(), lr=1e-3, momentum=0.9)
    return net


def test_pool_holds_one_thread_per_core(monkeypatch):
    """Six desk cnn4r steps and a three-chunk predict at two threads leave no pool
    thread beyond one per core."""
    monkeypatch.setenv("CSILOC_THREADS", "2")
    rng = np.random.default_rng(72)
    net = desk_cnn4r_steps(rng)
    predict(net, rng.standard_normal((2 * 256 + 1,) + net.input_shape), NormStats(1.0))
    pool_threads = [t for t in threading.enumerate() if t.name.startswith("csiloc-pool")]
    assert 0 < len(pool_threads) <= (os.cpu_count() or 1)


def test_no_submit_from_a_pool_thread(monkeypatch):
    """A pool thread runs its task alone, so only callers hand work to the pool: in
    training steps at two threads, a two-chunk predict at four, and the normaliser's fit."""
    pool = CountingPool(layers._POOL)
    monkeypatch.setattr(layers, "_POOL", pool)
    monkeypatch.setenv("CSILOC_THREADS", "2")
    rng = np.random.default_rng(73)
    net = desk_cnn4r_steps(rng)
    submits = [pool.submits]
    monkeypatch.setenv("CSILOC_THREADS", "4")
    predict(net, rng.standard_normal((2 * 256,) + net.input_shape), NormStats(1.0))
    submits.append(pool.submits)
    monkeypatch.setenv("CSILOC_THREADS", "2")
    fit_normalizer(Dataset(rng.standard_normal((40, 2, 16, 128)), np.zeros((40, 16)), np.zeros((40, 3))))
    submits.append(pool.submits)
    assert 0 < submits[0] < submits[1] < submits[2]   # each part submits
    assert [name for name in pool.submitters if name.startswith("csiloc-pool")] == []


def test_train_writes_no_checkpoint():
    """train() reports each improvement through on_improve and the CLI writes model.ckpt:
    train.py imports nothing from models and names no save_checkpoint."""
    tree = ast.parse(Path(train_module.__file__).read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | \
            {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "models" not in modules | imported
    assert "save_checkpoint" not in names | imported


def test_train_holds_one_best_set():
    """A run whose monitor improves in every epoch keeps one best-weights set, refreshed in
    place, and its dense weight gradients make no temporaries. Made anew at each improvement,
    beside the old one, the best set alone peaked at twice the weights; this run peaks below
    that less its largest tensor."""
    net = build_model("fcnn", {"hidden": [1000, 1000], "seed": 5}, (2, 16, 64))   # 24 MB of weights
    rng = np.random.default_rng(74)
    ds = Dataset(rng.standard_normal((40,) + net.input_shape), np.zeros((40, 16)), rng.uniform(1.0, 3.0, (40, 3)))
    sizes = [p.value.nbytes for p in net.params()]
    tracemalloc.start()
    try:
        _, hist = train(net, ds, TrainConfig(max_epochs=3, batch_size=8, seed=6),
                        monitor_fn=lambda net, epoch: 10.0 - epoch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hist.records) == 3
    assert peak < 2 * sum(sizes) - max(sizes), (peak, sizes)


def test_in_place_weight_gradient_keeps_checkpoint_bytes(monkeypatch, tmp_path):
    """Two epochs of the shipped cnn4 at the measured width write the same checkpoint
    bytes whether the dense weight gradient goes into w.grad or through grad += a @ b."""
    def checkpoint(name):
        net = build_model("cnn4", {}, DEFAULT_INPUT_SHAPE)
        rng = np.random.default_rng(75)
        ds = Dataset(rng.standard_normal((24,) + net.input_shape), np.zeros((24, 16)),
                     rng.uniform(1.0, 3.0, (24, 3)))
        train(net, ds, TrainConfig(max_epochs=2, batch_size=8, seed=7))
        save_checkpoint(tmp_path / name, net, norm_scale=1.0)
        return (tmp_path / name).read_bytes()

    in_place = checkpoint("in_place.ckpt")

    def add_product(self, a, b):
        self.grad += a @ b
    monkeypatch.setattr(Param, "add_product", add_product)
    assert checkpoint("temporary.ckpt") == in_place


def test_train_never_writes_a_pending_head_gradient():
    """The desk cnn4's Dense(432, 256) head keeps its weight gradient as factors in every
    step, so train() runs with that gradient's array read-only, to the same weights."""
    def trained(read_only):
        net = build_model("cnn4", desk_arch(), (2, 16, 64))
        head = max(net.params(), key=lambda p: p.size)
        head._grad.setflags(write=not read_only)
        rng = np.random.default_rng(89)
        ds = Dataset(rng.standard_normal((40,) + net.input_shape), np.zeros((40, 16)),
                     rng.uniform(1.0, 3.0, (40, 3)))
        train(net, ds, TrainConfig(max_epochs=2, batch_size=8, seed=10))
        return [p.value for p in net.params()]

    for got, want in zip(trained(True), trained(False), strict=True):
        npt.assert_array_equal(_bits(got), _bits(want))
