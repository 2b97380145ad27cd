import ast
import os
import re
import sys
import threading
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from csiloc import layers
from csiloc.errors import CsilocError, ShapeError
from csiloc.layers import (AvgPool1xP, Conv1xK, Dense, Flatten, Param, ReLU, ResidualUnit,
                           conv_out_width, same_padding)

from conftest import (CountingPool, StalledPool, fd_layer_check, naive_avgpool1xp, naive_conv1xk,
                      naive_conv1xk_backward)


def test_cancelled_task_holds_nothing(monkeypatch):
    """A task the caller cancels and runs itself stays in the pool's queue until a pool
    thread takes it; the queued item by then holds neither the task nor its arguments."""
    pool = StalledPool()
    monkeypatch.setattr(layers, "_POOL", pool)
    data = np.ones(8)
    alive = weakref.ref(data)
    layers._fan_out([lambda: None, partial(np.sum, data)])
    del data
    assert len(pool.queued) == 1 and alive() is None


def make_conv(c_in, f, k, s, padding="valid", seed=0):
    conv = Conv1xK(c_in, f, k, s, padding)
    rng = np.random.default_rng(seed)
    conv.w.value[...] = rng.standard_normal(conv.w.value.shape)
    conv.b.value[...] = rng.standard_normal(conv.b.value.shape)
    return conv


class TestConvForward:
    def test_window_sums(self):
        # [1..10], kernel of seven ones, stride 3: windows 1..7 and 4..10
        conv = Conv1xK(1, 1, 7, 3, "valid")
        conv.w.value[...] = 1.0
        out = conv.forward(np.arange(1.0, 11.0).reshape(1, 1, 1, 10))
        npt.assert_array_equal(out.ravel(), [28.0, 49.0])

    def test_zero_kernel_gives_bias(self):
        conv = Conv1xK(3, 4, 5, 2, "valid")
        conv.b.value[...] = [0.5, -1.0, 2.0, 0.0]
        x = np.random.default_rng(1).standard_normal((2, 3, 2, 17))
        out = conv.forward(x)
        for fi, b in enumerate(conv.b.value):
            npt.assert_array_equal(out[:, fi], np.full((2, 2, 7), b))

    def test_width_chain_924(self):
        widths = [924]
        for _ in range(4):
            widths.append(conv_out_width(widths[-1], 7, 3))
        assert widths == [924, 306, 100, 32, 9]
        conv = make_conv(2, 10, 7, 3)
        out = conv.forward(np.zeros((1, 2, 16, 924)))
        assert out.shape == (1, 10, 16, 306)

    def test_matches_naive_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(1, 5))
            f = int(rng.integers(1, 5))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 65))
            k = int(rng.integers(1, min(w, 8) + 1))
            s = int(rng.integers(1, 5))
            padding = "valid" if rng.integers(2) else "same"
            if padding == "valid" and (w - k) // s + 1 < 1:
                continue
            conv = Conv1xK(c, f, k, s, padding)
            conv.w.value[...] = rng.standard_normal(conv.w.value.shape)
            conv.b.value[...] = rng.standard_normal(f)
            x = rng.standard_normal((c, h, w))
            ours = conv.forward(x[None])[0]
            ref = naive_conv1xk(x, conv.w.value, conv.b.value, s, padding)
            npt.assert_array_equal(ours, ref)

    @staticmethod
    def naive_batch(conv, x):
        return np.stack([naive_conv1xk(xi, conv.w.value, conv.b.value, conv.stride, conv.padding)
                         for xi in x])

    @pytest.mark.parametrize("view", ["transposed", "width_slice"])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_non_contiguous_input_bitwise(self, view, padding):
        rng = np.random.default_rng(40)
        conv = make_conv(3, 4, 5, 2, padding, seed=41)
        if view == "transposed":  # a (B, C, H, W) view of (C, B, H, W) memory
            x = rng.standard_normal((3, 2, 4, 23)).transpose(1, 0, 2, 3)
        else:
            x = rng.standard_normal((2, 3, 4, 40))[..., 5:31]
        assert not x.flags.c_contiguous
        npt.assert_array_equal(conv.forward(x), self.naive_batch(conv, x))

    def test_residual_unit_padded_path_bitwise(self):
        rng = np.random.default_rng(42)
        unit = ResidualUnit(3, 4, rng=rng)
        for p in unit.params():
            p.value += rng.uniform(-0.2, 0.2, p.value.shape)
        x = rng.standard_normal((2, 3, 5, 11))
        mid = np.maximum(self.naive_batch(unit.conv_a, x), 0.0)
        ref = np.maximum(self.naive_batch(unit.conv_b, mid) + x, 0.0)
        npt.assert_array_equal(unit.forward(x), ref)

    @pytest.mark.parametrize("b,h,w,k,s,padding", [
        (1, 3, 20, 5, 2, "valid"), (4, 1, 20, 5, 2, "valid"), (3, 2, 5, 5, 1, "valid"),
        (2, 3, 9, 4, 6, "valid"), (2, 3, 3, 3, 4, "same"), (1, 1, 1, 1, 1, "same"),
    ])
    def test_unit_axes_bitwise(self, b, h, w, k, s, padding):
        conv = make_conv(2, 3, k, s, padding, seed=43)
        x = np.random.default_rng(44).standard_normal((b, 2, h, w))
        out = conv.forward(x)
        assert 1 in out.shape
        npt.assert_array_equal(out, self.naive_batch(conv, x))

    @pytest.mark.parametrize("w,k,s", [
        (1, 5, 1),   # desk block 4's shape
        (3, 7, 2),   # tap 0 lies wholly in padding
    ])
    def test_width_below_kernel_bitwise(self, w, k, s):
        conv = make_conv(3, 4, k, s, "same", seed=76)
        x = np.random.default_rng(77).standard_normal((2, 3, 2, w))
        npt.assert_array_equal(conv.forward(x), self.naive_batch(conv, x))

    def test_same_padded_tape_holds_the_input(self):
        conv = make_conv(3, 4, 5, 1, "same", seed=78)
        x = np.random.default_rng(79).standard_normal((2, 3, 2, 9))
        tape = []
        conv.forward(x, tape)
        assert tape[0][1] is x

    @pytest.mark.parametrize("shape,k,s,padding", [
        ((2, 3, 4, 20), 5, 2, "valid"), ((1, 3, 1, 7), 3, 1, "same"), ((3, 3, 2, 9), 9, 1, "valid"),
    ])
    def test_output_c_contiguous(self, shape, k, s, padding):
        out = make_conv(3, 5, k, s, padding).forward(np.ones(shape))
        assert out.flags.c_contiguous and out.shape[:3] == (shape[0], 5, shape[2])

    def test_threads_share_a_layer(self):
        """Threads running one layer's forward on different inputs get the serial bits."""
        rng = np.random.default_rng(45)
        conv = make_conv(4, 6, 5, 1, "same", seed=46)
        xs = [rng.standard_normal((8, 4, 16, 64)) for _ in range(4)]  # more threads than cores
        serial = [conv.forward(x).tobytes() for x in xs]
        start = threading.Barrier(len(xs))
        matches = [0] * len(xs)

        def run(i):
            start.wait()
            for _ in range(5):
                matches[i] += conv.forward(xs[i]).tobytes() == serial[i]
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert matches == [5] * len(xs)

    def test_same_padding_width(self):
        for w in range(1, 40):
            for k in range(1, 8):
                for s in range(1, 4):
                    conv = Conv1xK(1, 1, k, s, "same")
                    out = conv.forward(np.zeros((1, 1, 1, w)))
                    assert out.shape[3] == -(-w // s)

    def test_linearity(self):
        conv = make_conv(2, 3, 5, 2, seed=3)
        conv.b.value[...] = 0.0
        x = np.random.default_rng(4).standard_normal((1, 2, 3, 20))
        # scaling by a power of two is exact in floating point
        npt.assert_array_equal(conv.forward(2.0 * x), 2.0 * conv.forward(x))
        a = 0.3
        npt.assert_allclose(conv.forward(a * x), a * conv.forward(x), rtol=1e-12)

    def test_antenna_axis_permutation(self):
        conv = make_conv(2, 3, 5, 2, seed=5)
        x = np.random.default_rng(6).standard_normal((1, 2, 16, 30))
        perm = np.random.default_rng(7).permutation(16)
        npt.assert_array_equal(conv.forward(x[:, :, perm]), conv.forward(x)[:, :, perm])

    def test_errors(self):
        conv = Conv1xK(1, 1, 7, 3, "valid")
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 1, 1, 5)))  # kernel wider than input
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 2, 1, 20)))  # wrong channel count
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 1, 20)))  # no antenna axis
        with pytest.raises(ShapeError):
            conv_out_width(2, 7, 3)


# (batch, channels, filters, height, width, kernel, stride, padding), and the
# forward's slice count for 1, 2 and 3 threads; floor is the output elements per slice
SPLIT_CASES = {
    "batch1": ((1, 1, 8, 4, 1026, 3, 1, "valid"), (1, 1, 1)),       # batch 1: 32768 per sample
    "batch7": ((7, 1, 4, 4, 1026, 3, 1, "valid"), (1, 2, 3)),       # 16384 per sample: slices of 2+ samples
    "under_floor": ((2, 1, 7, 31, 152, 2, 1, "valid"), (1, 1, 1)),  # 32767 per sample: just under the floor
    "on_floor": ((2, 1, 8, 32, 129, 2, 1, "valid"), (1, 2, 2)),     # 32768 per sample: on the floor
    "same": ((3, 1, 4, 8, 1024, 3, 1, "same"), (1, 2, 3)),
    "stride_gt_kernel": ((3, 1, 4, 8, 5117, 2, 5, "valid"), (1, 2, 3)),  # stride > kernel
}
# forwards whose sweep rows (B*H*W_out columns) run 16 to 4608 wide, on both sides of
# a third of numpy's default 8192-element ufunc buffer; cols4608 sweeps 2304 a slice
BORDER_CASES = {
    "cols16": ((1, 2, 3, 2, 9, 2, 1, "valid"), (1, 1, 1)),
    "cols176": ((2, 2, 3, 4, 22, 3, 1, "same"), (1, 1, 1)),
    "cols512": ((4, 2, 3, 16, 16, 3, 2, "same"), (1, 1, 1)),
    "cols2048": ((8, 2, 3, 16, 33, 3, 2, "valid"), (1, 1, 1)),
    "cols2736": ((3, 2, 3, 8, 117, 4, 1, "valid"), (1, 1, 1)),
    "cols4608": ((2, 1, 16, 4, 577, 2, 1, "valid"), (1, 2, 2)),
}
# (batch, channels, filters, height, width, kernel, stride, padding) and the columns of
# one part's tile, which the tests get by setting _TILE
TILE_CASES = {
    "h_ranges": ((3, 2, 3, 7, 20, 3, 1, "valid"), 3 * 18),    # 3 of a sample's 7 rows a tile: 3, 3, 1
    "ragged_batch": ((7, 2, 3, 2, 16, 4, 2, "same"), 3 * 16),  # 2 samples a tile with their padded rows: 2, 2, 2, 1
    "one_row": ((2, 3, 2, 4, 11, 2, 3, "valid"), 1),           # under one row: a tile is one row
}
# a backward splits when its output holds the floor; this one holds 32767
BACKWARD_SHAPES = {**{name: shape for name, (shape, _) in SPLIT_CASES.items()},
                   "output_under_floor": (1, 1, 7, 31, 152, 2, 1, "valid")}


def race(callers, call, rounds=5):
    """Run call(i) rounds times on each of callers threads at once, switching threads
    every microsecond; returns how many of each caller's calls returned True."""
    start = threading.Barrier(callers)
    matches = [0] * callers

    def run(i):
        start.wait()
        for _ in range(rounds):
            matches[i] += bool(call(i))
    threads = [threading.Thread(target=run, args=(i,)) for i in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return matches


class TestConvSplit:
    """The batch slices of a conv forward keep every output's naive IEEE sequence."""

    @pytest.mark.parametrize("shape,slices", [*SPLIT_CASES.values(), *BORDER_CASES.values()],
                             ids=[*SPLIT_CASES, *BORDER_CASES])
    def test_bitwise_for_each_thread_count(self, monkeypatch, shape, slices):
        b, c, f, h, w, k, s, padding = shape
        conv = make_conv(c, f, k, s, padding, seed=47)
        x = np.random.default_rng(48).standard_normal((b, c, h, w))
        ref = TestConvForward.naive_batch(conv, x)
        for threads, expect in zip((1, 2, 3), slices):
            pool = CountingPool(layers._POOL)
            monkeypatch.setattr(layers, "_POOL", pool)
            monkeypatch.setenv("CSILOC_THREADS", str(threads))
            out = conv.forward(x)
            assert pool.submits + 1 == expect, threads
            npt.assert_array_equal(out, ref)
            assert out.flags.c_contiguous

    def test_caller_sweeps_slices_no_thread_started(self, monkeypatch):
        monkeypatch.setattr(layers, "_POOL", StalledPool())
        monkeypatch.setenv("CSILOC_THREADS", "3")
        conv = make_conv(1, 4, 3, 1, "same", seed=51)
        x = np.random.default_rng(52).standard_normal((3, 1, 8, 1024))
        npt.assert_array_equal(conv.forward(x), TestConvForward.naive_batch(conv, x))

    def test_concurrent_split_forwards(self, monkeypatch):
        """Callers racing for the pool, some sweeping slices it has not started, get the serial bits."""
        rng = np.random.default_rng(53)
        conv = make_conv(4, 6, 5, 1, "same", seed=54)
        xs = [rng.standard_normal((24, 4, 16, 64)) for _ in range(4)]  # three slices each
        monkeypatch.setenv("CSILOC_THREADS", "1")
        serial = [conv.forward(x).tobytes() for x in xs]
        monkeypatch.setenv("CSILOC_THREADS", "3")
        assert race(len(xs), lambda i: conv.forward(xs[i]).tobytes() == serial[i]) == [5] * len(xs)

    def test_split_allocates_nothing_more(self, monkeypatch):
        conv = make_conv(4, 8, 5, 1, "same", seed=49)
        x = np.random.default_rng(50).standard_normal((16, 4, 16, 64))
        peaks = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("CSILOC_THREADS", threads)
            conv.forward(x)   # the pool's threads start outside the traced call
            tracemalloc.start()
            try:
                conv.forward(x)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the parts share one _TILE budget of tile buffers; the futures cost a few hundred bytes
        assert peaks["2"] <= peaks["1"] + 16384, peaks
        assert peaks["1"] > 8 * 16 * 16 * 64 * 8 * 2

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("shape,cols", list(TILE_CASES.values()), ids=list(TILE_CASES))
    def test_tiles_bitwise(self, monkeypatch, shape, cols, threads):
        b, c, f, h, w, k, s, padding = shape
        monkeypatch.setattr(layers, "_SPLIT_FLOOR", 1)
        monkeypatch.setattr(layers, "_TILE", cols * (2 * f + 1) * 8 * threads)   # cols a part
        monkeypatch.setenv("CSILOC_THREADS", str(threads))
        pool = CountingPool(layers._POOL)
        monkeypatch.setattr(layers, "_POOL", pool)
        conv = make_conv(c, f, k, s, padding, seed=70)
        x = np.random.default_rng(71).standard_normal((b, c, h, w))
        out = conv.forward(x)
        assert pool.submits == threads - 1
        npt.assert_array_equal(out, TestConvForward.naive_batch(conv, x))

    @pytest.mark.parametrize("batch", [48, 128])
    def test_peak_is_output_input_and_tile(self, monkeypatch, batch):
        """No output-sized accumulator: past the output and the padded input, a
        forward holds one tile's buffers."""
        monkeypatch.setenv("CSILOC_THREADS", "1")
        conv = make_conv(4, 8, 5, 1, "same", seed=72)
        x = np.random.default_rng(73).standard_normal((batch, 4, 16, 64))
        conv.forward(x)
        tracemalloc.start()
        try:
            out = conv.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = x.nbytes // 64 * 68
        assert peak <= out.nbytes + padded + layers._TILE + 16384, peak

    def test_ufunc_buffer_left_as_found(self, monkeypatch):
        """A two-part forward leaves the caller's buffer size and error handling as
        they were, and each pool thread at numpy's default buffer."""
        monkeypatch.setenv("CSILOC_THREADS", "2")
        pool = CountingPool(layers._POOL)
        monkeypatch.setattr(layers, "_POOL", pool)
        conv = make_conv(1, 16, 2, 1, seed=57)
        x = np.random.default_rng(58).standard_normal((2, 1, 4, 577))
        old = np.setbufsize(4096)
        try:
            with np.errstate(over="raise", under="warn"):
                errors = np.geterr()
                conv.forward(x)
                assert pool.submits == 1
                assert np.getbufsize() == 4096
                assert np.geterr() == errors
        finally:
            np.setbufsize(old)
        workers = pool.pool._max_workers
        start = threading.Barrier(workers, timeout=30)   # one task on each pool thread
        sizes = []

        def read():
            start.wait()
            sizes.append(np.getbufsize())
        layers._fan_out([read] * workers, on_caller=0)
        assert sizes == [8192] * workers

    def test_malformed_thread_count_raises(self, monkeypatch):
        conv = make_conv(1, 1, 3, 1)
        for cap in ("two", "0", "-3", "1.5"):
            monkeypatch.setenv("CSILOC_THREADS", cap)
            with pytest.raises(CsilocError, match="CSILOC_THREADS"):
                conv.forward(np.zeros((1, 1, 1, 8)))


def conv_backward(conv, tape, grad_out, input_grad=True):
    """(input gradient, weight gradient, bias gradient) of one backward that
    accumulates onto fixed nonzero gradients; the tape is left as it was."""
    conv.w.grad[...] = np.random.default_rng(60).standard_normal(conv.w.grad.shape)
    conv.b.grad[...] = np.random.default_rng(61).standard_normal(conv.b.grad.shape)
    gx = conv.backward(grad_out, list(tape), input_grad)
    return gx, conv.w.grad.copy(), conv.b.grad.copy()


def dense_backward(dense, tape, grad_out):
    dense.w.grad[...] = np.random.default_rng(62).standard_normal(dense.w.grad.shape)
    dense.b.grad[...] = 0.0
    gx = dense.backward(grad_out, list(tape))
    return gx, dense.w.grad.copy(), dense.b.grad.copy()


def assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        npt.assert_array_equal(x, y)


class TestBackwardSplit:
    """A backward split over two threads keeps every serial bit."""

    @staticmethod
    def conv_case(monkeypatch, shape):
        b, c, f, h, w, k, s, padding = shape
        conv = make_conv(c, f, k, s, padding, seed=55)
        monkeypatch.setenv("CSILOC_THREADS", "1")
        tape = []
        out = conv.forward(np.random.default_rng(56).standard_normal((b, c, h, w)), tape)
        return conv, tape, np.random.default_rng(57).standard_normal(out.shape)

    @pytest.mark.parametrize("shape", list(BACKWARD_SHAPES.values()), ids=list(BACKWARD_SHAPES))
    def test_conv_bitwise_for_each_thread_count(self, monkeypatch, shape):
        conv, tape, grad_out = self.conv_case(monkeypatch, shape)
        serial = conv_backward(conv, tape, grad_out)
        assert_same(conv_backward(conv, tape, grad_out, input_grad=False), (None,) + serial[1:])
        for threads in (2, 3):
            pool = CountingPool(layers._POOL)
            monkeypatch.setattr(layers, "_POOL", pool)
            monkeypatch.setenv("CSILOC_THREADS", str(threads))
            assert_same(conv_backward(conv, tape, grad_out), serial)
            assert pool.submits == (grad_out.size >= layers._SPLIT_FLOOR), threads
            assert_same(conv_backward(conv, tape, grad_out, input_grad=False), (None,) + serial[1:])
            assert pool.submits == (grad_out.size >= layers._SPLIT_FLOOR), threads  # no input task to hand out

    @pytest.mark.parametrize("shape", list(BACKWARD_SHAPES.values()), ids=list(BACKWARD_SHAPES))
    def test_conv_caller_runs_task_no_thread_started(self, monkeypatch, shape):
        conv, tape, grad_out = self.conv_case(monkeypatch, shape)
        serial = conv_backward(conv, tape, grad_out)
        monkeypatch.setattr(layers, "_POOL", StalledPool())
        monkeypatch.setenv("CSILOC_THREADS", "2")
        assert_same(conv_backward(conv, tape, grad_out), serial)

    def test_concurrent_split_backwards(self, monkeypatch):
        """Callers racing for the pool, some running input tasks it has not started, get the serial bits."""
        rng = np.random.default_rng(67)
        monkeypatch.setenv("CSILOC_THREADS", "1")
        cases = []
        for i in range(4):   # two input tasks in flight per core
            conv = make_conv(4, 6, 5, 1, "same", seed=68 + i)
            tape = []
            out = conv.forward(rng.standard_normal((8, 4, 16, 64)), tape)
            grad_out = rng.standard_normal(out.shape)
            cases.append((conv, tape, grad_out, conv_backward(conv, tape, grad_out)))
        monkeypatch.setenv("CSILOC_THREADS", "2")

        def matches_serial(i):
            conv, tape, grad_out, serial = cases[i]
            return all(np.array_equal(a, b) for a, b in zip(conv_backward(conv, tape, grad_out), serial))
        assert race(len(cases), matches_serial) == [5] * len(cases)

    # (batch, in_features, units): the input gradient holds 32 x 1024 = the floor, or one less
    @pytest.mark.parametrize("shape,splits", [((32, 1024, 7), True), ((31, 1057, 7), False),
                                              ((2, 20000, 3), True), ((32, 4000, 300), True)])
    def test_dense_bitwise(self, monkeypatch, shape, splits):
        batch, features, units = shape
        rng = np.random.default_rng(63)
        dense = Dense(features, units, rng=rng)
        tape = []
        dense.forward(rng.standard_normal((batch, features)), tape)
        grad_out = rng.standard_normal((batch, units))
        monkeypatch.setenv("CSILOC_THREADS", "1")
        serial = dense_backward(dense, tape, grad_out)
        monkeypatch.setenv("CSILOC_THREADS", "2")
        pool = CountingPool(layers._POOL)
        monkeypatch.setattr(layers, "_POOL", pool)
        assert_same(dense_backward(dense, tape, grad_out), serial)
        assert pool.submits == splits
        monkeypatch.setattr(layers, "_POOL", StalledPool())
        assert_same(dense_backward(dense, tape, grad_out), serial)
        dense.w.grad[...] = 0.0
        assert dense.backward(grad_out, list(tape), input_grad=False) is None
        npt.assert_array_equal(dense.w.grad, grad_out.T @ tape[0][1])

    def test_split_peaks_one_output_above_serial(self, monkeypatch):
        conv = make_conv(4, 8, 5, 1, "same", seed=64)
        tape = []
        out = conv.forward(np.random.default_rng(65).standard_normal((16, 4, 16, 64)), tape)
        grad_out = np.random.default_rng(66).standard_normal(out.shape)
        peaks = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("CSILOC_THREADS", threads)
            conv.backward(grad_out, list(tape))   # the pool's threads start outside the traced call
            tracemalloc.start()
            try:
                conv.backward(grad_out, list(tape))
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # split, the input products get their own buffer beside the weight taps' window
        assert peaks["2"] <= peaks["1"] + grad_out.nbytes + 16384, peaks
        assert peaks["1"] > 2 * grad_out.nbytes


class TestConvBackward:
    def test_zero_grad_out(self):
        conv = make_conv(2, 3, 3, 2, seed=8)
        x = np.random.default_rng(9).standard_normal((2, 2, 2, 11))
        tape = []
        out = conv.forward(x, tape)
        gx = conv.backward(np.zeros_like(out), tape)
        assert not gx.any() and not conv.w.grad.any() and not conv.b.grad.any()

    def test_fd_small(self):
        # 1x1x8 input, k=3, s=2 against central differences
        conv = make_conv(1, 2, 3, 2, seed=10)
        x = np.random.default_rng(11).standard_normal((1, 1, 1, 8))
        assert fd_layer_check(conv, x, np.random.default_rng(12)) < 1e-6

    def test_fd_randomized_shapes(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            c = int(rng.integers(1, 4))
            f = int(rng.integers(1, 4))
            w = int(rng.integers(6, 20))
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            padding = "valid" if rng.integers(2) else "same"
            if padding == "valid" and (w - k) // s + 1 < 1:
                continue
            conv = Conv1xK(c, f, k, s, padding)
            conv.w.value[...] = rng.standard_normal(conv.w.value.shape)
            conv.b.value[...] = rng.standard_normal(f)
            x = rng.standard_normal((2, c, 2, w))
            assert fd_layer_check(conv, x, rng) < 1e-4

    def test_bias_grad_is_output_position_count(self):
        conv = make_conv(2, 3, 3, 2, seed=14)
        x = np.random.default_rng(15).standard_normal((1, 2, 4, 11))
        tape = []
        out = conv.forward(x, tape)
        conv.zero_grads()
        conv.backward(np.ones_like(out), tape)  # sum-loss
        npt.assert_array_equal(conv.b.grad, np.full(3, out.shape[2] * out.shape[3]))

    # (C, F, W, k, s, padding); None is drawn at random per trial
    @pytest.mark.parametrize("case", [
        (None, None, 23, 2, 4, "valid"),     # stride > kernel: columns between windows get no gradient
        (None, None, 9, 9, 1, "valid"),      # kernel == width: one output column
        (None, None, 17, 4, None, "same"),   # even kernel: asymmetric same pad
        (None, None, 21, 6, 3, "same"),
        (1, 1, 19, 5, None, None),           # one channel, one filter
        (None, None, 1, 5, 1, "same"),       # width below the kernel: desk block 4's shape
        (None, None, 3, 7, 2, "same"),       # tap 0 lies wholly in padding
    ])
    def test_matches_loop_oracle(self, case):
        rng = np.random.default_rng(17)
        for _ in range(5):
            c, f, w, k, s, padding = case
            c = c or int(rng.integers(1, 6))
            f = f or int(rng.integers(1, 6))
            s = s or int(rng.integers(1, 4))
            padding = padding or ("valid" if rng.integers(2) else "same")
            conv = make_conv(c, f, k, s, padding, seed=int(rng.integers(1 << 30)))
            x = rng.standard_normal((int(rng.integers(1, 4)), c, int(rng.integers(1, 4)), w))
            tape = []
            out = conv.forward(x, tape)
            gw, gb = np.zeros_like(conv.w.value), np.zeros_like(conv.b.value)
            for _ in range(2):  # the second call must accumulate onto the first
                grad_out = rng.standard_normal(out.shape)
                gx = conv.backward(grad_out, list(tape))
                ref_gx = naive_conv1xk_backward(x, conv.w.value, grad_out, s, padding, gw, gb)
                npt.assert_allclose(gx, ref_gx, rtol=0, atol=1e-12 * np.abs(ref_gx).max())
                npt.assert_allclose(conv.w.grad, gw, rtol=0, atol=1e-12 * np.abs(gw).max())
                npt.assert_array_equal(conv.b.grad, gb)
            if s > k and padding == "valid":
                untouched = np.ones(w, bool)
                for t in range(k):
                    untouched[t:t + s * out.shape[3]:s] = False
                assert untouched.any() and not gx[..., untouched].any()

    def test_grad_out_shape_mismatch(self):
        conv = make_conv(1, 2, 3, 1, seed=16)
        tape = []
        conv.forward(np.zeros((1, 1, 1, 8)), tape)
        with pytest.raises(ShapeError):
            conv.backward(np.zeros((1, 2, 1, 99)), tape)


@pytest.mark.parametrize("layer", [
    Conv1xK(1, 1, 3, 1), ReLU(), AvgPool1xP(2, 1), Flatten(), Dense(3, 1), ResidualUnit(1, 3),
], ids=lambda layer: type(layer).__name__)
def test_backward_before_forward(layer):
    """A backward with no forward context on its tape raises ShapeError, for every layer."""
    with pytest.raises(ShapeError, match="forward context"):
        layer.backward(np.zeros((1, 1, 1, 3)), [])


@pytest.mark.parametrize("layer,x_shape,grad_shape", [
    (Conv1xK(1, 1, 3, 1), (1, 1, 1, 5), (1, 1, 1, 4)),
    (ReLU(), (2, 3), (3, 2)),
    (AvgPool1xP(2, 1), (1, 1, 1, 5), (1, 1, 4, 1)),
    (Flatten(), (1, 2, 1, 3), (6, 1)),   # the same size, transposed
    (Flatten(), (1, 2, 1, 3), (1, 5)),
    (Dense(3, 1), (2, 3), (1, 2)),
    (ResidualUnit(1, 3), (1, 1, 1, 5), (1, 1, 1, 4)),
], ids=["Conv1xK", "ReLU", "AvgPool1xP", "Flatten-transposed", "Flatten-size", "Dense", "ResidualUnit"])
def test_backward_rejects_a_gradient_unlike_its_output(layer, x_shape, grad_shape):
    """A gradient that does not have the shape of the forward's output raises ShapeError
    naming that shape, and leaves the tape as it was, for every layer."""
    tape = []
    out = layer.forward(np.ones(x_shape), tape)
    entries = list(tape)
    with pytest.raises(ShapeError, match=re.escape(f"expected {out.shape}")):
        layer.backward(np.ones(grad_shape), tape)
    assert tape == entries
    assert layer.backward(np.ones(out.shape), tape).shape == x_shape and tape == []


def test_layers_check_shapes_only_in_the_shape_rule():
    """Each layer states its shape rule once, in out_shape: a forward takes its geometry
    from it, and _pop checks every gradient, so no forward or backward raises ShapeError."""
    tree = ast.parse(Path(layers.__file__).read_text())
    raisers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) == "ShapeError"}
    assert raisers == {"_pop", "conv_out_width", "out_shape"}


def test_backward_pops_only_its_own_context():
    first, second = ReLU(), ReLU()
    tape = []
    first.forward(np.ones(3), tape)
    with pytest.raises(ShapeError, match="forward context"):
        second.backward(np.ones(3), tape)
    assert len(tape) == 1
    npt.assert_array_equal(first.backward(np.ones(3), tape), np.ones(3))
    assert tape == []


class TestReLU:
    def test_examples(self):
        relu = ReLU()
        npt.assert_array_equal(relu.forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_positive_identity(self):
        relu = ReLU()
        x = np.abs(np.random.default_rng(17).standard_normal((2, 3))) + 0.1
        tape = []
        npt.assert_array_equal(relu.forward(x, tape), x)
        g = np.random.default_rng(18).standard_normal((2, 3))
        npt.assert_array_equal(relu.backward(g, tape), g)

    def test_subgradient_zero_at_zero(self):
        relu = ReLU()
        tape = []
        relu.forward(np.array([0.0, -0.0, 1.0]), tape)
        npt.assert_array_equal(relu.backward(np.ones(3), tape), [0.0, 0.0, 1.0])

    def test_fd_away_from_zero(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 2, 3, 7))
        x = np.where(np.abs(x) < 0.1, x + 0.5 * np.sign(x + 1e-9), x)
        assert fd_layer_check(ReLU(), x, rng) < 1e-6


class TestAvgPool:
    def test_window_means(self):
        pool = AvgPool1xP(4, 2)
        out = pool.forward(np.array([1.0, 2, 3, 4, 5, 6]).reshape(1, 1, 1, 6))
        npt.assert_array_equal(out.ravel(), [2.5, 4.5])

    def test_constant(self):
        pool = AvgPool1xP(4, 2)
        out = pool.forward(np.full((1, 2, 3, 12), 3.25))
        npt.assert_array_equal(out, np.full((1, 2, 3, 5), 3.25))

    def test_stem_width_and_fd(self):
        rng = np.random.default_rng(20)
        pool = AvgPool1xP(4, 2)
        x = rng.standard_normal((1, 1, 1, 459))
        out = pool.forward(x)
        assert out.shape[3] == 228
        small = rng.standard_normal((1, 1, 1, 13))
        assert fd_layer_check(AvgPool1xP(4, 2), small, rng) < 1e-6

    def test_matches_naive_bitwise(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 65))
            p = int(rng.integers(1, min(w, 8) + 1))
            s = int(rng.integers(1, 5))
            x = rng.standard_normal((c, h, w))
            ours = AvgPool1xP(p, s).forward(x[None])[0]
            npt.assert_array_equal(ours, naive_avgpool1xp(x, p, s))

    def test_underflow_error(self):
        with pytest.raises(ShapeError):
            AvgPool1xP(4, 2).forward(np.zeros((1, 1, 1, 3)))
        with pytest.raises(ShapeError):
            AvgPool1xP(4, 2).forward(np.zeros((1, 8)))   # no feature map


class TestFlatten:
    def test_needs_a_feature_map(self):
        for shape in ((2, 6), (2, 1, 6), (2, 1, 1, 1, 6)):
            with pytest.raises(ShapeError, match=r"expects \(C,H,W\)"):
                Flatten().forward(np.zeros(shape))


class TestDense:
    def test_identity_weights(self):
        d = Dense(4, 4)
        d.w.value[...] = np.eye(4)
        x = np.random.default_rng(22).standard_normal((3, 4))
        npt.assert_array_equal(d.forward(x), x)

    def test_zero_input_gives_bias(self):
        d = Dense(5, 3)
        d.w.value[...] = np.random.default_rng(23).standard_normal((3, 5))
        d.b.value[...] = [1.0, -2.0, 0.5]
        npt.assert_array_equal(d.forward(np.zeros((2, 5))), np.tile(d.b.value, (2, 1)))

    def test_fd(self):
        rng = np.random.default_rng(24)
        d = Dense(5, 3)
        d.w.value[...] = rng.standard_normal((3, 5))
        d.b.value[...] = rng.standard_normal(3)
        x = rng.standard_normal((2, 5))
        assert fd_layer_check(d, x, rng) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dense(5, 3).forward(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            Dense(5, 3).forward(np.zeros((2, 1, 5)))   # not flat

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads Linux's /proc/self/statm")
    def test_gradient_and_momentum_left_untouched(self):
        """A new layer's gradient and momentum take no resident pages until written, so
        an evaluating process holds the weights alone."""
        def resident():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        before = resident()
        d = Dense(2048, 4096, rng=np.random.default_rng(25))   # 64 MiB of weights
        assert resident() - before < 1.5 * d.w.value.nbytes

    def test_backward_into_a_zeroed_gradient_makes_no_weight_sized_array(self):
        """The shipped cnn4 head's weight gradient is written into w.grad: a backward
        after zero_grads allocates under a tenth of the weight bytes."""
        d = Dense(4896, 1000)
        rng = np.random.default_rng(26)
        tape = []
        d.forward(rng.standard_normal((32, 4896)), tape)
        grad_out = rng.standard_normal((32, 1000))
        tracemalloc.start()
        try:
            d.backward(grad_out, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * d.w.value.nbytes, (peak, d.w.value.nbytes)


def _bits(a):
    return a.view(np.uint64).copy()


class TestAddProduct:
    """Param.add_product gives grad += a @ b bit for bit, whatever grad holds."""

    @staticmethod
    def operands(seed):
        """(a, b) with a transposed, as the dense backward passes grad_out.T: a @ b holds
        -0.0 (products that underflow), +0.0, inf, NaN and ordinary values."""
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((40, 7)).T, rng.standard_normal((40, 9))
        a[0], b[:, 0] = -1e-200, 1e-200    # row 0 x column 0 underflows to -0.0
        a[1] = 0.0                        # row 1 gives +0.0
        a[2, 5], a[3, 6] = np.inf, np.nan
        return a, b

    def accumulated(self, grad, a, b):
        """(add_product's grad, grad += a @ b) from the same starting grad."""
        p, want = Param(np.zeros(grad.shape)), grad.copy()
        p.grad[...] = grad
        with np.errstate(invalid="ignore"):
            p.add_product(a, b)
            want += a @ b
        return p.grad, want

    def test_zeroed_gradient(self):
        a, b = self.operands(27)
        with np.errstate(invalid="ignore"):
            product = a @ b
        assert np.signbit(product[0, 0]) and product[0, 0] == 0.0
        assert np.isinf(product).any() and np.isnan(product).any()
        got, want = self.accumulated(np.zeros(product.shape), a, b)
        npt.assert_array_equal(_bits(got), _bits(want))
        assert not np.signbit(got[0, 0])   # 0.0 + -0.0 is +0.0

    def test_gradient_holding_values(self):
        a, b = self.operands(28)
        got, want = self.accumulated(np.random.default_rng(29).standard_normal((7, 9)), a, b)
        npt.assert_array_equal(_bits(got), _bits(want))

    def test_gradient_holding_negative_zero(self, monkeypatch):
        """-0.0 + -0.0 stays -0.0, so a grad of -0.0 takes the temporary, not the in-place write."""
        a, b = self.operands(30)
        calls = []
        real = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *args, **kw: calls.append(kw) or real(*args, **kw))
        got, want = self.accumulated(np.full((7, 9), -0.0), a, b)
        npt.assert_array_equal(_bits(got), _bits(want))
        assert np.signbit(got[0, 0]) and calls == []


class TestResidual:
    def test_unit_preserves_shape(self):
        unit = ResidualUnit(3, 7, rng=np.random.default_rng(26))
        x = np.random.default_rng(27).standard_normal((2, 3, 4, 20))
        assert unit.forward(x).shape == x.shape
        assert unit.out_shape((3, 4, 20)) == (3, 4, 20)

    def test_unit_fd_both_branches(self):
        rng = np.random.default_rng(28)
        unit = ResidualUnit(2, 3, rng=rng)
        for p in unit.params():
            p.value += rng.uniform(-0.2, 0.2, p.value.shape)
        x = rng.standard_normal((1, 2, 2, 9))
        assert fd_layer_check(unit, x, rng) < 1e-4

    def test_training_forward_makes_no_padded_copy(self, monkeypatch):
        """The tape holds each conv's input itself and the skip adds into conv_b's output:
        at its peak a training forward holds conv_b's input and output, the ReLU masks and
        one tile, and afterwards the tape holds conv_b's input and the two masks."""
        monkeypatch.setenv("CSILOC_THREADS", "1")
        unit = ResidualUnit(8, 5, rng=np.random.default_rng(74))
        x = np.random.default_rng(75).standard_normal((32, 8, 16, 30))
        unit.forward(x, [])
        tracemalloc.start()
        try:
            tape = []
            unit.forward(x, tape)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        masks = 2 * x.size   # one byte a value
        assert peak <= 2 * x.nbytes + masks + layers._TILE + 16384, peak
        assert held <= x.nbytes + masks + 16384, held

    def test_parameterless_layers(self):
        assert ReLU().params() == []
        assert AvgPool1xP(4, 2).params() == []
        assert Flatten().params() == []
        assert len(ResidualUnit(2, 3).params()) == 4


class TestWidthFormulaSweep:
    def test_exhaustive(self):
        # every legal (W, k|p, s) combination against the closed formula
        for w in range(1, 65):
            for k in range(1, 9):
                if k > w:
                    continue
                for s in range(1, 5):
                    expected = (w - k) // s + 1
                    if expected < 1:
                        continue
                    conv = Conv1xK(1, 1, k, s, "valid")
                    assert conv.forward(np.zeros((1, 1, 1, w))).shape[3] == expected
                    pool = AvgPool1xP(k, s)
                    assert pool.forward(np.zeros((1, 1, 1, w))).shape[3] == expected

    def test_same_padding_symmetric(self):
        left, right = same_padding(10, 7, 1)
        assert (left, right) == (3, 3)
        assert same_padding(10, 4, 1) == (1, 2)


def _naive_windows(width, kernel, stride):
    """Start positions of the kernel windows that fit in the width, counted one by one."""
    count, start = 0, 0
    while start + kernel <= width:
        count, start = count + 1, start + stride
    return count


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(1, 64), st.integers(1, 9), st.integers(1, 5))
def test_property_width_formulas(width, kernel, stride):
    """conv_out_width counts the windows or raises ShapeError; same padding gives ceil(W/s) by the least pad."""
    windows = _naive_windows(width, kernel, stride)
    if windows == 0:
        with pytest.raises(ShapeError):
            conv_out_width(width, kernel, stride)
    else:
        assert conv_out_width(width, kernel, stride) == windows
    want = 1
    while want * stride < width:
        want += 1
    pad = 0
    while _naive_windows(width + pad, kernel, stride) < want:
        pad += 1
    left, right = same_padding(width, kernel, stride)
    assert (left, right) == (pad // 2, pad - pad // 2)
    assert conv_out_width(width + left + right, kernel, stride) == want
