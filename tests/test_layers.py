import numpy as np
import numpy.testing as npt
import pytest

from csiloc.errors import ShapeError
from csiloc.layers import (AvgPool1xP, Conv1xK, Dense, Flatten, ReLU, ResidualUnit,
                           conv_out_width, residual_add, same_padding)

from conftest import fd_layer_check, naive_avgpool1xp, naive_conv1xk, naive_conv1xk_backward


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
            conv_out_width(2, 7, 3)


class TestConvBackward:
    def test_zero_grad_out(self):
        conv = make_conv(2, 3, 3, 2, seed=8)
        x = np.random.default_rng(9).standard_normal((2, 2, 2, 11))
        out = conv.forward(x)
        gx = conv.backward(np.zeros_like(out))
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
        out = conv.forward(x)
        conv.zero_grads()
        conv.backward(np.ones_like(out))  # sum-loss
        npt.assert_array_equal(conv.b.grad, np.full(3, out.shape[2] * out.shape[3]))

    def test_backward_before_forward(self):
        with pytest.raises(ShapeError):
            Conv1xK(1, 1, 3, 1).backward(np.zeros((1, 1, 1, 3)))

    # (C, F, W, k, s, padding); None is drawn at random per trial
    @pytest.mark.parametrize("case", [
        (None, None, 23, 2, 4, "valid"),     # stride > kernel: columns between windows get no gradient
        (None, None, 9, 9, 1, "valid"),      # kernel == width: one output column
        (None, None, 17, 4, None, "same"),   # even kernel: asymmetric same pad
        (None, None, 21, 6, 3, "same"),
        (1, 1, 19, 5, None, None),           # one channel, one filter
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
            out = conv.forward(x)
            gw, gb = np.zeros_like(conv.w.value), np.zeros_like(conv.b.value)
            for _ in range(2):  # the second call must accumulate onto the first
                grad_out = rng.standard_normal(out.shape)
                gx = conv.backward(grad_out)
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
        conv.forward(np.zeros((1, 1, 1, 8)))
        with pytest.raises(ShapeError):
            conv.backward(np.zeros((1, 2, 1, 99)))


class TestReLU:
    def test_examples(self):
        relu = ReLU()
        npt.assert_array_equal(relu.forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_positive_identity(self):
        relu = ReLU()
        x = np.abs(np.random.default_rng(17).standard_normal((2, 3))) + 0.1
        npt.assert_array_equal(relu.forward(x), x)
        g = np.random.default_rng(18).standard_normal((2, 3))
        npt.assert_array_equal(relu.backward(g), g)

    def test_subgradient_zero_at_zero(self):
        relu = ReLU()
        relu.forward(np.array([0.0, -0.0, 1.0]))
        npt.assert_array_equal(relu.backward(np.ones(3)), [0.0, 0.0, 1.0])

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


class TestResidual:
    def test_add_examples(self):
        x = np.random.default_rng(25).standard_normal((2, 3))
        npt.assert_array_equal(residual_add(x, -x), np.zeros((2, 3)))
        npt.assert_array_equal(residual_add(x, np.zeros((2, 3))), x)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            residual_add(np.zeros((2, 3)), np.zeros((3, 2)))

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
