"""Dense-tensor layer family with explicit analytic backward passes.

All numeric work is float64 numpy. Layers operate on batched arrays:
feature maps are (B, C, H, W) with C=2 (Re/Im), H=antennas, W=subcarriers;
dense activations are (B, n). Kernels slide over the last (subcarrier) axis
only, so H is never padded, strided or pooled.

The convolution and pooling forwards accumulate channel-outer, tap-inner and
add the bias last, which makes them bit-identical to a naive nested-loop
reference (same sequence of IEEE multiply/adds per output element). The conv
forward runs that sequence in a filter-major (F, B*H*W_out) accumulator: per
(channel, tap) it copies the strided input window into one contiguous row,
multiplies it by the tap's filter column and adds the product, so every ufunc
sweeps long contiguous runs. The conv backward is one BLAS product per kernel
tap: equal to the loop only to rounding.
"""

import numpy as np

from .errors import ShapeError

DTYPE = np.float64


def conv_out_width(width, kernel, stride):
    """Output width of a valid (unpadded) kernel/pool sweep: floor((W-k)/s)+1."""
    if kernel > width:
        raise ShapeError(f"kernel/pool size {kernel} exceeds input width {width}")
    out = (width - kernel) // stride + 1
    if out < 1:
        raise ShapeError(f"output width {out} < 1 for width={width} kernel={kernel} stride={stride}")
    return out


def same_padding(width, kernel, stride):
    """Zero-padding (left, right) so that output width is ceil(W/s)."""
    out = -(-width // stride)
    total = max((out - 1) * stride + kernel - width, 0)
    left = total // 2
    return left, total - left


class Param:
    """One trainable tensor with its gradient accumulator and momentum buffer."""

    __slots__ = ("value", "grad", "vel")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=DTYPE)
        self.grad = np.zeros_like(self.value)
        self.vel = np.zeros_like(self.value)

    @property
    def size(self):
        return self.value.size


class Layer:
    """Forward/backward contract shared by all layers."""

    label = ""
    kind = ""      # the layer's name in the checkpoint header
    fields = ()    # constructor arguments the checkpoint header records

    def named_params(self):
        """(name, Param) pairs in checkpoint order; names are relative to the layer."""
        return []

    def params(self):
        return [p for _, p in self.named_params()]

    def zero_grads(self):
        for p in self.params():
            p.grad[...] = 0.0

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError

    def out_shape(self, in_shape):
        """Symbolic per-sample shape walk; raises ShapeError on mismatch."""
        raise NotImplementedError

    def describe(self):
        """Checkpoint header entry: kind, constructor fields and parameter shapes."""
        return {"kind": self.kind, **{name: getattr(self, name) for name in self.fields},
                "param_shapes": [list(p.value.shape) for p in self.params()]}


def _he_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv1xK(Layer):
    """Convolution with kernel (1, k) and stride (1, s) over the subcarrier axis.

    Weights are (filters, in_channels, 1, k); bias one entry per filter.
    padding "valid" crops, "same" zero-pads so the output width is ceil(W/s).
    """

    kind = "conv1xk"
    fields = ("in_channels", "filters", "kernel", "stride", "padding")

    def __init__(self, in_channels, filters, kernel, stride=1, padding="valid", rng=None, label=""):
        if padding not in ("valid", "same"):
            raise ValueError(f"unknown padding {padding!r}")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.label = label
        wshape = (filters, in_channels, 1, kernel)
        if rng is None:
            weights = np.zeros(wshape)
        else:
            weights = _he_uniform(rng, wshape, in_channels * kernel)
        self.w = Param(weights)
        self.b = Param(np.zeros(filters))
        self._ctx = None

    def named_params(self):
        return [("weights", self.w), ("bias", self.b)]

    def _pad(self, width):
        if self.padding == "same":
            return same_padding(width, self.kernel, self.stride)
        return 0, 0

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv {self.label or ''} expects (B,{self.in_channels},H,W), got {x.shape}")
        left, right = self._pad(x.shape[3])
        xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (left, right))) if left or right else x
        w_out = conv_out_width(xp.shape[3], self.kernel, self.stride)
        batch, _, height, _ = x.shape
        s, k, f = self.stride, self.kernel, self.filters
        wv = self.w.value
        # filter-major accumulation: acc[f, (b, h, w)] gets 0, then += w[f, c, t] * x
        # for each (c, t), channel-outer, tap-inner, then the bias (matches naive loop)
        acc = np.zeros((f, batch * height * w_out), dtype=DTYPE)
        tmp = np.empty_like(acc)
        row = np.empty(acc.shape[1], dtype=DTYPE)
        win = row.reshape(batch, height, w_out)
        for c in range(self.in_channels):
            plane = xp[:, c]
            for t in range(k):
                win[...] = plane[:, :, t:t + s * w_out:s]
                np.multiply(wv[:, c, 0, t][:, None], row, out=tmp)
                acc += tmp
        del tmp  # before the output copy, so at most two output-sized arrays are live
        acc += self.b.value[:, None]
        out = np.ascontiguousarray(acc.reshape(f, batch, height, w_out).transpose(1, 0, 2, 3))
        self._ctx = (xp, x.shape[3], left, w_out)
        return out

    def backward(self, grad_out):
        if self._ctx is None:
            raise ShapeError("conv backward called before forward")
        xp, in_width, left, w_out = self._ctx
        expect = (xp.shape[0], self.filters, xp.shape[2], w_out)
        if grad_out.shape != expect:
            raise ShapeError(f"conv grad_out shape {grad_out.shape}, expected {expect}")
        self.b.grad += grad_out.sum(axis=(0, 2, 3))
        # one GEMM per tap over all channels and filters, on (C, B, H, W) views of xp's memory
        g = grad_out.transpose(1, 0, 2, 3).reshape(self.filters, -1)
        xt = xp.transpose(1, 0, 2, 3)
        gxt = np.zeros_like(xt)
        for t in range(self.kernel):
            cols = slice(t, t + self.stride * w_out, self.stride)
            self.w.grad[:, :, 0, t] += g @ xt[..., cols].reshape(self.in_channels, -1).T
            gxt[..., cols] += (self.w.value[:, :, 0, t].T @ g).reshape(xt[..., cols].shape)
        return gxt.transpose(1, 0, 2, 3)[:, :, :, left:left + in_width]

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise ShapeError(f"conv {self.label or ''} expects (C={self.in_channels},H,W), got {in_shape}")
        c, h, w = in_shape
        left, right = self._pad(w)
        return (self.filters, h, conv_out_width(w + left + right, self.kernel, self.stride))


class ReLU(Layer):
    """Elementwise max(x, 0); subgradient at exactly 0 is 0."""

    kind = "relu"

    def __init__(self, label=""):
        self.label = label
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        if self._mask is None or grad_out.shape != self._mask.shape:
            raise ShapeError("relu grad_out shape does not match forward input")
        return grad_out * self._mask

    def out_shape(self, in_shape):
        return tuple(in_shape)


class AvgPool1xP(Layer):
    """Rolling average with pool (1, p) and stride (1, s) over the subcarrier axis."""

    kind = "avgpool1xp"
    fields = ("pool", "stride")

    def __init__(self, pool, stride, label=""):
        self.pool = pool
        self.stride = stride
        self.label = label
        self._ctx = None

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"avgpool expects (B,C,H,W), got {x.shape}")
        w_out = conv_out_width(x.shape[3], self.pool, self.stride)
        s = self.stride
        out = np.zeros(x.shape[:3] + (w_out,), dtype=DTYPE)
        for t in range(self.pool):
            out += x[:, :, :, t:t + s * w_out:s]
        out /= self.pool
        self._ctx = (x.shape, w_out)
        return out

    def backward(self, grad_out):
        if self._ctx is None:
            raise ShapeError("avgpool backward called before forward")
        in_shape, w_out = self._ctx
        if grad_out.shape != in_shape[:3] + (w_out,):
            raise ShapeError(f"avgpool grad_out shape {grad_out.shape} does not match forward")
        s = self.stride
        share = grad_out / self.pool
        gx = np.zeros(in_shape, dtype=DTYPE)
        for t in range(self.pool):
            gx[:, :, :, t:t + s * w_out:s] += share
        return gx

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c, h, conv_out_width(w, self.pool, self.stride))


class Flatten(Layer):
    """(B, C, H, W) -> (B, C*H*W), row-major with the last axis fastest."""

    kind = "flatten"

    def __init__(self, label=""):
        self.label = label
        self._in_shape = None

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"flatten expects (B,C,H,W), got {x.shape}")
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        if self._in_shape is None:
            raise ShapeError("flatten backward called before forward")
        return grad_out.reshape(self._in_shape)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c * h * w,)


class Dense(Layer):
    """Affine map: out = x @ W.T + b with W of shape (units, in_features)."""

    kind = "dense"
    fields = ("in_features", "units")

    def __init__(self, in_features, units, rng=None, label=""):
        self.in_features = in_features
        self.units = units
        self.label = label
        if rng is None:
            weights = np.zeros((units, in_features))
        else:
            weights = _he_uniform(rng, (units, in_features), in_features)
        self.w = Param(weights)
        self.b = Param(np.zeros(units))
        self._x = None

    def named_params(self):
        return [("weights", self.w), ("bias", self.b)]

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense {self.label or ''} expects (B,{self.in_features}), got {x.shape}")
        self._x = x
        return x @ self.w.value.T + self.b.value[None, :]

    def backward(self, grad_out):
        if self._x is None or grad_out.shape != (self._x.shape[0], self.units):
            raise ShapeError("dense grad_out shape does not match forward")
        self.w.grad += grad_out.T @ self._x
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.w.value

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(f"dense {self.label or ''} expects ({self.in_features},), got {in_shape}")
        return (self.units,)


def residual_add(main, skip):
    """Elementwise sum of two identically shaped tensors (the identity skip)."""
    if main.shape != skip.shape:
        raise ShapeError(f"residual add of mismatched shapes {main.shape} vs {skip.shape}")
    return main + skip


class ResidualUnit(Layer):
    """conv(same,s=1)+ReLU -> conv(same,s=1), plus identity skip, then ReLU.

    Same padding keeps (F, H, W) unchanged so the skip is always shape-legal;
    the backward duplicates the incoming gradient into both branches.
    """

    kind = "residual_unit"
    fields = ("filters", "kernel")

    def __init__(self, filters, kernel, rng=None, label=""):
        self.filters = filters
        self.kernel = kernel
        self.label = label
        self.conv_a = Conv1xK(filters, filters, kernel, stride=1, padding="same",
                              rng=rng, label=label + ".conv_a")
        self.relu_mid = ReLU(label=label + ".relu_mid")
        self.conv_b = Conv1xK(filters, filters, kernel, stride=1, padding="same",
                              rng=rng, label=label + ".conv_b")
        self.relu_out = ReLU(label=label + ".relu_out")

    def named_params(self):
        return [(f"{name}.{sub}", p) for name, conv in (("conv_a", self.conv_a), ("conv_b", self.conv_b))
                for sub, p in conv.named_params()]

    def forward(self, x):
        h = self.conv_b.forward(self.relu_mid.forward(self.conv_a.forward(x)))
        return self.relu_out.forward(residual_add(h, x))

    def backward(self, grad_out):
        g = self.relu_out.backward(grad_out)
        g_main = self.conv_a.backward(self.relu_mid.backward(self.conv_b.backward(g)))
        return g_main + g

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.filters:
            raise ShapeError(f"residual unit {self.label or ''} expects (C={self.filters},H,W), got {in_shape}")
        shape = self.relu_mid.out_shape(self.conv_a.out_shape(in_shape))
        shape = self.conv_b.out_shape(shape)
        if shape != tuple(in_shape):
            raise ShapeError(f"residual unit does not preserve shape: {in_shape} -> {shape}")
        return tuple(in_shape)
