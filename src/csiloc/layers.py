"""Dense-tensor layer family with explicit analytic backward passes.

All numeric work is float64 numpy. Layers operate on batched arrays:
feature maps are (B, C, H, W) with C=2 (Re/Im), H=antennas, W=subcarriers;
dense activations are (B, n). Kernels slide over the last (subcarrier) axis
only, so H is never padded, strided or pooled.

The convolution and pooling forwards accumulate channel-outer, tap-inner and
add the bias last, which makes them bit-identical to a naive nested-loop
reference (same sequence of IEEE multiply/adds per output element). The conv
forward runs that sequence one tile at a time, in a filter-major (F, cols)
accumulator of whole samples, or of a range of antenna rows of one sample,
whose buffers fit _TILE bytes: per (channel, tap) it copies the strided input
window into one contiguous row, multiplies it by the tap's filter column and
adds the product, all within a core's cache. A same-padded tile first copies
each channel's rows into a zero-edged row buffer, also within _TILE, and
reads its windows there, so no padded copy of the input is made. The bias
add writes the tile straight into the output, so a forward holds one
output-sized array. A small ufunc buffer (_ROW_BUFFER) keeps numpy from
buffering that broadcast multiply when rows are short, as at desk width.
Up to CSILOC_THREADS threads run that sequence at once, each over its own
batch slice (slices of at least _SPLIT_FLOOR output elements) with its own
tile buffers, so the output bits do not depend on the thread count. The
conv backward is two BLAS products per kernel tap, one for the weight gradient
and one for the input gradient: equal to the loop only to rounding. It reads
padding as zeros: each tap's window is filled from the unpadded input, and
its input product is added only into real columns. On two threads the
caller runs every tap's weight product while a pool thread runs every tap's
input product, in tap order, so each gradient gets the serial bits. The
dense backward runs its two products the same way.
All parallel work, evaluation's chunks included, goes through _fan_out on the
one pool, _POOL, of one thread per core. A pool thread runs its task alone,
with a budget of one thread, and writes only into buffers its caller allocated.

Layers keep no per-call state. `forward(x, tape)` takes its geometry from
out_shape and pushes what its backward needs, with its output's shape, onto
`tape`, a plain list; `backward(grad_out, tape)` pops it, in the reverse order
of the forward, once grad_out has that shape. The tape holds a conv's or
dense layer's input itself, by reference, so no layer may write a forward
input afterwards: ResidualUnit adds its skip into conv_b's own fresh output.
A layer with parameters takes `input_grad=False` to accumulate their
gradients only: no one reads the gradient for a network's input. Without a
tape (inference) nothing is kept: each activation is freed once the next
layer is done with it, and concurrent forwards share nothing mutable.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .errors import CsilocError, ShapeError

DTYPE = np.float64

# work is split only while each part holds this many output elements; below
# it, handing a part to another thread costs more than it saves
_SPLIT_FLOOR = 1 << 15
# ufunc buffer of the conv forward's sweep: at numpy's 8192, its (F, 1) x row multiply into
# a whole (F, n) block is buffered, 3-5x slower per element, when n is under about a third
# of it (desk rows are 512-2,560). The bits are unchanged
_ROW_BUFFER = 256
# bytes of the conv forward's tile buffers: every (channel, tap) pass of the sweep runs over
# one tile before the next starts, so the tile stays in a core's L2 (2 MiB on the Xeon it
# was tuned on). A forward split over threads divides it among its parts, so splitting
# allocates nothing more. Smaller shares lose on two threads: each short ufunc call hands
# the GIL across
_TILE = 1 << 21
# _fan_out's threads, one per core. Each is marked when it starts, and _threads() is 1 on
# it: its splits have one part, run by itself, so it never waits on an unstarted task
_ON_POOL = threading.local()
_POOL = ThreadPoolExecutor(max_workers=os.cpu_count() or 1, thread_name_prefix="csiloc-pool",
                           initializer=partial(setattr, _ON_POOL, "marked", True))


def _threads():
    """Threads this thread may run: 1 on a pool thread, else CSILOC_THREADS, else the CPU count."""
    if getattr(_ON_POOL, "marked", False):
        return 1
    cap = os.environ.get("CSILOC_THREADS", "").strip() or str(os.cpu_count() or 1)
    if not cap.isdecimal() or int(cap) < 1:
        raise CsilocError(f"CSILOC_THREADS must be a positive integer, got {cap!r}")
    return int(cap)


def _parts(n, unit=1):
    """Split range(n) into (lo, hi) parts, one per thread, each of at least
    _SPLIT_FLOOR elements at unit elements per index; one part if none fits."""
    least = -(-_SPLIT_FLOOR // max(unit, 1))   # indices per part
    k = max(1, min(_threads(), n // least))
    bounds = [n * i // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _fan_out(tasks, on_caller=1):
    """Run the callables in tasks: the caller runs the first on_caller of them,
    in order, while _POOL runs the rest.

    A pool task that no pool thread has started when the caller is done is
    cancelled and run by the caller, so a busy core costs no wait; a caller
    that runs none only waits. A task on a pool thread runs with _threads() at
    1, so it splits nothing further. A task writes only into buffers the
    caller allocated: a large allocation on a pool thread grows that thread's
    own malloc arena.

    Each pool task goes to _POOL in a one-slot list that whoever runs it empties:
    a cancelled work item stays queued until a pool thread takes it, and then it
    holds no reference to the task or its arguments.
    """
    slots = [[task] for task in tasks[on_caller:]]
    futures = [_POOL.submit(_run_slot, slot) for slot in slots]
    for task in tasks[:on_caller]:
        task()
    for future, slot in zip(futures, slots):
        if on_caller and future.cancel():   # no pool thread has started it (its core is busy)
            _run_slot(slot)
        else:
            future.result()


def _run_slot(slot):
    slot.pop()()


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
    """One trainable tensor with its gradient accumulator and momentum buffer.

    Each is made once, here, and then written in place. grad and vel are calloc'd, so
    a network that is never trained (evaluation) never touches their pages."""

    __slots__ = ("value", "grad", "vel")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=DTYPE, order="C")   # the optimizer updates it flat
        self.grad = np.zeros(self.value.shape, dtype=DTYPE)   # calloc: untouched pages until used
        self.vel = np.zeros(self.value.shape, dtype=DTYPE)

    @property
    def size(self):
        return self.value.size

    def add_product(self, a, b):
        """grad += a @ b, bit for bit. When every bit of grad is zero, as after zero_grads,
        the product is written into grad and 0.0 added, with no temporary: IEEE addition
        commutes, so that is 0.0 + (a @ b), -0.0 turning to +0.0 as the += turns it."""
        if self.grad.view(np.uint64).any():
            self.grad += a @ b
        else:
            np.matmul(a, b, out=self.grad)
            self.grad += 0.0


class Layer:
    """Forward/backward contract shared by all layers."""

    kind = ""      # the layer's name in the checkpoint header
    fields = ()    # constructor arguments the checkpoint header records

    def __init__(self, label=""):
        self.label = label

    def named_params(self):
        """(name, Param) pairs in checkpoint order; names are relative to the layer."""
        return []

    def params(self):
        return [p for _, p in self.named_params()]

    def zero_grads(self):
        for p in self.params():
            p.grad[...] = 0.0

    def forward(self, x, tape=None):
        """Output for x; with a tape, the backward context is pushed onto it."""
        raise NotImplementedError

    def backward(self, grad_out, tape, input_grad=True):
        """Input gradient, with parameter gradients accumulated; pops the tape.
        With input_grad False (layers with parameters only) it returns None."""
        raise NotImplementedError

    def _push(self, tape, ctx, out_shape):
        if tape is not None:
            tape.append((self, ctx, out_shape))

    def _pop(self, tape, grad_out):
        """Its forward's context, popped from tape once grad_out has that forward's output shape."""
        if not tape or tape[-1][0] is not self:
            raise ShapeError(f"{self.kind} backward without its forward context on the tape")
        shape = tape[-1][2]
        if grad_out.shape != shape:
            raise ShapeError(f"{self.label or self.kind}: gradient shape {grad_out.shape}, expected {shape}")
        return tape.pop()[1]

    def out_shape(self, in_shape):
        """Per-sample output shape, or ShapeError: the layer's one shape rule, which forward uses too."""
        raise NotImplementedError

    def describe(self):
        """Checkpoint header entry: kind, constructor fields and parameter shapes."""
        return {"kind": self.kind, **{name: getattr(self, name) for name in self.fields},
                "param_shapes": [list(p.value.shape) for p in self.params()]}


class _Weighted(Layer):
    """A layer with weights of shape wshape and a bias of wshape[0] entries: the weights
    He-uniform over fan_in inputs, drawn from rng, or zeros without one; the bias zeros."""

    def __init__(self, wshape, fan_in, rng, label):
        super().__init__(label)
        if rng is None:
            self.w = Param(np.zeros(wshape))
        else:
            bound = np.sqrt(6.0 / fan_in)
            self.w = Param(rng.uniform(-bound, bound, size=wshape))
        self.b = Param(np.zeros(wshape[0]))

    def named_params(self):
        return [("weights", self.w), ("bias", self.b)]


class Conv1xK(_Weighted):
    """Convolution with kernel (1, k) and stride (1, s) over the subcarrier axis.

    Weights are (filters, in_channels, 1, k); bias one entry per filter.
    padding "valid" crops, "same" zero-pads so the output width is ceil(W/s).
    No padded array is made: the forward's tiles pad their own rows, the tape
    holds the unpadded input, and the backward reads padding as zeros.
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
        super().__init__((filters, in_channels, 1, kernel), in_channels * kernel, rng, label)

    def _pad(self, width):
        if self.padding == "same":
            return same_padding(width, self.kernel, self.stride)
        return 0, 0

    def forward(self, x, tape=None):
        f, height, w_out = self.out_shape(x.shape[1:])
        width = x.shape[3]
        left, right = self._pad(width)
        padded_w = left + width + right if left or right else 0   # 0: windows read x itself
        batch, s, k = x.shape[0], self.stride, self.kernel
        wv, bias = self.w.value, self.b.value[:, None, None, None]
        out = np.empty((batch, f, height, w_out), dtype=DTYPE)
        parts = _parts(batch, f * height * w_out)
        # a tile line (one h row of one sample) takes f accumulator values, f products and
        # one window value a column, and one padded row; a tile is whole samples, or a
        # range of h rows of one sample when a sample is over budget
        lines = max(1, _TILE // len(parts) // (((2 * f + 1) * w_out + padded_w) * np.dtype(DTYPE).itemsize))
        rows = min(height, lines)
        per = max(1, lines // height)   # samples per tile

        def sweep(lo, hi, acc, prod, row, padded):
            """The whole sequence over samples [lo, hi), one tile at a time: each tile's
            acc[f, (b, h, w)] gets 0, then += w[f, c, t] * x for each (c, t),
            channel-outer, tap-inner, then the bias on its way into out (the naive order).
            padded's edge columns are zeros, never written."""
            old = np.setbufsize(_ROW_BUFFER)   # per thread, so set on whichever runs the sweep
            try:
                for b0 in range(lo, hi, per):
                    b1 = min(b0 + per, hi)
                    for h0 in range(0, height, rows):
                        h1 = min(h0 + rows, height)
                        n = (b1 - b0) * (h1 - h0) * w_out
                        part, scratch = acc[:f * n].reshape(f, n), prod[:f * n].reshape(f, n)
                        line = row[:n]
                        win = line.reshape(b1 - b0, h1 - h0, w_out)
                        edged = padded[:b1 - b0, :h1 - h0]
                        part[...] = 0.0
                        for c in range(self.in_channels):
                            plane = x[b0:b1, c, h0:h1]
                            if padded_w:
                                edged[..., left:left + width] = plane
                                plane = edged
                            for t in range(k):
                                win[...] = plane[:, :, t:t + s * w_out:s]
                                np.multiply(wv[:, c, 0, t][:, None], line, out=scratch)
                                part += scratch
                        np.add(part.reshape(f, b1 - b0, h1 - h0, w_out), bias,
                               out=out[b0:b1, :, h0:h1].transpose(1, 0, 2, 3))
            finally:
                np.setbufsize(old)

        tasks = []
        for lo, hi in parts:   # each part's buffers, sized to its largest tile
            m = min(per, hi - lo)
            n = m * rows * w_out
            tasks.append(partial(sweep, lo, hi, *(np.empty(size, dtype=DTYPE) for size in (f * n, f * n, n)),
                                 np.zeros((m, rows, padded_w), dtype=DTYPE)))
        _fan_out(tasks)
        self._push(tape, x, out.shape)
        return out

    def backward(self, grad_out, tape, input_grad=True):
        x = self._pop(tape, grad_out)
        w_out = grad_out.shape[3]
        self.b.grad += grad_out.sum(axis=(0, 2, 3))
        # two GEMMs per tap over all channels and filters, on (C, B, H, W) views of x's memory
        c, s, wv = self.in_channels, self.stride, self.w.value
        g = grad_out.transpose(1, 0, 2, 3).reshape(self.filters, -1)
        xt = x.transpose(1, 0, 2, 3)
        width = xt.shape[3]
        left = self._pad(width)[0]
        # tap t's output columns [lo, hi) read input columns t + s*j - left; the rest read
        # padding. The range is empty when the tap lies wholly in padding (width < kernel)
        taps = []
        for t in range(self.kernel):
            lo = min(w_out, max(0, -((t - left) // s)))
            hi = max(lo, min(w_out, -((t - left - width) // s)))
            start = t + s * lo - left
            taps.append((lo, hi, slice(start, start + s * (hi - lo), s)))
        win = np.empty(xt.shape[:3] + (w_out,), dtype=DTYPE)   # one tap's (C, B, H, W_out) window

        def weight_taps():
            for t, (lo, hi, cols) in enumerate(taps):
                win[..., :lo] = 0.0
                win[..., lo:hi] = xt[..., cols]
                win[..., hi:] = 0.0
                self.w.grad[:, :, 0, t] += g @ win.reshape(c, -1).T

        if not input_grad:
            weight_taps()
            return None
        gxt = np.zeros_like(xt)
        # the input products add into overlapping columns of gxt, so they run in
        # tap order as one task; run serially, they reuse the window buffer
        split = len(_parts(2, grad_out.size)) > 1   # two tasks as big as the output
        prod = np.empty_like(win) if split else win

        def input_taps():
            for t, (lo, hi, cols) in enumerate(taps):
                np.matmul(wv[:, :, 0, t].T, g, out=prod.reshape(c, -1))
                gxt[..., cols] += prod[..., lo:hi]

        _fan_out([weight_taps, input_taps], 1 if split else 2)
        return gxt.transpose(1, 0, 2, 3)

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise ShapeError(f"conv {self.label or ''} expects (C={self.in_channels},H,W), got {in_shape}")
        c, h, w = in_shape
        left, right = self._pad(w)
        return (self.filters, h, conv_out_width(w + left + right, self.kernel, self.stride))


class ReLU(Layer):
    """Elementwise max(x, 0); subgradient at exactly 0 is 0."""

    kind = "relu"

    def forward(self, x, tape=None):
        if tape is not None:
            self._push(tape, x > 0, x.shape)
        return np.maximum(x, 0.0)

    def backward(self, grad_out, tape):
        return grad_out * self._pop(tape, grad_out)

    def out_shape(self, in_shape):
        return tuple(in_shape)


class AvgPool1xP(Layer):
    """Rolling average with pool (1, p) and stride (1, s) over the subcarrier axis."""

    kind = "avgpool1xp"
    fields = ("pool", "stride")

    def __init__(self, pool, stride, label=""):
        super().__init__(label)
        self.pool = pool
        self.stride = stride

    def forward(self, x, tape=None):
        s, w_out = self.stride, self.out_shape(x.shape[1:])[2]
        out = np.zeros(x.shape[:3] + (w_out,), dtype=DTYPE)
        for t in range(self.pool):
            out += x[:, :, :, t:t + s * w_out:s]
        out /= self.pool
        self._push(tape, x.shape, out.shape)
        return out

    def backward(self, grad_out, tape):
        in_shape = self._pop(tape, grad_out)
        s, w_out = self.stride, grad_out.shape[3]
        share = grad_out / self.pool
        gx = np.zeros(in_shape, dtype=DTYPE)
        for t in range(self.pool):
            gx[:, :, :, t:t + s * w_out:s] += share
        return gx

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"avgpool expects (C,H,W), got {in_shape}")
        c, h, w = in_shape
        return (c, h, conv_out_width(w, self.pool, self.stride))


class Flatten(Layer):
    """(B, C, H, W) -> (B, C*H*W), row-major with the last axis fastest."""

    kind = "flatten"

    def forward(self, x, tape=None):
        out = x.reshape(x.shape[0], *self.out_shape(x.shape[1:]))
        self._push(tape, x.shape, out.shape)
        return out

    def backward(self, grad_out, tape):
        return grad_out.reshape(self._pop(tape, grad_out))

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"flatten expects (C,H,W), got {in_shape}")
        c, h, w = in_shape
        return (c * h * w,)


class Dense(_Weighted):
    """Affine map: out = x @ W.T + b with W of shape (units, in_features)."""

    kind = "dense"
    fields = ("in_features", "units")

    def __init__(self, in_features, units, rng=None, label=""):
        self.in_features = in_features
        self.units = units
        super().__init__((units, in_features), in_features, rng, label)

    def forward(self, x, tape=None):
        self.out_shape(x.shape[1:])
        out = x @ self.w.value.T + self.b.value[None, :]
        self._push(tape, x, out.shape)
        return out

    def backward(self, grad_out, tape, input_grad=True):
        """The weight gradient goes straight into w.grad (Param.add_product), so a
        backward after zero_grads makes no weight-sized temporary."""
        x = self._pop(tape, grad_out)
        self.b.grad += grad_out.sum(axis=0)
        weight_grad = partial(self.w.add_product, grad_out.T, x)
        if not input_grad:
            weight_grad()
            return None
        gx = np.empty(x.shape, dtype=DTYPE)
        _fan_out([weight_grad, partial(np.matmul, grad_out, self.w.value, out=gx)],
                 1 if len(_parts(2, x.size)) > 1 else 2)
        return gx

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(f"dense {self.label or ''} expects ({self.in_features},), got {in_shape}")
        return (self.units,)


class ResidualUnit(Layer):
    """conv(same,s=1)+ReLU -> conv(same,s=1), plus identity skip, then ReLU.

    Same padding keeps (F, H, W) unchanged so the skip is always shape-legal;
    the backward duplicates the incoming gradient into both branches. The
    unit's context is its four sub-layers' entries on the tape.
    """

    kind = "residual_unit"
    fields = ("filters", "kernel")

    def __init__(self, filters, kernel, rng=None, label=""):
        super().__init__(label)
        self.filters = filters
        self.kernel = kernel
        self.conv_a = Conv1xK(filters, filters, kernel, stride=1, padding="same",
                              rng=rng, label=label + ".conv_a")
        self.relu_mid = ReLU(label=label + ".relu_mid")
        self.conv_b = Conv1xK(filters, filters, kernel, stride=1, padding="same",
                              rng=rng, label=label + ".conv_b")
        self.relu_out = ReLU(label=label + ".relu_out")

    def named_params(self):
        return [(f"{name}.{sub}", p) for name, conv in (("conv_a", self.conv_a), ("conv_b", self.conv_b))
                for sub, p in conv.named_params()]

    def forward(self, x, tape=None):
        h = self.conv_b.forward(self.relu_mid.forward(self.conv_a.forward(x, tape), tape), tape)
        h += x   # conv_b's own fresh output: the tape holds x and conv_b's input, never h
        return self.relu_out.forward(h, tape)

    def backward(self, grad_out, tape, input_grad=True):
        g = self.relu_out.backward(grad_out, tape)
        g_mid = self.relu_mid.backward(self.conv_b.backward(g, tape), tape)
        g_main = self.conv_a.backward(g_mid, tape, input_grad)
        return g_main + g if input_grad else None

    def out_shape(self, in_shape):
        return self.conv_b.out_shape(self.conv_a.out_shape(in_shape))
