"""Shared oracles: naive nested-loop layer references and FD helpers.

The forward references here are deliberately written as plain Python loops
in the exact accumulation order the production code promises (channel outer,
tap inner, bias last), so equality checks can be bit-for-bit. The conv
backward reference is the channel x tap loop; the layer's per-tap matrix
products match it to rounding, and its bias gradient bit for bit.
"""

import json
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from csiloc.layers import same_padding
from csiloc.models import ArchConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def desk_arch():
    """The architecture fields of configs/desk64_cnn4.json, the desk-width model."""
    flat = json.loads((CONFIGS / "desk64_cnn4.json").read_text())
    return {k: v for k, v in flat.items() if k in ArchConfig.__dataclass_fields__}


def naive_conv1xk(x, w, b, stride, padding="valid"):
    """Five nested loops over (filter, height, out pos, channel, tap)."""
    c_in, height, width = x.shape
    f, c2, _, k = w.shape
    assert c_in == c2
    if padding == "same":
        left, right = same_padding(width, k, stride)
        xp = np.zeros((c_in, height, width + left + right))
        xp[:, :, left:left + width] = x
    else:
        xp = x
    w_out = (xp.shape[2] - k) // stride + 1
    out = np.empty((f, height, w_out))
    for fi in range(f):
        for hi in range(height):
            for wi in range(w_out):
                acc = 0.0
                for ci in range(c_in):
                    for t in range(k):
                        acc += xp[ci, hi, wi * stride + t] * w[fi, ci, 0, t]
                out[fi, hi, wi] = acc + b[fi]
    return out


def naive_conv1xk_backward(x, w, grad_out, stride, padding, gw, gb):
    """Channel x tap loop backward of a batched conv: accumulates into gw, gb.

    x is (B, C, H, W), grad_out (B, F, H, W_out). One tensordot per
    (channel, tap) pair; returns the input gradient.
    """
    f, c_in, _, k = w.shape
    left, right = same_padding(x.shape[3], k, stride) if padding == "same" else (0, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (left, right)))
    w_out = grad_out.shape[3]
    gb += grad_out.sum(axis=(0, 2, 3))
    gxp = np.zeros_like(xp)
    for c in range(c_in):
        for t in range(k):
            cols = slice(t, t + stride * w_out, stride)
            gw[:, c, 0, t] += np.tensordot(grad_out, xp[:, c, :, cols], axes=([0, 2, 3], [0, 1, 2]))
            gxp[:, c, :, cols] += np.tensordot(grad_out, w[:, c, 0, t], axes=(1, 0))
    return gxp[:, :, :, left:left + x.shape[3]]


def naive_avgpool1xp(x, pool, stride):
    c, height, width = x.shape
    w_out = (width - pool) // stride + 1
    out = np.empty((c, height, w_out))
    for ci in range(c):
        for hi in range(height):
            for wi in range(w_out):
                acc = 0.0
                for t in range(pool):
                    acc += x[ci, hi, wi * stride + t]
                out[ci, hi, wi] = acc / pool
    return out


def fd_layer_check(layer, x, rng, step=1e-6, check_input=True):
    """Max relative FD error of a layer under a random-projection loss."""
    out = layer.forward(x)
    proj = rng.standard_normal(out.shape)

    def loss():
        return float((proj * layer.forward(x)).sum())

    layer.zero_grads()
    tape = []
    layer.forward(x, tape)
    grad_in = layer.backward(proj, tape)

    worst = 0.0
    arrays = [(p.value, p.grad) for p in layer.params()]
    if check_input:
        arrays.append((x, grad_in))
    for values, grads in arrays:
        flat_v, flat_g = values.ravel(), grads.ravel()
        for i in range(flat_v.size):
            orig = flat_v[i]
            flat_v[i] = orig + step
            lp = loss()
            flat_v[i] = orig - step
            lm = loss()
            flat_v[i] = orig
            fd = (lp - lm) / (2.0 * step)
            rel = abs(flat_g[i] - fd) / max(abs(flat_g[i]), abs(fd), 1e-12)
            worst = max(worst, rel)
    return worst


@pytest.fixture(autouse=True)
def ufunc_state_kept():
    """Fails a test that leaves the calling thread's ufunc buffer size or error
    handling other than it found them, and puts them back, so no test runs
    under another's settings."""
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    if after != before:
        np.setbufsize(before[0])
        np.seterr(**before[1])
        pytest.fail(f"ufunc state changed from (bufsize, errors) {before} to {after}")


_ACCEPTANCE_RESULTS = []


def record_acceptance(number, name, passed=True):
    _ACCEPTANCE_RESULTS.append((number, name, passed))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, name, passed in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} [{name}]: {status}")


class CountingPool:
    """Stands in for layers._POOL, counts the tasks handed to it and names the
    thread that handed over each."""

    def __init__(self, pool):
        self.pool = pool
        self.submits = 0
        self.submitters = []

    def submit(self, *args):
        self.submits += 1
        self.submitters.append(threading.current_thread().name)
        return self.pool.submit(*args)


class Unstarted(Future):
    """A task that no pool thread ever starts: waiting on it fails the test."""

    def result(self, timeout=None):
        raise AssertionError("waited on a task that no thread has started")


class StalledPool:
    """Stands in for layers._POOL with every core busy: it starts nothing, and keeps
    what it was handed queued, as a real pool's work queue does."""

    def __init__(self):
        self.queued = []

    def submit(self, *args):
        self.queued.append(args)
        return Unstarted()
