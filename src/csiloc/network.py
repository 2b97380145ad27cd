"""Network container: an ordered layer stack with a shape-checked build.

A network maps a (B, 2, H, W) CSI batch (or (B, n) for pure dense stacks)
to (B, 3) position estimates in meters. Construction walks the symbolic
shape chain before any numeric work, so inconsistent geometry fails fast.
Training passes a fresh tape (a list) to forward and the same tape to
backward; inference passes none, so the network keeps no activations.
"""

import numpy as np
from dataclasses import dataclass

from .errors import ShapeError
from .layers import Dense


class Network:
    def __init__(self, layers, input_shape, kind="custom", arch=None, check_head=True):
        self.layers = list(layers)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.kind = kind
        self.arch = arch
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.out_shape(shape)
        self.output_shape = shape
        if check_head:
            if shape != (3,):
                raise ShapeError(f"network must end in 3 outputs, got {shape}")
            if not isinstance(self.layers[-1], Dense):
                raise ShapeError("final layer must be a linear dense head")

    def forward(self, x, tape=None):
        x = np.asarray(x, dtype=float)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"batch shape {x.shape} does not match input {self.input_shape}")
        for layer in self.layers:
            x = layer.forward(x, tape)
        return x

    def backward(self, grad_out, tape):
        g = grad_out
        for layer in reversed(self.layers):
            g = layer.backward(g, tape)
        return g

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def named_params(self):
        """(label, Param) pairs in checkpoint order, for diagnostics."""
        items = []
        for i, layer in enumerate(self.layers):
            base = layer.label or f"{type(layer).__name__.lower()}[{i}]"
            items += [(f"{base}.{name}", p) for name, p in layer.named_params()]
        return items

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    def snapshot(self):
        return [p.value.copy() for p in self.params()]

    def restore(self, values):
        params = self.params()
        if len(values) != len(params):
            raise ShapeError("snapshot does not match parameter list")
        for p, v in zip(params, values):
            if p.value.shape != v.shape:
                raise ShapeError("snapshot tensor shape mismatch")
            p.value[...] = v


def count_weights(net):
    """Total trainable element count."""
    return sum(p.size for p in net.params())


GRADCHECK_TOLERANCE = 1e-4

# shrunken geometry per architecture: W=60 and stride defaults would underflow
# the width chain, so each kind gets the largest stride that stays legal
_TINY_INPUT_SHAPE = (2, 4, 60)
_TINY = {
    "cnn4": {"base_filters": 2, "kernel": 3, "stride": 2, "head_units": 16},
    "cnn4r": {"base_filters": 2, "kernel": 3, "stride": 2, "head_units": 16},
    "cnn4s": {"base_filters": 2, "kernel": 3, "stride": 1, "head_units": 16},
    "fcnn": {"hidden": [8]},
    "linear": {},
}


def build_tiny(kind):
    """A shrunken model of the kind with a two-sample batch: (net, x, target)."""
    from .models import build_model, resolve_arch

    arch = {**resolve_arch(kind, _TINY[kind]), "seed": 11}
    net = build_model(kind, arch, _TINY_INPUT_SHAPE)
    rng = np.random.default_rng(7)
    # shipped init zeroes biases, which parks ReLU pre-activations exactly on
    # the kink where central differences and the subgradient disagree; jitter
    # every parameter so the check runs at a generic smooth point
    for p in net.params():
        p.value += rng.uniform(-0.15, 0.15, size=p.value.shape)
    x = rng.standard_normal((2,) + _TINY_INPUT_SHAPE)
    target = rng.uniform(1.0, 3.0, size=(2, 3))
    return net, x, target


@dataclass
class GradCheckResult:
    max_rel_err: float
    n_params: int
    worst_param: str = ""
    worst_index: int = -1
    analytic: float = 0.0
    fd: float = 0.0

    def __str__(self):
        if self.n_params == 0:
            return "no parameters; max relative error vacuously 0"
        return (f"max relative error {self.max_rel_err:.3e} over {self.n_params} parameters "
                f"(worst at {self.worst_param}[{self.worst_index}]: "
                f"analytic {self.analytic:.6e}, fd {self.fd:.6e})")


def gradient_check(net, x, target, step=1e-6):
    """Central finite differences of the distance loss over every parameter.

    Relative error per parameter is |analytic - fd| / max(|analytic|, |fd|, 1e-12).
    O(P) forward passes; meant for shrunken configurations only.
    """
    from .train import mde_loss

    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.shape == net.input_shape:
        x = x[None]
        target = target[None]

    def loss_value():
        loss, _ = mde_loss(net.forward(x), target)
        return loss

    net.zero_grads()
    tape = []
    _, grad = mde_loss(net.forward(x, tape), target)
    net.backward(grad, tape)

    result = GradCheckResult(max_rel_err=0.0, n_params=count_weights(net))
    for label, p in net.named_params():
        flat_v = p.value.ravel()
        flat_g = p.grad.ravel()
        for i in range(flat_v.size):
            orig = flat_v[i]
            flat_v[i] = orig + step
            loss_plus = loss_value()
            flat_v[i] = orig - step
            loss_minus = loss_value()
            flat_v[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * step)
            analytic = flat_g[i]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)
            if rel > result.max_rel_err:
                result.max_rel_err = rel
                result.worst_param = label
                result.worst_index = i
                result.analytic = analytic
                result.fd = fd
    return result
