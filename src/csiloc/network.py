"""Network container: an ordered layer stack with a shape-checked build.

A network maps a (B, 2, H, W) CSI batch (or (B, n) for pure dense stacks)
to (B, 3) position estimates in meters. Construction walks the symbolic
shape chain before any numeric work, so inconsistent geometry fails fast.
Training passes a fresh tape (a list) to forward and the same tape to
backward; inference passes none, so the network keeps no activations.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .layers import Dense


def _check_sizes(name, values, least=1):
    """TypeError unless each of values is an int and no bool, ValueError unless each is >= least.

    Network, build_model, _weights_to_build and the loader's param_shapes check every size
    here, so each term of the loader's weight count is nonnegative and no value can cancel another.
    """
    if any(isinstance(v, bool) or not hasattr(v, "__index__") for v in values):
        raise TypeError(f"{name} must be integers (not bools), got {list(values)}")
    if any(operator.index(v) < least for v in values):
        raise ValueError(f"{name} must be integers >= {least}, got {list(values)}")


class Network:
    def __init__(self, layers, input_shape, kind="custom", arch=None):
        self.layers = list(layers)
        if not self.layers:
            raise ShapeError("a network needs at least one layer")
        _check_sizes("input_shape", input_shape)
        self.input_shape = tuple(operator.index(v) for v in input_shape)   # ints: the checkpoint header is JSON
        self.kind = kind
        self.arch = arch
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.out_shape(shape)
        self.output_shape = shape
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
        """Accumulate every parameter's gradient for the loss gradient grad_out. No one
        reads the gradient for the input batch, so the first layer with parameters
        computes only theirs, and the parameterless layers before it none."""
        first = next(i for i, layer in enumerate(self.layers) if layer.params())
        for layer in reversed(self.layers[first + 1:]):
            grad_out = layer.backward(grad_out, tape)
        self.layers[first].backward(grad_out, tape, input_grad=False)
        tape.clear()   # the contexts of the layers before it

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def named_params(self):
        """(label, Param) pairs in checkpoint order, for diagnostics."""
        return [(f"{layer.label}.{name}", p) for layer in self.layers for name, p in layer.named_params()]

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
MDE_EPS = 1e-12          # keeps the loss gradient finite at zero error


def mde_loss(pred, truth):
    """Mean Euclidean distance between predictions and truth, with gradient.

    loss = mean_i sqrt(sum_d (pred - truth)^2 + eps)
    dloss/dpred_i = (pred_i - truth_i) / (B * sqrt(.))
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 2:
        raise ShapeError(f"mde_loss shapes must match (B, D), got {pred.shape} vs {truth.shape}")
    diff = pred - truth
    dist = np.sqrt((diff * diff).sum(axis=1) + MDE_EPS)
    grad = diff / (dist[:, None] * pred.shape[0])
    return float(dist.mean()), grad


@dataclass
class GradCheckResult:
    max_rel_err: float
    n_params: int
    worst_param: str = ""
    worst_index: int = -1
    analytic: float = 0.0
    fd: float = 0.0

    def __str__(self):
        return (f"max relative error {self.max_rel_err:.3e} over {self.n_params} parameters "
                f"(worst at {self.worst_param}[{self.worst_index}]: "
                f"analytic {self.analytic:.6e}, fd {self.fd:.6e})")


def gradient_check(net, x, target, step=1e-6):
    """Central finite differences of the distance loss over every parameter, at
    a batch x of shape (B,) + net.input_shape.

    Relative error per parameter is |analytic - fd| / max(|analytic|, |fd|, 1e-12).
    O(P) forward passes; meant for shrunken configurations only.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)

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
