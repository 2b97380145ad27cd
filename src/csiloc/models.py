"""The CNN4 / CNN4R / CNN4S position estimators and baselines, built by build_model.

All three share the same skeleton: a width-reducing stage over the
subcarrier axis, then flatten -> dense(head) + ReLU -> dense(3) linear.

  cnn4   four conv(1,k) stride-s layers, filter depth grown 50% per layer
  cnn4r  four residual blocks; each block = strided entry conv + three
         identity-skip units of two same-padded convs
  cnn4s  cnn4r with the first block replaced by a stem: conv(1,k) stride 2
         followed by a (1,4) stride-2 rolling average
  fcnn   flatten -> dense chain; hidden=[] is the pure linear baseline

Base filter counts are calibrated per architecture so the default weight
totals land near the published 5.3 / 10.8 / 16.3 million.
"""

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .data import round_half_up
from .errors import CheckpointError, ShapeError
from .layers import AvgPool1xP, Conv1xK, Dense, Flatten, ReLU, ResidualUnit, conv_out_width
from .network import Network, _check_sizes, count_weights
from .npyio import json_is, map_readonly, read_json_object, replace_file

DEFAULT_INPUT_SHAPE = (2, 16, 924)

# stem geometry is fixed for cnn4s: conv stride 2, then pool (1,4) stride (1,2)
STEM_STRIDE = 2
STEM_POOL = 4
STEM_POOL_STRIDE = 2


@dataclass(frozen=True)
class ArchConfig:
    base_filters: int = 10
    growth: float = 1.5
    kernel: int = 7
    stride: int = 3
    residual_units_per_block: int = 3
    head_units: int = 1000
    seed: int = 0

    def filter_counts(self):
        """Per-stage filter counts: round(F0 * growth^i), i = 0..3, nondecreasing."""
        if self.base_filters < 1:
            raise ValueError("base_filters must be >= 1")
        try:
            counts = [round_half_up(self.base_filters * self.growth ** i) for i in range(4)]
        except OverflowError as e:
            raise ValueError(f"filter counts overflow: base_filters {self.base_filters}, "
                             f"growth {self.growth}") from e
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ValueError(f"filter counts must be nondecreasing, got {counts}")
        return counts


# shipped defaults; base_filters chosen so count_weights sits near the
# published totals (the growth rule alone does not pin absolute depth)
DEFAULT_ARCH = {
    "cnn4": ArchConfig(base_filters=10),
    "cnn4r": ArchConfig(base_filters=21),
    "cnn4s": ArchConfig(base_filters=45),
}

MODEL_KINDS = ("cnn4", "cnn4r", "cnn4s", "fcnn", "linear")
ARCH_FIELDS = (*ArchConfig.__dataclass_fields__, "hidden")   # "hidden": fcnn and linear


def arch_field_ok(key, value):
    """Whether value, decoded from JSON, has the type of architecture field key: its
    ArchConfig annotation, or for hidden a list of integers >= 1. A bool is no number."""
    if key == "hidden":
        return isinstance(value, list) and all(json_is(u, int) and u >= 1 for u in value)
    return json_is(value, ArchConfig.__dataclass_fields__[key].type)


def _merged_arch(kind, fields):
    """The full architecture of kind: any subset of its fields laid over its defaults,
    the DEFAULT_ARCH row of a CNN kind or no hidden layers and seed 0 for fcnn/linear."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    defaults = asdict(DEFAULT_ARCH[kind]) if kind in DEFAULT_ARCH else {"hidden": [], "seed": 0}
    fields = fields or {}
    unknown = sorted(set(fields) - set(defaults))
    if unknown:
        raise ValueError(f"{', '.join(unknown)} does not apply to {kind}")
    merged = {**defaults, **fields}
    if kind == "linear" and merged["hidden"]:
        raise ValueError("linear model takes no hidden layers")
    return merged


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
    net = build_model(kind, {**_TINY[kind], "seed": 11}, _TINY_INPUT_SHAPE)
    rng = np.random.default_rng(7)
    # shipped init zeroes biases, which parks ReLU pre-activations exactly on
    # the kink where central differences and the subgradient disagree; jitter
    # every parameter so the check runs at a generic smooth point
    for p in net.params():
        p.value += rng.uniform(-0.15, 0.15, size=p.value.shape)
    x = rng.standard_normal((2,) + _TINY_INPUT_SHAPE)
    target = rng.uniform(1.0, 3.0, size=(2, 3))
    return net, x, target


def _dense_chain(width, hidden, rng):
    """flatten -> dense + ReLU per (label, units) in hidden -> dense(3) "out"."""
    layers = [Flatten(label="flatten")]
    for label, units in hidden:
        layers += [Dense(width, units, rng=rng, label=label), ReLU(label=f"{label}.relu")]
        width = units
    return layers + [Dense(width, 3, rng=rng, label="out")]


def _conv_stage(layers, shape, name, filters, stride, kernel, rng, units=None):
    """Append a strided valid conv + ReLU labelled name and return the output shape;
    with units (a residual block) the conv is name.entry, then units name.unit<u>."""
    label = name if units is None else f"{name}.entry"
    conv = Conv1xK(shape[0], filters, kernel, stride, "valid", rng=rng, label=label)
    shape = conv.out_shape(shape)
    layers += [conv, ReLU(label=f"{label}.relu")]
    for u in range(0 if units is None else units):
        unit = ResidualUnit(filters, kernel, rng=rng, label=f"{name}.unit{u + 1}")
        shape = unit.out_shape(shape)
        layers.append(unit)
    return shape


def _cnn_stages(kind, cfg, input_shape):
    """Yield (name, filters, stride, units, pooled) per conv stage: four plain convs,
    residual blocks, or a stem then blocks. units is None for a plain conv and pooled
    marks the stem's rolling average. _build_cnn builds this walk, _weights_to_build counts it."""
    _check_sizes("input_shape", input_shape)
    _check_sizes("kernel, stride and head_units", (cfg.kernel, cfg.stride, cfg.head_units))
    _check_sizes("residual_units_per_block", (cfg.residual_units_per_block,), least=0)
    for i, f in enumerate(cfg.filter_counts(), start=1):
        if kind == "cnn4":
            yield f"conv{i}", f, cfg.stride, None, False
        elif kind == "cnn4s" and i == 1:
            yield "stem", f, STEM_STRIDE, None, True
        else:
            yield f"block{i}", f, cfg.stride, cfg.residual_units_per_block, False


def _build_cnn(kind, cfg, input_shape, rng):
    """Four conv stages, then the head."""
    layers, shape = [], tuple(input_shape)
    for name, f, stride, units, pooled in _cnn_stages(kind, cfg, shape):
        shape = _conv_stage(layers, shape, name, f, stride, cfg.kernel, rng, units)
        if pooled:
            layers.append(AvgPool1xP(STEM_POOL, STEM_POOL_STRIDE, label=f"{name}.pool"))
            shape = layers[-1].out_shape(shape)
    layers += _dense_chain(int(np.prod(shape)), [("head", cfg.head_units)], rng)
    return Network(layers, input_shape, kind=kind, arch=asdict(cfg))


def _fcnn_widths(hidden, input_shape):
    """[flattened input, *hidden, 3]: the dense chain of fcnn/linear, sizes checked."""
    _check_sizes("input_shape", input_shape)
    _check_sizes("hidden widths", hidden)
    return [math.prod(input_shape), *hidden, 3]


def build_model(kind, arch=None, input_shape=DEFAULT_INPUT_SHAPE, *, draw=True):
    """The one model builder, dispatched on the kind string used by checkpoints and
    the CLI. arch holds any subset of the kind's fields; the rest are its defaults.
    fcnn with no hidden layers builds the linear model. With draw False the weights
    are zeros and nothing is drawn, for a loader that overwrites every one."""
    arch = _merged_arch(kind, arch)
    seeds = np.random.SeedSequence(arch["seed"])   # a bad seed fails whether or not it is drawn from
    rng = np.random.default_rng(seeds) if draw else None
    if kind in DEFAULT_ARCH:
        return _build_cnn(kind, ArchConfig(**arch), input_shape, rng)
    hidden, seed = list(arch["hidden"]), arch["seed"]
    labelled = [(f"hidden{i + 1}", units) for i, units in enumerate(hidden)]
    layers = _dense_chain(_fcnn_widths(hidden, input_shape)[0], labelled, rng)
    return Network(layers, input_shape, kind="fcnn" if hidden else "linear",
                   arch={"hidden": hidden, "seed": seed})


def _weights_to_build(kind, arch, input_shape):
    """count_weights(build_model(kind, arch, input_shape)) from the numbers alone, with
    no allocation; raises ValueError, TypeError, ArithmeticError or ShapeError on
    values the builder rejects or that cannot be sized."""
    arch, total = _merged_arch(kind, arch), 0
    if kind in DEFAULT_ARCH:
        cfg = ArchConfig(**arch)
        (c, h, w), k = input_shape, cfg.kernel
        for _, f, stride, units, pooled in _cnn_stages(kind, cfg, input_shape):
            total += f * (c * k + 1) + (units or 0) * 2 * f * (f * k + 1)
            w = conv_out_width(w, k, stride)
            if pooled:
                w = conv_out_width(w, STEM_POOL, STEM_POOL_STRIDE)
            c = f
        widths = [c * h * w, cfg.head_units, 3]
    else:
        widths = _fcnn_widths(list(arch["hidden"]), input_shape)
    return total + sum(a * b + b for a, b in zip(widths, widths[1:]))


def weights_millions(count):
    """A weight count in 1e6 units with one decimal, as count-weights prints it."""
    return round(count / 1e6, 1)


# --- checkpoint format -----------------------------------------------------
#
# magic "CSILOC1\n", one line of canonical JSON (kind, builder config, input
# shape, layer list, normalizer scale), then per parameter tensor in layer
# order: element count as little-endian u64, values as little-endian f64.

CHECKPOINT_MAGIC = b"CSILOC1\n"


def save_checkpoint(path, net, norm_scale=None, meta=None):
    header = {
        "kind": net.kind,
        "arch": net.arch,
        "input_shape": list(net.input_shape),
        "layers": [layer.describe() for layer in net.layers],
        "norm_scale": None if norm_scale is None else float(norm_scale),
        "meta": meta or {},
    }
    with replace_file(path) as f:   # a failed or killed write leaves the old file whole
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        f.write(b"\n")
        for p in net.params():
            f.write(struct.pack("<Q", p.size))
            f.write(np.ascontiguousarray(p.value, dtype="<f8"))  # the buffer, not a bytes copy


def load_checkpoint(path):
    """Rebuild the network and restore weights; returns (net, norm_scale, meta).

    Only the magic and the header line are read. The network is built with zero
    weights, nothing drawn, once the header's sizes pass; each weight is then
    written once, copied from a read-only mapping of the file.
    """
    try:
        with open(path, "rb") as f:
            magic = f.read(len(CHECKPOINT_MAGIC))
            line = f.readline() if magic == CHECKPOINT_MAGIC else b""
            offset, size = f.tell(), os.fstat(f.fileno()).st_size
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read: {e.strerror or e}") from e
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a CSILOC1 checkpoint")
    if not line.endswith(b"\n"):
        raise CheckpointError(f"{path}: missing header line")
    header = read_json_object(path, CheckpointError, "header", line[:-1])
    for key, *types in (("kind", str), ("arch", dict), ("input_shape", list), ("layers", list),
                        ("norm_scale", float, type(None))):   # only norm_scale may be missing
        if not json_is(header.get(key), *types):
            raise CheckpointError(f"{path}: header {key!r} is missing or has the wrong type")
    scale = header.get("norm_scale")
    if scale is not None and not 0 < scale <= sys.float_info.max:
        raise CheckpointError(f"{path}: header 'norm_scale' must be finite and > 0, got {scale!r}")
    # the header may describe only as many weights as the file holds, and the
    # architecture must build exactly those, before anything is allocated
    declared = header["layers"]
    try:
        shapes = [shape for entry in declared for shape in entry["param_shapes"]]
        for shape in shapes:
            _check_sizes("param_shapes dimensions", shape, least=0)
    except (TypeError, KeyError, ValueError) as e:
        raise CheckpointError(f"{path}: header 'layers' has malformed param_shapes") from e
    counts = [math.prod(shape) for shape in shapes]
    need, held = sum(8 + 8 * n for n in counts), size - offset
    if held < need:
        raise CheckpointError(f"{path}: truncated: header declares {need} parameter bytes, file holds {held}")
    if held > need:
        raise CheckpointError(f"{path}: {held - need} trailing bytes after parameters")
    try:
        for key, value in header["arch"].items():
            if key in ARCH_FIELDS and not arch_field_ok(key, value):
                raise ValueError(f"arch field {key!r} has the wrong type: {value!r}")
        planned = _weights_to_build(header["kind"], header["arch"], tuple(header["input_shape"]))
        if planned != sum(counts):
            raise CheckpointError(
                f"{path}: header architecture builds {planned} weights, its layers declare {sum(counts)}")
        net = build_model(header["kind"], header["arch"], tuple(header["input_shape"]), draw=False)
    except (ValueError, TypeError, ArithmeticError, ShapeError) as e:
        raise CheckpointError(f"{path}: cannot rebuild model: {e}") from e
    rebuilt = [layer.describe() for layer in net.layers]
    if declared != rebuilt:
        raise CheckpointError(f"{path}: header layer list does not match rebuilt architecture")

    blob = map_readonly(path, np.uint8, size, error=CheckpointError)
    for label, p in net.named_params():
        (count,) = struct.unpack_from("<Q", blob, offset)
        if count != p.size:
            raise CheckpointError(
                f"{path}: blob for {label} holds {count} elements, layer needs {p.size}")
        p.value[...] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset + 8).reshape(p.value.shape)
        offset += 8 + 8 * count
    return net, scale, header.get("meta", {})
