"""Builders for the CNN4 / CNN4R / CNN4S position estimators and baselines.

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
import operator
import struct
import sys
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .data import round_half_up
from .errors import CheckpointError, ShapeError
from .layers import AvgPool1xP, Conv1xK, Dense, Flatten, ReLU, ResidualUnit, conv_out_width
from .network import Network, count_weights

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
        counts = [round_half_up(self.base_filters * self.growth ** i) for i in range(4)]
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


def _check_sizes(name, values, least=1):
    """TypeError unless each of values is an int, ValueError unless each is >= least.

    The builders and _weights_to_build check every size here, so each term of the
    loader's weight count is nonnegative and no value can cancel another.
    """
    if any(operator.index(v) < least for v in values):
        raise ValueError(f"{name} must be integers >= {least}, got {list(values)}")


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


def _build_cnn(kind, cfg=None, input_shape=DEFAULT_INPUT_SHAPE):
    """Four conv stages, then the head."""
    cfg = cfg or DEFAULT_ARCH[kind]
    rng = np.random.default_rng(cfg.seed)
    layers, shape = [], tuple(input_shape)
    for name, f, stride, units, pooled in _cnn_stages(kind, cfg, shape):
        shape = _conv_stage(layers, shape, name, f, stride, cfg.kernel, rng, units)
        if pooled:
            layers.append(AvgPool1xP(STEM_POOL, STEM_POOL_STRIDE, label=f"{name}.pool"))
            shape = layers[-1].out_shape(shape)
    layers += _dense_chain(int(np.prod(shape)), [("head", cfg.head_units)], rng)
    return Network(layers, input_shape, kind=kind, arch=asdict(cfg))


# the per-kind entry points: build_cnn4(cfg=None, input_shape=DEFAULT_INPUT_SHAPE)
build_cnn4 = partial(_build_cnn, "cnn4")
build_cnn4r = partial(_build_cnn, "cnn4r")
build_cnn4s = partial(_build_cnn, "cnn4s")


def _fcnn_widths(hidden, input_shape):
    """[flattened input, *hidden, 3]: the dense chain build_fcnn builds, sizes checked."""
    _check_sizes("input_shape", input_shape)
    _check_sizes("hidden widths", hidden)
    return [math.prod(input_shape), *hidden, 3]


def build_fcnn(hidden, input_shape=DEFAULT_INPUT_SHAPE, seed=0):
    """Dense baseline; hidden=[] yields the pure linear model."""
    hidden = list(hidden)
    rng = np.random.default_rng(seed)
    labelled = [(f"hidden{i + 1}", units) for i, units in enumerate(hidden)]
    layers = _dense_chain(_fcnn_widths(hidden, input_shape)[0], labelled, rng)
    kind = "linear" if not hidden else "fcnn"
    return Network(layers, input_shape, kind=kind, arch={"hidden": hidden, "seed": seed})


def resolve_arch(kind, flat):
    """The architecture dict build_model takes, from a kind and its config fields.

    CNN kinds lay ArchConfig fields over the kind's shipped defaults; fcnn and
    linear take only hidden. kind must be one of MODEL_KINDS.
    """
    if kind in DEFAULT_ARCH:
        if "hidden" in flat:
            raise ValueError(f"hidden does not apply to {kind}")
        return {**asdict(DEFAULT_ARCH[kind]), **flat}
    extra = sorted(set(flat) - {"hidden"})
    if extra:
        raise ValueError(f"architecture fields {extra} do not apply to {kind}")
    return {"hidden": list(flat.get("hidden", [])), "seed": 0}


def build_model(kind, arch=None, input_shape=DEFAULT_INPUT_SHAPE):
    """Dispatch on the model kind string used by checkpoints and the CLI.

    arch is a resolved architecture dict; empty or None means the kind's defaults.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    arch = arch or resolve_arch(kind, {})
    if kind in DEFAULT_ARCH:
        return _build_cnn(kind, _arch_config(arch), input_shape)
    if kind == "linear" and arch.get("hidden"):
        raise ValueError("linear model takes no hidden layers")
    return build_fcnn(arch.get("hidden", []), input_shape, seed=arch.get("seed", 0))


def _arch_config(d):
    unknown = set(d) - set(ArchConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown architecture config fields: {sorted(unknown)}")
    return ArchConfig(**d)


def _weights_to_build(kind, arch, input_shape):
    """count_weights(build_model(kind, arch, input_shape)) from the numbers alone, with
    no allocation; raises ValueError, TypeError, ArithmeticError or ShapeError on
    values the builders reject or that cannot be sized."""
    arch, total = arch or resolve_arch(kind, {}), 0
    if kind in DEFAULT_ARCH:
        cfg = _arch_config(arch)
        (c, h, w), k = input_shape, cfg.kernel
        for _, f, stride, units, pooled in _cnn_stages(kind, cfg, input_shape):
            total += f * (c * k + 1) + (units or 0) * 2 * f * (f * k + 1)
            w = conv_out_width(w, k, stride)
            if pooled:
                w = conv_out_width(w, STEM_POOL, STEM_POOL_STRIDE)
            c = f
        widths = [c * h * w, cfg.head_units, 3]
    else:
        widths = _fcnn_widths(list(arch.get("hidden", [])), input_shape)
    return total + sum(a * b + b for a, b in zip(widths, widths[1:]))


def weights_millions(net):
    """count_weights in 1e6 units with one decimal, as reported in summaries."""
    return round(count_weights(net) / 1e6, 1)


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
    # write beside the target, then rename: a failed or killed write leaves the old file whole
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
            f.write(b"\n")
            for p in net.params():
                f.write(struct.pack("<Q", p.size))
                f.write(np.ascontiguousarray(p.value, dtype="<f8"))  # the buffer, not a bytes copy
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    """Rebuild the network and restore weights; returns (net, norm_scale, meta)."""
    blob = Path(path).read_bytes()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: bad magic; not a CSILOC1 checkpoint")
    nl = blob.find(b"\n", len(CHECKPOINT_MAGIC))
    if nl < 0:
        raise CheckpointError(f"{path}: missing header line")
    try:
        header = json.loads(blob[len(CHECKPOINT_MAGIC):nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"{path}: malformed header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("kind", "arch", "input_shape", "layers"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing {key!r}")
    for key, types in (("arch", dict), ("input_shape", list), ("norm_scale", (int, float, type(None)))):
        if not isinstance(header.get(key), types) or isinstance(header.get(key), bool):
            raise CheckpointError(f"{path}: header {key!r} has the wrong type")
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
    need, held = sum(8 + 8 * n for n in counts), len(blob) - nl - 1
    if held < need:
        raise CheckpointError(f"{path}: truncated: header declares {need} parameter bytes, file holds {held}")
    if held > need:
        raise CheckpointError(f"{path}: {held - need} trailing bytes after parameters")
    try:
        planned = _weights_to_build(header["kind"], header["arch"], tuple(header["input_shape"]))
        if planned != sum(counts):
            raise CheckpointError(
                f"{path}: header architecture builds {planned} weights, its layers declare {sum(counts)}")
        net = build_model(header["kind"], header["arch"], tuple(header["input_shape"]))
    except (ValueError, TypeError, ArithmeticError, ShapeError) as e:
        raise CheckpointError(f"{path}: cannot rebuild model: {e}") from e
    rebuilt = [layer.describe() for layer in net.layers]
    if declared != rebuilt:
        raise CheckpointError(f"{path}: header layer list does not match rebuilt architecture")

    offset = nl + 1
    for label, p in net.named_params():
        (count,) = struct.unpack_from("<Q", blob, offset)
        if count != p.size:
            raise CheckpointError(
                f"{path}: blob for {label} holds {count} elements, layer needs {p.size}")
        p.value[...] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset + 8).reshape(p.value.shape)
        offset += 8 + 8 * count
    return net, scale, header.get("meta", {})
