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
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .data import round_half_up
from .errors import CheckpointError, ShapeError
from .layers import AvgPool1xP, Conv1xK, Dense, Flatten, ReLU, ResidualUnit
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


def _head(shape, head_units, rng, layers):
    """Append flatten -> dense(head)+ReLU -> dense(3) and return the builder list."""
    flat = int(np.prod(shape))
    layers.append(Flatten(label="flatten"))
    layers.append(Dense(flat, head_units, rng=rng, label="head"))
    layers.append(ReLU(label="head.relu"))
    layers.append(Dense(head_units, 3, rng=rng, label="out"))
    return layers


def build_cnn4(cfg: ArchConfig = None, input_shape=DEFAULT_INPUT_SHAPE):
    cfg = cfg or DEFAULT_ARCH["cnn4"]
    rng = np.random.default_rng(cfg.seed)
    filters = cfg.filter_counts()
    layers = []
    shape = tuple(input_shape)
    channels = shape[0]
    for i, f in enumerate(filters):
        conv = Conv1xK(channels, f, cfg.kernel, cfg.stride, "valid", rng=rng, label=f"conv{i + 1}")
        shape = conv.out_shape(shape)
        layers += [conv, ReLU(label=f"conv{i + 1}.relu")]
        channels = f
    _head(shape, cfg.head_units, rng, layers)
    return Network(layers, input_shape, kind="cnn4", arch=asdict(cfg))


def _residual_block(index, in_channels, filters, cfg, rng, shape, layers):
    entry = Conv1xK(in_channels, filters, cfg.kernel, cfg.stride, "valid",
                    rng=rng, label=f"block{index}.entry")
    shape = entry.out_shape(shape)
    layers += [entry, ReLU(label=f"block{index}.entry.relu")]
    for u in range(cfg.residual_units_per_block):
        unit = ResidualUnit(filters, cfg.kernel, rng=rng, label=f"block{index}.unit{u + 1}")
        shape = unit.out_shape(shape)
        layers.append(unit)
    return shape


def build_cnn4r(cfg: ArchConfig = None, input_shape=DEFAULT_INPUT_SHAPE):
    cfg = cfg or DEFAULT_ARCH["cnn4r"]
    rng = np.random.default_rng(cfg.seed)
    filters = cfg.filter_counts()
    layers = []
    shape = tuple(input_shape)
    channels = shape[0]
    for i, f in enumerate(filters):
        shape = _residual_block(i + 1, channels, f, cfg, rng, shape, layers)
        channels = f
    _head(shape, cfg.head_units, rng, layers)
    return Network(layers, input_shape, kind="cnn4r", arch=asdict(cfg))


def build_cnn4s(cfg: ArchConfig = None, input_shape=DEFAULT_INPUT_SHAPE):
    cfg = cfg or DEFAULT_ARCH["cnn4s"]
    rng = np.random.default_rng(cfg.seed)
    filters = cfg.filter_counts()
    layers = []
    shape = tuple(input_shape)
    stem = Conv1xK(shape[0], filters[0], cfg.kernel, STEM_STRIDE, "valid", rng=rng, label="stem")
    shape = stem.out_shape(shape)
    pool = AvgPool1xP(STEM_POOL, STEM_POOL_STRIDE, label="stem.pool")
    layers += [stem, ReLU(label="stem.relu"), pool]
    shape = pool.out_shape(shape)
    channels = filters[0]
    for i, f in enumerate(filters[1:], start=2):
        shape = _residual_block(i, channels, f, cfg, rng, shape, layers)
        channels = f
    _head(shape, cfg.head_units, rng, layers)
    return Network(layers, input_shape, kind="cnn4s", arch=asdict(cfg))


def build_fcnn(hidden, input_shape=DEFAULT_INPUT_SHAPE, seed=0):
    """Dense baseline; hidden=[] yields the pure linear model."""
    hidden = list(hidden)
    rng = np.random.default_rng(seed)
    layers = [Flatten(label="flatten")]
    width = int(np.prod(input_shape))
    for i, units in enumerate(hidden):
        layers += [Dense(width, units, rng=rng, label=f"hidden{i + 1}"),
                   ReLU(label=f"hidden{i + 1}.relu")]
        width = units
    layers.append(Dense(width, 3, rng=rng, label="out"))
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


_CNN_BUILDERS = {"cnn4": build_cnn4, "cnn4r": build_cnn4r, "cnn4s": build_cnn4s}


def build_model(kind, arch=None, input_shape=DEFAULT_INPUT_SHAPE):
    """Dispatch on the model kind string used by checkpoints and the CLI.

    arch is a resolved architecture dict; empty or None means the kind's defaults.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    arch = arch or resolve_arch(kind, {})
    if kind in _CNN_BUILDERS:
        return _CNN_BUILDERS[kind](_arch_config(arch), input_shape)
    if kind == "linear" and arch.get("hidden"):
        raise ValueError("linear model takes no hidden layers")
    return build_fcnn(arch.get("hidden", []), input_shape, seed=arch.get("seed", 0))


def _arch_config(d):
    unknown = set(d) - set(ArchConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown architecture config fields: {sorted(unknown)}")
    return ArchConfig(**d)


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
                f.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: malformed header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("kind", "arch", "input_shape", "layers"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing {key!r}")
    for key, types in (("arch", dict), ("input_shape", list), ("norm_scale", (int, float, type(None)))):
        if not isinstance(header.get(key), types) or isinstance(header.get(key), bool):
            raise CheckpointError(f"{path}: header {key!r} has the wrong type")
    try:
        net = build_model(header["kind"], header["arch"], tuple(header["input_shape"]))
    except (ValueError, TypeError, ShapeError) as e:
        raise CheckpointError(f"{path}: cannot rebuild model: {e}") from e
    declared = header["layers"]
    rebuilt = [layer.describe() for layer in net.layers]
    if declared != rebuilt:
        raise CheckpointError(f"{path}: header layer list does not match rebuilt architecture")

    offset = nl + 1
    for label, p in net.named_params():
        if offset + 8 > len(blob):
            raise CheckpointError(f"{path}: truncated before blob for {label}")
        (count,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        if count != p.size:
            raise CheckpointError(
                f"{path}: blob for {label} holds {count} elements, layer needs {p.size}")
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated blob for {label}")
        p.value[...] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(p.value.shape)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes after parameters")
    return net, header.get("norm_scale"), header.get("meta", {})
