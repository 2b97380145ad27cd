"""Benchmark workloads: sizes, the CLI command plan of one pipeline run, and
work counts computed from the shapes.

Sizes are chosen so one pipeline run takes a few seconds on a 2-core machine;
a benchmark run repeats the pipeline for its whole measuring time.
"""

from dataclasses import asdict, dataclass

# desk architecture (configs/desk64_cnn4.json) applied to cnn4r
DESK_ARCH = {"base_filters": 8, "growth": 1.5, "kernel": 5, "stride": 2,
             "residual_units_per_block": 3, "head_units": 256, "seed": 3}

BATCH_SIZE = 32            # the CLI default; fitted counts below are multiples of it
MONITOR_FRACTION = 0.1     # TrainConfig default: share of train/ held out to monitor


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    subcarriers: int
    model: str
    arch: dict
    splits: tuple
    eval_fraction: float
    epochs: int
    antennas: int = 16

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, d):
        return cls(**{**d, "splits": tuple(d["splits"])})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-cnn4r",
        # 235 samples: eval 128, train 107 -> monitor 11, fitted 96 = 3 full batches
        samples=235, subcarriers=64, model="cnn4r", arch=DESK_ARCH,
        splits=("random",), eval_fraction=0.5447, epochs=2),
    Workload(
        name="measured-cnn4",
        # 235 samples: eval 128, train 107 -> monitor 11, fitted 96 = 3 full batches.
        # Eval stays within one 256-sample chunk: a second chunk would start the
        # threaded path but cost over 5 s a run at this width.
        samples=235, subcarriers=924, model="cnn4", arch={},
        splits=("random",), eval_fraction=0.5447, epochs=1),
    Workload(
        name="measured-linear-splits",
        # eval 258 of 600 samples per split: two chunks, so evaluation runs on threads
        samples=600, subcarriers=924, model="linear", arch={},
        splits=("random", "narrow", "wide", "within"), eval_fraction=0.43, epochs=1),
)}


def commands(w: Workload, input_dir, work_dir, seed):
    """(command, argv) pairs of one pipeline run: import once, then
    split -> train -> eval for each split kind."""
    plan = [("import", ["import", "--csi", f"{input_dir}/csi.npy", "--snr", f"{input_dir}/snr.npy",
                        "--pos", f"{input_dir}/pos.npy", "--out", f"{work_dir}/full"])]
    for kind in w.splits:
        d = f"{work_dir}/{kind}"
        plan.append(("split", ["split", "--data", f"{work_dir}/full", "--kind", kind,
                               "--fraction", repr(w.eval_fraction), "--seed", str(seed),
                               "--out", d]))
        train = ["train", "--train", f"{d}/train", "--model", w.model, "--out", f"{d}/model",
                 "--seed", str(seed), "--max-epochs", str(w.epochs),
                 "--batch-size", str(BATCH_SIZE)]
        if w.arch:
            train += ["--config", f"{work_dir}/arch.json"]
        plan.append(("train", train))
        plan.append(("eval", ["eval", "--checkpoint", f"{d}/model/model.ckpt", "--eval", f"{d}/eval",
                              "--out", f"{d}/report", "--split-label", kind]))
    return plan


def _round_half_up(x):
    return int(x + 0.5)


def fitted_samples(n_train):
    """Samples that take gradient steps in one epoch: train/ minus the monitor holdout."""
    return n_train - max(1, _round_half_up(n_train * MONITOR_FRACTION))


def computed_work(w: Workload, split_sizes):
    """Work counts computed from shapes, not measured.

    Multiply-adds per training step count forward, weight gradient and input
    gradient (3x the forward). CSI bytes per stage sum the CSI arrays a
    command materialises: import holds the complex64 dump, its float64 planes
    and the float32 disk copy; split the float64 load, the float64 subsets and
    their float32 disk copies; train the float64 load, the normalised copy and
    the gathered train/monitor arrays; eval the float64 load and the
    normalised copy. split_sizes maps split kind to (n_train, n_eval).
    """
    from csiloc.layers import Conv1xK, Dense, ResidualUnit
    from csiloc.models import build_model, DEFAULT_ARCH

    shape = (2, w.antennas, w.subcarriers)
    if w.model in ("fcnn", "linear"):
        arch = {"hidden": [], "seed": 0}
    else:
        arch = {**asdict(DEFAULT_ARCH[w.model]), **w.arch}
    net = build_model(w.model, arch, shape)
    macs = {"conv": 0, "dense": 0}

    def visit(layer, in_shape):
        if isinstance(layer, ResidualUnit):
            s = in_shape
            for sub in (layer.conv_a, layer.relu_mid, layer.conv_b, layer.relu_out):
                s = visit(sub, s)
            return s
        out = layer.out_shape(in_shape)
        if isinstance(layer, Conv1xK):
            f, h, w_out = out
            macs["conv"] += f * layer.in_channels * h * w_out * layer.kernel
        elif isinstance(layer, Dense):
            macs["dense"] += layer.in_features * layer.units
        return out

    s = shape
    for layer in net.layers:
        s = visit(layer, s)

    per_sample = 2 * w.antennas * w.subcarriers
    n = w.samples
    n_train = max(t for t, _ in split_sizes.values())
    n_eval = max(e for _, e in split_sizes.values())
    return {
        "computed.conv.macs_per_step": 3 * BATCH_SIZE * macs["conv"],
        "computed.dense.macs_per_step": 3 * BATCH_SIZE * macs["dense"],
        "computed.csi_bytes.import": n * per_sample * (4 + 8 + 4),
        "computed.csi_bytes.split": n * per_sample * (8 + 8 + 4),
        "computed.csi_bytes.train": n_train * per_sample * (8 + 8 + 8),
        "computed.csi_bytes.eval": n_eval * per_sample * (8 + 8),
    }
