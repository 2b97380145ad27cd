"""Training loop: SGD with classical momentum, distance loss, plateau decay
of the learning rate and early stopping with best-weight restoration.

The plateau/stop monitor is an internal holdout carved off the training set
(never the evaluation set). Everything is seeded, so a run is bit-for-bit
reproducible in double precision; wall-clock seconds are the one recorded
quantity that is not.
"""

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import NormStats, apply_normalizer, round_half_up
from .errors import TrainingDivergedError
from .evaluation import mde, predict, write_csv
from .layers import _fan_out, _parts, _threads
from .network import mde_loss

MIN_IMPROVEMENT = 1e-6   # meters; smaller deltas do not reset patience
# elements per optimizer block: its three sweeps find the block in cache
_SGD_BLOCK = 1 << 15


def sgd_momentum_step(params, lr, momentum):
    """Classical momentum update: v <- momentum*v - lr*g; w <- w + v.

    A parameter's gradient is checked whole before any of it is updated. It is
    updated in parts, one per thread (layers._parts), block by block; every
    element gets the same operations whatever the split."""
    for p in params:
        v, w, g = p.vel.reshape(-1), p.value.reshape(-1), p.grad.reshape(-1)
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):   # NaN propagates through both
            raise TrainingDivergedError("non-finite gradient in optimizer step")
        parts = _parts(g.size)
        steps = np.empty((len(parts), min(g.size, _SGD_BLOCK)))   # a block of lr * g per part

        def update(lo, hi, step):
            for a in range(lo, hi, _SGD_BLOCK):
                b = min(a + _SGD_BLOCK, hi)
                v[a:b] *= momentum
                v[a:b] -= np.multiply(lr, g[a:b], out=step[:b - a])
                w[a:b] += v[a:b]

        _fan_out([partial(update, lo, hi, step) for (lo, hi), step in zip(parts, steps)])


class PlateauSchedule:
    """Patience state machine over a monitored loss.

    An epoch "improves" when the monitor drops more than MIN_IMPROVEMENT
    below the best seen. lr_patience bad epochs multiply the rate by
    lr_factor (and reset the decay counter); stop_patience bad epochs in a
    row request a stop. The stop counter only resets on improvement.
    """

    def __init__(self, lr0, lr_factor, lr_patience, stop_patience):
        self.lr = lr0
        self.lr_factor = lr_factor
        self.lr_patience = lr_patience
        self.stop_patience = stop_patience
        self.best = np.inf
        self.bad_for_lr = 0
        self.bad_for_stop = 0

    def update(self, monitor):
        """Feed one epoch's monitor value; returns (improved, should_stop)."""
        if monitor < self.best - MIN_IMPROVEMENT:
            self.best = monitor
            self.bad_for_lr = 0
            self.bad_for_stop = 0
            return True, False
        self.bad_for_lr += 1
        self.bad_for_stop += 1
        if self.bad_for_stop >= self.stop_patience:
            return False, True
        if self.bad_for_lr >= self.lr_patience:
            self.lr *= self.lr_factor
            self.bad_for_lr = 0
        return False, False


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 250
    batch_size: int = 32
    lr0: float = 1e-3
    momentum: float = 0.9
    lr_patience: int = 10
    lr_factor: float = 0.1
    stop_patience: int = 21
    monitor_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 0 or self.batch_size < 1 or self.lr_patience < 1:
            raise ValueError("epoch/batch/patience counts must be positive")
        if not 0.0 < self.lr0 < np.inf:   # NaN fails every comparison
            raise ValueError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError("lr_factor must be in (0, 1)")
        if self.stop_patience <= self.lr_patience:
            raise ValueError("stop_patience must exceed lr_patience")
        if not 0.0 < self.monitor_fraction < 1.0:
            raise ValueError("monitor_fraction must be in (0, 1)")


@dataclass
class EpochRecord:
    epoch: int
    train_mde: float
    monitor_mde: float
    lr: float
    seconds: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    stop_reason: str = "max_epochs"

    def to_csv(self, path):
        write_csv(path, ["epoch", "train_mde", "monitor_mde", "lr", "seconds"],
                  ((r.epoch, r.train_mde, r.monitor_mde, r.lr, r.seconds) for r in self.records))


def _batched_mde(net, x, y, norm):
    return mde(np.linalg.norm(predict(net, x, norm) - y, axis=1))


def train(net, ds, cfg: TrainConfig, norm=NormStats(1.0), monitor_fn=None, on_improve=None):
    """Train in place; returns (net, TrainHistory) with best-monitor weights restored.

    Each batch gathered from the raw ds is divided by norm. monitor_fn(net,
    epoch) may replace the internal-holdout monitor (used by tests to drive
    the schedule). on_improve(epoch, monitor), if given, is called every time
    the monitor improves, while net holds the improved weights. A non-finite
    loss or gradient raises TrainingDivergedError carrying the history so far.

    The best weights are one set, copied from net at the start and overwritten
    in place on each improvement, so a run holds four arrays of each parameter's
    size: its value, gradient and velocity, and the best set.
    """
    _threads()  # a malformed CSILOC_THREADS fails here, not after the first epoch
    n = len(ds)
    if n <= cfg.batch_size / (1.0 - cfg.monitor_fraction):
        raise ValueError(
            f"dataset of {n} samples is too small for batch_size {cfg.batch_size} "
            f"with monitor_fraction {cfg.monitor_fraction}")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    n_mon = max(1, round_half_up(n * cfg.monitor_fraction))
    mon_ids = np.sort(perm[:n_mon])
    tr_ids = np.sort(perm[n_mon:])
    x_mon, y_mon = ds.csi[mon_ids], ds.pos[mon_ids]

    params = net.params()
    sched = PlateauSchedule(cfg.lr0, cfg.lr_factor, cfg.lr_patience, cfg.stop_patience)
    best_values = net.snapshot()
    best_monitor = np.inf
    history = TrainHistory(records=[], stop_reason="max_epochs")

    for epoch in range(1, cfg.max_epochs + 1):
        tick = time.perf_counter()
        order = tr_ids[rng.permutation(len(tr_ids))]
        running = 0.0
        lr_used = sched.lr
        try:
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]   # gathered per batch: a whole-set gather is a full copy
                net.zero_grads()
                tape = []
                pred = net.forward(apply_normalizer(ds.csi[batch], norm), tape)
                loss, grad = mde_loss(pred, ds.pos[batch])
                if not np.isfinite(loss):
                    raise TrainingDivergedError("non-finite loss")
                net.backward(grad, tape)
                sgd_momentum_step(params, sched.lr, cfg.momentum)
                running += loss * len(batch)
        except TrainingDivergedError as e:
            history.stop_reason = "diverged"
            raise TrainingDivergedError(f"{e} in epoch {epoch}", history) from e
        train_mde = running / len(order)
        monitor = monitor_fn(net, epoch) if monitor_fn else _batched_mde(net, x_mon, y_mon, norm)
        improved, should_stop = sched.update(monitor)
        if monitor < best_monitor:
            best_monitor = monitor
            for best, p in zip(best_values, params):
                np.copyto(best, p.value)
            if on_improve is not None:
                on_improve(epoch, monitor)
        history.records.append(EpochRecord(epoch, train_mde, monitor, lr_used,
                                           time.perf_counter() - tick))
        if should_stop:
            history.stop_reason = "early_stop"
            break

    net.restore(best_values)
    return net, history
