"""Dataset container, canonical on-disk format, NPY import, synthetic CSI
generation, normalization and the four train/evaluation split geometries.

A dataset is a batch of labeled fingerprints: CSI as (N, 2, A, W) (Re/Im
channels first, A antennas, W subcarriers), per-antenna SNR in dB, and 3-D
transmitter positions in meters in the dataset's native frame. All three are
float32, the values the container holds: read ones are views of the bytes
read, and anything else is rounded once, when the Dataset is made. Float64
exists only in computation: apply_normalizer makes each batch or chunk that
enters the network float64.
"""

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CsilocError, DataFormatError, DegenerateGeometryError
from .npyio import read_npy, write_npy

SPEED_OF_LIGHT = 299_792_458.0

# carrier and bandwidth of the source measurement, and its guard band
# proportion: 50 of 1024 bins per side
FC_HZ = 1.25e9
BANDWIDTH_HZ = 20e6
GUARD_FRACTION = 50.0 / 1024.0

# the synthetic scene: a 2x8 antenna grid (rows stacked along z, columns spread
# along y) at x = 0, and a table of transmitter positions at least a meter in front of it
SYNTH_ARRAY_ROWS = 2
SYNTH_ARRAY_COLS = 8
SYNTH_X_RANGE = (1.0, 5.0)
SYNTH_Y_RANGE = (-1.0, 1.0)
SYNTH_Z_RANGE = (0.8, 1.2)
SYNTH_REFLECTOR_GAIN_RANGE = (0.2, 0.8)

# values a Dataset checks for finiteness at once (rounded to whole samples)
_FINITE_CHUNK = 1 << 16


@dataclass
class Dataset:
    csi: np.ndarray
    snr: np.ndarray
    pos: np.ndarray
    fc_hz: float = FC_HZ
    bandwidth_hz: float = BANDWIDTH_HZ
    frame: str = "native"

    def __post_init__(self):
        with np.errstate(over="ignore"):   # a value float32 cannot hold becomes inf, rejected below
            self.csi, self.snr, self.pos = (np.asarray(v, dtype=np.float32)
                                            for v in (self.csi, self.snr, self.pos))
        if self.csi.ndim != 4 or self.csi.shape[1] != 2:
            raise DataFormatError(f"csi must be (N, 2, antennas, subcarriers), got {self.csi.shape}")
        n = self.csi.shape[0]
        if n < 1:
            raise DataFormatError("dataset must be nonempty")
        if self.snr.shape != (n, self.csi.shape[2]):
            raise DataFormatError(f"snr shape {self.snr.shape} inconsistent with csi {self.csi.shape}")
        if self.pos.shape != (n, 3):
            raise DataFormatError(f"pos shape {self.pos.shape} inconsistent with {n} samples")
        for name, arr in (("csi", self.csi), ("snr", self.snr), ("pos", self.pos)):
            # whole samples at a time: the bool temporary stays small whatever n is
            step = max(1, _FINITE_CHUNK // arr[0].size)
            if not all(np.isfinite(arr[lo:lo + step]).all() for lo in range(0, n, step)):
                raise DataFormatError(f"non-finite values in {name}")

    def __len__(self):
        return self.csi.shape[0]

    @property
    def n_antennas(self):
        return self.csi.shape[2]

    @property
    def n_subcarriers(self):
        return self.csi.shape[3]

    def subset(self, indices):
        idx = np.asarray(indices, dtype=np.intp)
        return replace(self, csi=self.csi[idx], snr=self.snr[idx], pos=self.pos[idx])


# --- canonical container -----------------------------------------------------
#
# meta.json plus three raw little-endian float32 blobs:
#   csi.f32  n * antennas * subcarriers * 2, index order (sample, antenna,
#            subcarrier, re/im)
#   snr.f32  n * antennas
#   pos.f32  n * 3

def make_output_dir(directory):
    """directory as a Path, made with its parents; an OSError becomes a CsilocError."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CsilocError(f"cannot make output directory {directory}: {e.strerror or e}") from e
    return directory


CANONICAL_FILES = ("meta.json", "csi.f32", "snr.f32", "pos.f32")


def write_canonical(directory, ds: Dataset):
    directory = make_output_dir(directory)
    meta_path, *blob_paths = (directory / name for name in CANONICAL_FILES)
    meta = {
        "format_version": 1,
        "n": len(ds),
        "antennas": ds.n_antennas,
        "subcarriers": ds.n_subcarriers,
        "fc_hz": ds.fc_hz,
        "bandwidth_hz": ds.bandwidth_hz,
        "frame": ds.frame,
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    # loaded, imported, generated or split CSI transposes back to its own contiguous bytes: no copy
    for path, arr in zip(blob_paths, (ds.csi.transpose(0, 2, 3, 1), ds.snr, ds.pos)):
        np.ascontiguousarray(arr, dtype="<f4").tofile(path)


_META_TYPES = {"n": int, "antennas": int, "subcarriers": int, "fc_hz": (int, float),
               "bandwidth_hz": (int, float), "frame": str}


def load_canonical(directory) -> Dataset:
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        raise DataFormatError(f"{directory}: missing meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as e:
        raise DataFormatError(f"{meta_path}: malformed JSON: {e}") from e
    if not isinstance(meta, dict):
        raise DataFormatError(f"{meta_path}: not a JSON object")
    for key in ("format_version", *_META_TYPES):
        if key not in meta:
            raise DataFormatError(f"{meta_path}: missing field {key!r}")
    if meta["format_version"] != 1:
        raise DataFormatError(f"{meta_path}: unsupported format_version {meta['format_version']}")
    for key, types in _META_TYPES.items():
        value = meta[key]
        if isinstance(value, bool) or not isinstance(value, types) or (types is int and value < 0):
            raise DataFormatError(f"{meta_path}: field {key!r} has a wrong type or value: {value!r}")
    n, a, w = meta["n"], meta["antennas"], meta["subcarriers"]

    def read_exact(name, count):
        path = directory / name
        if not path.is_file():
            raise DataFormatError(f"{directory}: missing {name}")
        blob = path.read_bytes()
        if len(blob) != count * 4:
            raise DataFormatError(
                f"{path}: size mismatch: meta.json implies {count * 4} bytes, file holds {len(blob)}")
        return np.frombuffer(blob, dtype="<f4")

    csi = read_exact("csi.f32", n * a * w * 2).reshape(n, a, w, 2).transpose(0, 3, 1, 2)
    snr = read_exact("snr.f32", n * a).reshape(n, a)
    pos = read_exact("pos.f32", n * 3).reshape(n, 3)
    return Dataset(csi, snr, pos, fc_hz=float(meta["fc_hz"]),
                   bandwidth_hz=float(meta["bandwidth_hz"]), frame=meta["frame"])


# --- NPY import --------------------------------------------------------------

def import_npy(csi_path, snr_path, pos_path) -> Dataset:
    """Ingest challenge-style NPY dumps: csi complex64 (N,A,S) or float (N,A,S,2),
    snr (N,A), pos (N,3)."""
    csi = read_npy(csi_path)
    snr = read_npy(snr_path)
    pos = read_npy(pos_path)
    if np.iscomplexobj(csi):
        if csi.ndim != 3:
            raise DataFormatError(f"{csi_path}: complex csi must be (N, antennas, subcarriers), got {csi.shape}")
        csi = csi.view("<f4").reshape(csi.shape + (2,))   # complex64 is (re, im) float32 pairs
    elif csi.ndim != 4 or csi.shape[3] != 2:
        raise DataFormatError(f"{csi_path}: real csi must be (N, antennas, subcarriers, 2), got {csi.shape}")
    planes = csi.transpose(0, 3, 1, 2)
    if snr.ndim != 2 or pos.ndim != 2 or pos.shape[1] != 3:
        raise DataFormatError(f"snr must be (N, antennas) and pos (N, 3), got {snr.shape} and {pos.shape}")
    if not (planes.shape[0] == snr.shape[0] == pos.shape[0]):
        raise DataFormatError(
            f"inconsistent sample counts: csi {planes.shape[0]}, snr {snr.shape[0]}, pos {pos.shape[0]}")
    if planes.shape[2] != snr.shape[1]:
        raise DataFormatError(
            f"antenna count mismatch: csi has {planes.shape[2]}, snr has {snr.shape[1]}")
    return Dataset(planes, snr, pos)


def export_npy(directory, ds: Dataset):
    """Write the complex64/float32 NPY triple the importer accepts."""
    directory = make_output_dir(directory)
    pairs = np.ascontiguousarray(ds.csi.transpose(0, 2, 3, 1))   # (re, im) last: complex64's layout
    write_npy(directory / "csi.npy", pairs.view(np.complex64)[..., 0])
    write_npy(directory / "snr.npy", ds.snr)
    write_npy(directory / "pos.npy", ds.pos)


# --- synthetic generation ----------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Desk-scale stand-in for the measured setup: a moving transmitter over a
    table in front of a 2x8 antenna grid, line of sight plus a few fixed
    wall reflectors, per-sample additive noise."""

    num_samples: int = 2000
    num_subcarriers: int = 64
    num_reflectors: int = 3
    snr_db_range: tuple = (10.0, 30.0)
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.num_subcarriers < 8:
            raise ValueError("num_subcarriers must be >= 8")
        if self.num_reflectors < 0:
            raise ValueError("num_reflectors must be >= 0")
        lo, hi = self.snr_db_range
        # a NaN or infinite bound makes the difference NaN or infinite too
        if not 0.0 <= hi - lo <= sys.float_info.max:
            raise ValueError(f"snr_db_range must be finite (low, high) with high >= low "
                             f"and a finite difference, got {self.snr_db_range}")


def antenna_positions():
    """(A, 3) element positions: half-wavelength grid in the x=0 plane, centered
    on the y axis, rows stacked around the middle of the z range."""
    z_mid = 0.5 * (SYNTH_Z_RANGE[0] + SYNTH_Z_RANGE[1])
    d = SPEED_OF_LIGHT / FC_HZ / 2.0
    rows = np.arange(SYNTH_ARRAY_ROWS) - (SYNTH_ARRAY_ROWS - 1) / 2.0
    cols = np.arange(SYNTH_ARRAY_COLS) - (SYNTH_ARRAY_COLS - 1) / 2.0
    grid = [(0.0, c * d, z_mid + r * d) for r in rows for c in cols]
    return np.asarray(grid, dtype=np.float64)


def subcarrier_frequencies(cfg: SynthConfig):
    """Useful-bin center frequencies: guard bands cut proportionally off both
    band edges, remaining width divided evenly across the bins."""
    guard = BANDWIDTH_HZ * GUARD_FRACTION
    useful = BANDWIDTH_HZ - 2.0 * guard
    delta = useful / cfg.num_subcarriers
    k = np.arange(cfg.num_subcarriers)
    return FC_HZ - BANDWIDTH_HZ / 2.0 + guard + k * delta


def scene_reflectors(cfg: SynthConfig, rng):
    """Fixed room geometry for one dataset: reflector points in a box one meter
    larger than the table on every side, with a complex gain each."""
    lo = np.array([SYNTH_X_RANGE[0] - 1.0, SYNTH_Y_RANGE[0] - 1.0, max(SYNTH_Z_RANGE[0] - 0.5, 0.0)])
    hi = np.array([SYNTH_X_RANGE[1] + 1.0, SYNTH_Y_RANGE[1] + 1.0, SYNTH_Z_RANGE[1] + 0.5])
    points = rng.uniform(lo, hi, size=(cfg.num_reflectors, 3))
    amps = rng.uniform(*SYNTH_REFLECTOR_GAIN_RANGE, size=cfg.num_reflectors)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.num_reflectors)
    return points, amps * np.exp(1j * phases)


def channel_response(cfg: SynthConfig, positions, reflector_points=None, reflector_gains=None):
    """Noiseless frequency response H (N, A, W) for transmitters at `positions`.

    Path 0 is line of sight with gain 1/d and delay d/c. Each reflector
    contributes an image-source path: delay (|tx-r| + |r-ant|)/c, complex
    gain scaled by the reciprocal of the total path length.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    ants = antenna_positions()
    freqs = subcarrier_frequencies(cfg)
    if reflector_points is None:
        reflector_points = np.zeros((0, 3))
        reflector_gains = np.zeros(0, dtype=np.complex128)
    d_los = np.linalg.norm(positions[:, None, :] - ants[None, :, :], axis=2)  # (N, A)
    h = (1.0 / d_los)[:, :, None] * np.exp(
        -2j * np.pi * freqs[None, None, :] * (d_los / SPEED_OF_LIGHT)[:, :, None])
    for point, gain in zip(reflector_points, reflector_gains):
        d_tx = np.linalg.norm(positions - point[None, :], axis=1)             # (N,)
        d_rx = np.linalg.norm(ants - point[None, :], axis=1)                  # (A,)
        total = d_tx[:, None] + d_rx[None, :]
        h += (gain / total)[:, :, None] * np.exp(
            -2j * np.pi * freqs[None, None, :] * (total / SPEED_OF_LIGHT)[:, :, None])
    return h


_GEN_CHUNK = 256


def generate_synthetic(cfg: SynthConfig):
    """Seeded synthetic dataset; identical seed gives a bit-identical result.

    Transmitter positions are uniform over the table. Per sample one target
    SNR is drawn; complex white noise is added per antenna to realize it, and
    the actually realized per-antenna SNR is what lands in the snr field. The
    fixed reflector geometry is the generator's first draw,
    scene_reflectors(cfg, np.random.default_rng(cfg.seed)).
    """
    rng = np.random.default_rng(cfg.seed)
    refl_points, refl_gains = scene_reflectors(cfg, rng)
    lows = np.array([SYNTH_X_RANGE[0], SYNTH_Y_RANGE[0], SYNTH_Z_RANGE[0]])
    highs = np.array([SYNTH_X_RANGE[1], SYNTH_Y_RANGE[1], SYNTH_Z_RANGE[1]])
    pos = rng.uniform(lows, highs, size=(cfg.num_samples, 3))
    target_snr = rng.uniform(*cfg.snr_db_range, size=cfg.num_samples)
    n, a, w = cfg.num_samples, SYNTH_ARRAY_ROWS * SYNTH_ARRAY_COLS, cfg.num_subcarriers
    csi = np.empty((n, a, w), dtype=np.complex64)   # the container's (re, im) float32 pairs
    snr = np.empty((n, a), dtype=np.float32)
    for start in range(0, n, _GEN_CHUNK):
        stop = min(start + _GEN_CHUNK, n)
        h = channel_response(cfg, pos[start:stop], refl_points, refl_gains)
        p_sig = np.mean(np.abs(h) ** 2, axis=2)                               # (n, A)
        sigma2 = p_sig * 10.0 ** (-target_snr[start:stop, None] / 10.0)
        noise = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        noise *= np.sqrt(sigma2 / 2.0)[:, :, None]
        p_noise = np.mean(np.abs(noise) ** 2, axis=2)
        csi[start:stop] = h + noise
        snr[start:stop] = 10.0 * np.log10(p_sig / p_noise)
    return Dataset(csi.view(np.float32).reshape(n, a, w, 2).transpose(0, 3, 1, 2), snr, pos)


# --- normalization -----------------------------------------------------------

@dataclass(frozen=True)
class NormStats:
    """Single global scale: the population standard deviation of the
    training set's CSI values."""
    scale: float

    def __post_init__(self):
        if not 0 < self.scale <= sys.float_info.max:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


def fit_normalizer(train: Dataset) -> NormStats:
    # ndarray.std() of the float64 values, centred and squared in place: one temporary
    x = train.csi.astype(np.float64)
    x -= x.mean(keepdims=True)
    scale = float(np.sqrt(np.square(x, out=x).mean()))
    if scale == 0.0:
        raise ValueError("training CSI has zero variance; cannot normalize")
    return NormStats(scale)


def apply_normalizer(csi, stats: NormStats):
    """A gathered batch or chunk of CSI as the float64 array the network computes on."""
    # C order, whatever the order of the float32 view: Flatten then reshapes without a copy
    return np.divide(csi, stats.scale, dtype=np.float64, order="C")


# --- splits ------------------------------------------------------------------

SPLIT_KINDS = ("random", "narrow", "wide", "within")


@dataclass(frozen=True)
class SplitStrategy:
    kind: str
    eval_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SPLIT_KINDS:
            raise ValueError(f"unknown split kind {self.kind!r}; expected one of {SPLIT_KINDS}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must be in (0, 1)")


def round_half_up(x):
    """Nearest integer, halves rounded up (Python's round() rounds them to even)."""
    return int(math.floor(x + 0.5))


def _axes(positions):
    """(long_axis, short_axis) of the 2-D point cloud by coordinate range."""
    ranges = np.ptp(positions[:, :2], axis=0)
    long_axis = 0 if ranges[0] >= ranges[1] else 1
    return long_axis, 1 - long_axis


def split_indices(positions, strat: SplitStrategy):
    """Partition sample indices into (train, eval), both sorted ascending.

    random  seeded shuffle, tail of the shuffle becomes eval
    narrow  strip along the long edge: top short-axis coordinates
    wide    strip along the short edge: top long-axis coordinates
    within  square around the 2-D centroid grown until it holds the quota

    Geometric kinds take the top-k (or nearest-k) samples by the defining
    coordinate; samples tied exactly on the boundary value go to eval, so the
    eval count can exceed the quota only by ties.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if n < 2:
        raise ValueError("cannot split fewer than 2 samples")
    k = max(1, round_half_up(n * strat.eval_fraction))

    if strat.kind == "random":
        perm = np.random.default_rng(strat.seed).permutation(n)
        eval_ids = np.sort(perm[n - k:])
    elif strat.kind in ("narrow", "wide"):
        long_axis, short_axis = _axes(positions)
        axis = short_axis if strat.kind == "narrow" else long_axis
        coord = positions[:, axis]
        if np.ptp(coord) == 0.0:
            raise DegenerateGeometryError(
                f"{strat.kind} split needs spread along axis {axis}, positions are degenerate")
        order = np.argsort(coord, kind="stable")
        threshold = coord[order[n - k]]
        eval_ids = np.flatnonzero(coord >= threshold)
    else:  # within
        if np.ptp(positions[:, 0]) == 0.0 and np.ptp(positions[:, 1]) == 0.0:
            raise DegenerateGeometryError("within split needs a non-degenerate position cloud")
        center = positions[:, :2].mean(axis=0)
        cheb = np.abs(positions[:, :2] - center[None, :]).max(axis=1)
        half = np.sort(cheb, kind="stable")[k - 1]
        eval_ids = np.flatnonzero(cheb <= half)

    train_ids = np.setdiff1d(np.arange(n), eval_ids, assume_unique=True)
    if len(train_ids) == 0:
        raise DegenerateGeometryError("split left no training samples")
    return train_ids, eval_ids


def split(ds: Dataset, strat: SplitStrategy):
    """(train, eval) datasets; disjoint and exhaustive over ds."""
    train_ids, eval_ids = split_indices(ds.pos, strat)
    return ds.subset(train_ids), ds.subset(eval_ids)
