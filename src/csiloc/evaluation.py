"""Position-error metrics, whole-dataset evaluation, and report-data emission.

Three aggregate metrics over truth/estimate pairs:

  mde    mean Euclidean distance error, meters
  nmde   mean of distance error divided by the truth's norm (also as percent)
  rmse   root of the mean squared distance error, meters

As defined, rmse >= mde for any sample set (Jensen). Summaries additionally
carry rmse_per_coord_m = rmse / sqrt(3), the per-coordinate convention under
which values below the MDE are possible; summary.json documents this so the
two conventions cannot be confused.
"""

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import Dataset, NormStats, apply_normalizer, make_output_dir
from .errors import CsilocError
from .layers import _SPLIT_FLOOR, _fan_out, _parts, _threads
from .models import count_weights

_EVAL_CHUNK = 256


def mde(errors):
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("mde of an empty error list")
    return float(errors.mean())


def rmse(errors):
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("rmse of an empty error list")
    return float(np.sqrt((errors * errors).mean()))


def nmde(truth, estimate):
    """Mean of ||p - p_hat|| / ||p||; positions too close to the origin are an error."""
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if truth.shape != estimate.shape or truth.ndim != 2:
        raise ValueError(f"nmde needs matching (N, D) arrays, got {truth.shape} vs {estimate.shape}")
    norms = np.linalg.norm(truth, axis=1)
    bad = np.flatnonzero(norms < 1e-6)
    if bad.size:
        raise ValueError(f"nmde undefined for near-zero-norm truth positions at indices {bad.tolist()}")
    dist = np.linalg.norm(truth - estimate, axis=1)
    return float((dist / norms).mean())


@dataclass
class EvalReport:
    truth: np.ndarray
    estimate: np.ndarray
    distance_error: np.ndarray
    norm_truth: np.ndarray
    mde_m: float
    rmse_m: float
    rmse_per_coord_m: float
    nmde: float
    nmde_percent: float
    metadata: dict = field(default_factory=dict)

    @property
    def n_samples(self):
        return len(self.distance_error)


def predict(net, x, norm):
    """Position estimates for raw CSI, divided by norm's scale and forwarded in
    fixed-size chunks, so only the chunks in flight are float64. The chunks are
    split into up to CSILOC_THREADS parts whose convs get a share of the threads.
    A lone part runs on the caller; else pool threads run them all while the
    caller waits, so a profiler that parents a pool thread's calls to the call
    open on the caller sees them in predict's. Every chunk writes its own rows:
    the estimates do not depend on the split.
    """
    out = np.empty((len(x),) + net.output_shape)

    def forward(lo, hi):
        for s in range(lo * _EVAL_CHUNK, min(hi * _EVAL_CHUNK, len(x)), _EVAL_CHUNK):
            out[s:s + _EVAL_CHUNK] = net.forward(apply_normalizer(x[s:s + _EVAL_CHUNK], norm))

    parts = _parts(-(-len(x) // _EVAL_CHUNK), _SPLIT_FLOOR)   # unit _SPLIT_FLOOR: any chunk is a part's worth
    _fan_out([partial(forward, lo, hi) for lo, hi in parts], on_caller=int(len(parts) == 1))
    return out


def evaluate(model, eval_set: Dataset, norm: NormStats, metadata=None) -> EvalReport:
    """Forward pass over the raw evaluation set, and its metrics. A non-finite
    estimate (a non-finite weight, CSI that overflows when divided) raises."""
    if eval_set.n_subcarriers != model.input_shape[2] or eval_set.n_antennas != model.input_shape[1]:
        raise ValueError(
            f"model expects input {model.input_shape}, dataset provides "
            f"(2, {eval_set.n_antennas}, {eval_set.n_subcarriers})")
    estimate = predict(model, eval_set.csi, norm)
    bad = np.flatnonzero(~np.isfinite(estimate).all(axis=1))
    if bad.size:
        raise CsilocError(f"non-finite position estimates for {bad.size} of {len(estimate)} samples")
    truth = eval_set.pos.astype(np.float64)
    dist = np.linalg.norm(truth - estimate, axis=1)
    norm_truth = np.linalg.norm(truth, axis=1)
    mde_v = mde(dist)
    rmse_v = rmse(dist)
    nmde_v = nmde(truth, estimate)
    meta = dict(metadata or {})
    meta.setdefault("model", model.kind)
    meta.setdefault("split", "unspecified")
    meta.setdefault("dataset", "unspecified")
    meta["weights"] = count_weights(model)
    return EvalReport(truth=truth, estimate=estimate, distance_error=dist,
                      norm_truth=norm_truth, mde_m=mde_v, rmse_m=rmse_v,
                      rmse_per_coord_m=rmse_v / np.sqrt(3.0),
                      nmde=nmde_v, nmde_percent=100.0 * nmde_v, metadata=meta)


RMSE_NOTE = ("rmse_m is the root of the mean squared 3-D distance error and can never fall "
             "below mde_m; rmse_per_coord_m = rmse_m / sqrt(3) is the per-coordinate "
             "convention, which can. Compare published RMSE figures against whichever "
             "convention they actually used.")


def write_csv(path, header, rows):
    """Write header and rows as CSV; floats as repr(float(v)), so they read back exactly."""
    with open(path, "w", newline="\n") as f:
        for row in [header, *rows]:
            f.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                             for v in row) + "\n")


REPORT_FILES = ("cdf.csv", "err_hist.csv", "quiver.csv", "summary.json")


def emit_reports(report: EvalReport, out_dir):
    """Write cdf.csv, err_hist.csv, quiver.csv and summary.json; returns their paths."""
    if report.n_samples == 0:
        raise ValueError("cannot emit reports for an empty evaluation")
    out = make_output_dir(out_dir)
    cdf_path, hist_path, quiver_path, summary_path = (out / name for name in REPORT_FILES)
    n = report.n_samples

    errors = np.sort(report.distance_error, kind="stable")
    write_csv(cdf_path, ["distance_error_m", "probability"],
              zip(errors.tolist(), (np.arange(1, n + 1) / n).tolist()))
    hist = []
    for axis, name in ((0, "x"), (1, "y")):
        counts, edges = np.histogram(report.estimate[:, axis] - report.truth[:, axis], bins=50)
        hist += [(name, edges[b], edges[b + 1], counts[b]) for b in range(50)]
    write_csv(hist_path, ["axis", "bin_low_m", "bin_high_m", "count"], hist)
    delta = report.estimate - report.truth
    write_csv(quiver_path, ["truth_x_m", "truth_y_m", "dx_m", "dy_m"],
              np.hstack([report.truth[:, :2], delta[:, :2]]).tolist())

    summary = {
        "mde_m": report.mde_m,
        "rmse_m": report.rmse_m,
        "rmse_per_coord_m": report.rmse_per_coord_m,
        "nmde": report.nmde,
        "nmde_percent": report.nmde_percent,
        "n_samples": n,
        "weights": report.metadata.get("weights"),
        "split": report.metadata.get("split"),
        "model": report.metadata.get("model"),
        "rmse_definition_note": RMSE_NOTE,
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {"cdf": cdf_path, "err_hist": hist_path, "quiver": quiver_path, "summary": summary_path}
