"""Pipeline benchmark of the csiloc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's input (NPY dumps made
from the seed) is generated once in its own process and cached under
.perfbench/. The CLI pipeline (import, split, train, eval) then runs again
and again, each time in a fresh process, until S seconds have passed (at
least three times) after one warm-up run. With --trace 0 the end-to-end
metrics are the medians over those runs; with --trace 1, untraced and traced
runs alternate and the per-layer metrics come from the traced ones. The last
line of output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 only when every command and output check
passed.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

# One OpenBLAS thread, unless the caller chose otherwise. At the default of
# one thread per core, each small product hands work to a second thread; on a
# shared 2-core machine that handoff stalls whenever the other core is busy,
# and the stalls, not the program, set the spread of the timings. Evaluation
# still runs its CSILOC_THREADS workers, one BLAS thread each. Set before
# numpy is loaded here, and inherited by every child process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from workloads import WORKLOADS, commands  # noqa: E402
import spans  # noqa: E402

DEADLINE_S = 170          # the whole run, input generation included
MIN_ROUNDS = {0: 3, 1: 2}

END_TO_END = {
    "setup_s": "s", "train_samples_per_s": "1/s", "eval_samples_per_s": "1/s",
    "pipeline_s": "s", "peak_rss_mb": "MB", "eval_mde_m": "m",
}

PER_LAYER = {
    "layers.conv.fwd_ms": "ms", "layers.conv.bwd_ms": "ms", "layers.residual.self_ms": "ms",
    "layers.dense.fwd_ms": "ms", "layers.dense.bwd_ms": "ms", "layers.relu_ms": "ms",
    "network.forward_ms": "ms", "network.backward_ms": "ms",
    "train.step_ms.p50": "ms", "train.step_ms.tail": "ms", "train.step_ms.tail_pct": "%",
    "train.steps": "count", "train.loss_ms": "ms", "train.sgd_ms": "ms",
    "train.monitor_s": "s", "train.self_s": "s",
    "models.build_model_s": "s", "models.save_checkpoint_s": "s",
    "models.save_checkpoint_calls": "count", "models.checkpoint_bytes": "B",
    "models.load_checkpoint_s": "s",
    "npyio.read_npy_s": "s", "data.import_npy_s": "s", "data.write_canonical_s": "s",
    "data.load_canonical_s": "s", "data.split_s": "s", "data.fit_normalizer_s": "s",
    "data.apply_normalizer_s": "s",
    "data.rss_mb.import": "MB", "data.rss_mb.split": "MB", "data.rss_mb.train": "MB",
    "data.rss_mb.eval": "MB",
    "evaluation.evaluate_s": "s", "evaluation.forward_s": "s",
    "evaluation.emit_reports_s": "s", "evaluation.threads": "count",
    "cli.import.self_s": "s", "cli.split.self_s": "s", "cli.train.self_s": "s",
    "cli.eval.self_s": "s", "trace.overhead": "ratio",
    "computed.conv.macs_per_step": "count", "computed.dense.macs_per_step": "count",
    "computed.csi_bytes.import": "B", "computed.csi_bytes.split": "B",
    "computed.csi_bytes.train": "B", "computed.csi_bytes.eval": "B",
}


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(1.0, self.end - time.monotonic())


def openblas_threads():
    """Threads of the OpenBLAS library numpy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def env_record():
    import numpy
    sys.path.insert(0, str(ROOT / "src"))
    from csiloc.evaluation import _threads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": openblas_threads(),
        "csiloc_threads": _threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CSILOC_THREADS")},
        "commit": commit,
    }


def prepare_input(w, seed, deadline):
    """Directory holding the workload's input for seed, generated if not cached.

    The cache key covers the workload's sizes; only the latest input is kept
    per workload.
    """
    spec = json.dumps(w.to_json(), sort_keys=True)
    base = STATE / "inputs" / w.name
    target = base / f"seed-{seed}-{hashlib.sha256(spec.encode()).hexdigest()[:12]}"
    if (target / "work.json").is_file():
        return target
    if base.exists():
        shutil.rmtree(base)
    tmp = base / f".tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    subprocess.run([sys.executable, str(HERE / "gen_input.py"), "--spec", spec,
                    "--seed", str(seed), "--out", str(tmp)],
                   check=True, timeout=deadline.left())
    tmp.rename(target)
    return target


def run_pipeline(w, seed, input_dir, trace, index, deadline):
    """Result record of one pipeline run in a fresh process, or None if it died."""
    work = STATE / "work" / f"{os.getpid()}-{index}"
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "pipeline.py"), "--spec", json.dumps(w.to_json()),
             "--seed", str(seed), "--input", str(input_dir), "--work", str(work),
             "--trace", str(trace)],
            timeout=deadline.left())
        if proc.returncode != 0:
            return None
        return json.loads((work / "result.json").read_text())
    except (subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"pipeline run {index} failed: {e!r}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(r):
    mde = list(r["eval_mde"].values())
    return {
        "setup_s": r["setup_s"],
        "train_samples_per_s": r["fitted_samples"] / r["train_s"],
        "eval_samples_per_s": r["evaluated_samples"] / r["eval_s"],
        "pipeline_s": r["pipeline_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "eval_mde_m": sum(mde) / len(mde),
    }


class Checks:
    """Counts attempted and failed operations: commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def bench(w, seed, seconds, trace):
    """Measure one workload; returns (result line dict, report dict)."""
    deadline = Deadline(DEADLINE_S)
    input_dir = prepare_input(w, seed, deadline)
    work = json.loads((input_dir / "work.json").read_text())
    n_commands = len(commands(w, "", "", seed))
    checks = Checks()
    done = []                     # every complete run, the warm-up included

    def attempt(traced):
        """Run the pipeline once and check it; returns its result, or None if it failed."""
        index = len(done)
        r = run_pipeline(w, seed, input_dir, traced, index, deadline)
        ok_commands = 0 if r is None else sum(c["rc"] == 0 for c in r["commands"])
        checks.attempted += n_commands
        checks.failures += [f"run {index}: command failed"] * (n_commands - ok_commands)
        for c in (r or {}).get("checks", []):
            checks.add(f"run {index} {c['check']}", c["ok"], c["detail"])
        if ok_commands < n_commands:
            return None
        done.append(r)
        return r

    start = time.monotonic()
    # the first run after input generation pays one-off costs (write-back, cold
    # caches); it is checked but not measured
    broken = attempt(0) is None
    runs = []                     # (traced, result) of the measured runs
    rounds, longest = 0, 0.0
    # a round is one untraced run or, with --trace 1, an untraced and a traced
    # one, in alternating order
    while not broken and (rounds < MIN_ROUNDS[trace]
                          or time.monotonic() - start + longest <= seconds):
        t0 = time.monotonic()
        for traced in ((rounds % 2, 1 - rounds % 2) if trace else (0,)):
            r = attempt(traced)
            broken = r is None
            if broken:
                break
            runs.append((traced, r))
        rounds += 1
        longest = max(longest, time.monotonic() - t0)

    # eval MDE is bit-identical across the runs of a seed, traced or not, and
    # across invocations of the same sources at the same BLAS thread count
    # (the first value is kept with the cached input)
    sources = hashlib.sha256(b"".join(p.read_bytes() for p in sorted(
        (ROOT / "src" / "csiloc").glob("*.py")))).hexdigest()[:12]
    blas = os.environ["OPENBLAS_NUM_THREADS"]
    expected_path = input_dir / f"expected-mde-{sources}-blas{blas}.json"
    expected = json.loads(expected_path.read_text()) if expected_path.is_file() else None
    for i, r in enumerate(done):
        if expected is None:
            expected = r["eval_mde"]
            expected_path.write_text(json.dumps(expected))
        checks.add(f"run {i} eval MDE repeats", r["eval_mde"] == expected,
                   f"{r['eval_mde']} != {expected}")

    untraced = [end_to_end(r) for t, r in runs if not t]
    report = {"workload": w.to_json(), "seed": seed, "split_sizes": work["split_sizes"],
              "runs": len(runs), "failures": checks.failures,
              "end_to_end_runs": untraced}
    if not trace:
        metrics = {k: statistics.median(m[k] for m in untraced) for k in END_TO_END} if untraced else {}
        units = END_TO_END
    else:
        traced = [r for t, r in runs if t]
        metrics = {}
        if traced and untraced:
            metrics = {k: statistics.median(r["trace"][k] for r in traced) for k in traced[0]["trace"]}
            metrics.update(spans.step_metrics([s for r in traced for s in r["step_s"]]))
            # tracing shifts the allocator's high-water marks, so RSS comes from the untraced runs
            for cmd in ("import", "split", "train", "eval"):
                metrics[f"data.rss_mb.{cmd}"] = statistics.median(
                    r["rss_after_mb"][cmd] for t, r in runs if not t)
            metrics["trace.overhead"] = (statistics.median(r["pipeline_s"] for r in traced)
                                         / statistics.median(m["pipeline_s"] for m in untraced) - 1.0)
            metrics.update(work["computed"])
        units = PER_LAYER
    missing = sorted(set(units) - set(metrics))
    if missing:
        checks.add("metrics", False, f"not measured: {missing}")
    line = {"correct": not checks.failures, "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics}}
    return line, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "csiloc" / "cli.py").is_file():
        print(f"no csiloc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    line, report = bench(w, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env_record(), sort_keys=True))
    print("workload " + json.dumps({k: report[k] for k in ("workload", "seed", "split_sizes", "runs")}))
    for i, m in enumerate(report["end_to_end_runs"]):
        print(f"untraced run {i}: " + ", ".join(f"{k} {v:.4g}" for k, v in m.items()))
    for failure in report["failures"]:
        print("FAILED " + failure)
    for k, m in line["metrics"].items():
        print(f"{k:32s} {m['value']!r} {m['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
