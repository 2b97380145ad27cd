"""One pipeline run of a workload, in a fresh process: the CLI commands
import -> (split -> train -> eval per split kind) through csiloc.cli.main,
each timed, then the output checks. With --trace 1 the run is traced and
per-layer metrics are added.

    python3 perfbench/pipeline.py --spec '<workload json>' --seed 1 \
        --input DIR --work DIR --trace 0

The outputs go under DIR/out, the commands' output to DIR/log.txt and the
result to DIR/result.json.
"""

import argparse
import contextlib
import csv
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from csiloc import cli  # noqa: E402
from workloads import Workload, commands, fitted_samples  # noqa: E402
import spans as tracing  # noqa: E402


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_command(argv, log):
    """Exit code of csiloc.cli.main(argv), with its output sent to log."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            return None


def check_outputs(w, work_dir, split_sizes):
    """(check name, ok, detail) per output check, and the eval MDE per split kind."""
    checks, mde = [], {}
    for kind in w.splits:
        d = Path(work_dir) / kind
        n_eval = split_sizes[kind][1]
        try:
            meta_n = json.loads((d / "eval" / "meta.json").read_text())["n"]
            summary = json.loads((d / "report" / "summary.json").read_text())
            values = [summary[k] for k in ("mde_m", "rmse_m", "rmse_per_coord_m", "nmde", "nmde_percent")]
            finite = all(isinstance(v, float) and math.isfinite(v) for v in values)
            checks.append((f"{kind}.summary", finite and summary["n_samples"] == meta_n == n_eval,
                           f"n_samples {summary['n_samples']}, eval split {meta_n}, expected {n_eval}"))
            mde[kind] = summary["mde_m"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            checks.append((f"{kind}.summary", False, repr(e)))
        try:
            with open(d / "model" / "history.csv", newline="") as f:
                rows = list(csv.reader(f))[1:]
            checks.append((f"{kind}.history", len(rows) == w.epochs,
                           f"{len(rows)} epoch rows, expected {w.epochs}"))
        except OSError as e:
            checks.append((f"{kind}.history", False, repr(e)))
    return checks, mde


def run(w, seed, input_dir, work_dir, trace, log):
    """One traced or untraced pipeline run; returns its result record."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    if w.arch:
        (work_dir / "arch.json").write_text(json.dumps(w.arch))
    split_sizes = json.loads((Path(input_dir) / "work.json").read_text())["split_sizes"]
    tracer = tracing.Tracer() if trace else None
    undo = tracing.instrument(tracer) if trace else None
    records, rss_after = [], {}
    try:
        for name, argv in commands(w, input_dir, work_dir, seed):
            t0 = time.perf_counter()
            rc = run_command(argv, log)
            wall = time.perf_counter() - t0
            rss_after[name] = peak_rss_mb()
            records.append({"command": name, "argv": argv, "rc": rc, "wall_s": wall})
            if rc != 0:
                break
    finally:
        if undo:
            undo()
    ok = all(r["rc"] == 0 for r in records)
    checks, mde = check_outputs(w, work_dir, split_sizes) if ok else ([], {})
    if trace and ok:
        layer_metrics, steps = tracing.span_metrics(tracer)
        problems = tracing.check_tree(tracer.spans)
        checks.append(("trace", not problems, "; ".join(problems[:3])))

    def wall(cmd):
        return sum(r["wall_s"] for r in records if r["command"] == cmd)

    fitted = sum(fitted_samples(split_sizes[k][0]) for k in w.splits) * w.epochs
    evaluated = sum(split_sizes[k][1] for k in w.splits)
    result = {
        "commands": records,
        "checks": [{"check": c, "ok": bool(o), "detail": d} for c, o, d in checks],
        "eval_mde": mde,
        "setup_s": wall("import") + wall("split"),
        "train_s": wall("train"),
        "eval_s": wall("eval"),
        "pipeline_s": sum(r["wall_s"] for r in records),
        "fitted_samples": fitted,
        "evaluated_samples": evaluated,
        "peak_rss_mb": peak_rss_mb(),
        "rss_after_mb": rss_after,
    }
    if trace and ok:
        result.update(trace=layer_metrics, step_s=steps, tracer=tracer)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = Workload.from_json(json.loads(args.spec))
    work = Path(args.work)
    with open(work / "log.txt", "w") as log:
        result = run(w, args.seed, args.input, work / "out", args.trace, log)
    result.pop("tracer", None)
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
