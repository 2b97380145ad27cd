"""Run every workload and print each metric by name with its unit.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--out FILE]

For each workload, run.py measures once per seed untraced and once traced
(on the first seed). Per end-to-end metric the suite prints the median and
quartiles over the seeds and the spread (q3 - q1) / median; it also prints
failed_ops_ratio, the failed commands and output checks over those
attempted. With --out the whole record, the environment included, is
written as JSON. The exit code is nonzero when any run failed a check.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, ROOT, env_record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def measure(workload, seed, seconds, trace):
    """(result line, wall seconds) of one run.py invocation."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0:
        line["correct"] = False
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return line, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    record = {"env": env_record(), "run_seconds": args.seconds, "seeds": args.seeds,
              "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs, attempted, failed = [], 0, 0
        for seed in args.seeds:
            line, wall = measure(name, seed, args.seconds, 0)
            ok &= line["correct"]
            attempted += line["attempted"]
            failed += line["failed"]
            runs.append({"seed": seed, "wall_s": wall, "correct": line["correct"],
                         "metrics": {k: m["value"] for k, m in line["metrics"].items()}})
            print(f"{name} seed {seed}: {wall:.1f} s, " + ", ".join(
                f"{k} {v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {k: summarize(values) for k in END_TO_END
                   if (values := [r["metrics"][k] for r in runs if k in r["metrics"]])}
        entry = {"workload": WORKLOADS[name].to_json(), "runs": runs, "end_to_end": summary}
        if not args.no_trace:
            line, wall = measure(name, args.seeds[0], args.seconds, 1)
            ok &= line["correct"]
            attempted += line["attempted"]
            failed += line["failed"]
            entry["per_layer"] = line["metrics"]
        entry["failed_ops_ratio"] = failed / max(attempted, 1)
        print(f"== {name}")
        for k, s in summary.items():
            print(f"  {k:24s} {s['median']:.6g} {END_TO_END[k]}  (q1 {s['q1']:.6g}, "
                  f"q3 {s['q3']:.6g}, spread {s['spread']:.3f}, n {len(s['values'])})")
        print(f"  {'failed_ops_ratio':24s} {entry['failed_ops_ratio']:.6g} ratio  "
              f"({failed} of {attempted})")
        for k, m in entry.get("per_layer", {}).items():
            print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
        record["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
