"""Generate one workload's input for a seed, in its own process.

Writes the NPY triple the CLI imports (csi.npy complex64, snr.npy, pos.npy)
and work.json (split sizes and computed work counts) into --out. Run as

    python3 perfbench/gen_input.py --spec '<workload json>' --seed 1 --out DIR
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from csiloc.data import (SplitStrategy, SynthConfig, export_npy,  # noqa: E402
                         generate_synthetic, split_indices)
from workloads import Workload, computed_work  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    w = Workload.from_json(json.loads(args.spec))

    ds = generate_synthetic(SynthConfig(num_samples=w.samples, num_subcarriers=w.subcarriers,
                                        seed=args.seed))
    out = Path(args.out)
    export_npy(out, ds)
    # the pipeline splits positions after their float32 round trip through the dump
    pos = ds.pos.astype(np.float32).astype(np.float64)
    sizes = {}
    for kind in w.splits:
        tr, ev = split_indices(pos, SplitStrategy(kind, w.eval_fraction, args.seed))
        sizes[kind] = (len(tr), len(ev))
    work = {"split_sizes": sizes, "computed": computed_work(w, sizes)}
    (out / "work.json").write_text(json.dumps(work, indent=2, sort_keys=True) + "\n")
    # flush the input to disk now, so its write-back does not land in the timed runs
    for path in out.iterdir():
        with open(path, "rb+") as f:
            os.fsync(f.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
