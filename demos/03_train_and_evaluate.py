"""End-to-end pipeline at demo scale: generate, split, train, evaluate, report.

Trains the width-adapted four-conv model for a few epochs against the linear
baseline and emits the report files (error CDF, per-axis histograms, quiver
offsets, summary.json) under out/reports/. Takes about 4 s on two cores;
raise EPOCHS for a result closer to the acceptance-grade run.
"""

import json

from csiloc import (SplitStrategy, SynthConfig, TrainConfig, build_model, emit_reports,
                    evaluate, fit_normalizer, generate_synthetic, split, train)

EPOCHS = 12

ds = generate_synthetic(SynthConfig(num_samples=1000, num_subcarriers=64,
                                    num_reflectors=3, seed=42))
train_ids, eval_ids = split(ds, SplitStrategy("random", 0.1, seed=1))
train_ds, eval_ds = ds.subset(train_ids), ds.subset(eval_ids)
norm = fit_normalizer(train_ds)   # training and evaluation divide each batch by its scale
cfg = TrainConfig(max_epochs=EPOCHS, batch_size=32, seed=5)

# one builder for every kind: any subset of the kind's fields over its defaults
linear = build_model("linear", {"seed": 3}, (2, 16, 64))
linear, _ = train(linear, train_ds, cfg, norm)
linear_report = evaluate(linear, eval_ds, norm, metadata={"split": "random"})
print(f"linear baseline: eval MDE {linear_report.mde_m:.3f} m")

cnn = build_model("cnn4", {"base_filters": 8, "kernel": 5, "stride": 2, "head_units": 256,
                           "seed": 3}, (2, 16, 64))
cnn, history = train(cnn, train_ds, cfg, norm)
print("per-epoch monitor MDE:",
      " ".join(f"{r.monitor_mde:.3f}" for r in history.records))
cnn_report = evaluate(cnn, eval_ds, norm, metadata={"split": "random"})
print(f"cnn4 ({EPOCHS} epochs): eval MDE {cnn_report.mde_m:.3f} m")

paths = emit_reports(cnn_report, "out/reports/cnn4")
emit_reports(linear_report, "out/reports/linear")
summary = json.loads(paths["summary"].read_text())
print(f"\nreport files: {sorted(p.name for p in paths.values())}")
print(f"summary: MDE {summary['mde_m']:.3f} m, RMSE {summary['rmse_m']:.3f} m, "
      f"NMDE {summary['nmde_percent']:.1f} %, {summary['weights']} weights")
