"""Self-test of the benchmark harness at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced spans nest under their parents, that no self time is negative,
that each CLI command's span equals the sum of the self times below it, and
that run.py refuses to run, printing no result, without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import DESK_ARCH, WORKLOADS  # noqa: E402

TINY = (
    replace(WORKLOADS["desk-cnn4r"], name="tiny-cnn4r", samples=60, subcarriers=60, epochs=2,
            eval_fraction=0.3,
            arch={**DESK_ARCH, "base_filters": 2, "kernel": 3, "head_units": 8,
                  "residual_units_per_block": 1}),
    # 270 eval samples: two chunks, so evaluation runs on worker threads
    replace(WORKLOADS["measured-linear-splits"], name="tiny-linear-splits", samples=600,
            subcarriers=8, splits=("random", "within"), eval_fraction=0.45),
)

failures = []


def expect(ok, message):
    if not ok:
        failures.append(message)


def check_attribution():
    """Two concurrent children share the instants they overlap."""
    root = spans.Span("root", None, 1)
    a = spans.Span("a", root, 2)
    b = spans.Span("b", root, 3)
    for s, (start, end) in ((root, (0.0, 10.0)), (a, (1.0, 5.0)), (b, (2.0, 6.0))):
        s.start, s.end = start, end
    spans.attribute_self_time([root, a, b])
    got = (root.self_s, a.self_s, b.self_s)
    expect(all(abs(x - y) < 1e-12 for x, y in zip(got, (5.0, 2.5, 2.5))),
           f"self-time attribution of concurrent spans: {got}")


def check_metrics(w):
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
        line, report = run.bench(w, seed=3, seconds=0, trace=trace)
        expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
               f"{w.name} trace {trace}: {report['failures']}")
        got = {k: m["unit"] for k, m in line["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        expect(got == want, f"{w.name} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                            f"or their units differ from BENCHMARK.json")
        for k, m in line["metrics"].items():
            # tracing overhead is a difference of two timings and may come out below 0
            expect(isinstance(m["value"], (int, float)) and (m["value"] >= 0 or k == "trace.overhead"),
                   f"{w.name}: {k} = {m['value']!r}")
        if trace:
            conv = line["metrics"]["layers.conv.fwd_ms"]["value"]
            expect((conv > 0) == (w.model != "linear"), f"{w.name}: conv fwd {conv} ms")
            threads = line["metrics"]["evaluation.threads"]["value"]
            expect(threads >= 1, f"{w.name}: evaluation ran on {threads} threads")


def check_tree(w):
    import pipeline

    input_dir = run.prepare_input(w, 3, run.Deadline(run.DEADLINE_S))
    work = run.STATE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    with open(Path(str(work) + ".log"), "w") as log:
        result = pipeline.run(w, 3, input_dir, work, 1, log)
    shutil.rmtree(work, ignore_errors=True)
    Path(str(work) + ".log").unlink()
    tracer = result["tracer"]
    for problem in spans.check_tree(tracer.spans):
        failures.append(f"{w.name}: {problem}")
    commands = [s for s in tracer.spans if s.name.startswith("cli.")]
    expect(len(commands) == len(result["commands"]),
           f"{w.name}: {len(commands)} command spans for {len(result['commands'])} commands")
    for s in commands:
        expect(s.parent is None, f"{w.name}: {s.name} is not a root span")
    workers = [s for s in tracer.spans if s.name == "network.forward"
               and s.thread != threading.get_ident()]
    for s in workers:
        expect(s.parent is not None and s.parent.name == "evaluation.evaluate",
               f"{w.name}: worker-thread forward under {s.parent and s.parent.name}")
    if w.name == "tiny-linear-splits":
        expect(bool(workers), f"{w.name}: evaluation ran no forward on a worker thread")


def check_refuses_without_sources():
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "desk-cnn4r",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources run.py exited {proc.returncode} printing {proc.stdout!r}")


def main():
    check_attribution()
    for w in TINY:
        check_metrics(w)
        check_tree(w)
    check_refuses_without_sources()
    for f in failures:
        print("FAIL " + f)
    print("selftest: " + ("OK" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
