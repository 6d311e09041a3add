"""clusternull benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload mc-sweep|analytic|rate-loss \
        --seed N --seconds S --trace 0|1

The package is imported from the `src/` directory of the checkout that
holds this file.  The timed operations run in one child interpreter
with CLUSTER_SIM_THREADS=1.  After them, the outputs of every round are
checked (oracle, model properties, 1-vs-2-worker identity), and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (`--trace 0`) or its
per-layer metrics (`--trace 1`).  Details of the run go to
bench/out/<workload>-s<seed>.json (and .trace.json for a traced run).
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def _child(argv, env):
    """Run worker.py with argv; raises on a non-zero exit or a timeout."""
    subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv,
                    "--root", str(ROOT)], env=env, check=True,
                   timeout=CHILD_TIMEOUT_S, stdout=sys.stderr)


def measure_setup(env, out):
    """Median wall time of a fresh interpreter importing the CLI and making
    one tiny call."""
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        _child(["setup", "--out", str(out / f"setup-{i}.csv")], env)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def run_checks(workload, result, run_dir, env, seed):
    """Check every round's outputs; returns a list of failure messages."""
    bad = []
    if workload == "analytic":
        bad += checks.check_oracle_kernel()
    for r, rnd in enumerate(result["rounds"]):
        rd = run_dir / f"r{r}"
        ok = {o["name"]: o for o in rnd["ops"] if o["ok"]}
        if workload == "mc-sweep" and "sweep" in ok:
            bad += checks.check_sweep(rd / "sweep.csv", workloads.SWEEP_SERIES)
        elif workload == "analytic":
            if "coverage-dnt1" in ok:
                bad += checks.check_coverage(rd / "coverage-dnt1.csv", True)
            if "coverage-nt12" in ok:
                bad += checks.check_coverage(rd / "coverage-nt12.csv", False)
            if "rate-bound" in ok:
                bad += checks.check_rate_bound(ok["rate-bound"]["value"],
                                               workloads.RATE_BOUND)
        elif workload == "rate-loss" and {"loss-mc", "loss-analytic"} <= ok.keys():
            bad += checks.check_rate_loss(rd / "loss-mc.csv", rd / "loss-analytic.csv",
                                          workloads.LOSS_POLICIES)
    if workloads.determinism_op(workload, seed) is not None:
        _child(["determinism", "--workload", workload, "--seed", str(seed),
                "--out", str(run_dir)], env)
        bad += checks.check_identical(run_dir / "determinism-1.csv",
                                      run_dir / "determinism-2.csv")
    return bad


def op_figures(result):
    """Per-operation figures kept in the detail file: median wall time,
    wall time per grid point, and the Monte Carlo throughput."""
    ops = [o for rnd in result["rounds"] for o in rnd["ops"]]
    out = {}
    for name in dict.fromkeys(o["name"] for o in ops):
        walls = [o["wall_s"] for o in ops if o["name"] == name]
        points = next(o["points"] for o in ops if o["name"] == name)
        out[f"{name}.wall_s"] = statistics.median(walls)
        out[f"{name}.point_s"] = statistics.median(walls) / points
    mc = [o for o in ops if o["mc_results"]]
    if mc:
        out["mc_trials_per_s"] = (sum(o["mc_results"] for o in mc)
                                  / sum(o["wall_s"] for o in mc))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "clusternull" / "__init__.py").is_file():
        print(f"error: no clusternull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = BENCH / "out"
    run_dir = out_root / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # compile once so no timed interpreter pays for bytecode generation
    compileall.compile_dir(ROOT / "src", quiet=1)
    env = dict(os.environ, CLUSTER_SIM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))

    setup_s, setup_times = (None, [])
    if not args.trace:
        setup_s, setup_times = measure_setup(env, run_dir)
    result_path = run_dir / "result.json"
    _child(["run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(run_dir), "--result", str(result_path)], env)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    failures = run_checks(args.workload, result, run_dir, env, args.seed)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    ops = [o for rnd in result["rounds"] for o in rnd["ops"]]
    for o in ops:
        if not o["ok"]:
            print(f"operation {o['name']} failed: {o['error']}", file=sys.stderr)
    round_walls = [r["wall_s"] for r in result["rounds"]]
    detail = {"workload": args.workload, "seed": args.seed,
              "round_wall_s": round_walls, "checks_failed": failures}
    if args.trace:
        values = dict(result["layers"], **{"trace.wall_s": statistics.median(round_walls)})
        untraced = out_root / f"{args.workload}-s{args.seed}.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text(encoding="utf-8"))
            detail["overhead_s"] = values["trace.wall_s"] - base["metrics"]["wall_s"]
        detail["metrics"] = values
        detail_path = out_root / f"{args.workload}-s{args.seed}.trace.json"
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(round_walls),
                  "peak_rss_mb": result["peak_rss_mb"]}
        detail.update(metrics=values, setup_times_s=setup_times,
                      figures=op_figures(result))
        detail_path = out_root / f"{args.workload}-s{args.seed}.json"
    detail_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": sum(not o["ok"] for o in ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
