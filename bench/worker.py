"""Child process of the benchmark: runs clusternull operations in one fresh
interpreter and writes what it measured to a JSON file.

    worker.py setup       --root R --out FILE
    worker.py run         --root R --workload W --seed S --seconds N
                          --trace 0|1 --out DIR --result FILE
    worker.py determinism --root R --workload W --seed S --out DIR

`setup` imports the CLI and makes one tiny call (the set-up a user pays on
every invocation).  `run` repeats whole rounds of the workload until
`--seconds` have passed.  `determinism` runs one reduced Monte Carlo
command at CLUSTER_SIM_THREADS=1 and then 2, writing both CSVs.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _import_package(root):
    src = root / "src"
    sys.path.insert(0, str(src))
    import clusternull
    from clusternull import analysis, cli, feedback, geometry, montecarlo, specfun

    if not Path(clusternull.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"clusternull imported from {clusternull.__file__}, not {src}")
    return {"analysis": analysis, "cli": cli, "feedback": feedback,
            "geometry": geometry, "montecarlo": montecarlo, "specfun": specfun}


def _run_op(mods, op, out_dir):
    """Execute one operation; returns its record (wall time, status, value)."""
    record = {"name": op.name, "points": op.points, "mc_results": op.mc_results,
              "ok": False, "error": None, "value": None}
    start = time.perf_counter()
    try:
        if op.is_cli:
            rc = mods["cli"].main([*op.argv, "--out", str(out_dir / f"{op.name}.csv")])
            record["ok"] = rc == 0
            if rc != 0:
                record["error"] = f"exit code {rc}"
        else:
            p = op.params
            geometry = mods["geometry"]
            cfg = geometry.SimConfig(
                lambda_b=p["lambda_b"], lambda_c=p["lambda_b"] / p["ratio"],
                alpha=p["alpha"], snr_db=p["snr_db"],
                antenna_mode=geometry.FollowN(p["d_nt"]))
            record["value"] = mods["analysis"].rate_lb_ic(
                cfg, n_r0=p["n_r0"], n_rm=p["n_rm"])
            record["ok"] = True
    except Exception as exc:  # an operation that fails is counted, not fatal
        record["error"] = "".join(traceback.format_exception_only(exc)).strip()
        traceback.print_exc()
    record["wall_s"] = time.perf_counter() - start
    return record


def cmd_setup(args):
    mods = _import_package(args.root)
    return mods["cli"].main(["pmf-n", "--ratio", "3", "--max-n", "5", "--out", args.out])


def cmd_run(args):
    mods = _import_package(args.root)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(mods)
    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            r = len(rounds)
            round_dir = args.out / f"r{r}"
            round_dir.mkdir(parents=True, exist_ok=True)
            ops = [_run_op(mods, op, round_dir)
                   for op in workloads.round_ops(args.workload, args.seed, r)]
            rounds.append({"ops": ops, "wall_s": sum(o["wall_s"] for o in ops)})
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.layer_metrics() if tracer is not None else None,
    }
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


def cmd_determinism(args):
    mods = _import_package(args.root)
    op = workloads.determinism_op(args.workload, args.seed)
    for workers in ("1", "2"):
        os.environ["CLUSTER_SIM_THREADS"] = workers
        path = args.out / f"determinism-{workers}.csv"
        rc = mods["cli"].main([*op.argv, "--out", str(path)])
        if rc != 0:
            return rc
    return 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("command", choices=["setup", "run", "determinism"])
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    p.add_argument("--result", type=Path)
    args = p.parse_args()
    if args.command != "setup":
        args.out = Path(args.out)
    return {"setup": cmd_setup, "run": cmd_run,
            "determinism": cmd_determinism}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
