"""beltrami-lab benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh worker process
(perfbench/worker.py) with pinned thread counts; passes repeat while the
next one is expected to end within S seconds (at least one pass, so a pass
longer than S runs once).
With --trace 1 one more pass runs under the span tracer and the kernel
probes run after it.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  Exit status is 0 after a result line, 1 when a worker fails or
times out, 2 when the checkout has no beltrami_lab sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MIN_SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def pinned_env() -> tuple[dict, dict]:
    """Environment for workers: FFT workers at the library's default (the
    usable cores, at most 4), BLAS at one thread, fixed hash seed."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    pins = {
        "BELTRAMI_LAB_THREADS": str(min(4, nproc)),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    }
    env.update(pins)
    return env, {"nproc": nproc, **pins}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def spawn(args, env, pass_dir: Path, *flags) -> dict:
    pass_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(pass_dir), *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s: {cmd}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(pass_dir / "result.json") as fh:
        rec = json.load(fh)
    rec["setup_s"] = rec["t_ready"] - t_spawn
    return rec


def measure(args, env) -> dict:
    """Run the passes of one invocation and aggregate them."""
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    passes = []
    while True:
        passes.append(spawn(args, env, work / f"pass-{len(passes)}"))
        elapsed = time.monotonic() - start
        # stop before a pass that would end past the budget, judged by the
        # mean pass so far; a pass longer than the budget runs once
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        rec = spawn(args, env, work / f"setup-{len(setups)}", "--setup-only")
        setups.append(rec["setup_s"])
    traced = spawn(args, env, work / "traced", "--trace") if args.trace else None

    checked = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    failures = [f for p in checked for f in p["failures"]]
    # determinism: every rerun must reproduce the first pass's output bytes
    for p in checked[1:]:
        attempted += 1
        if p["digest"] != checked[0]["digest"]:
            failed += 1
            failures.append("rerun output bytes differ from the first pass")
    wall = statistics.median(p["wall_s"] for p in passes)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "oracle_err": max(p["oracle_err"] for p in checked),
    }
    if traced:
        values.update(traced["layers"])
        values.update({
            "solver.kip_rel_err": max(p["kip_rel_err"] for p in checked),
            "oracle.raw_err": max(p["oracle_raw_err"] for p in checked),
            "trace.untraced_wall_s": wall,
            "trace.overhead_s": traced["wall_s"] - wall,
        })
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pass_walls": [p["wall_s"] for p in passes],
        "setups": setups,
        "env": passes[0]["env"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "beltrami_lab" / "__init__.py").is_file():
        print(f"perfbench: no beltrami_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(bench_file) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env, pins = pinned_env()
    try:
        res = measure(args, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env: git_sha={} {} {}".format(
        git_sha(), " ".join(f"{k}={v}" for k, v in res["env"].items()),
        " ".join(f"{k}={v}" for k, v in pins.items())))
    print("# passes={} wall_s per pass={} setup_s samples={}".format(
        len(res["pass_walls"]), [round(w, 4) for w in res["pass_walls"]],
        [round(s, 4) for s in res["setups"]]))
    for m in wanted:
        value = res["values"][m["name"]]
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None,
                              "unit": m["unit"]}
        print(f"{m['name']:<34} {value:>16.6g} {m['unit']}")
    print(f"{'ops_failed_frac':<34} {res['failed'] / res['attempted']:>16.6g} "
          f"({res['failed']}/{res['attempted']} operations)")
    for what in res["failures"][:10]:
        print(f"# FAILED: {what}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
