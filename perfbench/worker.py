"""One benchmark pass in a fresh interpreter; run.py starts one per pass.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
                                [--trace] [--setup-only]

Imports beltrami_lab from the checkout's ``src/``, builds the workload's
inputs, records ``time.monotonic()`` (CLOCK_MONOTONIC, shared with the
parent, which subtracts its spawn time to get setup_s), runs the timed pass,
checks the output against its oracle and writes ``DIR/result.json``.
With --trace the pass runs under the span tracer and the kernel probes run
after it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_REPEATS = 7
PROBE_METRICS = ("solver.beurling_apply_s", "solver.cauchy_apply_s",
                 "solver.beurling_apply_1t_s", "solver.fft_flops_computed",
                 "solver.fft_bytes_computed")


def _import_library():
    pkg = SRC / "beltrami_lab"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"worker: no beltrami_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import beltrami_lab

    if Path(beltrami_lab.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"worker: imported beltrami_lab from {beltrami_lab.__file__}, not {pkg}")
    return beltrami_lab


def _median_seconds(fn, arg) -> float:
    fn(arg)  # fills the symbol cache
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_probes(mu_field) -> dict:
    """Medians of the public transforms on the workload's mu field, at the
    pinned thread count and at one thread, plus the computed FFT cost of one
    apply: a forward and an inverse FFT of the 2n x 2n padded buffer
    (5 N log2 N flops each) and, for bytes, each FFT and the symbol product
    streaming the 16-byte-per-point buffer (FFTs: read + write; product:
    buffer + symbol read, buffer write)."""
    from beltrami_lab.solver import beurling_transform, cauchy_transform

    out = {
        "solver.beurling_apply_s": _median_seconds(beurling_transform, mu_field),
        "solver.cauchy_apply_s": _median_seconds(cauchy_transform, mu_field),
    }
    pinned = os.environ.get("BELTRAMI_LAB_THREADS")
    os.environ["BELTRAMI_LAB_THREADS"] = "1"
    try:
        out["solver.beurling_apply_1t_s"] = _median_seconds(beurling_transform, mu_field)
    finally:
        if pinned is None:
            del os.environ["BELTRAMI_LAB_THREADS"]
        else:
            os.environ["BELTRAMI_LAB_THREADS"] = pinned
    n_pad = 4 * mu_field.grid.nx * mu_field.grid.ny
    out["solver.fft_flops_computed"] = 2 * 5 * n_pad * math.log2(n_pad)
    out["solver.fft_bytes_computed"] = (2 * 2 + 3) * 16 * n_pad
    return out


def layer_metrics(tracer, wall_s: float) -> dict:
    st = tracer.self_times()
    c, mx = tracer.counts, tracer.maxima

    def calls(name):
        return st[name][0] if name in st else 0

    def self_s(name):
        return st[name][1] if name in st else 0.0

    iters = c["solver.iterations"]
    quad_s, evals = self_s("numerics.quad"), c["numerics.quad.evals"]
    out = {f"{layer}.self_s": sum(v[1] for k, v in st.items()
                                  if k.split(".", 1)[0] == layer)
           for layer in LAYERS}
    out.update({
        "solver.iterations": iters,
        "solver.iterations_max": mx["solver.iterations_max"],
        "solver.solve_principal.calls": calls("solver.solve_principal"),
        "solver.solve_principal.self_s": self_s("solver.solve_principal"),
        "solver.iter_s": self_s("solver.solve_principal") / iters if iters else 0.0,
        "solver.truncation_scheme.self_s": self_s("solver.truncation_scheme"),
        "solver.grid_kip_integral_s": self_s("solver.grid_kip_integral"),
        "solver.sup_distance_s": self_s("solver.sup_distance"),
        "solver.residual_report_s": self_s("solver.residual_report"),
        "dilatation.mu_eval_s": self_s("dilatation.mu_eval"),
        "dilatation.mu_eval_points": c["dilatation.mu_eval_points"],
        "numerics.wirtinger_s": self_s("numerics.wirtinger"),
        "numerics.quad.calls": calls("numerics.quad"),
        "numerics.quad.evals": evals,
        "numerics.quad.evals_max": mx["numerics.quad.evals_max"],
        "numerics.quad.s": quad_s,
        "numerics.quad.s_per_eval": quad_s / evals if evals else 0.0,
        "numerics.quad.failed": c["numerics.quad.raised.QuadratureNonConvergence"],
        "radial.lehto_integral.calls": calls("radial.lehto_integral"),
        "radial.lehto_integral.s": self_s("radial.lehto_integral"),
        "radial.q_calls": c["radial.q_calls"],
        "radial.breakpoints": c["radial.breakpoints"],
        "radial.profile_build_s": self_s("radial.profile_build"),
        "radial.profile_inverse.calls": calls("radial.profile_inverse"),
        "radial.profile_inverse.s": self_s("radial.profile_inverse"),
        "radial.poletsky_check.calls": calls("radial.poletsky_check"),
        "radial.poletsky_check.s": self_s("radial.poletsky_check"),
        "verify.lehto_scan_s": self_s("verify.lehto_scan"),
        "cli.dump_field_s": self_s("cli.dump_field"),
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer.spans),
    })
    out["trace.coverage"] = sum(out[f"{layer}.self_s"] for layer in LAYERS) / wall_s
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    lib = _import_library()
    from workloads import PASS_ERRORS, WORKLOADS, Check

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    inputs = wl.setup(args.seed, args.out)
    record = {"t_ready": time.monotonic()}
    if not args.setup_only:
        t0 = time.perf_counter()
        try:
            result, error = wl.run(inputs), None
        except PASS_ERRORS as exc:
            result, error = None, exc
        wall_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()
        if error is None:
            chk = wl.check(inputs, result)
        else:
            chk = Check(oracle_err=math.inf, floor=0.0)
            chk.op(False, f"{type(error).__name__}: {error}")
        record.update(
            wall_s=wall_s,
            peak_rss_mb=peak_rss_mb,
            oracle_err=max(chk.oracle_err, chk.floor),
            oracle_raw_err=chk.oracle_err,
            kip_rel_err=chk.kip_rel_err,
            attempted=chk.attempted,
            failed=chk.failed,
            failures=chk.failures,
            digest=chk.digest,
            env={"python": sys.version.split()[0], "numpy": numpy.__version__,
                 "scipy": scipy.__version__, "beltrami_lab": lib.__version__},
        )
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, wall_s)
            record["layers"]["cli.bytes_written"] = sum(
                p.stat().st_size for p in Path(args.out).iterdir() if p.name != "spans.csv")
            tracer.write(Path(args.out) / "spans.csv")
            # workloads without a solver grid report the probes as 0
            record["layers"].update(dict.fromkeys(PROBE_METRICS, 0.0))
            if wl.probe_mu is not None:
                record["layers"].update(kernel_probes(wl.probe_mu(inputs)))
    with open(Path(args.out) / "result.json", "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
