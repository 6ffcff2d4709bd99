"""The four benchmark workloads: inputs, the timed call, and the oracle check.

Each workload has a ``setup(seed, out_dir)`` that builds its inputs, a
``run(inputs)`` that is the timed pass, and a ``check(inputs, result)`` that
compares the output with a closed form and counts operations.  See README.md
for why each workload was chosen and what its gates mean.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Timed calls go through module attributes so the tracer's patches apply.
from beltrami_lab import cli, solver, verify
from beltrami_lab.dilatation import (
    MuSpec,
    solution_example3,
    solution_example4,
    truncate_mu,
)
from beltrami_lab.numerics import GridSpec, QuadratureConfig, QuadratureNonConvergence
from beltrami_lab.radial import (
    Example2Profile,
    example1_weight,
    kip_integral_image_route,
    power_weight,
)
from beltrami_lab.solver import SolveConfig, SolveNonConvergence

GRID_N = 512
ORACLE_RADIUS = 0.9
# Oracle gates: an operation whose error exceeds its gate fails.  Each gate
# sits a few times above the seed-state error, so a gross regression fails
# while the known discretization error (first order in dx) passes; the
# oracle_err metric and its bound catch smaller drifts.
SOLVE_GATE = 1e-2          # seed 2.5e-3
TRUNCATE_GATE = 1e-1       # seed 4.2e-2 at K=64
KIP_REL_GATE = 0.15        # seed 8.7% at K=64
# seed 6.8e-7 against a requested 1e-10: a known defect of lehto_integral
# past example1_weight's 4000-breakpoint cap, left visible in oracle_err.
SCAN_GATE = 1e-5
PROFILE_GATE = 1e-10       # seed 1.1e-15


@dataclass
class Check:
    """Oracle outcome of one pass.  ``oracle_err`` is the raw error; the
    reported metric is floored at ``floor``, the tolerance the library was
    asked for, because errors below it are rounding the library never
    promised and would move with any change of summation order."""

    oracle_err: float
    floor: float
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    kip_rel_err: float = 0.0
    digest: str = ""

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)


def _digest_files(out_dir: str, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _disk_mask(grid: GridSpec) -> np.ndarray:
    return np.abs(grid.zz()) <= ORACLE_RADIUS


def example1_lehto_exact(a: float, b: float) -> float:
    """Lehto integral of example1_weight(2) over [a, b] in closed form: on
    the annulus (1/(j+1), 1/j) the integrand is t for odd j (power branch)
    and 1/t for even j (unit branch)."""
    parts = []
    j = max(1, math.floor(1.0 / b))
    while True:
        lo, hi = 1.0 / (j + 1), 1.0 / j
        lo_c, hi_c = max(lo, a), min(hi, b)
        if hi_c > lo_c:
            parts.append(0.5 * (hi_c * hi_c - lo_c * lo_c) if j % 2
                         else math.log(hi_c / lo_c))
        if lo <= a:
            return math.fsum(parts)
        j += 1


def power_lehto_exact(a: float, b: float) -> float:
    """Lehto integral of power_weight(2): the integrand is t."""
    return 0.5 * (b * b - a * a)


# --------------------------------------------------------------------------
# solve-e3: CLI solve of example 3 at K = 10 on the 512^2 grid


def solve_setup(seed, out_dir):
    return {"out": out_dir, "argv": [
        "solve", "--mu", "example3", "--alpha", "0.5", "--k", "10",
        "--grid", str(GRID_N), "--out", out_dir]}


def cli_run(inp):
    return cli.main(inp["argv"])


def solve_check(inp, code) -> Check:
    chk = Check(oracle_err=math.inf, floor=0.0)
    ok = code == 0
    try:
        f = cli.read_field(os.path.join(inp["out"], "f.cfld"))
    except (OSError, ValueError):  # a missing dump or non-finite samples
        chk.op(False, f"solve: exit {code}, no readable f.cfld")
        return chk
    mask = _disk_mask(f.grid)
    exact = solution_example3(f.grid.zz()[mask], 0.5, 10.0)
    chk.oracle_err = float(np.max(np.abs(f.data[mask] - exact)))
    chk.op(ok and chk.oracle_err <= SOLVE_GATE,
           f"solve: exit {code}, oracle error {chk.oracle_err:.3e}")
    chk.digest = _digest_files(inp["out"], ("f.cfld", "mu.cfld"))
    return chk


def solve_probe_mu(inp):
    return truncate_mu(MuSpec.example3(0.5), 10.0).sample(GridSpec.square(GRID_N, 2.0))


# --------------------------------------------------------------------------
# truncate-e4: in-process truncation scheme for example 4, CLI defaults

K_SCHEDULE = (4.0, 8.0, 16.0, 32.0, 64.0)
ORDER_P = 1.5


def truncate_setup(seed, out_dir):
    return {
        "mu": MuSpec.example4(),
        "cfg": SolveConfig(GridSpec.square(GRID_N, 2.0)),
        "bound": math.pi + 2.0 * math.pi / (2.0 - ORDER_P),
    }


def truncate_run(inp):
    return solver.truncation_scheme(inp["mu"], K_SCHEDULE, ORDER_P, inp["cfg"],
                             bound_M=inp["bound"])


def truncate_check(inp, run) -> Check:
    chk = Check(oracle_err=math.inf, floor=0.0)
    h = hashlib.sha256()
    errs, rels = [], []
    for k, res, kip, ok in zip(K_SCHEDULE, run.per_k, run.KIp_integrals, run.bound_ok):
        mask = _disk_mask(res.f.grid)
        exact = solution_example4(res.f.grid.zz()[mask], k)
        err = float(np.max(np.abs(res.f.data[mask] - exact)))
        kip_exact = kip_integral_image_route(Example2Profile(2, math.sqrt(k)), ORDER_P)
        rel = abs(kip - kip_exact) / kip_exact
        errs.append(err)
        rels.append(rel)
        chk.op(ok and math.isfinite(kip) and err <= TRUNCATE_GATE and rel <= KIP_REL_GATE,
               f"K={k:g}: oracle error {err:.3e}, KIp rel error {rel:.3e}, bound ok {ok}")
        h.update(res.f.data.tobytes())
    h.update(repr((run.KIp_integrals, run.pairwise_sup_dist)).encode())
    chk.oracle_err = max(errs)
    chk.kip_rel_err = max(rels)
    chk.digest = h.hexdigest()
    return chk


def truncate_probe_mu(inp):
    return truncate_mu(inp["mu"], K_SCHEDULE[-1]).sample(inp["cfg"].grid)


# --------------------------------------------------------------------------
# scan-deep: divergence scans down to 2^-13 (2^-14 runs for minutes)

CUTOFFS = tuple(2.0 ** -j for j in range(2, 14))
SCAN_DELTA = 0.5


def scan_setup(seed, out_dir):
    return {"weights": (example1_weight(2), power_weight(2))}


def scan_run(inp):
    return [verify.lehto_divergence_scan(w, 0, SCAN_DELTA, CUTOFFS) for w in inp["weights"]]


def scan_check(inp, scans) -> Check:
    chk = Check(oracle_err=0.0, floor=QuadratureConfig().abs_tol)
    for scan, want, exact in zip(scans, ("divergent", "convergent"),
                                 (example1_lehto_exact, power_lehto_exact)):
        chk.op(scan.classification == want,
               f"scan: {scan.classification} where {want} is right "
               f"({scan.diagnostics})")
        bounds = [SCAN_DELTA, *CUTOFFS]
        got = [scan.values[0], *scan.increments] if scan.values else []
        for (hi, lo), value in zip(zip(bounds, bounds[1:]), got):
            err = abs(value - exact(lo, hi))
            chk.oracle_err = max(chk.oracle_err, err)
            chk.op(math.isfinite(value) and err <= SCAN_GATE,
                   f"segment [{lo:g}, {hi:g}]: error {err:.3e}")
    chk.digest = hashlib.sha256(
        repr([(s.values, s.classification) for s in scans]).encode()).hexdigest()
    return chk


# --------------------------------------------------------------------------
# profile-broad: CLI numeric radial profile with 500 random modulus checks


def profile_setup(seed, out_dir):
    return {"out": out_dir, "argv": [
        "radial", "--profile", "numeric", "--weight", "example1",
        "--pairs", "500", "--seed", str(seed), "--out", out_dir]}


def _read_csv(path):
    with open(path) as fh:
        next(fh)
        return [line.rstrip("\n").split(",") for line in fh]


def profile_check(inp, code) -> Check:
    # NumericProfile integrates at 1e-12 unless told otherwise
    chk = Check(oracle_err=0.0, floor=1e-12)
    chk.op(code == 0, f"radial: exit {code}")
    try:
        profile = _read_csv(os.path.join(inp["out"], "profile.csv"))
        checks = _read_csv(os.path.join(inp["out"], "poletsky.csv"))
    except OSError as exc:
        chk.op(False, f"radial: {exc}")
        return chk
    for r, rho, _ in profile:
        r, rho = float(r), float(rho)
        err = abs(rho - math.exp(-example1_lehto_exact(r, 1.0)))
        chk.oracle_err = max(chk.oracle_err, err)
        chk.op(math.isfinite(rho) and err <= PROFILE_GATE,
               f"rho({r:g}): error {err:.3e}")
    for r1, r2, *_, holds in checks:
        chk.op(holds == "true", f"modulus inequality fails on ({r1}, {r2})")
    chk.digest = _digest_files(inp["out"], ("profile.csv", "poletsky.csv"))
    return chk


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    probe_mu: object = None


WORKLOADS = {
    "solve-e3": Workload(solve_setup, cli_run, solve_check, solve_probe_mu),
    "truncate-e4": Workload(truncate_setup, truncate_run, truncate_check,
                            truncate_probe_mu),
    "scan-deep": Workload(scan_setup, scan_run, scan_check),
    "profile-broad": Workload(profile_setup, cli_run, profile_check),
}

# Failures a pass may raise, each counted as one failed operation: the typed
# non-convergence errors, and ValueError, which the library raises for
# non-finite results (e.g. a non-finite KIp integral or field sample).
# Anything else is a benchmark error and fails the run.
PASS_ERRORS = (SolveNonConvergence, QuadratureNonConvergence, ValueError)
