"""Command-line interface.

Subcommands
-----------
solve       principal solution for a named dilatation, field dumps + summary
truncate    truncation-scheme run over a K-cap schedule
holder      log-continuity scan of a named closed-form map
radial      radial profile table + modulus-inequality spot checks
dilatation  dilatation diagnostics: K sup, weight mass, integrability scan
report      merge the *.summary.json files in an output directory

Every run writes ``<command>.summary.json`` under --out.  CSV artifacts use
17 significant digits, '.' decimal separator, ',' field separator, and LF
line endings; CFLD field dumps are raw little-endian float64 pairs behind a
two-line ASCII header.  Reruns with identical flags and seed are
byte-identical (timings live only in the summary's "metrics" block).  The
JSON is strict: a non-finite float is written as null and listed in the
top-level "non_finite" map, from its JSON pointer to "nan", "inf" or
"-inf".  Exit status: 0 all checks passed, 1 a check failed, 2 invalid
config or runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dilatation import (
    FAMILIES,
    K_mu,
    MuSpec,
    check_level,
    check_radii,
    k_sup_probe,
    l1_norm,
    named_map,
    spherical_integrability_scan,
    truncate_mu,
)
from .numerics import ComplexField, GridSpec
from .radial import (
    Example2Profile,
    NumericProfile,
    check_order_p,
    example1_weight,
    inverse_poletsky_check,
    power_weight,
    unit_weight,
)
from .solver import (
    SolveConfig,
    SolveResult,
    check_k_schedule,
    observed_ratio,
    solve_principal,
    thread_count,
    truncation_scheme,
)
from .verify import HolderConfig, holder_scan

__all__ = ["main", "parse_config", "run_command", "dump_field", "read_field"]


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every bad field."""


# --weight names: weight in dimension n (the image weights are planar)
_WEIGHTS = {
    "unit": lambda n, alpha: unit_weight(n),
    "power": lambda n, alpha: power_weight(n),
    "example1": lambda n, alpha: example1_weight(n),
    **{
        f"{name}-image": (
            lambda n, alpha, fam=fam: fam.image_weight(fam.alpha_of(alpha))
        )
        for name, fam in FAMILIES.items()
    },
}

# radial --profile names: (profile from n, m and the weight, the weight's
# name, or None to take --weight, default power)
_PROFILES = {
    "identity": (lambda n, m, w: Example2Profile(n, 1.0), "unit"),
    "example2": (lambda n, m, w: Example2Profile(n, m), "power"),
    "example4-limit": (lambda n, m, w: Example2Profile(n, math.inf), "power"),
    "numeric": (lambda n, m, w: NumericProfile(w), None),
}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    if isinstance(x, (complex, np.complexfloating)):
        return "%.17g%+.17gj" % (x.real, x.imag)
    return str(x)


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def dump_field(fld: ComplexField, path: str) -> None:
    """Write the CFLD format: magic line, one ASCII header line
    'nx ny x0 y0 dx dy', then nx*ny little-endian float64 (re, im) pairs,
    row-major with y as the outer index."""
    g = fld.grid
    header = "CFLD1\n" + "%d %d %.17g %.17g %.17g %.17g\n" % (
        g.nx, g.ny, g.x_min, g.y_min, g.dx, g.dy,
    )
    payload = np.empty((g.ny, g.nx, 2), dtype="<f8")
    payload[:, :, 0] = fld.data.real
    payload[:, :, 1] = fld.data.imag
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(payload.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write field dump {path!r}: {exc}") from exc


def read_field(path: str) -> ComplexField:
    try:
        with open(path, "rb") as fh:
            magic = fh.readline()
            if magic != b"CFLD1\n":
                raise ValueError(f"{path!r} is not a CFLD file")
            parts = fh.readline().split()
            if len(parts) != 6:
                raise ValueError(f"{path!r}: malformed CFLD header")
            nx, ny = int(parts[0]), int(parts[1])
            x0, y0, dx, dy = (float(p) for p in parts[2:])
            raw = np.frombuffer(fh.read(), dtype="<f8")
    except OSError as exc:
        raise OSError(f"cannot read field dump {path!r}: {exc}") from exc
    if raw.size != nx * ny * 2:
        raise ValueError(f"{path!r}: payload size mismatch")
    pairs = raw.reshape(ny, nx, 2)
    grid = GridSpec(nx=nx, ny=ny, x_min=x0, y_min=y0, dx=dx, dy=dy)
    return ComplexField(grid, pairs[:, :, 0] + 1j * pairs[:, :, 1])


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="beltrami-lab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", dest="out_dir", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="JSON file mirroring flags")

    def field(p, mu):
        p.add_argument("--mu", default=mu,
                       help="const:C, " + ", ".join(FAMILIES) + ", or grid:FILE.cfld")
        p.add_argument("--alpha", type=float, default=0.5)

    def solver(p):
        defaults = SolveConfig()
        p.add_argument("--grid", type=int, default=512, dest="grid_n")
        p.add_argument("--half-width", type=float, default=2.0)
        p.add_argument("--tol", type=float, default=defaults.fix_tol, dest="fix_tol",
                       help="relative bound on the remaining iteration error of h")
        p.add_argument("--max-iter", type=int, default=defaults.max_iter)

    weight_help = "auto, none, or one of: " + ", ".join(sorted(_WEIGHTS))

    ps = sub.add_parser("solve", help="principal solution for a dilatation")
    field(ps, "const:0.3")
    ps.add_argument("--k", type=float, default=None, help="truncation level")
    solver(ps)
    ps.add_argument("--no-dump", action="store_false", dest="dump_fields")
    common(ps)

    pt = sub.add_parser("truncate", help="truncation scheme over a K-cap schedule")
    field(pt, "example4")
    pt.add_argument("--p", type=float, default=1.5, dest="order_p")
    pt.add_argument("--k", default="4,8,16,32,64", dest="k_schedule",
                    help="comma-separated caps")
    pt.add_argument("--bound", default="auto",
                    help="'auto' (pi + 2pi/(2-p); no check at p = 2), 'none', "
                         "or a number")
    solver(pt)
    common(pt)

    ph = sub.add_parser("holder", help="log-continuity scan of a closed-form map")
    ph.add_argument("--map", default="example3", dest="map_name",
                    choices=["identity", *FAMILIES, "example2"])
    ph.add_argument("--alpha", type=float, default=0.5)
    ph.add_argument("--k", type=float, default=None)
    ph.add_argument("--m", type=float, default=2.0)
    ph.add_argument("--pairs", type=int, default=2000)
    ph.add_argument("--scales", default="3:14", dest="scale_range", metavar="LO:HI",
                    help="dyadic exponent range lo:hi, scales 2^-lo .. 2^-hi")
    ph.add_argument("--compact-radius", type=float, default=0.75)
    ph.add_argument("--weight", default="auto", help=weight_help)
    common(ph)

    pr = sub.add_parser("radial", help="profile table and modulus spot checks")
    pr.add_argument("--profile", default="example2", choices=list(_PROFILES))
    pr.add_argument("--n", type=int, default=2)
    pr.add_argument("--m", type=float, default=2.0)
    pr.add_argument("--weight", default=None,
                    help="weight of the numeric profile (default power), one of: "
                         + ", ".join(sorted(_WEIGHTS)))
    pr.add_argument("--alpha", type=float, default=0.5)
    pr.add_argument("--pairs", type=int, default=20, help="random radius pairs")
    common(pr)

    pd = sub.add_parser("dilatation", help="dilatation diagnostics")
    field(pd, "example3")
    pd.add_argument("--k", type=float, default=None)
    pd.add_argument("--weight", default="auto", help=weight_help)
    pd.add_argument("--scan-radii", default="",
                    help="comma-separated radii for the integrability scan")
    common(pd)

    pp = sub.add_parser("report", help="merge summaries in an output directory")
    common(pp)
    return top


def _inject_config_file(argv: list) -> list:
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    path = argv[idx + 1]
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    extra: list[str] = []
    for key, val in sorted(data.items()):
        if key == "command":
            continue
        flag = "--" + str(key).replace("_", "-")
        if isinstance(val, bool):
            if val:
                extra.append(flag)
        elif isinstance(val, (list, tuple)):
            extra.extend([flag, ",".join(str(v) for v in val)])
        else:
            extra.extend([flag, str(val)])
    # file values come first so explicit argv flags win
    return argv[:1] + extra + argv[1:]


def _numbers(text: str) -> tuple:
    return tuple(float(s) for s in text.split(",") if s.strip())


def _scale_range(text: str) -> tuple:
    lo, hi = (int(s) for s in text.split(":"))
    return lo, hi


def _parse_mu(text: str, alpha: float) -> MuSpec:
    if text.startswith("const:"):
        return MuSpec.constant(complex(text[6:]))
    if text.startswith("grid:"):
        return MuSpec.from_grid(read_field(text[5:]))
    return MuSpec.family(text, alpha)


def _weight(name: str, n: int, alpha: float, family: str | None = None):
    """--weight: a name of _WEIGHTS, or, given the run's map or field, 'none'
    or 'auto' (the image weight of a table family, else no weight)."""
    if family is not None and name in ("auto", "none"):
        auto = name == "auto" and family in FAMILIES
        return _WEIGHTS[f"{family}-image"](n, alpha) if auto else None
    if name not in _WEIGHTS:
        raise ValueError(f"unknown weight {name!r}")
    return _WEIGHTS[name](n, alpha)


def _not_nan(x: float) -> float:
    if math.isnan(x):
        raise ValueError("must be a number, not nan")
    return x


def _kip_bound(text: str, order_p: float) -> float | None:
    """--bound: a number, 'none', or 'auto', the bound pi + 2 pi/(2 - p),
    which is finite only for p < 2 (no check at p = 2)."""
    if text == "auto":
        return math.pi + 2.0 * math.pi / (2.0 - order_p) if order_p < 2.0 else None
    return None if text == "none" else _not_nan(float(text))


def _solve_config(n=512, half_width=2.0, **fields) -> SolveConfig:
    return SolveConfig(GridSpec.square(n, half_width), **fields)


def _each_then_all(check, build, fields: dict):
    """build(**values) from fields {flag: (keyword, value)}.  Each flag is
    checked on its own first, the other keywords at build's defaults, and
    the flags are named together only when their joint rule fails."""
    alone = [check(flag, build, **{key: value}) for flag, (key, value) in fields.items()]
    if all(obj is not None for obj in alone):
        return check("/".join(fields), build, **dict(fields.values()))
    return None


def parse_config(argv: list) -> argparse.Namespace:
    """Parse argv (after the program name) into the subcommand's flags plus,
    under ``objects``, the library objects its run uses.

    Each flag is checked by the library rule that consumes it, and every
    invalid flag is reported, tagged with its name, in a single ConfigError."""
    cfg = _build_parser().parse_args(_inject_config_file(list(argv)))
    cmd, obj, errors = cfg.command, {}, []

    def check(flag, build, *args, **kwargs):
        try:
            return build(*args, **kwargs)
        except (ValueError, OSError) as exc:
            errors.append(f"{flag}: {exc}")
        except ArithmeticError as exc:  # e.g. a weight overflowing at a profile node
            errors.append(f"{flag}: {exc!r}")
        return None

    if cmd in ("solve", "truncate", "dilatation"):
        obj["spec"] = check("--mu/--alpha", _parse_mu, cfg.mu, cfg.alpha)
    if cmd in ("solve", "dilatation") and cfg.k is not None:
        if check("--k", check_level, cfg.k) and obj["spec"] is not None:
            obj["spec"] = truncate_mu(obj["spec"], cfg.k)
    if cmd in ("solve", "truncate"):
        obj["solve_cfg"] = _each_then_all(check, _solve_config, {
            "--grid": ("n", cfg.grid_n),
            "--half-width": ("half_width", cfg.half_width),
            "--tol": ("fix_tol", cfg.fix_tol),
            "--max-iter": ("max_iter", cfg.max_iter),
        })
    if cmd == "truncate":
        cfg.k_schedule = check("--k", lambda: check_k_schedule(_numbers(cfg.k_schedule)))
        check("--p", check_order_p, cfg.order_p)
        obj["bound_M"] = check("--bound", _kip_bound, cfg.bound, cfg.order_p)
    if cmd == "holder":
        obj["fmap"] = _each_then_all(check, functools.partial(named_map, cfg.map_name), {
            "--alpha": ("alpha", cfg.alpha), "--k": ("k", cfg.k), "--m": ("m", cfg.m),
        })
        cfg.scale_range = check("--scales", _scale_range, cfg.scale_range)
        if cfg.scale_range:
            lo, hi = cfg.scale_range
            obj["holder_cfg"] = _each_then_all(check, HolderConfig, {
                "--compact-radius": ("compact_radius", cfg.compact_radius),
                "--scales": ("dyadic_scales", tuple(2.0**-j for j in range(lo, hi + 1))),
                "--pairs": ("pairs_per_scale", cfg.pairs),
                "--seed": ("seed", cfg.seed),
            })
        obj["weight"] = check("--weight", _weight, cfg.weight, 2, cfg.alpha, cfg.map_name)
    if cmd == "radial":
        make, weight_name = _PROFILES[cfg.profile]
        if cfg.pairs < 1:
            errors.append("--pairs: must be >= 1")
        if cfg.profile == "example2":
            check("--m", Example2Profile, 2, cfg.m)
        if weight_name and cfg.weight is not None:
            errors.append(f"--weight: profile {cfg.profile!r} takes the {weight_name} weight")
        if check("--n", unit_weight, cfg.n):
            obj["weight"] = check("--weight", _weight, weight_name or cfg.weight or "power",
                                  cfg.n, cfg.alpha)
        if not errors:
            obj["profile"] = check("--weight", make, cfg.n, cfg.m, obj["weight"])
    if cmd == "dilatation":
        radii = check("--scan-radii", _numbers, cfg.scan_radii)
        cfg.scan_radii = check("--scan-radii", check_radii, radii) if radii else ()
        obj["weight"] = check("--weight", _weight, cfg.weight, 2, cfg.alpha, cfg.mu)
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    cfg.objects = obj
    return cfg


def _non_finite_as_null(obj, pointer: str, non_finite: dict):
    """obj with every non-finite float replaced by None and recorded in
    non_finite under its JSON pointer."""
    if isinstance(obj, dict):
        return {
            k: _non_finite_as_null(
                v, pointer + "/" + str(k).replace("~", "~0").replace("/", "~1"),
                non_finite,
            )
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_non_finite_as_null(v, f"{pointer}/{i}", non_finite)
                for i, v in enumerate(obj)]
    if isinstance(obj, float) and not math.isfinite(obj):
        non_finite[pointer] = "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
        return None
    return obj


def _write_json(path: str, doc: dict, non_finite: dict | None = None) -> None:
    """Strict JSON: each non-finite float is written as null and listed in
    the top-level "non_finite" map, JSON pointer -> "nan", "inf" or "-inf"."""
    non_finite = dict(non_finite or {})
    doc = _non_finite_as_null(doc, "", non_finite)
    doc["non_finite"] = non_finite
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_summary(cfg, results: dict, checks: dict, error: str | None = None,
                   metrics: dict | None = None) -> str:
    import scipy

    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{cfg.command}.summary.json")
    doc = {
        "command": cfg.command,
        "results": results,
        "checks": checks,
        "provenance": {
            "package": "beltrami-lab",
            "version": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            # the subcommand's own flags
            "config_echo": {k: v for k, v in vars(cfg).items() if k != "objects"},
            "checks_run": sorted(checks),
        },
    }
    if metrics:
        doc["metrics"] = metrics
    if error is not None:
        doc["error"] = error
    _write_json(path, doc)
    return path


def _check(passed, value, threshold=None) -> dict:
    return {"passed": bool(passed), "value": value, "threshold": threshold}


def _solve_metrics(res: SolveResult) -> dict:
    """The fixed point's update history, how many of its updates ran in
    complex64, its observed contraction ratio next to the sup |mu| that
    bounds it, its torus side, the solve's FFT pairs by precision and the
    seconds of each phase of the solve."""
    return {
        "updates": list(res.updates),
        "complex64_iterations": res.complex64_iterations,
        "observed_ratio": observed_ratio(res.updates),
        "sup_mu": res.sup_mu,
        "torus_side": res.torus_side,
        "fft_pairs": res.fft_pairs,
        "phase_seconds": dict(res.phase_seconds),
    }


def _cmd_solve(cfg, spec: MuSpec, solve_cfg: SolveConfig) -> tuple[dict, dict]:
    res = solve_principal(spec, solve_cfg)
    rep = res.residual
    metrics = {**_solve_metrics(res), "threads": thread_count(),
               "solve_seconds": res.solve_seconds}
    sup_mu = metrics["sup_mu"]
    threshold = K_mu(sup_mu) * res.f.grid.dx
    results = {
        "iterations": res.iterations,
        "final_update_l2": res.updates[-1],
        "residual_linf": rep.linf,
        "residual_l2": rep.l2,
        "worst_point": [rep.worst_point.real, rep.worst_point.imag],
        "sup_mu_sampled": sup_mu,
    }
    checks = {"residual_below_tol": _check(rep.linf <= threshold, rep.linf, threshold)}
    if cfg.dump_fields:
        dump_field(res.f, os.path.join(cfg.out_dir, "f.cfld"))
        dump_field(res.mu_field, os.path.join(cfg.out_dir, "mu.cfld"))
    results["metrics"] = metrics
    return results, checks


def _cmd_truncate(cfg, spec: MuSpec, solve_cfg: SolveConfig,
                  bound_M: float | None) -> tuple[dict, dict]:
    run = truncation_scheme(spec, cfg.k_schedule, cfg.order_p, solve_cfg,
                            bound_M=bound_M)
    rows = []
    for i, (k, res) in enumerate(zip(cfg.k_schedule, run.per_k)):
        rows.append((
            k,
            res.iterations,
            res.residual.linf,
            run.KIp_integrals[i],
            run.bound_ok[i] if run.bound_ok else "",
            run.pairwise_sup_dist[i - 1] if i > 0 else "",
        ))
    write_csv(
        os.path.join(cfg.out_dir, "truncate.csv"),
        ("k", "iterations", "residual_linf", "kip_integral", "bound_ok",
         "dist_from_previous"),
        rows,
    )
    results = {
        "k_schedule": list(cfg.k_schedule),
        "order_p": cfg.order_p,
        "KIp_integrals": list(run.KIp_integrals),
        "pairwise_sup_dist": list(run.pairwise_sup_dist),
        "bound_M": bound_M,
    }
    checks = {}
    if run.bound_ok is not None:
        checks["kip_below_bound"] = _check(all(run.bound_ok), max(run.KIp_integrals),
                                           bound_M)
    results["metrics"] = {"levels": [_solve_metrics(res) for res in run.per_k],
                          "threads": thread_count()}
    return results, checks


def _cmd_holder(cfg, fmap: tuple, holder_cfg: HolderConfig, weight) -> tuple[dict, dict]:
    f, branch = fmap
    q_l1 = l1_norm(weight).value if weight is not None else math.nan
    rep = holder_scan(f, holder_cfg, q_l1, branch)
    write_csv(
        os.path.join(cfg.out_dir, "holder.csv"),
        ("scale", "max_product"),
        list(zip(holder_cfg.dyadic_scales, rep.per_scale_max_product)),
    )
    results = {
        "per_scale_max_product": list(rep.per_scale_max_product),
        "empirical_C": rep.empirical_C,
        "q_l1": q_l1,
        "bounded": rep.bounded_flag,
    }
    checks = {"products_bounded": _check(rep.bounded_flag, max(rep.per_scale_max_product))}
    return results, checks


def _cmd_radial(cfg, profile, weight) -> tuple[dict, dict]:
    radii = np.linspace(0.01, 1.0, 100)
    rows = []
    for r in radii:
        rows.append((float(r), profile.value(float(r)), profile.derivative(float(r))))
    write_csv(os.path.join(cfg.out_dir, "profile.csv"),
              ("r", "rho", "rho_prime"), rows)
    rng = np.random.default_rng(cfg.seed)
    checks_rows = []
    all_hold = True
    # Image radii must lie in the range the profile inverts: r1 in
    # [rho(0.05) + 0.02, 0.9], r2 at least `gap` above it.  A profile too
    # flat for that draws from its own range floor up, with a narrower gap.
    lo = max(0.05, profile.value(0.05) + 0.02)
    if lo > 0.85:
        lo = max(0.85, profile.range_floor())
    gap = min(0.05, 0.5 * (1.0 - lo))
    hi = max(0.9, 0.5 * (lo + 1.0 - gap))
    for _ in range(cfg.pairs):
        r1 = float(rng.uniform(lo, hi))
        r2 = float(rng.uniform(r1 + gap, 1.0))
        rep = inverse_poletsky_check(profile, weight, r1, r2)
        all_hold &= rep.holds
        checks_rows.append((r1, r2, rep.lhs, rep.rhs, rep.holds))
    write_csv(os.path.join(cfg.out_dir, "poletsky.csv"),
              ("r1", "r2", "lhs", "rhs", "holds"), checks_rows)
    results = {
        "profile": cfg.profile,
        "n": cfg.n,
        "pairs": cfg.pairs,
        "rho_at_half": profile.value(0.5),
    }
    return results, {"modulus_inequality": _check(all_hold, cfg.pairs)}


def _cmd_dilatation(cfg, spec: MuSpec, weight) -> tuple[dict, dict]:
    results = {
        "kind": spec.kind,
        "k_cap": spec.k_cap,
        "k_sup_probe": k_sup_probe(spec),
        "ess_sup_mu": spec.sup_abs_bound(),
    }
    if weight is not None:
        l1 = l1_norm(weight)
        results.update(l1_value=l1.value, l1_divergent=l1.divergent, l1_partial=l1.partial)
        if cfg.scan_radii:
            scan = spherical_integrability_scan(weight, None, cfg.scan_radii)
            write_csv(
                os.path.join(cfg.out_dir, "scan.csv"),
                ("radius", "spherical_mean", "finite"),
                list(zip(scan.radii, scan.means, scan.finite)),
            )
            results["finite_measure_estimate"] = scan.finite_measure_estimate
    return results, {}


def _cmd_report(cfg) -> tuple[dict, dict]:
    merged, checks, non_finite = {}, {}, {}
    try:
        names = sorted(os.listdir(cfg.out_dir))
    except OSError as exc:
        raise ConfigError(f"cannot list output directory {cfg.out_dir!r}: {exc}")
    for name in names:
        if not name.endswith(".summary.json") or name == "report.summary.json":
            continue
        with open(os.path.join(cfg.out_dir, name)) as fh:
            doc = json.load(fh)
        cmd = doc.get("command", name)
        merged[cmd] = doc.get("results", {})
        for cname, c in doc.get("checks", {}).items():
            checks[f"{cmd}.{cname}"] = c
        # the values written as null keep their flags, at their merged place
        for pointer, kind in doc.get("non_finite", {}).items():
            top, _, rest = pointer[1:].partition("/")
            if top == "results":
                non_finite[f"/merged/{cmd}/{rest}"] = kind
            elif top == "checks":
                non_finite[f"/checks/{cmd}.{rest}"] = kind
    _write_json(os.path.join(cfg.out_dir, "report.json"),
                {"merged": merged, "checks": checks}, non_finite)
    return {"merged_commands": sorted(merged)}, checks


_COMMANDS = {
    "solve": _cmd_solve,
    "truncate": _cmd_truncate,
    "holder": _cmd_holder,
    "radial": _cmd_radial,
    "dilatation": _cmd_dilatation,
    "report": _cmd_report,
}


def run_command(cfg: argparse.Namespace) -> int:
    """Execute a config from parse_config; returns the process exit status
    and always leaves a summary JSON in the output directory."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        results, checks = _COMMANDS[cfg.command](cfg, **cfg.objects)
    except Exception as exc:  # noqa: BLE001 - surfaced in the summary
        error = str(exc) if isinstance(exc, ConfigError) else f"{type(exc).__name__}: {exc}"
        # best effort: the output directory itself may be what is broken
        with contextlib.suppress(OSError):
            _write_summary(cfg, {}, {}, error=error)
        print(f"error: {error}", file=sys.stderr)
        return 2
    path = _write_summary(cfg, results, checks, metrics=results.pop("metrics", None))
    failed = [name for name, c in checks.items() if not c.get("passed", True)]
    for name, c in sorted(checks.items()):
        status = "PASS" if c.get("passed", True) else "FAIL"
        print(f"{status} {name}: value={c.get('value')} threshold={c.get('threshold')}")
    print(f"summary: {path}")
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return run_command(cfg)


if __name__ == "__main__":
    sys.exit(main())
