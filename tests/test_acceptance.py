"""End-to-end acceptance checks, one per release criterion.

Each test prints a single pass/fail line with the measured values, then
asserts.  Run with -s (or read the captured output) to see the lines.
"""

import math
import os

import numpy as np
import pytest

from beltrami_lab.cli import main
from beltrami_lab.dilatation import (
    FAMILIES,
    K_mu,
    MuSpec,
    l1_norm,
    named_map,
    solution_example3,
    solution_example4,
    truncate_mu,
)
from beltrami_lab.numerics import (
    ComplexField,
    GridSpec,
    wirtinger_at_point,
    wirtinger_derivatives,
)
from beltrami_lab.radial import (
    Example2Profile,
    InverseProfile,
    NumericProfile,
    example1_weight,
    inverse_poletsky_check,
    kip_integral_image_route,
    kip_integral_source_route,
    power_weight,
    truncated_power_weight,
    unit_weight,
)
from beltrami_lab.solver import beurling_norm_estimate, beurling_transform
from beltrami_lab.verify import holder_scan, lehto_divergence_scan

E3 = FAMILIES["example3"]
E4 = FAMILIES["example4"]


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


class TestAcceptance:
    def test_01_constant_dilatation_oracle(self, const_mu_solve_512):
        res = const_mu_solve_512
        zz = res.f.grid.zz()
        mask = np.abs(zz) <= 0.8
        err = float(np.max(np.abs(res.f.data - (zz + 0.3 * np.conj(zz)))[mask]))
        ok = err <= 5e-3 and res.solve_seconds <= 30.0
        assert _report(
            1, ok,
            f"mu=0.3 at 512^2, sup|f-(z+0.3 zbar)| on |z|<=0.8 is {err:.3e} "
            f"(tol 5e-3), solve took {res.solve_seconds:.2f}s (max 30s)",
        )

    def test_02_dilatation_recovery_after_truncation(self, example3_k10_solve_512):
        res = example3_k10_solve_512
        g = res.f.grid
        zz = g.zz()
        mask = (np.abs(zz) <= 0.9) & (np.abs(np.abs(zz) - 0.625) > 2.0 * g.dx)
        fz, fzb = wirtinger_derivatives(res.f)
        mu_fd = fzb.data[mask] / fz.data[mask]
        mu_exact = truncate_mu(MuSpec.example3(0.5), 10.0).mu(zz[mask])
        err = float(np.max(np.abs(mu_fd - mu_exact)))
        ok = err <= 5e-2
        assert _report(
            2, ok,
            f"annulus map truncated at K=10, finite-difference dilatation "
            f"sup error {err:.3e} on |z|<=0.9 off the jump band (tol 5e-2)",
        )

    def test_03_inner_dilatation_integral_bounded(self):
        # the inverse of the truncated log-stretch map at cap k is the
        # piecewise-linear profile with slope sqrt(k); both integral routes
        # must agree and stay under pi + 2 pi/(2-p) = 5 pi with 1% margin
        bound = math.pi + 2.0 * math.pi / (2.0 - 1.5)
        details = []
        ok = True
        for k in (4.0, 16.0, 64.0):
            m = math.sqrt(k)
            g_prof = Example2Profile(2, m)
            for s in (0.1, 1.0 / m, 0.7, 0.95, 1.0):
                assert abs(g_prof.value(s) - abs(E4.inverse(s, None, k))) < 1e-12
            image = kip_integral_image_route(g_prof, 1.5)
            source = kip_integral_source_route(InverseProfile(g_prof), 1.5)
            rel = abs(image - source) / image
            ok &= rel <= 1e-3 and image <= 0.99 * bound and source <= 0.99 * bound
            details.append(f"k={k:g}: {image:.4f}")
        assert _report(
            3, ok,
            "integral of order-1.5 inner dilatation of the inverse map, "
            + ", ".join(details)
            + f", routes agree to 1e-3, all <= 0.99*5pi = {0.99 * bound:.4f}",
        )

    def test_04_closed_form_dilatation_identities(self):
        rng = np.random.default_rng(0)
        errs3 = []
        for _ in range(50):
            z0 = complex(rng.uniform(0.52, 0.98) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            fz, fzb = wirtinger_at_point(lambda z: solution_example3(z, 0.5), z0)
            errs3.append(abs(fzb / fz - E3.mu(z0, 0.5)))
        errs4 = []
        inner = math.exp(-0.5)
        for _ in range(50):
            z0 = complex(
                rng.uniform(inner + 0.02, 0.98) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            )
            fz, fzb = wirtinger_at_point(solution_example4, z0)
            errs4.append(abs(fzb / fz - E4.mu(z0, None)))
        k3 = K_mu(E3.mu(0.75 * np.exp(0.3j), 0.5))
        k4 = K_mu(E4.mu(math.exp(-0.25) * np.exp(1.1j), None))
        ok = (
            max(errs3) <= 1e-6
            and max(errs4) <= 1e-6
            and abs(k3 - 6.0) <= 1e-8
            and abs(k4 - 2.0) <= 1e-8
        )
        assert _report(
            4, ok,
            f"finite-difference dilatation of the closed-form maps: annulus "
            f"{max(errs3):.2e}, log-stretch {max(errs4):.2e} at 50 probes each "
            f"(tol 1e-6); K values {k3:.9f} (want 6) and {k4:.9f} (want 2)",
        )

    def test_05_numeric_profile_matches_closed_form(self):
        worst_profile = 0.0
        for n in (2, 3, 5):
            numeric = NumericProfile(power_weight(n))
            closed = Example2Profile(n, math.inf)
            for r in np.linspace(0.05, 1.0, 40):
                worst_profile = max(
                    worst_profile, abs(numeric.value(float(r)) - closed.value(float(r)))
                )
        rng = np.random.default_rng(1)
        worst_trip = 0.0
        for n in (2, 3, 5):
            for m in (1.0, 2.0, 5.0):
                prof = Example2Profile(n, m)
                for r in rng.uniform(0.01, 1.0, size=100):
                    r = float(r)
                    worst_trip = max(worst_trip, abs(prof.inverse(prof.value(r)) - r))
        ok = worst_profile <= 1e-8 and worst_trip <= 1e-10
        assert _report(
            5, ok,
            f"numeric profile from q=t^-n vs closed form, sup {worst_profile:.2e} "
            f"for n in (2,3,5) (tol 1e-8); inverse round trip {worst_trip:.2e} "
            f"at 100 points per (n,m) (tol 1e-10)",
        )

    def test_06_modulus_inequality_on_ring_preimages(self):
        registry = [
            (Example2Profile(2, 1.0), unit_weight(2)),
            (Example2Profile(2, math.inf), power_weight(2)),
            (Example2Profile(2, 2.0), truncated_power_weight(2, 2.0)),
            (Example2Profile(3, math.inf), power_weight(3)),
        ]
        rng = np.random.default_rng(2)
        all_hold = True
        for profile, weight in registry:
            lo = profile.range_floor() + 0.02
            for _ in range(20):
                r1 = float(rng.uniform(lo, 0.9))
                r2 = float(rng.uniform(r1 + 0.02, 1.0))
                all_hold &= inverse_poletsky_check(profile, weight, r1, r2).holds
        ident = inverse_poletsky_check(Example2Profile(2, 1.0), unit_weight(2), 0.3, 0.8)
        equality = abs(ident.lhs - ident.rhs) <= 1e-12 * ident.rhs
        worked = inverse_poletsky_check(Example2Profile(2, math.inf), power_weight(2), 0.9, 1.0)
        s1 = math.sqrt(1.0 + 2.0 * math.log(0.9))
        lhs_want = 2.0 * math.pi / math.log(1.0 / s1)
        rhs_want = 2.0 * math.pi / ((1.0 - 0.81) / 2.0)
        worked_ok = (
            worked.holds
            and abs(worked.lhs - lhs_want) <= 1e-9 * lhs_want
            and abs(worked.rhs - rhs_want) <= 1e-9 * rhs_want
        )
        ok = all_hold and equality and worked_ok
        assert _report(
            6, ok,
            f"modulus inequality holds at 20 random pairs per profile; identity "
            f"case is equality to 1e-12; worked pair lhs {worked.lhs:.2f} <= "
            f"rhs {worked.rhs:.2f} (want 53.09 <= 66.14)",
        )

    def test_07_divergence_facts_of_alternating_weight(self):
        w = example1_weight(2)
        rep = l1_norm(w)
        harmonic_bound = 0.0
        shells_ok = True
        for (lo, hi), val in zip(rep.shell_edges, rep.shell_values):
            if w.q(0.5 * (lo + hi)) > 1.5:  # power-branch shell
                k = round(1.0 / (2.0 * lo))
                harmonic_bound += math.pi / (2.0 * k)
                shells_ok &= val > math.pi / (2.0 * k)
        cuts = tuple(2.0**-j for j in range(2, 10))
        scan_alt = lehto_divergence_scan(w, 0.0, 0.5, cuts)
        scan_pow = lehto_divergence_scan(power_weight(2), 0.0, 0.5, cuts)
        ok = (
            rep.divergent
            and shells_ok
            and rep.partial > harmonic_bound
            and scan_alt.classification == "divergent"
            and scan_pow.classification == "convergent"
        )
        assert _report(
            7, ok,
            f"alternating weight: mass divergent with partial {rep.partial:.2f} "
            f"above the harmonic comparison {harmonic_bound:.2f} and every power "
            f"shell above pi/(2k); degeneracy integral scans "
            f"{scan_alt.classification} (want divergent) vs "
            f"{scan_pow.classification} for q=1/|y|^2 (want convergent)",
        )

    def test_08_log_continuity_scan_bounded(self):
        f3, branch = named_map("example3", alpha=0.5)
        rep3 = holder_scan(f3, branch_radii=branch)
        ident = holder_scan(lambda z: np.asarray(z), q_l1=4.0)
        decay = ident.per_scale_max_product[-1] < ident.per_scale_max_product[0] / 100.0
        doubled = holder_scan(lambda z: 2.0 * np.asarray(z), q_l1=4.0)
        covariant = doubled.empirical_C == 2.0 * ident.empirical_C
        ok = rep3.bounded_flag and decay and covariant
        assert _report(
            8, ok,
            f"degenerate annulus map products bounded over scales 2^-3..2^-14 "
            f"(max {max(rep3.per_scale_max_product):.4f}); identity maxima decay "
            f"{ident.per_scale_max_product[0]:.3e} -> "
            f"{ident.per_scale_max_product[-1]:.3e}; doubling the map exactly "
            f"doubles the empirical constant",
        )

    def test_09_transform_contracts(self):
        g = GridSpec.square(512, 2.0)
        zz = g.zz()
        bump = np.exp(-4.0 * np.abs(zz) ** 2)
        dbar = (1.0 - 4.0 * np.abs(zz) ** 2) * bump
        dz = -4.0 * np.conj(zz) ** 2 * bump
        out = beurling_transform(ComplexField(g, dbar))
        mask = np.abs(zz) <= 1.0
        err = float(np.max(np.abs(out.data - dz)[mask]))
        norm = beurling_norm_estimate()
        ok = err <= 1e-3 and norm <= 1.0 + 1e-6
        assert _report(
            9, ok,
            f"derivative intertwining on the Gaussian field at 512^2: sup error "
            f"{err:.2e} on the disk (tol 1e-3); L2 operator norm estimate "
            f"{norm:.8f} <= 1 + 1e-6",
        )

    def test_10_cli_runs_are_reproducible(self, tmp_path):
        plans = [
            ["solve", "--mu", "const:0.3", "--grid", "64", "--seed", "3"],
            ["holder", "--map", "identity", "--pairs", "60", "--scales", "3:9",
             "--seed", "3"],
            ["radial", "--profile", "example2", "--m", "4", "--pairs", "6",
             "--seed", "3"],
        ]
        identical = True
        compared = 0
        for plan in plans:
            out_a = str(tmp_path / (plan[0] + "_a"))
            out_b = str(tmp_path / (plan[0] + "_b"))
            assert main(plan + ["--out", out_a]) == 0
            assert main(plan + ["--out", out_b]) == 0
            for name in sorted(os.listdir(out_a)):
                if not (name.endswith(".cfld") or name.endswith(".csv")):
                    continue
                with open(os.path.join(out_a, name), "rb") as fh:
                    blob_a = fh.read()
                with open(os.path.join(out_b, name), "rb") as fh:
                    blob_b = fh.read()
                identical &= blob_a == blob_b
                compared += 1
        ok = identical and compared >= 5
        assert _report(
            10, ok,
            f"repeated CLI runs (solve, holder, radial) with fixed seeds produced "
            f"byte-identical outputs across {compared} CSV/CFLD files",
        )
