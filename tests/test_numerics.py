import ast
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_lab import numerics
from beltrami_lab.numerics import (
    ComplexField,
    GridSpec,
    IntegrandNonFinite,
    QuadratureConfig,
    QuadratureNonConvergence,
    adaptive_integral_1d,
    bilinear,
    unit_sphere_area,
    wirtinger_at_point,
    wirtinger_derivatives,
)


class TestGridSpec:
    def test_square_geometry(self):
        g = GridSpec.square(512, 2.0)
        assert g.nx == g.ny == 512
        assert g.x_min == g.y_min == -2.0
        assert g.dx == g.dy == pytest.approx(4.0 / 511, rel=1e-15)
        assert g.x_max == pytest.approx(2.0, abs=1e-13)
        assert g.cell_area == pytest.approx(g.dx * g.dy)
        zz = g.zz()
        assert zz.shape == (512, 512)
        assert zz[0, 0] == pytest.approx(-2.0 - 2.0j)

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_too_small_rejected(self, n):
        with pytest.raises(ValueError):
            GridSpec.square(n)

    def test_bad_half_width(self):
        with pytest.raises(ValueError):
            GridSpec.square(64, -1.0)


class TestComplexField:
    def test_shape_mismatch(self):
        g = GridSpec.square(16)
        with pytest.raises(ValueError):
            ComplexField(g, np.zeros((8, 16)))

    def test_nonfinite_rejected(self):
        g = GridSpec.square(16)
        data = np.zeros((16, 16), dtype=complex)
        data[3, 3] = np.inf
        with pytest.raises(ValueError):
            ComplexField(g, data)


class TestBilinear:
    def test_exact_off_the_nodes_and_clamped_outside(self):
        # a non-square, off-centre grid with dx != dy, so that a mix-up of
        # the x and y weights shows
        g = GridSpec(nx=40, ny=24, x_min=-1.3, y_min=-0.7, dx=0.07, dy=0.06)

        def f(z):
            x, y = z.real, z.imag
            return (0.3 - 0.2j) + (1.1 + 0.4j) * x + (-0.7 + 0.9j) * y + (0.5 - 1.2j) * x * y

        field = ComplexField(g, f(g.zz()))
        rng = np.random.default_rng(5)
        pts = rng.uniform(g.x_min, g.x_max, 500) + 1j * rng.uniform(g.y_min, g.y_max, 500)
        assert np.max(np.abs(bilinear(field, pts) - f(pts))) <= 1e-13
        outside = np.array([-3.0 + 0.1j, 5.0 - 2.0j, 0.2 + 4.0j, -9.0 + 9.0j])
        clamped = (np.clip(outside.real, g.x_min, g.x_max)
                   + 1j * np.clip(outside.imag, g.y_min, g.y_max))
        assert np.max(np.abs(bilinear(field, outside) - f(clamped))) <= 1e-13


class TestWirtinger:
    def test_exact_on_affine(self):
        g = GridSpec.square(32)
        zz = g.zz()
        fld = ComplexField(g, 2.0 + (3.0 - 1.0j) * zz + (0.25 + 2.0j) * np.conj(zz))
        fz, fzb = wirtinger_derivatives(fld)
        assert np.max(np.abs(fz.data - (3.0 - 1.0j))) < 1e-12
        assert np.max(np.abs(fzb.data - (0.25 + 2.0j))) < 1e-12

    def test_exact_on_quadratics(self):
        # centered and one-sided second-order stencils are both exact for
        # polynomials of degree two
        g = GridSpec.square(32)
        zz = g.zz()
        fld = ComplexField(g, zz**2 + 3.0 * np.conj(zz))
        fz, fzb = wirtinger_derivatives(fld)
        assert np.max(np.abs(fz.data - 2.0 * zz)) < 1e-9
        assert np.max(np.abs(fzb.data - 3.0)) < 1e-9

    def test_pointwise_derivatives(self):
        def f(z):
            return z**3 + 2.0 * np.conj(z) ** 2

        z0 = 0.4 - 0.3j
        fz, fzb = wirtinger_at_point(f, z0)
        assert fz == pytest.approx(3.0 * z0**2, abs=2e-9)
        assert fzb == pytest.approx(4.0 * np.conj(z0), abs=2e-9)

    def test_minimum_grid_accepted(self):
        g = GridSpec(nx=8, ny=8, x_min=0.0, y_min=0.0, dx=1.0, dy=1.0)
        fld = ComplexField(g, np.zeros((8, 8)))
        fz, _ = wirtinger_derivatives(fld)
        assert fz.data.shape == (8, 8)


class TestQuadrature:
    def test_polynomial_exact(self):
        res = adaptive_integral_1d(lambda x: x * x, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert res.error_bound < 1e-12

    def test_endpoint_log_singularity(self):
        res = adaptive_integral_1d(lambda x: -math.log(x), 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_breakpoint_makes_kink_exact(self):
        res = adaptive_integral_1d(
            lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0, breakpoints=(1.0 / 3.0,)
        )
        assert res.value == pytest.approx(5.0 / 18.0, abs=1e-13)

    def test_divergent_integral_raises(self):
        with pytest.raises(QuadratureNonConvergence) as err:
            adaptive_integral_1d(lambda x: 1.0 / x, 0.0, 1.0)
        assert math.isfinite(err.value.estimate)
        assert err.value.evaluations > 0

    def test_panel_budget_stops_unlisted_jumps(self, monkeypatch):
        # floor(1/x) jumps infinitely often toward 0 and no breakpoint lists
        # them, so refinement would split them out one at a time without end
        monkeypatch.setattr(numerics, "_MAX_PANELS", 1000)
        with pytest.raises(QuadratureNonConvergence) as err:
            adaptive_integral_1d(lambda x: float(math.floor(1.0 / x) % 2), 1e-6, 1.0)
        assert 15 * 1000 < err.value.evaluations <= 15 * 1002
        assert 0.0 < err.value.estimate < 1.0

    def test_nonfinite_integrand_flagged(self):
        def bad(x):
            return math.inf if 0.4 < x < 0.6 else 1.0

        with pytest.raises(IntegrandNonFinite) as err:
            adaptive_integral_1d(bad, 0.0, 1.0)
        assert 0.4 < err.value.x < 0.6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)

    def test_config_tolerance_is_absolute_then_relative(self):
        cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-4)
        assert cfg.tolerance(-3e-5) == 1e-8
        assert cfg.tolerance(-3.0) == 1e-4 * 3.0

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite_tolerances(self, field, value):
        # a nan tolerance used to pass, and the integrator then refined every
        # panel to _MAX_DEPTH; the config alone is built here, never run
        with pytest.raises(ValueError):
            QuadratureConfig(**{field: value})

    def test_piecewise_cubic_over_many_blocks(self):
        # 1001 panels span four blocks of the first pass; each panel holds
        # one cubic, which K15 and G7 integrate exactly, so nothing
        # is refined
        n = 1001
        cuts = [j / n for j in range(1, n)]

        def f(x):
            j = math.floor(x * n)
            return (j % 7 - 3.0) * (x - j / n) ** 3 + (j % 5 - 2.0) * x + 1.0

        exact = math.fsum(
            (j % 7 - 3.0) * (hi - lo) ** 4 / 4.0 + (j % 5 - 2.0) * (hi * hi - lo * lo) / 2.0
            + (hi - lo)
            for j, (lo, hi) in enumerate(zip([0.0, *cuts], [*cuts, 1.0]))
        )
        res = adaptive_integral_1d(f, 0.0, 1.0, breakpoints=cuts)
        assert res.value == pytest.approx(exact, abs=1e-13, rel=0)
        assert res.evaluations == 15 * n

    @pytest.mark.parametrize("bad, first", [({100, 300}, 100), ({300}, 300)])
    def test_first_nonfinite_panel_is_reported(self, bad, first):
        # 400 unit panels; the integrand is infinite inside the panels in
        # ``bad``, and the node reported is the first one of the first such
        # panel, also when it lies past the first block
        def f(x):
            return math.inf if math.floor(x) in bad else 1.0

        with pytest.raises(IntegrandNonFinite) as err:
            adaptive_integral_1d(f, 0.0, 400.0, breakpoints=range(1, 400))
        assert first < err.value.x < first + 1
        assert err.value.x == (first + 0.5) + 0.5 * numerics._NODES[0]

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_integral_1d(lambda x: x, 1.0, 0.0)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        a=st.floats(-2.0, 2.0),
        width=st.floats(0.1, 3.0),
        c3=st.floats(-4.0, 4.0),
        c1=st.floats(-4.0, 4.0),
        c0=st.floats(-4.0, 4.0),
    )
    def test_cubic_matches_antiderivative(self, a, width, c3, c1, c0):
        b = a + width

        def f(x):
            return c3 * x**3 + c1 * x + c0

        def F(x):
            return c3 * x**4 / 4.0 + c1 * x**2 / 2.0 + c0 * x

        res = adaptive_integral_1d(f, a, b)
        assert res.value == pytest.approx(F(b) - F(a), abs=1e-9, rel=1e-9)

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(split=st.floats(0.1, 0.9))
    def test_interval_additivity(self, split):
        def f(x):
            return math.exp(-x) * math.sin(5.0 * x)

        whole = adaptive_integral_1d(f, 0.0, 1.0).value
        left = adaptive_integral_1d(f, 0.0, split).value
        right = adaptive_integral_1d(f, split, 1.0).value
        assert whole == pytest.approx(left + right, abs=1e-10)


class TestGaussKronrodRule:
    def test_kronrod_weights_sum_to_two(self):
        assert abs(math.fsum(numerics._K15) - 2.0) <= 4e-16

    def test_gauss_nodes_and_weights_match_legendre(self):
        x7, w7 = np.polynomial.legendre.leggauss(7)
        gauss = numerics._G7 > 0.0
        order = np.argsort(numerics._NODES[gauss])
        assert np.max(np.abs(numerics._NODES[gauss][order] - x7)) <= 1e-15
        assert np.max(np.abs(numerics._G7[gauss][order] - w7)) <= 1e-15

    def test_pass_matches_the_rule_panel_by_panel(self):
        # one pass over many panels gives each panel's plain 15-term sums;
        # only their summation order differs, hence the ulp-level tolerance
        edges = np.sort(np.random.default_rng(5).uniform(0.0, 3.0, 600))
        panels = numerics._gk15(math.exp, edges)
        assert len(panels) == 599
        for lo, hi, (v, e) in zip(edges, edges[1:], panels):
            half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
            fx = [math.exp(mid + half * x) for x in numerics._NODES]
            k15 = half * sum(w * y for w, y in zip(numerics._K15, fx))
            g7 = half * sum(w * y for w, y in zip(numerics._G7, fx))
            assert v == pytest.approx(k15, rel=1e-14)
            assert e == pytest.approx(abs(k15 - g7), abs=1e-15 * k15)

    def test_kronrod_rule_exact_to_degree_22(self):
        for k in range(23):
            got = math.fsum(numerics._K15 * numerics._NODES**k)
            assert got == pytest.approx(2.0 / (k + 1) if k % 2 == 0 else 0.0, abs=1e-15)


class TestSphereConstants:
    @pytest.mark.parametrize(
        "n,area,volume",
        [
            (2, 2.0 * math.pi, math.pi),
            (3, 4.0 * math.pi, 4.0 * math.pi / 3.0),
            (4, 2.0 * math.pi**2, math.pi**2 / 2.0),
        ],
    )
    def test_known_values(self, n, area, volume):
        assert unit_sphere_area(n) == pytest.approx(area, rel=1e-13)
        assert unit_sphere_area(n) / n == pytest.approx(volume, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_area_volume_relation(self, n):
        volume = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        assert unit_sphere_area(n) == pytest.approx(n * volume, rel=1e-12)


@pytest.mark.parametrize("module", ["radial", "dilatation", "verify", "solver"])
def test_quadrature_config_is_not_passed_through(module):
    # the layers above numerics integrate at fixed tolerances; only
    # adaptive_integral_1d takes a QuadratureConfig
    mod = importlib.import_module(f"beltrami_lab.{module}")
    taking = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        members = {name: obj}
        if inspect.isclass(obj):
            members.update((f"{name}.{k}", v) for k, v in vars(obj).items()
                           if not k.startswith("_") and callable(v))
        for label, fn in members.items():
            if not callable(fn):
                continue
            params = inspect.signature(fn).parameters.values()
            taking += [f"{label}({p.name})" for p in params
                       if "QuadratureConfig" in str(p.annotation)]
    assert taking == []


# Public names that only an acceptance check calls, with the check.  They are
# the oracles the checks compare against, so they stay without a caller.
ACCEPTANCE_ORACLES = {
    "wirtinger_at_point": "check 04",
    "truncated_power_weight": "check 06",
    "InverseProfile": "check 03",
    "kip_integral_source_route": "check 03",
    "beurling_norm_estimate": "check 09",
}
ROOT = Path(__file__).resolve().parents[1]


def _names_read(tree: ast.Module, skip: str = "") -> set:
    """Identifiers a module reads, outside the top-level definition of skip."""
    body = [node for node in tree.body if getattr(node, "name", None) != skip]
    names = set()
    for node in body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


@pytest.mark.parametrize("module", ["numerics", "radial", "dilatation", "solver", "verify"])
def test_every_public_name_has_a_caller(module):
    # a public name that only its own unit tests run is dead code: it is used
    # in src/ outside its definition, named by the benchmark, or listed above
    trees = {path.stem: ast.parse(path.read_text())
             for path in (ROOT / "src" / "beltrami_lab").glob("*.py")}
    elsewhere = set().union(*(_names_read(tree) for stem, tree in trees.items()
                              if stem != module))
    bench = "\n".join(path.read_text() for path in (ROOT / "perfbench").glob("*.py"))
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    uncalled, needless = [], []
    for name in importlib.import_module(f"beltrami_lab.{module}").__all__:
        used = (name in elsewhere or name in _names_read(trees[module], name)
                or re.search(rf"\b{name}\b", bench) is not None)
        if name in ACCEPTANCE_ORACLES:
            assert re.search(rf"\b{name}\b", acceptance), name
        if name in ACCEPTANCE_ORACLES:
            if used:
                needless.append(name)
        elif not used:
            uncalled.append(name)
    assert uncalled == []
    assert needless == []
