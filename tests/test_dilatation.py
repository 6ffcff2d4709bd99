import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_lab.dilatation import (
    FAMILIES,
    K_mu,
    L1Report,
    MuSpec,
    k_sup_probe,
    l1_norm,
    named_map,
    solution_example3,
    solution_example4,
    spherical_integrability_scan,
    truncate_mu,
)
from beltrami_lab.numerics import ComplexField, GridSpec, wirtinger_at_point
from beltrami_lab.radial import RadialWeight, example1_weight, power_weight, unit_weight

E3 = FAMILIES["example3"]
E4 = FAMILIES["example4"]


class TestClosedFormDilatations:
    def test_maximal_dilatation_worked_values(self):
        # annulus field: K = 2r/(alpha (2r - 1)), so 6 at r = 0.75 for
        # alpha = 0.5; log field: K = 1/(1 + 2 ln r), so 2 at r = e^{-1/4}
        z = 0.75 * np.exp(0.3j)
        assert K_mu(E3.mu(z, 0.5)) == pytest.approx(6.0, abs=1e-8)
        z = math.exp(-0.25) * np.exp(-1.1j)
        assert K_mu(E4.mu(z, None)) == pytest.approx(2.0, abs=1e-8)

    def test_fields_vanish_on_inner_region(self):
        assert E3.mu(0.3 + 0.2j, 0.5) == 0.0
        assert E4.mu(0.25j, None) == 0.0

    def test_degenerate_toward_inner_circle(self):
        # both fields lose ellipticity at the inner edge of their annulus
        assert abs(E3.mu(0.5001, 0.5)) > 0.999
        assert abs(E4.mu(math.exp(-0.5) + 1e-5, None)) > 0.999
        assert abs(E4.mu(0.99999, None)) < 1e-4

    @pytest.mark.parametrize("bad", [1.0, 1.2 + 0.1j, -1.0])
    def test_outside_disk_rejected(self, bad):
        with pytest.raises(ValueError):
            E3.mu(bad, 0.5)
        with pytest.raises(ValueError):
            E4.mu(bad, None)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            E3.mu(0.75, alpha)

    def test_k_mu_values(self):
        assert K_mu(0.0) == pytest.approx(1.0)
        assert K_mu(0.5) == pytest.approx(3.0)
        assert math.isinf(K_mu(1.0))
        with pytest.raises(ValueError):
            K_mu(1.5)


class TestTruncation:
    def test_annulus_truncation_radius(self):
        assert E3.radius(0.5, 10.0) == pytest.approx(0.625, abs=1e-15)
        # cap too low to bite anywhere: the whole field is zeroed
        assert E3.radius(0.5, 2.0) == 1.0
        assert E3.radius(0.5, 1.0) == 1.0

    def test_log_truncation_radius(self):
        assert E4.radius(None, 1.0) == pytest.approx(1.0)
        assert E4.radius(None, 16.0) == pytest.approx(
            math.exp(-15.0 / 32.0), rel=1e-14
        )
        with pytest.raises(ValueError):
            E4.radius(None, 0.5)

    def test_cap_semantics_on_rings(self):
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        thr = 9.0 / 11.0
        # below the truncation radius the capped field is zero, above it
        # the raw value survives
        z_in = 0.60 * np.exp(0.7j)
        z_out = 0.70 * np.exp(0.7j)
        assert spec.mu(z_in) == 0.0
        assert spec.mu(z_out) == E3.mu(z_out, 0.5)
        assert abs(spec.mu(z_out)) <= thr + 1e-12
        assert spec.sup_abs_bound() <= thr + 1e-12

    def test_truncate_validates_level(self):
        with pytest.raises(ValueError):
            truncate_mu(MuSpec.example4(), 0.9)

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(k1=st.floats(1.0, 40.0), k2=st.floats(1.0, 40.0))
    def test_truncation_composes_as_minimum(self, k1, k2):
        spec = truncate_mu(truncate_mu(MuSpec.example4(), k1), k2)
        assert spec.k_cap == min(k1, k2)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_levels_below_one_rejected(self, name):
        fam = FAMILIES[name]
        for call in (
            lambda: fam.radius(0.5, 0.5),
            lambda: fam.solution(0.3, 0.5, 0.5),
            lambda: fam.inverse(0.3, 0.5, 0.5),
            lambda: fam.jump_radii(0.5, 0.5),
            lambda: named_map(name, k=0.5),
            lambda: truncate_mu(MuSpec.family(name, 0.5), 0.5),
        ):
            with pytest.raises(ValueError):
                call()
        with pytest.raises(ValueError):
            solution_example3(0.3, 0.5, 0.5)
        with pytest.raises(ValueError):
            solution_example4(0.3, 0.5)

    def test_jump_radii_reported(self):
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        assert 0.625 in spec.jump_radii()
        assert 1.0 in spec.jump_radii()


class TestMuSpec:
    def test_constant_validation(self):
        with pytest.raises(ValueError):
            MuSpec.constant(1.0)
        spec = MuSpec.constant(0.3 + 0.1j)
        assert spec.mu(0.2) == 0.3 + 0.1j
        assert spec.mu(1.5) == 0.0

    def test_grid_spec_round_trip(self):
        g = GridSpec.square(32, 2.0)
        zz = g.zz()
        data = np.where(np.abs(zz) < 0.8, 0.4 + 0.0j, 0.0 + 0.0j)
        spec = MuSpec.from_grid(ComplexField(g, data))
        assert spec.mu(0.1 + 0.1j) == pytest.approx(0.4, abs=1e-12)
        assert spec.mu(1.2) == 0.0
        sampled = spec.sample(g)
        assert np.max(np.abs(sampled.data - data)) < 1e-12

    def test_grid_spec_refuses_a_box_smaller_than_the_disk(self):
        # clamped bilinear values would otherwise extend the field to |z| < 1
        small = GridSpec(nx=16, ny=16, x_min=-0.5, y_min=-0.5, dx=1.0 / 15, dy=1.0 / 15)
        with pytest.raises(ValueError, match="does not contain"):
            MuSpec.from_grid(ComplexField(small, np.full((16, 16), 0.5 + 0.0j)))
        exact = GridSpec.square(16, 1.0)
        assert MuSpec.from_grid(ComplexField(exact, np.zeros((16, 16), complex))).sup == 0.0

    def test_grid_spec_rejects_excess_modulus(self):
        g = GridSpec.square(32, 2.0)
        data = np.full((32, 32), 1.5 + 0.0j)
        with pytest.raises(ValueError):
            MuSpec.from_grid(ComplexField(g, data))


class TestFiniteDifferenceConsistency:
    @pytest.mark.parametrize("r", [0.58, 0.66, 0.75, 0.84, 0.93])
    def test_annulus_map_recovers_field(self, r):
        f = lambda z: solution_example3(z, 0.5)
        z0 = r * np.exp(1j * (0.4 + r))
        fz, fzb = wirtinger_at_point(f, z0)
        assert fzb / fz == pytest.approx(E3.mu(z0, 0.5), abs=1e-6)

    @pytest.mark.parametrize("r", [0.64, 0.72, 0.81, 0.9])
    def test_log_map_recovers_field(self, r):
        f = lambda z: solution_example4(z)
        z0 = r * np.exp(1j * (1.0 - r))
        fz, fzb = wirtinger_at_point(f, z0)
        assert fzb / fz == pytest.approx(E4.mu(z0, None), abs=1e-6)

    def test_truncated_map_recovers_capped_field(self):
        k = 10.0
        spec = truncate_mu(MuSpec.example3(0.5), k)
        f = lambda z: solution_example3(z, 0.5, k)
        for r in (0.63, 0.7, 0.8):
            z0 = r * np.exp(0.9j)
            fz, fzb = wirtinger_at_point(f, z0)
            assert fzb / fz == pytest.approx(spec.mu(z0), abs=1e-6)
        # inside the truncation disk the map is conformal
        fz, fzb = wirtinger_at_point(f, 0.3 + 0.2j)
        assert abs(fzb / fz) < 1e-8


class TestClosedFormSolutions:
    def test_annulus_map_boundary_and_worked_points(self):
        # (2r - 1)^(1/alpha) with alpha = 0.5 squares the stretched radius
        assert solution_example3(0.6, 0.5) == pytest.approx(0.04, abs=1e-14)
        assert solution_example3(0.7, 0.5) == pytest.approx(0.16, abs=1e-14)
        assert abs(solution_example3(np.exp(0.5j) * 0.999999, 0.5)) == pytest.approx(
            1.0, abs=1e-5
        )

    def test_annulus_map_collapses_inner_disk(self):
        assert solution_example3(0.3 + 0.1j, 0.5) == 0.0

    def test_log_map_worked_point(self):
        r = math.exp(-0.25)
        assert abs(solution_example4(r)) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    @pytest.mark.parametrize("k", [2.0, 10.0, 64.0])
    def test_annulus_round_trip(self, k):
        rng = np.random.default_rng(3)
        r = rng.uniform(0.05, 0.98, size=40)
        th = rng.uniform(0.0, 2.0 * math.pi, size=40)
        z = r * np.exp(1j * th)
        w = solution_example3(z, 0.5, k)
        back = E3.inverse(w, 0.5, k)
        assert np.max(np.abs(back - z)) < 1e-10

    @pytest.mark.parametrize("k", [1.5, 16.0, 100.0])
    def test_log_round_trip(self, k):
        rng = np.random.default_rng(4)
        r = rng.uniform(0.05, 0.99, size=40)
        th = rng.uniform(0.0, 2.0 * math.pi, size=40)
        z = r * np.exp(1j * th)
        w = solution_example4(z, k)
        back = E4.inverse(w, None, k)
        assert np.max(np.abs(back - z)) < 1e-10

    def test_untruncated_annulus_inverse_on_image(self):
        z = 0.8 * np.exp(0.2j)
        w = solution_example3(z, 0.5)
        assert E3.inverse(w, 0.5) == pytest.approx(z, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_table_matches_hand_derived_forms(self, name):
        # the maps the table derives from m, g, g^-1 and the cap radius
        # against the same maps with every constant worked out by hand
        rng = np.random.default_rng(5)
        u, th = rng.uniform(0.0, 1.0, (2, 400))
        z = 0.999 * np.sqrt(u) * np.exp(2j * np.pi * th)
        fam = FAMILIES[name]
        alphas = (0.5, 0.8, 1.5) if name == "example3" else (None,)
        for a in alphas:
            for k in (1.0, 2.0, 4.0, 10.0, 16.0, 64.0, math.inf):
                r_t, s_t, c, f_out, inv_out = _hand_derived(name, a, k)
                r = np.abs(z)
                f = c * z
                f[r > r_t] = f_out(z[r > r_t], r[r > r_t])
                assert np.all(np.abs(fam.solution(z, a, k) - f) <= 1e-14 * np.abs(f))
                w = f[np.abs(f) > 0.0]
                s = np.abs(w)
                back = inv_out(w, s)
                back[s <= s_t] = w[s <= s_t] / c
                assert np.all(np.abs(fam.inverse(w, a, k) - back) <= 1e-14 * np.abs(back))


def _hand_derived(name, a, k):
    """The capped solution of a table family written out by hand: (cap
    radius r_t, its image s_t, slope c inside, outer map of (z, |z|), outer
    inverse of (y, |y|)); r_t = s_t = inf, c = 1 where the cap empties the
    disk, and c = 0 for k = inf."""
    if name == "example3":
        f_out = lambda z, r: z / r * (2.0 * r - 1.0) ** (1.0 / a)
        inv_out = lambda y, s: y * (s**a + 1.0) / (2.0 * s)
        if math.isinf(k):
            return 0.5, 0.0, 0.0, f_out, inv_out
        if k * a <= 2.0:  # K >= 2/alpha on the whole annulus
            return math.inf, math.inf, 1.0, f_out, inv_out
        r_t = k * a / (2.0 * (k * a - 1.0))
        s_t = (1.0 / (k * a - 1.0)) ** (1.0 / a)
        return r_t, s_t, s_t / r_t, f_out, inv_out
    f_out = lambda z, r: z / r * np.sqrt(2.0 * np.log(r) + 1.0)
    inv_out = lambda y, s: y / s * np.exp((s * s - 1.0) / 2.0)
    if math.isinf(k):
        return math.exp(-0.5), 0.0, 0.0, f_out, inv_out
    c = math.exp((k - 1.0) / (2.0 * k)) / math.sqrt(k)
    return math.exp((1.0 - k) / (2.0 * k)), 1.0 / math.sqrt(k), c, f_out, inv_out


class TestWeightMass:
    def test_unit_weight_disk_mass(self):
        rep = l1_norm(unit_weight(2))
        assert not rep.divergent
        assert rep.value == pytest.approx(math.pi, rel=1e-12)

    def test_annulus_image_weight_mass(self):
        # q(s) s = 2 (s + sqrt(s)) for a = 0.5, so the disk integral is
        # 2 pi * 2 (1/2 + 2/3)
        rep = l1_norm(E3.image_weight(0.5))
        assert not rep.divergent
        assert rep.value == pytest.approx(2.0 * math.pi * 7.0 / 3.0, rel=1e-8)

    @pytest.mark.parametrize("a", [1.2, 1.5, 1.8, 1.9, 1.99])
    def test_slowly_decaying_image_weight_mass(self, a):
        # the shell terms shrink by 2^(a-2), too slowly for the in-loop
        # tail test; the mass is 2 pi / a (1/2 + 1/(2 - a))
        rep = l1_norm(E3.image_weight(a))
        assert not rep.divergent
        exact = 2.0 * math.pi / a * (0.5 + 1.0 / (2.0 - a))
        assert rep.value == pytest.approx(exact, rel=1e-12)

    def test_borderline_power_divergent(self):
        rep = l1_norm(power_weight(2))
        assert rep.divergent
        assert math.isinf(rep.value)
        assert rep.partial > 0.0

    def test_log_image_weight_divergent(self):
        rep = l1_norm(E4.image_weight(None))
        assert rep.divergent

    def test_oscillating_weight_divergent(self):
        rep = l1_norm(example1_weight(2))
        assert rep.divergent
        assert len(rep.shell_values) >= 8

    def test_report_shape(self):
        rep = l1_norm(unit_weight(2))
        assert isinstance(rep, L1Report)
        assert len(rep.shell_edges) == len(rep.shell_values)
        for lo, hi in rep.shell_edges:
            assert 0.0 < lo < hi <= 1.0


class TestIntegrabilityScan:
    def test_weight_with_infinite_band(self):
        w = RadialWeight(2, lambda t: math.inf if t < 0.3 else 1.0)
        scan = spherical_integrability_scan(w, None, np.linspace(0.1, 0.9, 17))
        finite = np.array(scan.finite)
        assert not finite[np.array(scan.radii) < 0.3].any()
        assert finite[np.array(scan.radii) > 0.3].all()
        assert 0.5 < scan.finite_measure_estimate < 0.7

    def test_callable_scan(self):
        scan = spherical_integrability_scan(
            lambda y: 1.0 / float(np.dot(y, y)), None, (0.2, 0.5, 0.8)
        )
        assert all(scan.finite)

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            spherical_integrability_scan(unit_weight(2), None, (0.0, 0.5))

    def test_mean_past_the_float_range_is_infinite(self):
        # q(t) = t^-2 overflows at t = 1e-200
        scan = spherical_integrability_scan(power_weight(2), None, (0.5, 1e-200))
        assert scan.means == (math.inf, 4.0)
        assert scan.finite == (False, True)
        # example3's image weight divides by s^1.99, which underflows to 0
        scan = spherical_integrability_scan(E3.image_weight(1.99), None, (0.5, 1e-300))
        assert scan.means[0] == math.inf
        assert scan.finite == (False, True)


class TestReportAndRegistry:
    def test_dilatation_report_fields(self):
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        assert 1.0 < k_sup_probe(spec) <= 10.0 + 1e-9
        assert spec.sup_abs_bound() == pytest.approx(9.0 / 11.0, rel=1e-15)
        assert k_sup_probe(MuSpec.constant(0.0)) == 1.0

    def test_named_map_registry(self):
        f, radii = named_map("identity")
        assert f(0.3 + 0.4j) == 0.3 + 0.4j
        assert radii == ()
        f, radii = named_map("example3", alpha=0.5, k=10.0)
        assert radii == (0.625, 1.0)
        f, radii = named_map("example4")
        assert radii == (pytest.approx(math.exp(-0.5)),)
        f, radii = named_map("example2", m=2.0)
        assert f(0.0) == 0.0
        with pytest.raises(ValueError):
            named_map("nonsense")

    @pytest.mark.parametrize("k", [math.inf, 10.0, 1.0])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_named_map_branch_radii_are_the_jump_circles(self, name, k):
        _, radii = named_map(name, alpha=0.5, k=k)
        assert radii == FAMILIES[name].jump_radii(0.5, k)


FAMILY_ALPHA = 0.5


def _family_points(fam, k):
    """Points of the disk 2% or more off the family's jump circles; for
    k = inf only outside the onset circle, since the limit map collapses
    the disk inside it to 0."""
    r = np.linspace(0.03, 0.97, 96)
    keep = np.all([np.abs(r - c) >= 0.02 for c in fam.jump_radii(FAMILY_ALPHA, k)], axis=0)
    if math.isinf(k):
        keep &= r > fam.radius(FAMILY_ALPHA, k)
    return r[keep] * np.exp(1j * np.linspace(0.1, 6.1, keep.sum()))


@pytest.mark.parametrize("k", [math.inf, 10.0])
@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestFamilyTable:
    """Each entry of the family table, checked through its record alone, so
    a new family is tested by adding it to the table."""

    def _spec(self, name, k):
        spec = MuSpec.family(name, FAMILY_ALPHA)
        return spec if math.isinf(k) else truncate_mu(spec, k)

    def test_solution_has_the_field_as_dilatation(self, name, k):
        fam = FAMILIES[name]
        spec = self._spec(name, k)
        pts = _family_points(fam, k)
        assert pts.size > 30
        for z0 in pts:
            fz, fzb = wirtinger_at_point(lambda z: fam.solution(z, FAMILY_ALPHA, k), z0)
            assert abs(fzb / fz - spec.mu(z0)) < 1e-6

    def test_inverse_undoes_solution(self, name, k):
        fam = FAMILIES[name]
        pts = _family_points(fam, k)
        back = fam.inverse(fam.solution(pts, FAMILY_ALPHA, k), FAMILY_ALPHA, k)
        assert np.max(np.abs(back - pts)) <= 1e-12

    def test_solution_is_continuous_at_the_cap(self, name, k):
        # inside the cap radius the map is linear, with the slope its outer
        # branch reaches at the edge (0 at the onset circle for k = inf)
        fam = FAMILIES[name]
        edge = fam.radius(FAMILY_ALPHA, k) * np.exp(0.7j)
        out = edge * (1.0 + 1e-12)
        slope = fam.solution(out, FAMILY_ALPHA, k) / out
        inner = fam.solution(0.6 * edge, FAMILY_ALPHA, k)
        assert abs(inner - 0.6 * edge * slope) <= 1e-5 * abs(0.6 * edge)

    def test_full_cap_is_identity(self, name, k):
        # level 1 empties every family's disk, and example3's stays empty
        # up to k alpha = 2, since K >= 2/alpha; the class's k plays no part
        fam = FAMILIES[name]
        levels = [1.0]
        if name == "example3":
            levels += [1.0 / FAMILY_ALPHA, 2.0 / FAMILY_ALPHA]
        pts = _family_points(fam, 10.0)
        for level in levels:
            assert fam.radius(FAMILY_ALPHA, level) == 1.0
            assert fam.jump_radii(FAMILY_ALPHA, level) == ()
            assert np.array_equal(fam.solution(pts, FAMILY_ALPHA, level), pts)
            assert np.array_equal(fam.inverse(pts, FAMILY_ALPHA, level), pts)
            capped = truncate_mu(MuSpec.family(name, FAMILY_ALPHA), level)
            assert not np.any(capped.mu(pts))

    def test_cap_empties_the_family_radius(self, name, k):
        fam = FAMILIES[name]
        raw = self._spec(name, math.inf)
        edge = fam.radius(FAMILY_ALPHA, k) * np.exp(0.4j)
        outside = K_mu(raw.mu(edge * (1.0 + 1e-6)))
        if math.isinf(k):
            # the onset circle: K is finite outside it and unbounded toward it
            assert 1e3 < outside < math.inf
        else:
            assert outside <= k
            assert K_mu(raw.mu(edge * (1.0 - 1e-6))) > k

    def test_jump_radii_are_the_jumps_of_the_modulus(self, name, k):
        spec = self._spec(name, k)
        h = 1e-4
        r = (np.arange(int(1.1 / h)) + 0.5) * h
        m = np.abs(spec.mu(r * np.exp(0.7j)))
        at = np.flatnonzero(np.abs(np.diff(m)) > 0.05)
        jumps = r[at] + 0.5 * h
        listed = spec.jump_radii()
        assert len(jumps) == len(listed)
        assert all(abs(j - c) <= h for j, c in zip(jumps, sorted(listed)))
