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
    build_dilatation_report,
    example3_image_weight,
    example3_truncation_radius,
    example4_truncation_radius,
    inverse_example3,
    inverse_example4,
    l1_norm,
    mu_example3,
    mu_example4,
    named_map,
    solution_example3,
    solution_example4,
    spherical_integrability_scan,
    truncate_mu,
)
from beltrami_lab.numerics import ComplexField, GridSpec, wirtinger_at_point
from beltrami_lab.radial import RadialWeight, example1_weight, power_weight, unit_weight


class TestClosedFormDilatations:
    def test_maximal_dilatation_worked_values(self):
        # annulus field: K = 2r/(alpha (2r - 1)), so 6 at r = 0.75 for
        # alpha = 0.5; log field: K = 1/(1 + 2 ln r), so 2 at r = e^{-1/4}
        z = 0.75 * np.exp(0.3j)
        assert K_mu(mu_example3(z, 0.5)) == pytest.approx(6.0, abs=1e-8)
        z = math.exp(-0.25) * np.exp(-1.1j)
        assert K_mu(mu_example4(z)) == pytest.approx(2.0, abs=1e-8)

    def test_fields_vanish_on_inner_region(self):
        assert mu_example3(0.3 + 0.2j, 0.5) == 0.0
        assert mu_example4(0.25j) == 0.0

    def test_degenerate_toward_inner_circle(self):
        # both fields lose ellipticity at the inner edge of their annulus
        assert abs(mu_example3(0.5001, 0.5)) > 0.999
        assert abs(mu_example4(math.exp(-0.5) + 1e-5)) > 0.999
        assert abs(mu_example4(0.99999)) < 1e-4

    @pytest.mark.parametrize("bad", [1.0, 1.2 + 0.1j, -1.0])
    def test_outside_disk_rejected(self, bad):
        with pytest.raises(ValueError):
            mu_example3(bad, 0.5)
        with pytest.raises(ValueError):
            mu_example4(bad)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            mu_example3(0.75, alpha)

    def test_k_mu_values(self):
        assert K_mu(0.0) == pytest.approx(1.0)
        assert K_mu(0.5) == pytest.approx(3.0)
        assert math.isinf(K_mu(1.0))
        with pytest.raises(ValueError):
            K_mu(1.5)


class TestTruncation:
    def test_annulus_truncation_radius(self):
        assert example3_truncation_radius(0.5, 10.0) == pytest.approx(0.625, abs=1e-15)
        # cap too low to bite anywhere: the whole field is zeroed
        assert example3_truncation_radius(0.5, 2.0) == 1.0
        assert example3_truncation_radius(0.5, 1.0) == 1.0

    def test_log_truncation_radius(self):
        assert example4_truncation_radius(1.0) == pytest.approx(1.0)
        assert example4_truncation_radius(16.0) == pytest.approx(
            math.exp(-15.0 / 32.0), rel=1e-14
        )
        with pytest.raises(ValueError):
            example4_truncation_radius(0.5)

    def test_cap_semantics_on_rings(self):
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        thr = 9.0 / 11.0
        # below the truncation radius the capped field is zero, above it
        # the raw value survives
        z_in = 0.60 * np.exp(0.7j)
        z_out = 0.70 * np.exp(0.7j)
        assert spec.mu(z_in) == 0.0
        assert spec.mu(z_out) == mu_example3(z_out, 0.5)
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
        assert fzb / fz == pytest.approx(mu_example3(z0, 0.5), abs=1e-6)

    @pytest.mark.parametrize("r", [0.64, 0.72, 0.81, 0.9])
    def test_log_map_recovers_field(self, r):
        f = lambda z: solution_example4(z)
        z0 = r * np.exp(1j * (1.0 - r))
        fz, fzb = wirtinger_at_point(f, z0)
        assert fzb / fz == pytest.approx(mu_example4(z0), abs=1e-6)

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

    def test_truncated_annulus_map_linear_inside(self):
        k = 10.0
        r_t = example3_truncation_radius(0.5, k)
        f_at_rt = solution_example3(r_t * 1.0000001, 0.5, k)
        c = f_at_rt / (r_t * 1.0000001)
        inner = solution_example3(0.3, 0.5, k)
        assert inner == pytest.approx(0.3 * c, rel=1e-5)

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
        back = inverse_example3(w, 0.5, k)
        assert np.max(np.abs(back - z)) < 1e-10

    @pytest.mark.parametrize("k", [1.5, 16.0, 100.0])
    def test_log_round_trip(self, k):
        rng = np.random.default_rng(4)
        r = rng.uniform(0.05, 0.99, size=40)
        th = rng.uniform(0.0, 2.0 * math.pi, size=40)
        z = r * np.exp(1j * th)
        w = solution_example4(z, k)
        back = inverse_example4(w, k)
        assert np.max(np.abs(back - z)) < 1e-10

    def test_untruncated_annulus_inverse_on_image(self):
        z = 0.8 * np.exp(0.2j)
        w = solution_example3(z, 0.5)
        assert inverse_example3(w, 0.5) == pytest.approx(z, abs=1e-12)


class TestWeightMass:
    def test_unit_weight_disk_mass(self):
        rep = l1_norm(unit_weight(2))
        assert not rep.divergent
        assert rep.value == pytest.approx(math.pi, rel=1e-12)

    def test_annulus_image_weight_mass(self):
        # q(s) s = 2 (s + sqrt(s)) for a = 0.5, so the disk integral is
        # 2 pi * 2 (1/2 + 2/3)
        rep = l1_norm(example3_image_weight(0.5))
        assert not rep.divergent
        assert rep.value == pytest.approx(2.0 * math.pi * 7.0 / 3.0, rel=1e-8)

    def test_borderline_power_divergent(self):
        rep = l1_norm(power_weight(2))
        assert rep.divergent
        assert math.isinf(rep.value)
        assert rep.partial > 0.0

    def test_log_image_weight_divergent(self):
        rep = l1_norm(FAMILIES["example4"].image_weight(None))
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


class TestReportAndRegistry:
    def test_dilatation_report_fields(self):
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        rep = build_dilatation_report(spec, weight=example3_image_weight(0.5))
        assert rep.kind == "example3"
        assert rep.k_cap == 10.0
        assert rep.k_sup_probe <= 10.0 + 1e-9
        assert rep.ess_sup_mu <= 9.0 / 11.0 + 1e-12
        assert rep.l1 is not None and not rep.l1.divergent

    def test_named_map_registry(self):
        f, radii = named_map("identity")
        assert f(0.3 + 0.4j) == 0.3 + 0.4j
        assert radii == ()
        f, radii = named_map("example3", alpha=0.5, k=10.0)
        assert radii == (0.625,)
        f, radii = named_map("example4")
        assert radii == (pytest.approx(math.exp(-0.5)),)
        f, radii = named_map("example2", m=2.0)
        assert f(0.0) == 0.0
        with pytest.raises(ValueError):
            named_map("nonsense")


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
        spec = MuSpec(kind=name, alpha=FAMILIES[name].alpha_of(FAMILY_ALPHA))
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
