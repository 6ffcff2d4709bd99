import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_lab import verify
from beltrami_lab.numerics import QuadratureNonConvergence
from beltrami_lab.radial import (
    RadialWeight,
    example1_weight,
    power_weight,
    truncated_power_weight,
    unit_weight,
)
from beltrami_lab.verify import (
    HolderConfig,
    holder_product,
    holder_scan,
    lehto_divergence_scan,
)


def _identity(z):
    return np.asarray(z)


class TestHolderProduct:
    def test_worked_value(self):
        # |1.2x - 1.2y| = 0.12 and ln(1 + 0.25/0.2) = ln(2.25)
        got = holder_product(lambda z: 1.2 * np.asarray(z), 0.3 + 0.0j, 0.4 + 0.0j, 0.25)
        assert got == pytest.approx(0.12 * math.sqrt(math.log(2.25)), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_at_coincident_points(self):
        assert holder_product(_identity, 0.3 + 0.1j, 0.3 + 0.1j, 0.25) == 0.0
        # an array with a coincident and a distinct pair
        xs = np.array([0.3 + 0.1j, 0.2 + 0.1j])
        ys = np.array([0.3 + 0.1j, 0.2 + 0.2j])
        got = holder_product(_identity, xs, ys, 0.25)
        assert got.shape == (2,)
        assert got[0] == 0.0
        assert got[1] == holder_product(_identity, xs[1], ys[1], 0.25) > 0.0

    def test_rejects_bad_r0(self):
        with pytest.raises(ValueError):
            holder_product(_identity, 0.1, 0.2, 0.0)
        with pytest.raises(ValueError):
            holder_product(_identity, 0.1, 0.2, -1.0)

    def test_symmetric_in_the_pair(self):
        a = holder_product(_identity, 0.5 + 0.2j, -0.1 + 0.4j, 0.25)
        b = holder_product(_identity, -0.1 + 0.4j, 0.5 + 0.2j, 0.25)
        assert a == b

    def test_invariant_under_rotation_and_shift(self):
        def moved(z):
            return np.exp(0.7j) * np.asarray(z) + (0.3 - 0.2j)

        x, y = 0.4 + 0.1j, 0.35 - 0.25j
        assert holder_product(moved, x, y, 0.25) == pytest.approx(
            holder_product(_identity, x, y, 0.25), rel=1e-12
        )

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(
        dx=st.floats(min_value=1e-6, max_value=0.5),
        lam=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_scales_linearly_with_the_map(self, dx, lam):
        x, y = 0.1 + 0.1j, 0.1 + 0.1j + dx
        base = holder_product(_identity, x, y, 0.25)
        assert base >= 0.0
        scaled = holder_product(lambda z: lam * np.asarray(z), x, y, 0.25)
        assert scaled == pytest.approx(lam * base, rel=1e-9)


class TestHolderScan:
    def test_identity_products_decay(self):
        rep = holder_scan(_identity)
        assert rep.bounded_flag
        assert len(rep.per_scale_max_product) == len(HolderConfig().dyadic_scales)
        assert rep.per_scale_max_product[-1] < rep.per_scale_max_product[0] / 100.0
        assert math.isnan(rep.empirical_C)

    def test_deterministic_given_seed(self):
        a = holder_scan(_identity)
        b = holder_scan(_identity)
        assert a.per_scale_max_product == b.per_scale_max_product

    def test_scaling_covariance_is_exact(self):
        # doubling the map doubles every product; 2.0 is a power of two so
        # the equality is bit for bit
        base = holder_scan(_identity)
        twice = holder_scan(lambda z: 2.0 * np.asarray(z))
        assert twice.per_scale_max_product == tuple(
            2.0 * m for m in base.per_scale_max_product
        )

    def test_branch_radii_outside_compact_ignored(self):
        cfg = HolderConfig(pairs_per_scale=200)
        plain = holder_scan(_identity, cfg)
        decorated = holder_scan(_identity, cfg, branch_radii=(0.9, 1.7))
        assert plain.per_scale_max_product == decorated.per_scale_max_product

    def test_jump_across_marked_circle_is_flagged_unbounded(self):
        # an indicator jump on the circle |z| = 0.5 has products growing
        # like sqrt(log(1/scale)) once branch pairs straddle the circle
        def jump(z):
            return np.where(np.abs(np.asarray(z)) < 0.5, 0.0 + 0.0j, 1.0 + 0.0j)

        cfg = HolderConfig(pairs_per_scale=400)
        rep = holder_scan(jump, cfg, branch_radii=(0.5,))
        assert not rep.bounded_flag
        tail = rep.per_scale_max_product[-3:]
        assert tail[2] > tail[1] > tail[0]

    def test_weight_norm_passthrough(self):
        rep = holder_scan(_identity, q_l1=2.0)
        assert rep.empirical_C == pytest.approx(
            max(rep.per_scale_max_product) / math.sqrt(2.0), rel=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HolderConfig(compact_radius=1.2)
        with pytest.raises(ValueError):
            HolderConfig(dyadic_scales=(0.25, 0.25))
        with pytest.raises(ValueError):
            HolderConfig(dyadic_scales=(2.0, 1.0))
        with pytest.raises(ValueError):
            HolderConfig(pairs_per_scale=0)

    def test_r0_is_the_distance_to_the_circle(self):
        assert HolderConfig().r0 == 0.25
        assert HolderConfig(compact_radius=0.6).r0 == 0.4

    def test_scan_needs_three_scales(self):
        # the bounded flag compares the three finest scales; two scales
        # used to end the scan in an IndexError
        with pytest.raises(ValueError, match="three"):
            HolderConfig(dyadic_scales=(0.25, 0.125))
        assert len(holder_scan(_identity, HolderConfig(
            dyadic_scales=(0.25, 0.125, 0.0625), pairs_per_scale=10)
        ).per_scale_max_product) == 3


def _normalized_increments(sc, cuts):
    """Each increment over the log of its cutoff ratio."""
    return [d / math.log(a / b) for d, a, b in zip(sc.increments, cuts, cuts[1:])]


class TestLehtoDivergenceScan:
    CUTS = tuple(2.0**-j for j in range(2, 10))

    def test_unit_weight_diverges_logarithmically(self):
        sc = lehto_divergence_scan(unit_weight(2), 0.0, 0.5, self.CUTS)
        assert sc.classification == "divergent"
        for u in _normalized_increments(sc, self.CUTS):
            assert u == pytest.approx(1.0, rel=1e-10)
        for prev, cur, inc in zip(self.CUTS, self.CUTS[1:], sc.increments):
            assert inc == pytest.approx(math.log(prev / cur), rel=1e-10)
        assert all(b > a for a, b in zip(sc.values, sc.values[1:]))

    def test_power_weight_converges_geometrically(self):
        # 1/(t q(t)) = t for q = t^-2, so increments shrink by 4 per halving
        sc = lehto_divergence_scan(power_weight(2), 0.0, 0.5, self.CUTS)
        assert sc.classification == "convergent"
        for a, b in zip(sc.increments, sc.increments[1:]):
            assert b / a == pytest.approx(0.25, rel=1e-9)
        expected_total = (0.5**2 - self.CUTS[-1] ** 2) / 2.0
        assert sc.values[-1] == pytest.approx(expected_total, rel=1e-10)

    def test_alternating_annuli_weight_diverges(self):
        sc = lehto_divergence_scan(example1_weight(2), 0.0, 0.5, self.CUTS)
        assert sc.classification == "divergent"
        assert sc.values[-1] > sc.values[0]

    def test_truncated_weight_diverges_below_its_cut(self):
        sc = lehto_divergence_scan(truncated_power_weight(2, 4), 0.0, 0.2, self.CUTS[2:])
        assert sc.classification == "divergent"
        for u in _normalized_increments(sc, self.CUTS[2:]):
            assert u == pytest.approx(1.0, rel=1e-10)

    def test_short_scan_is_inconclusive(self):
        sc = lehto_divergence_scan(unit_weight(2), 0.0, 0.5, self.CUTS[:3])
        assert sc.classification == "inconclusive"

    def test_vanishing_weight_gives_infinite_values(self):
        w = RadialWeight(2, lambda t: 0.0)
        sc = lehto_divergence_scan(w, 0.0, 0.5, self.CUTS[:4])
        assert sc.classification == "inconclusive"
        assert all(v == math.inf for v in sc.values)
        assert sc.diagnostics is None

    def test_quadrature_failure_reported(self, monkeypatch):
        def no_convergence(*args):
            raise QuadratureNonConvergence(0.0, math.inf, 0)

        monkeypatch.setattr(verify, "lehto_integral", no_convergence)
        sc = lehto_divergence_scan(unit_weight(2), 0.0, 0.5, self.CUTS[:3])
        assert sc.classification == "inconclusive"
        assert sc.diagnostics is not None
        assert sc.diagnostics.startswith("quadrature failure")
        assert sc.values == ()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            lehto_divergence_scan(unit_weight(3), 0.0, 0.5, self.CUTS)
        with pytest.raises(ValueError):
            lehto_divergence_scan(unit_weight(2), 0.3, 0.5, self.CUTS)
        with pytest.raises(ValueError):
            lehto_divergence_scan(unit_weight(2), 0.0, 0.5, ())
        with pytest.raises(ValueError):
            lehto_divergence_scan(unit_weight(2), 0.0, 0.5, (0.25, 0.25))
        with pytest.raises(ValueError):
            lehto_divergence_scan(unit_weight(2), 0.0, 0.5, (0.5, 0.25))
        with pytest.raises(ValueError):
            lehto_divergence_scan(unit_weight(2), 0.0, 0.5, (0.25, -0.1))

    @settings(deadline=None, derandomize=True, max_examples=25)
    @given(top=st.floats(min_value=0.3, max_value=0.9))
    def test_values_accumulate_increments(self, top):
        cuts = tuple(top * 2.0**-j for j in range(1, 6))
        sc = lehto_divergence_scan(unit_weight(2), 0.0, top, cuts)
        total = sc.values[0]
        for inc, val in zip(sc.increments, sc.values[1:]):
            total += inc
            assert val == pytest.approx(total, rel=1e-12)


def test_verify_imports_only_numerics_and_radial():
    # the holder scan takes the weight's mass as a number, so verify does
    # not depend on dilatation
    tree = ast.parse(Path(verify.__file__).read_text())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert package == {"numerics", "radial"}
