import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_lab import numerics, radial
from beltrami_lab.dilatation import FAMILIES
from beltrami_lab.numerics import adaptive_integral_1d, unit_sphere_area
from beltrami_lab.radial import (
    Example2Profile,
    InverseProfile,
    NumericProfile,
    RadialWeight,
    annulus_modulus,
    example1_weight,
    inverse_poletsky_check,
    kip_integral_image_route,
    kip_integral_source_route,
    lehto_integral,
    power_weight,
    radial_K_Ip,
    radial_stretch_factors,
    spherical_mean,
    truncated_power_weight,
    unit_weight,
)


# profiles flat near their range floor: example3-image at alpha 0.01,
# example4-image and the unit weight's identity profile
_FLAT_WEIGHTS = [
    FAMILIES["example3"].image_weight(0.01),
    FAMILIES["example4"].image_weight(None),
    unit_weight(2),
]


def _count_quadratures(monkeypatch) -> list:
    """Record each adaptive_integral_1d call the radial module makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return adaptive_integral_1d(*args, **kwargs)

    monkeypatch.setattr(radial, "adaptive_integral_1d", counted)
    return calls


def _bisection_quadratures(p, s: float) -> int:
    """Quadratures a bisection of p.inverse(s) makes: the descent steps to
    the bracket, then one per halving down to a 1e-13 bracket.  The descent
    is stepped on a second profile of the same weight, so p's cache is left
    as it was."""
    lo, hi, calls = radial._R_FLOOR, 1.0, 0
    if s < p.value(lo):
        ref = NumericProfile(p.weight)
        while s < ref.value(lo):
            hi, lo, calls = lo, 0.25 * lo, calls + 1
    width = hi - lo
    while width > 1e-13:
        width, calls = 0.5 * width, calls + 1
    return calls


class TestProfiles:
    def test_limit_stretch_closed_form(self):
        p = Example2Profile(2, math.inf)
        assert p.value(1.0) == pytest.approx(1.0, abs=1e-15)
        assert p.value(0.5) == pytest.approx(math.exp((0.25 - 1.0) / 2.0), rel=1e-14)
        assert p.range_floor() == pytest.approx(math.exp(-0.5), rel=1e-14)
        # derivative against a centered difference
        h = 1e-6
        fd = (p.value(0.7 + h) - p.value(0.7 - h)) / (2.0 * h)
        assert p.derivative(0.7) == pytest.approx(fd, rel=1e-8)

    def test_example2_continuity_at_cut(self):
        p = Example2Profile(2, 2.0)
        cut = 0.5
        assert p.kink_radii == (cut,)
        assert p.value(cut - 1e-12) == pytest.approx(p.value(cut + 1e-12), abs=1e-11)
        # the kink belongs to the outer branch; the inner slope holds below it
        inner, outer = p.derivative(cut * (1.0 - 1e-9)), p.derivative(cut)
        assert outer == pytest.approx(math.exp(0.5 * (cut**2 - 1.0)) * cut, rel=1e-14)
        assert inner == pytest.approx(p.value(cut) / cut, rel=1e-14)
        assert inner != pytest.approx(outer)

    def test_example2_m1_is_identity(self):
        p = Example2Profile(2, 1.0)
        assert p.kink_radii == ()
        assert p.range_floor() == 0.0
        for r in (0.1, 0.5, 0.9, 1.0, 1.0 / 3.0):
            assert p.value(r) == r
            assert p.inverse(r) == r

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_example2_at_m_inf_has_range_floor(self, n):
        # no linear core and no kink; the range starts at rho(0+)
        p = Example2Profile(n, math.inf)
        a = (n - 1.0) / n
        assert p.kink_radii == ()
        assert p.range_floor() == pytest.approx(math.exp(-a), rel=1e-15)
        assert p.inverse(p.range_floor() * (1.0 + 1e-9)) < 1e-3
        for s in (0.0, 0.5 * p.range_floor(), p.range_floor() * (1.0 - 1e-9)):
            with pytest.raises(ValueError, match="below the profile range"):
                p.inverse(s)

    @pytest.mark.parametrize("m", [math.nan, 0.5, -math.inf])
    def test_truncation_parameter_below_one_or_nan_rejected(self, m):
        with pytest.raises(ValueError):
            Example2Profile(2, m)
        with pytest.raises(ValueError):
            truncated_power_weight(2, m)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("m", [1.0, 2.0, 5.0, math.inf])
    def test_round_trip(self, n, m):
        p = Example2Profile(n, m)
        rng = np.random.default_rng(17)
        for r in rng.uniform(1e-3, 1.0, size=100):
            assert abs(p.inverse(p.value(r)) - r) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_numeric_profile_matches_closed_form(self, n):
        num = NumericProfile(power_weight(n))
        ref = Example2Profile(n, math.inf)
        for r in np.linspace(0.02, 1.0, 25):
            assert num.value(float(r)) == pytest.approx(ref.value(float(r)), abs=1e-8)

    def test_numeric_profile_from_truncated_weight(self):
        num = NumericProfile(truncated_power_weight(2, 2.0))
        ref = Example2Profile(2, 2.0)
        for r in np.linspace(0.05, 1.0, 20):
            assert num.value(float(r)) == pytest.approx(ref.value(float(r)), abs=1e-8)

    def test_numeric_derivative_takes_the_outer_branch_at_a_jump(self):
        # the weight's own value at the cut 1/m is the inner branch's 1
        num = NumericProfile(truncated_power_weight(2, 2.0))
        ref = Example2Profile(2, 2.0)
        assert num.derivative(0.5) == pytest.approx(ref.derivative(0.5), rel=1e-12)

    def test_numeric_inverse_below_node_floor(self, monkeypatch):
        # below the node floor the descent is integrated once, with every
        # listed jump as a node, so each Newton step integrates only inside
        # one jump-free bracket, not from scratch
        p = NumericProfile(example1_weight(2))
        evaluations = []

        def counted(*args, **kwargs):
            res = adaptive_integral_1d(*args, **kwargs)
            evaluations.append(res.evaluations)
            return res

        monkeypatch.setattr(radial, "adaptive_integral_1d", counted)
        r = p.inverse(0.01)
        assert sum(evaluations) <= 600_000
        monkeypatch.undo()
        assert r < 1e-3
        assert abs(p.value(r) - 0.01) <= 1e-12

    @pytest.mark.parametrize("weight", [example1_weight(2), power_weight(3)])
    def test_numeric_inverse_quadrature_budget(self, weight, monkeypatch):
        # above the node floor the bracket between two nodes costs no
        # quadrature and the Newton steps a few; bisecting [1e-3, 1] down to
        # a 1e-13 bracket takes 44
        p = NumericProfile(weight)
        rng = np.random.default_rng(18)
        targets = rng.uniform(p.value(radial._R_FLOOR), 1.0, 200)
        calls = _count_quadratures(monkeypatch)
        for s in targets:
            calls.clear()
            r = p.inverse(float(s))
            assert len(calls) <= 6
            assert abs(p.value(r) - s) <= 1e-12

    @pytest.mark.parametrize("weight", _FLAT_WEIGHTS)
    def test_numeric_inverse_never_costs_more_than_bisection(self, weight, monkeypatch):
        # down to just above the range floor, where these profiles are flat
        p = NumericProfile(weight)
        floor = p.range_floor()
        targets = np.concatenate([
            np.geomspace(floor * (1.0 + 1e-9), 1.0, 30),
            np.random.default_rng(1).uniform(floor * (1.0 + 1e-12), p.value(radial._R_FLOOR), 40),
        ])
        budgets = [_bisection_quadratures(p, float(s)) for s in targets]
        calls = _count_quadratures(monkeypatch)
        for s, budget in zip(targets, budgets):
            calls.clear()
            r = p.inverse(float(s))
            assert len(calls) <= budget
            assert abs(p.value(r) - s) <= 1e-12

    def test_numeric_descent_is_integrated_once(self, monkeypatch):
        # once range_floor has deepened the node cache, neither it nor an
        # inverse below the first node floor integrates a descent step again
        p = NumericProfile(FAMILIES["example3"].image_weight(0.01))
        floor = p.range_floor()
        calls = _count_quadratures(monkeypatch)
        assert p.range_floor() == floor
        assert calls == []
        s = 0.5 * (floor + p.value(radial._R_FLOOR))
        r = p.inverse(s)
        assert 0 < len(calls) <= 6
        monkeypatch.undo()
        assert r < radial._R_FLOOR
        assert abs(p.value(r) - s) <= 1e-12

    def test_numeric_value_does_not_depend_on_call_order(self):
        weight = FAMILIES["example3"].image_weight(0.01)
        deepened = NumericProfile(weight)
        deepened.range_floor()
        assert NumericProfile(weight).value(1e-5) == deepened.value(1e-5)

    def test_numeric_inverse_at_nodes(self):
        # 0.5 is both a node and the weight's jump
        p = NumericProfile(truncated_power_weight(2, 2.0))
        assert p.inverse(p.value(0.5)) == pytest.approx(0.5, abs=1e-12)
        assert p.inverse(1.0) == 1.0
        assert p.inverse(p.value(radial._R_FLOOR)) == radial._R_FLOOR

    def test_monotone_root_halving_rule_at_a_multiple_root(self):
        # Newton gains only a factor 4/5 per step at a fifth-order root;
        # the bisections the halving rule forces reach 1e-12 within the cap
        root = radial._monotone_root(
            lambda r: (r - 0.3) ** 5, lambda r: 5.0 / (r - 0.3), 0.0, 1.0, 0.0
        )
        assert abs(root - 0.3) <= 1e-12

    def test_numeric_descent_stops_before_unlisted_jumps(self):
        # below radius 1.56e-5 a x4 step holds more jumps than example1_weight
        # lists; the descent stops there instead of splitting them out one by
        # one, so all three calls finish within a budget of integrand calls
        w = example1_weight(2)
        calls = [0]

        class OverBudget(Exception):
            pass

        def q(t):
            calls[0] += 1
            if calls[0] > 1_500_000:
                raise OverBudget
            return w.q(t)

        p = NumericProfile(RadialWeight(2, q, breakpoints_in=w.breakpoints_in))
        calls[0] = 0
        floor = p.range_floor()
        assert 1e-3 < floor < 1e-2
        calls[0] = 0
        with pytest.raises(ValueError, match="below the resolvable profile range"):
            p.inverse(2e-3)
        # a radius below the deepest node lies outside the profile's domain
        calls[0] = 0
        with pytest.raises(ValueError, match="below the resolvable profile range"):
            p.value(1e-7)
        # the profile's domain is checked before the weight lists any jump
        calls[0] = 0
        with pytest.raises(ValueError, match="below the resolvable profile range"):
            p.derivative(5e-324)

    @pytest.mark.parametrize("shape", ["square", "abs"])
    def test_numeric_profile_zero_where_the_integral_overflows(self, shape, monkeypatch):
        # q > 0 everywhere, but so small near c that the tails below c pass
        # 1e300 or overflow to inf; rho is 0 there and the profile builds.
        # The panel budget only makes the overflowing quadrature give up fast.
        monkeypatch.setattr(numerics, "_MAX_PANELS", 1024)
        c = 0.4003123456789
        dist = {"square": lambda t: (t - c) ** 2, "abs": lambda t: abs(t - c)}[shape]
        p = NumericProfile(RadialWeight(2, lambda t: dist(t) + 1e-300))
        assert p.value(0.39) == 0.0
        assert 0.0 < p.value(0.41) < 1e-3
        assert p.value(p.inverse(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_numeric_profile_rejects_a_weight_infinite_on_a_segment(self):
        w = RadialWeight(2, lambda t: math.inf if 0.3 < t < 0.5 else 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            NumericProfile(w)

    def test_inverse_profile_wraps_base(self):
        base = Example2Profile(2, 2.0)
        inv = InverseProfile(base)
        assert inv.value(base.value(0.3)) == pytest.approx(0.3, abs=1e-11)
        assert inv.kink_radii == (base.value(0.5),)

    def test_out_of_domain_radius(self):
        p = Example2Profile(2, 1.0)
        with pytest.raises(ValueError):
            p.value(1.5)
        with pytest.raises(ValueError):
            p.value(0.0)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        r1=st.floats(0.01, 0.98),
        gap=st.floats(0.01, 0.5),
        m=st.floats(1.0, 8.0),
    )
    def test_profile_strictly_increasing(self, r1, gap, m):
        r2 = min(r1 + gap, 1.0)
        p = Example2Profile(2, m)
        assert p.value(r2) >= p.value(r1)
        if r2 > r1 + 1e-9:
            assert p.value(r2) > p.value(r1)


class TestWeightsAndMeans:
    def test_spherical_mean_of_square_norm(self):
        # mean of |y|^2 over S(y0, r) is |y0|^2 + r^2
        Q = lambda y: float(np.dot(y, y))
        for y0 in ((0.3, -0.2), (0.0, 0.0)):
            got = spherical_mean(Q, np.array(y0), 0.45)
            want = float(np.dot(np.array(y0), np.array(y0))) + 0.45**2
            assert got == pytest.approx(want, rel=1e-9)

    def test_example1_weight_branches(self):
        w = example1_weight(2)
        # power branch on [1/(2k), 1/(2k-1)], unit branch in between
        assert w.q(0.75) == pytest.approx(0.75**-2, rel=1e-12)
        assert w.q(0.4) == pytest.approx(1.0, rel=1e-12)
        assert w.q(0.3) == pytest.approx(0.3**-2, rel=1e-12)
        assert w.q(0.22) == pytest.approx(1.0, rel=1e-12)

    def test_example1_breakpoints_reject_intervals_reaching_zero(self):
        # (0, b) holds infinitely many jumps, so no finite list covers it
        w = example1_weight(2)
        with pytest.raises(ValueError, match="infinitely many jumps"):
            w.breakpoints(0.0, 0.5)
        assert w.breakpoints(0.2, 0.5) == (1 / 3, 1 / 4)

    def test_weight_lists_no_jumps_by_default(self):
        assert RadialWeight(2, lambda t: 1.0).breakpoints(0.1, 0.5) == ()


class TestLehtoIntegral:
    def test_unit_weight_log(self):
        got = lehto_integral(unit_weight(2), 0.1, 0.9)
        assert got == pytest.approx(math.log(9.0), rel=1e-12)

    def test_power_weight_quadratic(self):
        got = lehto_integral(power_weight(2), 0.2, 0.8)
        assert got == pytest.approx((0.64 - 0.04) / 2.0, rel=1e-10)

    def test_truncated_weight_piecewise(self):
        # integrand is t above the cut 1/2 and 1/t below it
        got = lehto_integral(truncated_power_weight(2, 2.0), 0.25, 0.75)
        want = math.log(0.5 / 0.25) + (0.75**2 - 0.5**2) / 2.0
        assert got == pytest.approx(want, rel=1e-10)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            lehto_integral(unit_weight(2), 0.9, 0.1)

    def test_example1_deep_jumps_split_exactly(self):
        # 9998 jumps in [1e-4, 1]: each is a breakpoint, so every annulus
        # is one smooth panel and no jump is hunted down by bisection
        w = example1_weight(2)
        jumps = w.breakpoints(1e-4, 1.0)
        res = adaptive_integral_1d(w.lehto_integrand(), 1e-4, 1.0, breakpoints=jumps)
        # on (1/(j+1), 1/j) the integrand is t for odd j and 1/t for even j
        exact = math.fsum(
            0.5 * (1.0 / j**2 - 1.0 / (j + 1) ** 2) if j % 2 else math.log((j + 1) / j)
            for j in range(1, 10000)
        )
        assert res.value == pytest.approx(exact, abs=1e-10, rel=0)
        assert res.evaluations <= 15 * (len(jumps) + 64)

    def test_example1_deep_jumps_evaluation_count(self):
        # the same split: the integrand is called once per counted evaluation
        w = example1_weight(2)
        g = w.lehto_integrand()
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return g(t)

        res = adaptive_integral_1d(counted, 1e-4, 1.0, breakpoints=w.breakpoints(1e-4, 1.0))
        assert calls == res.evaluations


class TestModulus:
    def test_planar_ring(self):
        assert annulus_modulus(2, 0.5, 1.0) == pytest.approx(
            2.0 * math.pi / math.log(2.0), rel=1e-13
        )

    def test_three_dimensional_ring(self):
        assert annulus_modulus(3, 0.5, 1.0) == pytest.approx(
            unit_sphere_area(3) / math.log(2.0) ** 2, rel=1e-13
        )

    def test_degenerate_radii(self):
        with pytest.raises(ValueError):
            annulus_modulus(2, 1.0, 0.5)


class TestPoletsky:
    def test_identity_extremal_equality(self):
        rep = inverse_poletsky_check(Example2Profile(2, 1.0), unit_weight(2), 0.3, 0.8)
        assert rep.holds
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_worked_pair_limit_profile(self):
        rep = inverse_poletsky_check(
            Example2Profile(2, math.inf), power_weight(2), 0.9, 1.0
        )
        # closed forms: preimage radii (sqrt(1 + 2 ln 0.9), 1) and Lehto
        # integral (1 - 0.81)/2
        s1 = math.sqrt(1.0 + 2.0 * math.log(0.9))
        lhs_want = 2.0 * math.pi / math.log(1.0 / s1)
        rhs_want = 2.0 * math.pi / ((1.0 - 0.81) / 2.0)
        assert rep.lhs == pytest.approx(lhs_want, rel=1e-9)
        assert rep.rhs == pytest.approx(rhs_want, rel=1e-9)
        assert rep.lhs < rep.rhs
        assert rep.holds

    @pytest.mark.parametrize(
        "profile,weight",
        [
            (Example2Profile(2, 1.0), unit_weight(2)),
            (Example2Profile(2, math.inf), power_weight(2)),
            (Example2Profile(2, 2.0), truncated_power_weight(2, 2.0)),
            (Example2Profile(3, math.inf), power_weight(3)),
        ],
    )
    def test_holds_on_random_pairs(self, profile, weight):
        rng = np.random.default_rng(5)
        # image radii must lie inside the map's range, which starts at
        # rho(0+) for profiles that compress the origin
        lo = profile.range_floor() + 0.02
        for _ in range(5):
            r1 = float(rng.uniform(lo, 0.9))
            r2 = float(rng.uniform(r1 + 0.02, 1.0))
            rep = inverse_poletsky_check(profile, weight, r1, r2)
            assert rep.holds

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            inverse_poletsky_check(Example2Profile(2, 1.0), unit_weight(2), 0.8, 0.3)


class TestStretchAndKip:
    def test_identity_factors(self):
        tangential, radial = radial_stretch_factors(Example2Profile(2, 1.0), 0.5)
        assert tangential == pytest.approx(1.0)
        assert radial == pytest.approx(1.0)
        assert radial_K_Ip(Example2Profile(2, 1.0), 0.5, 1.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [1.5, 0.0])
    def test_stretch_factors_outside_the_disk_rejected(self, s):
        with pytest.raises(ValueError, match="outside"):
            radial_stretch_factors(Example2Profile(2, 2.0), s)

    def test_linear_branch_kip(self):
        # inside the cut the map is a pure scaling by c, where the order-p
        # inner dilatation is c^(2-p)
        p = Example2Profile(2, 2.0)
        c = p.derivative(0.1)
        got = radial_K_Ip(p, 0.1, 1.5)
        assert got == pytest.approx(c ** (2.0 - 1.5), rel=1e-12)

    def test_order_two_matches_classical(self):
        p = Example2Profile(2, math.inf)
        s = 0.6
        tangential, radial = radial_stretch_factors(p, s)
        classical = max(tangential, radial) / min(tangential, radial)
        assert radial_K_Ip(p, s, 2.0) == pytest.approx(classical, rel=1e-12)

    def test_kip_routes_agree(self):
        g = Example2Profile(2, 4.0)
        f = InverseProfile(g)
        image = kip_integral_image_route(g, 1.5)
        source = kip_integral_source_route(f, 1.5)
        assert image == pytest.approx(source, rel=1e-8)

    def test_identity_energy_is_disk_area(self):
        # both routes collapse to the plain disk area for the identity
        assert kip_integral_image_route(Example2Profile(2, 1.0), 1.5) == pytest.approx(
            math.pi, rel=1e-10
        )
        assert kip_integral_source_route(Example2Profile(2, 1.0), 1.5) == pytest.approx(
            math.pi, rel=1e-10
        )
