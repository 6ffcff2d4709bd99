"""Radial stretch maps, planar spherical means, Lehto integrals and ring moduli.

A radial map sends x to (x/|x|) * rho(|x|) for an increasing profile rho on
(0, 1] with rho(1) = 1.  Profiles either come in closed form, as the one
truncated power-weight class ``Example2Profile(n, m)`` for 1 <= m <= inf
(m = 1 is the identity, m = inf the limit stretch), or are generated
numerically from a radial weight q through

    rho(r) = exp( - integral_r^1 dt / (t * q(t)^(1/(n-1))) ).

The generating integral is the Lehto integral; its divergence as r -> 0 is
what the degeneracy scans in :mod:`beltrami_lab.verify` probe.  Weights and
profiles live in any dimension n >= 2; spherical means are planar, averages
over circles about a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import (
    IntegrandNonFinite,
    QuadratureConfig,
    QuadratureNonConvergence,
    adaptive_integral_1d,
    unit_sphere_area,
)

__all__ = [
    "RadialWeight",
    "unit_weight",
    "power_weight",
    "example1_weight",
    "truncated_power_weight",
    "spherical_mean",
    "lehto_integral",
    "RadialProfile",
    "Example2Profile",
    "NumericProfile",
    "InverseProfile",
    "radial_stretch_factors",
    "check_order_p",
    "radial_K_Ip",
    "annulus_modulus",
    "PoletskyReport",
    "inverse_poletsky_check",
    "kip_integral_image_route",
    "kip_integral_source_route",
]


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class RadialWeight:
    """Spherical mean profile r -> q(r) of a nonnegative weight about a center.

    ``q`` may return ``math.inf``.  ``breakpoints_in(a, b)`` lists radii in
    (a, b) where q jumps, so quadrature can split there.
    """

    n: int
    q: Callable[[float], float]
    breakpoints_in: Callable[[float, float], tuple] | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("weight dimension must be at least 2")

    def breakpoints(self, a: float, b: float) -> tuple:
        if self.breakpoints_in is None:
            return ()
        return tuple(self.breakpoints_in(a, b))

    def lehto_integrand(self) -> Callable[[float], float]:
        """t -> 1 / (t q(t)^(1/(n-1))), which is 0 where q = inf and inf
        where q = 0."""
        expo = 1.0 / (self.n - 1.0)

        def g(t: float) -> float:
            qt = self.q(t)
            if qt == math.inf:
                return 0.0
            if qt <= 0.0:
                return math.inf
            return 1.0 / (t * qt**expo)

        return g


def unit_weight(n: int = 2) -> RadialWeight:
    return RadialWeight(n, lambda t: 1.0)


def power_weight(n: int = 2) -> RadialWeight:
    """q(t) = t^(-n), the borderline non-integrable weight."""
    return RadialWeight(n, lambda t: t ** (-float(n)))


def _example1_phi(t: float, n: int) -> float:
    # alternating annuli: q = t^(-n) on [1/(2k), 1/(2k-1)], q = 1 on
    # (1/(2k+1), 1/(2k)); the power branch holds iff floor(1/t) is odd or
    # 1/t is an integer.
    if t <= 0.0:
        return math.inf
    if t >= 1.0:
        return t ** (-float(n)) if t == 1.0 else 1.0
    s = 1.0 / t
    j = math.floor(s)
    if s == j or (j % 2 == 1):
        return t ** (-float(n))
    return 1.0


# Most jump radii example1_weight lists for one interval.  The cap bounds
# memory; every scan, profile and the r = 1e-4 Lehto integral stay below it,
# and NumericProfile descends below its node floor only while they do.
_MAX_JUMPS = 2**16
# Jumps listed for an interval reaching 0, which holds infinitely many.  The
# rest are left to adaptive splitting; each listed one is a panel.
_ZERO_PREFIX_JUMPS = 64


def example1_weight(n: int = 2) -> RadialWeight:
    """Registry example 1: power-law annuli alternating with unit annuli.

    The weight equals t^(-n) on [1/(2k), 1/(2k-1)] and 1 in between; both
    its mass integral and the Lehto integral from 0 diverge, each through
    a harmonic-type series over the annuli.
    """

    def breakpoints(a: float, b: float, _n: int = n) -> tuple:
        if b <= a or b <= 0.0:
            return ()
        j_lo = max(2, math.ceil(1.0 / b))
        if a > 0.0:
            j_hi = min(j_lo + _MAX_JUMPS, math.floor(1.0 / a))
        else:
            j_hi = j_lo + _ZERO_PREFIX_JUMPS
        return tuple(
            1.0 / j for j in range(j_lo, j_hi + 1) if a < 1.0 / j < b
        )

    return RadialWeight(n, lambda t: _example1_phi(t, n), breakpoints_in=breakpoints)


def truncated_power_weight(n: int, m: float) -> RadialWeight:
    """q(t) = t^(-n) outside radius 1/m, 1 inside (registry example 2);
    m = inf is the power weight."""
    if not (m >= 1.0):
        raise ValueError("truncation parameter m must be >= 1")
    cut = 1.0 / m

    def q(t: float) -> float:
        return 1.0 if t <= cut else t ** (-float(n))

    def breakpoints(a: float, b: float) -> tuple:
        return (cut,) if a < cut < b else ()

    return RadialWeight(n, q, breakpoints_in=breakpoints)


def spherical_mean(Q: Callable, y0, r: float) -> float:
    """Average of Q over the circle S(y0, r) in the plane.

    Q takes a point as a length-2 array; y0 = None is the origin.  The mean
    is an adaptive angular quadrature, and an infinite integrand at any
    quadrature node makes it ``inf``.
    """
    if r <= 0.0:
        raise ValueError("sphere radius must be positive")
    y0 = np.zeros(2) if y0 is None else np.asarray(y0, dtype=float)
    if y0.shape != (2,):
        raise ValueError("center must be a point of the plane")

    def integrand(theta: float) -> float:
        p = y0 + r * np.array([math.cos(theta), math.sin(theta)])
        return float(Q(p))

    try:
        res = adaptive_integral_1d(integrand, 0.0, 2.0 * math.pi)
    except IntegrandNonFinite:
        return math.inf
    return res.value / (2.0 * math.pi)


def lehto_integral(w: RadialWeight, r_lo: float, r_hi: float) -> float:
    """integral_{r_lo}^{r_hi} dt / (t * q(t)^(1/(n-1))).

    Conventions: the integrand is 0 where q = inf and inf where q = 0 (an
    infinite node makes the whole integral inf).  Divergence toward 0 is
    never probed here; shrink r_lo through the scan operations instead.
    """
    if r_lo < 0.0 or not math.isfinite(r_lo) or not math.isfinite(r_hi):
        raise ValueError("radii must be finite and nonnegative")
    if r_lo == 0.0:
        raise ValueError("lower radius must be positive; use a divergence scan for 0")
    if r_hi < r_lo:
        raise ValueError("need r_hi >= r_lo")
    if r_hi == r_lo:
        return 0.0
    try:
        res = adaptive_integral_1d(
            w.lehto_integrand(), r_lo, r_hi, breakpoints=w.breakpoints(r_lo, r_hi)
        )
    except IntegrandNonFinite:
        return math.inf
    return res.value


# ---------------------------------------------------------------------------
# profiles


class RadialProfile:
    """Increasing profile rho on (0, 1] with rho(1) = 1 (or the map's range cap)."""

    n: int = 2
    kink_radii: tuple = ()

    def value(self, r: float) -> float:
        raise NotImplementedError

    def derivative(self, r: float) -> float:
        """rho'(r); at a kink, the outer-branch (right) value."""
        raise NotImplementedError

    def inverse(self, s: float) -> float:
        raise NotImplementedError

    def range_floor(self) -> float:
        """Lower end of the values :meth:`inverse` resolves: rho(0+) for the
        closed-form profiles."""
        return 0.0

    def _check_radius(self, r: float) -> None:
        if not (0.0 < r <= 1.0 + 1e-12):
            raise ValueError(f"profile radius {r!r} outside (0, 1]")


class Example2Profile(RadialProfile):
    """Truncated power-weight profile for 1 <= m <= inf: linear scaling
    inside radius 1/m, the limit stretch exp(((n-1)/n) (r^(n/(n-1)) - 1))
    outside.  m = 1 is the identity; m = inf is the limit stretch itself,
    with no linear core, whose range starts at rho(0+) = e^(-(n-1)/n)."""

    def __init__(self, n: int = 2, m: float = 2.0):
        if n < 2:
            raise ValueError("dimension must be at least 2")
        if not (m >= 1.0):
            raise ValueError("truncation parameter m must be >= 1")
        self.n = n
        self.m = float(m)
        self._a = (n - 1.0) / n
        self._b = n / (n - 1.0)
        self._cut = 1.0 / self.m
        # inner slope: continuity at 1/m gives rho = m * slope0 * r there
        # (inf at m = inf, where no radius lies inside the cut)
        self._slope = self.m * self._stretch(self._cut)
        self.kink_radii = (self._cut,) if 1.0 < self.m < math.inf else ()

    def _stretch(self, r: float) -> float:
        return math.exp(self._a * (r**self._b - 1.0))

    def value(self, r: float) -> float:
        self._check_radius(r)
        r = min(float(r), 1.0)
        if r <= self._cut:
            return self._slope * r
        return self._stretch(r)

    def derivative(self, r: float) -> float:
        self._check_radius(r)
        r = min(float(r), 1.0)
        if r < self._cut:
            return self._slope
        return self._stretch(r) * r ** (self._b - 1.0)

    def inverse(self, s: float) -> float:
        if not (0.0 <= s <= 1.0 + 1e-12):
            raise ValueError(f"value {s!r} outside the profile range")
        s = min(float(s), 1.0)
        if self._cut > 0.0 and s <= self._slope * self._cut:
            return s / self._slope
        t = 1.0 + math.log(s) / self._a if s > 0.0 else 0.0
        if t <= 0.0:
            raise ValueError(
                f"value {s!r} below the profile range (rho(0+) = {self.range_floor():g})"
            )
        return t ** (1.0 / self._b)

    def range_floor(self) -> float:
        return 0.0 if self._cut > 0.0 else math.exp(-self._a)


# NumericProfile caches its suffix integrals at nodes down to this radius
_R_FLOOR = 1e-3
# NumericProfile descends below _R_FLOOR in steps of 4 until under this
_R_MIN = 1e-9


class NumericProfile(RadialProfile):
    """Profile generated from a weight by quadrature of the Lehto integrand.

    Suffix integrals down from r = 1 are cached at a fixed node set; an
    evaluation at arbitrary r adds one short quadrature from r to the next
    node, so values agree with a from-scratch quadrature to the working
    tolerance and the profile is strictly increasing by construction.  The
    inverse brackets its root between two nodes, or two descent radii below
    the floor, and refines it by Newton steps with rho' = g rho.
    """

    # tolerance of every generating quadrature
    QUAD = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)

    def __init__(self, weight: RadialWeight):
        self.n = weight.n
        self.weight = weight
        self._g = weight.lehto_integrand()
        lo_part = np.geomspace(_R_FLOOR, 0.1, 49)
        hi_part = np.linspace(0.1, 1.0, 181)
        nodes = set(np.concatenate([lo_part, hi_part]).tolist())
        nodes.update(weight.breakpoints(_R_FLOOR, 1.0))
        self._nodes = np.array(sorted(nodes))
        segs = []
        for lo, hi in zip(self._nodes[:-1], self._nodes[1:]):
            res = adaptive_integral_1d(
                self._g, lo, hi, self.QUAD, breakpoints=weight.breakpoints(lo, hi)
            )
            segs.append(res.value)
        segs = np.array(segs)
        if np.any(segs <= 0.0):
            raise ValueError(
                "weight is infinite on a whole segment; profile would not be "
                "strictly increasing"
            )
        # suffix sums: tail[i] = integral from node i to 1
        self._tails = np.concatenate([np.cumsum(segs[::-1])[::-1], [0.0]])
        self.kink_radii = tuple(weight.breakpoints(_R_FLOOR, 1.0))

    def _tail_from(self, r: float, node: float, tail: float) -> float:
        """integral_r^1 of the generating integrand, given its value ``tail``
        at a radius ``node`` >= r; inf where the integral overflows."""
        if node > r:
            try:
                res = adaptive_integral_1d(
                    self._g, r, node, self.QUAD, breakpoints=self.weight.breakpoints(r, node)
                )
            except QuadratureNonConvergence as exc:
                if exc.estimate > 50.0:
                    return math.inf
                raise
            tail += res.value
        return tail

    def value(self, r: float) -> float:
        """rho(r), reported as 0 where the generating integral overflows."""
        self._check_radius(r)
        r = min(float(r), 1.0)
        i = int(np.searchsorted(self._nodes, r, side="left"))
        return _rho(self._tail_from(r, float(self._nodes[i]), float(self._tails[i])))

    def derivative(self, r: float) -> float:
        self._check_radius(r)
        r = min(float(r), 1.0)
        # at a jump of the weight, the integrand just outside it
        up = math.nextafter(r, 2.0)
        t = up if self.weight.breakpoints(math.nextafter(r, 0.0), up) else r
        return self._g(t) * self.value(r)

    def _descent(self):
        """(r, integral_r^1) for r = _R_FLOOR/4, _R_FLOOR/16, ..., each
        integrated from the radius before, down to the first r under _R_MIN.
        It stops early before a step whose interval lists _MAX_JUMPS or more
        jumps of the weight: past those, adaptive splitting would have to
        find the remaining jumps one at a time."""
        hi, tail = _R_FLOOR, float(self._tails[0])
        while hi >= _R_MIN:
            lo = 0.25 * hi
            if len(self.weight.breakpoints(lo, hi)) >= _MAX_JUMPS:
                return
            tail = self._tail_from(lo, hi, tail)
            yield lo, tail
            hi = lo

    def inverse(self, s: float) -> float:
        if not (0.0 < s <= 1.0 + 1e-12):
            raise ValueError(f"value {s!r} outside the profile range")
        s = min(float(s), 1.0)
        if s >= self.value(_R_FLOOR):
            # rho at node i is exp(-tails[i]); every listed jump above the
            # floor is a node, so rho is smooth inside the bracket
            i = max(1, int(np.searchsorted(-self._tails, math.log(s))))
            return _monotone_root(self.value, self._g, *self._nodes[i - 1:i + 1].tolist(), s)
        # Below the node floor each value integrates only up to the nearest
        # radius this call has already integrated.
        tails = {_R_FLOOR: float(self._tails[0])}

        def value(r: float) -> float:
            node = min(t for t in tails if t >= r)
            tails[r] = tail = self._tail_from(r, node, tails[node])
            return _rho(tail)

        hi = _R_FLOOR
        for lo, tail in self._descent():
            tails[lo] = tail
            if s >= _rho(tail):
                return _monotone_root(value, self._g, lo, hi, s)
            hi = lo
        raise ValueError(f"value {s!r} below the resolvable profile range")

    def range_floor(self) -> float:
        """rho at the deepest radius :meth:`inverse` brackets with."""
        tail = float(self._tails[0])
        for _, tail in self._descent():
            pass
        return _rho(tail)


class InverseProfile(RadialProfile):
    """Profile of the inverse map of a strictly increasing base profile."""

    def __init__(self, base: RadialProfile):
        if abs(base.value(1.0) - 1.0) > 1e-9:
            raise ValueError("inverse profile needs rho(1) = 1 on the base")
        self.base = base
        self.n = base.n
        self.kink_radii = tuple(base.value(t) for t in base.kink_radii)

    def value(self, r: float) -> float:
        self._check_radius(r)
        return self.base.inverse(min(float(r), 1.0))

    def derivative(self, r: float) -> float:
        self._check_radius(r)
        return 1.0 / self.base.derivative(self.base.inverse(min(float(r), 1.0)))

    def inverse(self, s: float) -> float:
        return self.base.value(s)


def _rho(tail: float) -> float:
    """exp(-tail), reported as 0 once the tail integral passes 700."""
    return 0.0 if tail > 700.0 else math.exp(-tail)


def _monotone_root(fn: Callable[[float], float], log_slope: Callable[[float], float],
                   lo: float, hi: float, target: float) -> float:
    """Solve fn(r) = target for increasing fn on [lo, hi] by safeguarded
    Newton steps from the secant point; ``log_slope(r)`` is fn'(r)/fn(r).  A
    step that leaves the bracket or does not halve the step before it is a
    bisection.  Stops at a Newton step of 1e-14, taking it at no cost, at a
    bisection of a bracket 1e-13 wide, or at a value within one ulp of the
    target, so terminates at 1e-12 absolute in the radius."""
    flo, fhi = fn(lo), fn(hi)
    if target <= flo:
        return lo
    if target >= fhi:
        return hi
    r, step = lo + (target - flo) * (hi - lo) / (fhi - flo), hi - lo
    for _ in range(80):
        f = fn(r)
        if abs(f - target) <= math.ulp(target):
            return r
        lo, hi = (r, hi) if f < target else (lo, r)
        d = log_slope(r) * f
        dr = (target - f) / d if 0.0 < d < math.inf else math.inf
        if abs(dr) <= 1e-14:
            return r + dr
        if not (lo < r + dr < hi and abs(dr) <= 0.5 * step):
            if hi - lo <= 1e-13:
                return r
            dr = 0.5 * (lo + hi) - r
        r, step = r + dr, abs(dr)
    return r


def radial_stretch_factors(p: RadialProfile, s: float) -> tuple:
    """(tangential, radial) = (rho(s)/s, rho'(s)) at radius s."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"radius {s!r} outside (0, 1]")
    return p.value(s) / s, p.derivative(s)


def check_order_p(order_p: float) -> float:
    """The order p of an inner dilatation K_{I,p}: 1 < p <= 2."""
    if not (1.0 < order_p <= 2.0):
        raise ValueError("order p must lie in (1, 2]")
    return order_p


def radial_K_Ip(p: RadialProfile, s: float, order_p: float) -> float:
    """Inner dilatation of order p of the radial map at radius s:
    (tangential * radial) / min(tangential, radial)^p, with the
    conventions 1 when both stretch factors vanish and inf when exactly
    one does."""
    check_order_p(order_p)
    dt, dr = radial_stretch_factors(p, s)
    if dt < 0.0 or dr < 0.0:
        raise ValueError("stretch factors must be nonnegative")
    if dt == 0.0 and dr == 0.0:
        return 1.0
    lo = min(dt, dr)
    if lo == 0.0:
        return math.inf
    return dt * dr / lo**order_p


def annulus_modulus(n: int, r1: float, r2: float) -> float:
    """Conformal modulus of the ring r1 < |x| < r2 in R^n."""
    if not (0.0 < r1 < r2):
        raise ValueError("need 0 < r1 < r2")
    return unit_sphere_area(n) / math.log(r2 / r1) ** (n - 1.0)


@dataclass(frozen=True)
class PoletskyReport:
    lhs: float
    rhs: float
    holds: bool


def inverse_poletsky_check(
    p: RadialProfile,
    w: RadialWeight,
    r1: float,
    r2: float,
) -> PoletskyReport:
    """Modulus bound for the inverse map on the ring r1 < |y| < r2.

    lhs is the modulus of the preimage ring (radii rho^-1(r1), rho^-1(r2));
    rhs is omega_{n-1} / I^{n-1} with I the Lehto integral of the weight
    over (r1, r2).  ``holds`` allows a 1e-9 relative slack; a vanishing I
    makes the rhs infinite and the check degenerate.
    """
    if not (0.0 < r1 < r2 <= 1.0 + 1e-12):
        raise ValueError("need image radii 0 < r1 < r2 <= 1")
    n = p.n
    if w.n != n:
        raise ValueError("profile and weight dimensions differ")
    s1 = p.inverse(min(r1, 1.0))
    s2 = p.inverse(min(r2, 1.0))
    lhs = annulus_modulus(n, s1, s2)
    lehto = lehto_integral(w, r1, min(r2, 1.0))
    if lehto <= 0.0:
        return PoletskyReport(lhs, math.inf, True)
    rhs = unit_sphere_area(n) / lehto ** (n - 1.0)
    return PoletskyReport(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# plane integrals of the inner dilatation (n = 2 maps)


def kip_integral_image_route(g_profile: RadialProfile, order_p: float) -> float:
    """integral over the unit disk of K_Ip(y, g) dm(y) for the radial map g,
    computed as 2 pi * int_0^1 K_Ip(s) s ds."""

    def integrand(s: float) -> float:
        return radial_K_Ip(g_profile, s, order_p) * s

    res = adaptive_integral_1d(integrand, 1e-12, 1.0, breakpoints=g_profile.kink_radii)
    return 2.0 * math.pi * res.value


def kip_integral_source_route(f_profile: RadialProfile, order_p: float) -> float:
    """Same integral through the change of variables w = f(z): the p-energy
    2 pi * int_0^1 max(tangential, radial)^p s ds of the forward map f."""

    def integrand(s: float) -> float:
        return max(radial_stretch_factors(f_profile, s)) ** order_p * s

    res = adaptive_integral_1d(integrand, 1e-12, 1.0, breakpoints=f_profile.kink_radii)
    return 2.0 * math.pi * res.value
