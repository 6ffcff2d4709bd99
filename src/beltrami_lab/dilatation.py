"""Complex dilatation fields, truncation, and dilatation functionals.

The solver takes a field as a ``MuSpec``, and each source of fields is one
constructor of it: ``MuSpec.family`` for an entry of the family table,
``MuSpec.constant`` and ``MuSpec.from_grid`` for a constant and for sampled
values.  A constructor gives the record its ``kind`` (the name reports
print), its ``field`` on the open unit disk, ``sup`` (ess sup |mu| before
the cap) and ``jumps`` (the circles where |mu| capped at k jumps), so
evaluation, truncation and the bounds need no branch on the source.

The family table ``FAMILIES`` holds the degenerate dilatation fields that
have closed-form solutions.  Each is a radial stretch f(z) = (z/|z|) g(|z|)
of the unit disk with the dilatation mu = (z^2/|z|^2) m(|z|), zero inside
an onset circle where |mu| climbs to 1 and zero outside the unit disk.  An
entry (``Family``) gives m, g, g^-1, the radius of the disk that the cap at
level k empties, the image-side weight and the rule for the parameter
alpha; the field, the solution of the capped equation, its inverse and the
jump circles of |mu| are derived from these once, for every entry.  MuSpec,
named_map and the command line look families up in the table, so a new
radial family is one entry:

* ``example3``: |mu| climbs to 1 at the circle |z| = 1/2, parametrized by
  0 < alpha < 2; the maximal dilatation is K(z) = 2|z| / (alpha (2|z|-1)).
* ``example4``: |mu| climbs to 1 at |z| = e^{-1/2}; K(z) = 1/(1 + 2 ln|z|).

Truncation at level k zeroes mu wherever K exceeds k, which for these
families empties a concentric disk; the resulting fields are uniformly
elliptic (ess sup |mu_k| <= (k-1)/(k+1)) and feed the solver.  Inside the
emptied disk the capped solution is linear.  The closed-form solutions and
their inverses are grid-free oracles for everything the solver produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    ComplexField,
    IntegrandNonFinite,
    QuadratureConfig,
    QuadratureNonConvergence,
    adaptive_integral_1d,
    bilinear,
    unit_sphere_area,
)
from .radial import (
    Example2Profile,
    RadialWeight,
    power_weight,
    spherical_mean,
)

__all__ = [
    "MuSpec",
    "K_mu",
    "check_level",
    "truncate_mu",
    "L1Report",
    "l1_norm",
    "IntegrabilityScan",
    "check_radii",
    "spherical_integrability_scan",
    "k_sup_probe",
    "solution_example3",
    "solution_example4",
    "Family",
    "FAMILIES",
    "named_map",
]


def _as_complex(z):
    return np.asarray(z, dtype=np.complex128)


def check_level(k: float) -> float:
    """A truncation level: k >= 1, with k = inf meaning no cap."""
    if not (k >= 1.0):
        raise ValueError("truncation level must be >= 1")
    return float(k)


def _check_alpha3(alpha) -> None:
    if alpha is None or not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")


def _radial_branches(z, cut, outer, inner=None, name="map", open_disk=False):
    """outer(z, |z|) for |z| > cut and inner(z) (zero when None) for
    |z| <= cut, on the closed unit disk, or the open one with open_disk."""
    zz = _as_complex(z)
    r = np.abs(zz)
    if np.any(r >= 1.0) if open_disk else np.any(r > 1.0 + 1e-12):
        disk = "open" if open_disk else "closed"
        raise ValueError(f"{name} is defined on the {disk} unit disk")
    out = np.zeros_like(zz)
    far = r > cut
    if inner is not None:
        out[~far] = inner(zz[~far])
    out[far] = outer(zz[far], r[far])
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class MuSpec:
    """A dilatation field plus an optional truncation cap.

    Each source is one constructor that sets ``kind``, ``field`` (z -> mu(z)
    on the open unit disk), ``sup`` (ess sup |mu| before the cap) and
    ``jumps`` (k -> the circles where |mu| capped at k jumps).  ``mu``
    evaluates the field anywhere in the plane (zero outside the unit disk);
    ``k_cap`` applies truncation pointwise, keeping values with maximal
    dilatation <= k_cap and zeroing the rest.
    """

    kind: str
    field: Callable
    sup: float
    jumps: Callable
    k_cap: float = math.inf

    def __post_init__(self) -> None:
        check_level(self.k_cap)

    @classmethod
    def family(cls, name: str, alpha: float | None) -> "MuSpec":
        """The field of the table family ``name`` (alpha None if it takes none)."""
        if name not in FAMILIES:
            raise ValueError(f"unknown dilatation {name!r}")
        fam = FAMILIES[name]
        a = fam.alpha_of(alpha)
        return cls(name, lambda z: fam.mu(z, a), 1.0, lambda k: fam.jump_radii(a, k))

    @classmethod
    def example3(cls, alpha: float) -> "MuSpec":
        return cls.family("example3", alpha)

    @classmethod
    def example4(cls) -> "MuSpec":
        return cls.family("example4", None)

    @classmethod
    def constant(cls, c: complex) -> "MuSpec":
        c = complex(c)
        if not abs(c) < 1.0:
            raise ValueError("constant dilatation needs |c| < 1")
        return cls("constant", lambda z: c, abs(c), lambda k: (1.0,) if c != 0 else ())

    @classmethod
    def from_grid(cls, field: ComplexField) -> "MuSpec":
        """The bilinear interpolant of the samples, zeroed off the unit disk;
        the grid's box must contain [-1, 1]^2."""
        g = field.grid
        if min(-g.x_min, g.x_max, -g.y_min, g.y_max) < 1.0 - 1e-12:
            raise ValueError(f"grid box [{g.x_min:g}, {g.x_max:g}] x [{g.y_min:g}, "
                             f"{g.y_max:g}] does not contain [-1, 1]^2")
        data = np.where(np.abs(g.zz()) < 1.0, field.data, 0.0)
        sup = float(np.max(np.abs(data)))
        if sup > 1.0:
            raise ValueError("grid dilatation samples must satisfy |mu| <= 1")
        masked = ComplexField(g, data)
        return cls("grid", lambda z: bilinear(masked, z), sup, lambda k: (1.0,))

    def mu(self, z):
        zz = _as_complex(z)
        inside = np.abs(zz) < 1.0
        out = np.zeros_like(zz)
        out[inside] = self.field(zz[inside])
        if math.isfinite(self.k_cap):
            thr = (self.k_cap - 1.0) / (self.k_cap + 1.0)
            out = np.where(np.abs(out) <= thr, out, 0.0)
        return out if out.shape else complex(out)

    def sample(self, grid) -> ComplexField:
        return ComplexField(grid, self.mu(grid.zz()))

    def sup_abs_bound(self) -> float:
        """Essential sup of |mu| after the cap (analytic where known)."""
        if math.isfinite(self.k_cap):
            return min(self.sup, (self.k_cap - 1.0) / (self.k_cap + 1.0))
        return self.sup

    def jump_radii(self) -> tuple:
        """Circles where the field is discontinuous (finite-difference
        comparisons exclude small bands around these)."""
        return self.jumps(self.k_cap)


def K_mu(mu_value):
    """Maximal dilatation (1 + |mu|) / (1 - |mu|); inf where |mu| = 1."""
    m = np.abs(np.asarray(mu_value))
    if np.any(m > 1.0 + 1e-12):
        raise ValueError("|mu| exceeds 1")
    m = np.minimum(m, 1.0)
    with np.errstate(divide="ignore"):
        out = np.where(m < 1.0, (1.0 + m) / (1.0 - m), np.inf)
    return out if out.shape else float(out)


def truncate_mu(spec: MuSpec, k: float) -> MuSpec:
    """Zero the field wherever its maximal dilatation exceeds k."""
    return replace(spec, k_cap=min(spec.k_cap, check_level(k)))


# ---------------------------------------------------------------------------
# mass integrals and scans


@dataclass(frozen=True)
class L1Report:
    value: float
    divergent: bool
    partial: float
    shell_edges: tuple
    shell_values: tuple


_L1_MAX_SHELLS = 40
_L1_GROWTH_FACTOR = 6.0


def _steady_ratio(terms: list) -> float | None:
    """The last term ratio of a steady decay (see l1_norm), else None."""
    if len(terms) < 3 or min(terms[-3:]) <= 0.0:
        return None
    r1, r2 = terms[-2] / terms[-3], terms[-1] / terms[-2]
    return r2 if r2 < 1.0 and abs(r2 - r1) <= 1e-4 * r2 else None


def l1_norm(weight: RadialWeight) -> L1Report:
    """Mass of the weight over the unit ball, by dyadic radial shells.

    Shell terms c_j integrate omega_{n-1} q(s) s^{n-1} over
    [2^{-j-1}, 2^{-j}].  The sum is declared convergent once the last three
    terms decay geometrically (ratio <= 0.6) and the geometric tail estimate
    drops below the quadrature tolerance; it is flagged divergent (value =
    inf, partial sum reported) once at least 8 shells are in, the last three
    terms stay above 5% of the largest term, the partial sum exceeds 6
    times the largest single term and the decay is not steady (the last two
    term ratios below 1 and equal to 1e-4 relative).  At most 40 shells are
    summed; a steady decay with ratio r then adds its tail c r / (1 - r)
    (example3's image weight decays by 2^(alpha-2) per shell).  Otherwise
    the sum is divergent if it exceeds 6 times its largest term, and
    QuadratureNonConvergence is raised if not.
    """
    omega = unit_sphere_area(weight.n)
    expn = weight.n - 1.0

    def integrand(s: float) -> float:
        return omega * weight.q(s) * s**expn

    edges: list[tuple[float, float]] = []
    terms: list[float] = []
    partial = 0.0
    for j in range(_L1_MAX_SHELLS):
        hi = 2.0**-j
        lo = 2.0 ** -(j + 1)
        try:
            res = adaptive_integral_1d(
                integrand, lo, hi, breakpoints=weight.breakpoints(lo, hi)
            )
            term = res.value
        except IntegrandNonFinite:
            return L1Report(math.inf, True, math.inf, tuple(edges), tuple(terms))
        edges.append((lo, hi))
        terms.append(term)
        partial += term
        if len(terms) >= 3:
            c1, c2, c3 = terms[-3], terms[-2], terms[-1]
            if c2 <= 0.6 * c1 and c3 <= 0.6 * c2:
                ratio = 0.0 if c2 == 0.0 else min(c3 / c2, 0.9)
                tail = c3 * ratio / (1.0 - ratio)
                if tail <= QuadratureConfig().tolerance(partial):
                    return L1Report(
                        partial + tail, False, partial, tuple(edges), tuple(terms)
                    )
        biggest = max(terms)
        if (
            len(terms) >= 8
            and min(terms[-3:]) >= 0.05 * biggest
            and partial >= _L1_GROWTH_FACTOR * biggest
            and _steady_ratio(terms) is None
        ):
            return L1Report(math.inf, True, partial, tuple(edges), tuple(terms))
    ratio = _steady_ratio(terms)
    if ratio is not None:
        tail = terms[-1] * ratio / (1.0 - ratio)
        return L1Report(partial + tail, False, partial, tuple(edges), tuple(terms))
    if partial >= _L1_GROWTH_FACTOR * max(terms):
        return L1Report(math.inf, True, partial, tuple(edges), tuple(terms))
    raise QuadratureNonConvergence(partial, math.inf, 0)


@dataclass(frozen=True)
class IntegrabilityScan:
    radii: tuple
    means: tuple
    finite: tuple
    finite_measure_estimate: float


def check_radii(radii: Sequence[float]) -> tuple:
    """Scan radii: at least one, each finite and positive."""
    rs = tuple(float(r) for r in radii)
    if not rs or not all(0.0 < r < math.inf for r in rs):
        raise ValueError("radii must be finite and positive")
    return rs


def spherical_integrability_scan(Q, y0, radii: Sequence[float]) -> IntegrabilityScan:
    """Per-radius finiteness of the mean of Q over the circle about y0 in
    the plane (a radial weight's own value q(r)), plus a trapezoid estimate
    of the measure of the radius set with finite mean."""
    rs = sorted(check_radii(radii))
    means = []
    for r in rs:
        try:
            if isinstance(Q, RadialWeight):
                means.append(float(Q.q(r)))
            else:
                means.append(spherical_mean(Q, y0, r))
        except ArithmeticError:  # a mean past the float range is infinite
            means.append(math.inf)
    flags = [math.isfinite(v) for v in means]
    measure = 0.0
    for i in range(len(rs) - 1):
        seg = rs[i + 1] - rs[i]
        measure += seg * 0.5 * (flags[i] + flags[i + 1])
    return IntegrabilityScan(tuple(rs), tuple(means), tuple(flags), measure)


# k_sup_probe evaluates K on this many points of a spiral in the disk
_K_PROBE_POINTS = 400


def k_sup_probe(spec: MuSpec) -> float:
    """Largest finite maximal dilatation of the field on a spiral of points
    in the disk (1 if there is none)."""
    ts = (np.arange(_K_PROBE_POINTS) + 0.5) / _K_PROBE_POINTS
    pts = 0.97 * np.sqrt(ts) * np.exp(2j * math.pi * ts * 29.0)
    kvals = np.asarray(K_mu(spec.mu(pts)))
    return float(np.max(kvals[np.isfinite(kvals)], initial=1.0))


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """One entry of the family table: a radial stretch f(z) = (z/|z|) g(|z|)
    and its dilatation mu = (z^2/|z|^2) m(|z|), where m = (r g' - g) /
    (r g' + g) between the onset circle (g = 0, m = 1) and the unit circle,
    and mu = 0 inside the onset circle.

    The entry's callables take alpha already checked (a family without one,
    check_alpha None, ignores it).  From m, g, g^-1 and the cap radius the
    methods derive the field, the solution of the equation capped at level
    k, its inverse and the circles where |mu| jumps; they check alpha and k.
    """

    modulus: Callable  # (r, alpha) -> m(r), the field's modulus off the onset disk
    stretch: Callable  # (r, alpha) -> g(r), the solution's radial profile
    unstretch: Callable  # (s, alpha) -> g^-1(s)
    cap_radius: Callable  # (alpha, k) -> radius of the disk the cap at k empties
    image_weight: Callable  # alpha -> RadialWeight majorizing the inverse's dilatation
    check_alpha: Callable | None = None  # raises ValueError for a bad alpha

    def alpha_of(self, alpha):
        """alpha checked by the family's rule; None if it takes no alpha."""
        if self.check_alpha is None:
            return None
        self.check_alpha(alpha)
        return alpha

    def radius(self, alpha, k: float) -> float:
        """Radius of the disk that the cap at level k empties, clipped to 1;
        k = inf gives the onset circle."""
        return min(1.0, self.cap_radius(self.alpha_of(alpha), check_level(k)))

    def mu(self, z, alpha):
        """The field on the open unit disk."""
        a = self.alpha_of(alpha)
        return _radial_branches(
            z, self.radius(a, math.inf),
            lambda z, r: (z * z) / (r * r) * self.modulus(r, a), name="mu", open_disk=True,
        )

    def _cap(self, alpha, k: float) -> tuple:
        """(r_t, g(r_t), c) at level k: the cap radius, its image and the
        slope of the linear map inside it.  c = 0 for k = inf; once the cap
        empties the disk, r_t = g(r_t) = inf and c = 1."""
        r_t = self.radius(alpha, k)
        if math.isinf(k):
            return r_t, 0.0, 0.0
        if r_t >= 1.0:
            return math.inf, math.inf, 1.0
        s_t = self.stretch(r_t, alpha)
        return r_t, s_t, s_t / r_t

    def solution(self, z, alpha, k: float = math.inf):
        """Normalized solution of the equation capped at level k, on the
        closed unit disk: (z/|z|) g(|z|) outside the cap radius r_t and the
        linear map (g(r_t)/r_t) z inside it, which is 0 for k = inf and the
        identity once the cap empties the disk."""
        a = self.alpha_of(alpha)
        r_t, _, c = self._cap(a, k)
        return _radial_branches(
            z, r_t, lambda z, r: z / r * self.stretch(r, a), lambda z: c * z, "solution"
        )

    def inverse(self, y, alpha, k: float = math.inf):
        """Inverse of the solution: (y/|y|) g^-1(|y|) outside g(r_t), linear
        inside it; for k = inf, 0 (the image of the onset disk) is refused."""
        a = self.alpha_of(alpha)
        _, s_t, c = self._cap(a, k)
        if math.isinf(k) and np.any(np.abs(_as_complex(y)) == 0.0):
            raise ValueError("0 is not in the image of the limit map")
        return _radial_branches(
            y, s_t, lambda y, s: y / s * self.unstretch(s, a), lambda y: y / c, "inverse"
        )

    def jump_radii(self, alpha, k: float = math.inf) -> tuple:
        """Circles where |mu| capped at k jumps: the edge of the emptied
        disk (the onset circle for k = inf), plus the unit circle where m(1)
        is not 0; none once the cap empties the whole disk."""
        inner = self.radius(alpha, k)
        if inner >= 1.0:
            return ()
        rim = self.modulus(1.0, self.alpha_of(alpha)) != 0
        return (inner, 1.0) if rim else (inner,)


FAMILIES = {
    # K(z) = 2|z| / (alpha (2|z| - 1)) for 0 < alpha < 2: |mu| climbs to 1
    # at |z| = 1/2 and drops to 0 across the unit circle
    "example3": Family(
        modulus=lambda r, a: ((2.0 * r - a * (2.0 * r - 1.0))
                              / (2.0 * r + a * (2.0 * r - 1.0))),
        stretch=lambda r, a: (2.0 * r - 1.0) ** (1.0 / a),
        unstretch=lambda s, a: (s**a + 1.0) / 2.0,
        cap_radius=lambda a, k: (0.5 if math.isinf(k) else 1.0 if k * a <= 1.0
                                 else k * a / (2.0 * (k * a - 1.0))),
        # q(s) = (s^alpha + 1) / (alpha s^alpha), integrable in degree q iff
        # alpha < 2/q
        image_weight=lambda a: RadialWeight(
            2, lambda s: (s**a + 1.0) / (a * s**a) if s > 0.0 else math.inf
        ),
        check_alpha=_check_alpha3,
    ),
    # K(z) = 1 / (1 + 2 ln|z|): |mu| climbs to 1 at |z| = e^{-1/2} and falls
    # to 0 at the unit circle
    "example4": Family(
        modulus=lambda r, a: -np.log(r) / (1.0 + np.log(r)),
        stretch=lambda r, a: np.sqrt(2.0 * np.log(r) + 1.0),
        unstretch=lambda s, a: np.exp((s * s - 1.0) / 2.0),
        cap_radius=lambda a, k: (math.exp(-0.5) if math.isinf(k)
                                 else math.exp((1.0 - k) / (2.0 * k))),
        image_weight=lambda a: power_weight(2),  # q(s) = s^-2
    ),
}


def solution_example3(z, alpha: float, k: float = math.inf):
    """FAMILIES["example3"].solution: (z/|z|) (2|z| - 1)^(1/alpha) outside
    the cap radius, linear inside."""
    return FAMILIES["example3"].solution(z, alpha, k)


def solution_example4(z, k: float = math.inf):
    """FAMILIES["example4"].solution: (z/|z|) (2 ln|z| + 1)^(1/2) outside
    the cap radius, linear inside."""
    return FAMILIES["example4"].solution(z, None, k)


def named_map(name: str, alpha: float | None = None, k: float | None = None,
              m: float | None = None):
    """Closed-form map registry for scans: returns (evaluator on complex
    arrays, branch radii).  Names: identity, example2, and the solutions of
    the table families (alpha defaults to 0.5, k to no cap), whose branch
    radii are the family's jump circles."""
    kk = math.inf if k is None else check_level(k)
    if name in FAMILIES:
        fam = FAMILIES[name]
        a = fam.alpha_of(0.5 if alpha is None else alpha)
        return (lambda z: fam.solution(z, a, kk)), fam.jump_radii(a, kk)
    if name == "identity":
        return (lambda z: _as_complex(z)), ()
    if name == "example2":
        prof = Example2Profile(2, 2.0 if m is None else float(m))

        def outer(z, r):
            return z / r * np.array([prof.value(t) for t in r])

        return (lambda z: _radial_branches(z, 0.0, outer)), prof.kink_radii
    raise ValueError(f"unknown map name {name!r}")
