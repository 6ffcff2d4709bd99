"""Complex dilatation fields, truncation, and dilatation functionals.

The family table ``FAMILIES`` holds the degenerate dilatation fields that
have closed-form solutions.  Each is supported in the unit disk (zero
outside), radial in modulus with an e^{2i theta} phase, and loses
ellipticity (|mu| -> 1) on an onset circle.  Its record (``Family``) holds
mu, the radius of the disk that the cap at level k empties (k = inf gives
the onset circle), the circles where |mu| jumps, the closed-form solution
of the capped equation and its inverse, the image-side weight, and the
rule for the parameter alpha.  MuSpec, named_map and the command line look
families up in the table, so a new family is one entry:

* ``example3``: |mu| climbs to 1 at the circle |z| = 1/2, parametrized by
  0 < alpha < 2; the maximal dilatation is K(z) = 2|z| / (alpha (2|z|-1)).
* ``example4``: |mu| climbs to 1 at |z| = e^{-1/2}; K(z) = 1/(1 + 2 ln|z|).

Truncation at level k zeroes mu wherever K exceeds k, which for these
families empties a concentric disk; the resulting fields are uniformly
elliptic (ess sup |mu_k| <= (k-1)/(k+1)) and feed the solver.  The
closed-form solutions and their inverses are grid-free oracles for
everything the solver produces.
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
    unit_sphere_area,
)
from .radial import (
    Example2Profile,
    RadialWeight,
    power_weight,
    spherical_mean,
)

__all__ = [
    "mu_example3",
    "mu_example4",
    "MuSpec",
    "K_mu",
    "check_level",
    "truncate_mu",
    "L1Report",
    "l1_norm",
    "IntegrabilityScan",
    "check_radii",
    "spherical_integrability_scan",
    "DilatationReport",
    "build_dilatation_report",
    "solution_example3",
    "solution_example4",
    "inverse_example3",
    "inverse_example4",
    "example3_truncation_radius",
    "example4_truncation_radius",
    "example3_image_weight",
    "example4_image_weight",
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


def mu_example3(z, alpha: float):
    """Registry example 3 dilatation on the open unit disk.

    Zero for |z| <= 1/2; on the annulus the modulus is
    (2r - alpha(2r-1)) / (2r + alpha(2r-1)), which tends to 1 at r = 1/2.
    """
    _check_alpha3(alpha)

    def outer(z, r):
        t = alpha * (2.0 * r - 1.0)
        return (z * z) / (r * r) * ((2.0 * r - t) / (2.0 * r + t))

    return _radial_branches(z, 0.5, outer, name="mu_example3", open_disk=True)


def mu_example4(z):
    """Registry example 4 dilatation: -e^{2i theta} ln r / (1 + ln r) on
    e^{-1/2} < r < 1, zero inside."""

    def outer(z, r):
        lr = np.log(r)
        return -(z * z) / (r * r) * (lr / (1.0 + lr))

    return _radial_branches(z, math.exp(-0.5), outer, name="mu_example4", open_disk=True)


def example3_truncation_radius(alpha: float, k: float) -> float:
    """Radius below which truncation at level k zeroes example 3 (clipped
    to 1); k = inf gives the onset circle 1/2."""
    if math.isinf(k):
        return 0.5
    if k * alpha <= 1.0:
        return 1.0
    return min(1.0, k * alpha / (2.0 * (k * alpha - 1.0)))


def example4_truncation_radius(k: float) -> float:
    """Radius below which truncation at level k zeroes example 4; k = inf
    gives the onset circle e^{-1/2}."""
    check_level(k)
    return math.exp(-0.5) if math.isinf(k) else math.exp((1.0 - k) / (2.0 * k))


@dataclass(frozen=True)
class MuSpec:
    """A dilatation field: a family of the table, a constant, or a sampled
    grid, plus an optional truncation cap.

    ``mu`` evaluates the field anywhere in the plane (zero outside the
    unit disk); ``k_cap`` applies truncation pointwise, keeping values with
    maximal dilatation <= k_cap and zeroing the rest.
    """

    kind: str
    alpha: float | None = None
    c: complex | None = None
    grid_field: ComplexField | None = None
    k_cap: float = math.inf

    def __post_init__(self) -> None:
        if self.kind in FAMILIES:
            FAMILIES[self.kind].alpha_of(self.alpha)
        elif self.kind == "constant":
            if self.c is None or abs(self.c) >= 1.0:
                raise ValueError("constant dilatation needs |c| < 1")
        elif self.kind == "grid":
            if self.grid_field is None:
                raise ValueError("grid dilatation needs a sampled field")
            if np.any(np.abs(self.grid_field.data) > 1.0):
                raise ValueError("grid dilatation samples must satisfy |mu| <= 1")
        else:
            raise ValueError(f"unknown dilatation kind {self.kind!r}")
        check_level(self.k_cap)

    @classmethod
    def example3(cls, alpha: float) -> "MuSpec":
        return cls(kind="example3", alpha=alpha)

    @classmethod
    def example4(cls) -> "MuSpec":
        return cls(kind="example4")

    @classmethod
    def constant(cls, c: complex) -> "MuSpec":
        return cls(kind="constant", c=complex(c))

    @classmethod
    def from_grid(cls, field: ComplexField) -> "MuSpec":
        zz = field.grid.zz()
        data = np.where(np.abs(zz) < 1.0, field.data, 0.0)
        return cls(kind="grid", grid_field=ComplexField(field.grid, data))

    def mu(self, z):
        zz = _as_complex(z)
        r = np.abs(zz)
        inside = r < 1.0
        out = np.zeros_like(zz)
        if self.kind == "constant":
            out[inside] = self.c
        elif self.kind in FAMILIES:
            out[inside] = np.asarray(FAMILIES[self.kind].mu(zz[inside], self.alpha))
        else:
            out[inside] = self._interp_grid(zz[inside])
        if math.isfinite(self.k_cap):
            thr = (self.k_cap - 1.0) / (self.k_cap + 1.0)
            out = np.where(np.abs(out) <= thr, out, 0.0)
        return out if out.shape else complex(out)

    def _interp_grid(self, pts: np.ndarray) -> np.ndarray:
        g = self.grid_field.grid
        d = self.grid_field.data
        fx = np.clip((pts.real - g.x_min) / g.dx, 0.0, g.nx - 1.0)
        fy = np.clip((pts.imag - g.y_min) / g.dy, 0.0, g.ny - 1.0)
        ix = np.minimum(fx.astype(int), g.nx - 2)
        iy = np.minimum(fy.astype(int), g.ny - 2)
        tx = fx - ix
        ty = fy - iy
        return (
            d[iy, ix] * (1 - tx) * (1 - ty)
            + d[iy, ix + 1] * tx * (1 - ty)
            + d[iy + 1, ix] * (1 - tx) * ty
            + d[iy + 1, ix + 1] * tx * ty
        )

    def sample(self, grid) -> ComplexField:
        return ComplexField(grid, self.mu(grid.zz()))

    def sup_abs_bound(self) -> float:
        """Essential sup of |mu| after the cap (analytic where known)."""
        if self.kind == "constant":
            raw = abs(self.c)
        elif self.kind == "grid":
            raw = float(np.max(np.abs(self.grid_field.data)))
        else:
            raw = 1.0
        if math.isfinite(self.k_cap):
            return min(raw, (self.k_cap - 1.0) / (self.k_cap + 1.0))
        return raw

    def jump_radii(self) -> tuple:
        """Circles where the field is discontinuous (finite-difference
        comparisons exclude small bands around these)."""
        if self.kind in FAMILIES:
            return FAMILIES[self.kind].jump_radii(self.alpha, self.k_cap)
        if self.kind == "constant":
            return (1.0,) if self.c != 0 else ()
        return (1.0,)


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


def l1_norm(weight: RadialWeight) -> L1Report:
    """Mass of the weight over the unit ball, by dyadic radial shells.

    Shell terms c_j integrate omega_{n-1} q(s) s^{n-1} over
    [2^{-j-1}, 2^{-j}].  The sum is declared convergent once the last three
    terms decay geometrically (ratio <= 0.6) and the geometric tail estimate
    drops below the quadrature tolerance; it is flagged divergent (value =
    inf, partial sum reported) once at least 8 shells are in, the last three
    terms stay above 5% of the largest term, and the partial sum exceeds 6
    times the largest single term.  At most 40 shells are summed.
    """
    tol = QuadratureConfig()  # the default each shell is integrated to
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
                if tail <= max(tol.abs_tol, tol.rel_tol * partial):
                    return L1Report(
                        partial + tail, False, partial, tuple(edges), tuple(terms)
                    )
        biggest = max(terms)
        if (
            len(terms) >= 8
            and min(terms[-3:]) >= 0.05 * biggest
            and partial >= _L1_GROWTH_FACTOR * biggest
        ):
            return L1Report(math.inf, True, partial, tuple(edges), tuple(terms))
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
    """Scan radii: at least one, each positive."""
    rs = tuple(float(r) for r in radii)
    if not rs or min(rs) <= 0.0:
        raise ValueError("radii must be positive")
    return rs


def spherical_integrability_scan(
    Q,
    y0,
    radii: Sequence[float],
    n: int = 2,
) -> IntegrabilityScan:
    """Per-radius finiteness of the spherical mean of Q about y0, plus a
    trapezoid estimate of the measure of the radius set with finite mean."""
    rs = sorted(check_radii(radii))
    means = []
    for r in rs:
        if isinstance(Q, RadialWeight):
            means.append(float(Q.q(r)))
        else:
            means.append(spherical_mean(Q, y0, r, n))
    flags = [math.isfinite(v) for v in means]
    measure = 0.0
    for i in range(len(rs) - 1):
        seg = rs[i + 1] - rs[i]
        measure += seg * 0.5 * (flags[i] + flags[i + 1])
    return IntegrabilityScan(tuple(rs), tuple(means), tuple(flags), measure)


@dataclass(frozen=True)
class DilatationReport:
    kind: str
    k_cap: float
    k_sup_probe: float
    ess_sup_mu: float
    l1: L1Report | None
    scan: IntegrabilityScan | None


# build_dilatation_report probes K on this many points of a spiral in the disk
_K_PROBE_POINTS = 400


def build_dilatation_report(
    spec: MuSpec,
    weight: RadialWeight | None = None,
    scan_radii: Sequence[float] | None = None,
) -> DilatationReport:
    """Assemble the standard diagnostics for a dilatation field."""
    ts = (np.arange(_K_PROBE_POINTS) + 0.5) / _K_PROBE_POINTS
    pts = 0.97 * np.sqrt(ts) * np.exp(2j * math.pi * ts * 29.0)
    kvals = np.asarray(K_mu(spec.mu(pts)))
    l1 = l1_norm(weight) if weight is not None else None
    scan = None
    if weight is not None and scan_radii is not None:
        scan = spherical_integrability_scan(weight, None, scan_radii, weight.n)
    return DilatationReport(
        kind=spec.kind,
        k_cap=spec.k_cap,
        k_sup_probe=float(np.max(kvals[np.isfinite(kvals)], initial=1.0)),
        ess_sup_mu=spec.sup_abs_bound(),
        l1=l1,
        scan=scan,
    )


# ---------------------------------------------------------------------------
# closed-form solutions of the table families


def solution_example3(z, alpha: float, k: float = math.inf):
    """Closed-form normalized solution for example 3 (optionally truncated
    at level k): the radial stretch (z/|z|) (2|z|-1)^(1/alpha) outside the
    truncation radius, a linear map inside (the limit k = inf collapses the
    inner disk to 0)."""
    _check_alpha3(alpha)
    r_t = example3_truncation_radius(alpha, k)
    if math.isinf(k):
        c_in = 0.0
    elif r_t >= 1.0:
        c_in = 1.0
    else:
        c_in = (1.0 / (k * alpha - 1.0)) ** (1.0 / alpha) / r_t
    return _radial_branches(
        z, r_t, lambda z, r: z / r * (2.0 * r - 1.0) ** (1.0 / alpha),
        lambda z: c_in * z, "solution_example3",
    )


def solution_example4(z, k: float = math.inf):
    """Closed-form normalized solution for example 4 (optionally truncated):
    (z/|z|) (2 ln|z| + 1)^(1/2) outside the truncation radius, linear inside."""
    r_t = example4_truncation_radius(k)
    c_in = 0.0 if math.isinf(k) else math.exp((k - 1.0) / (2.0 * k)) / math.sqrt(k)
    return _radial_branches(
        z, r_t, lambda z, r: z / r * np.sqrt(2.0 * np.log(r) + 1.0),
        lambda z: c_in * z, "solution_example4",
    )


def inverse_example3(y, alpha: float, k: float = math.inf):
    """Inverse of the example-3 solution: y (|y|^alpha + 1) / (2 |y|) on the
    outer branch, linear on the inner branch (k finite)."""
    _check_alpha3(alpha)
    if math.isinf(k) and np.any(np.abs(_as_complex(y)) == 0.0):
        raise ValueError("0 is not in the image of the limit map")
    s_t, c_in = 0.0, math.nan
    if not math.isinf(k):
        r_t = example3_truncation_radius(alpha, k)
        if r_t >= 1.0:  # the cap leaves no annulus: the map is the identity
            s_t, c_in = math.inf, 1.0
        else:
            s_t = (1.0 / (k * alpha - 1.0)) ** (1.0 / alpha)
            c_in = s_t / r_t
    return _radial_branches(
        y, s_t, lambda y, s: y * (s**alpha + 1.0) / (2.0 * s),
        lambda y: y / c_in, "inverse_example3",
    )


def inverse_example4(y, k: float = math.inf):
    """Inverse of the example-4 solution: (y/|y|) e^{(|y|^2 - 1)/2} on the
    outer branch, linear on the inner branch (k finite)."""
    if math.isinf(k) and np.any(np.abs(_as_complex(y)) == 0.0):
        raise ValueError("0 is not in the image of the limit map")
    s_t = 0.0 if math.isinf(k) else 1.0 / math.sqrt(k)
    c_in = math.exp((k - 1.0) / (2.0 * k)) / math.sqrt(k)  # unused for k = inf
    return _radial_branches(
        y, s_t, lambda y, s: y / s * np.exp((s * s - 1.0) / 2.0),
        lambda y: y / c_in, "inverse_example4",
    )


def example3_image_weight(alpha: float) -> RadialWeight:
    """Majorant weight for the inverse dilatation of truncated example 3:
    q(s) = (s^alpha + 1) / (alpha s^alpha); integrable in degree q iff
    alpha < 2/q."""
    _check_alpha3(alpha)

    def q(s: float) -> float:
        if s <= 0.0:
            return math.inf
        return (s**alpha + 1.0) / (alpha * s**alpha)

    return RadialWeight(2, q, name=f"example3-image(alpha={alpha:g})")


def example4_image_weight() -> RadialWeight:
    """Majorant weight for the inverse dilatation of truncated example 4:
    q(s) = 1/s^2."""
    w = power_weight(2)
    return RadialWeight(2, w.q, name="example4-image")


@dataclass(frozen=True)
class Family:
    """One entry of the family table.  Every callable takes alpha, which
    a family without one (check_alpha None) ignores."""

    mu: Callable  # (z, alpha): the field on the open unit disk
    radius: Callable  # (alpha, k): radius of the disk the cap at k empties
    rim_jump: bool  # |mu| also jumps at the unit circle
    solution: Callable  # (z, alpha, k): normalized solution of the capped equation
    inverse: Callable  # (y, alpha, k): inverse of that solution
    image_weight: Callable  # alpha -> RadialWeight majorizing the inverse's dilatation
    check_alpha: Callable | None = None  # raises ValueError for a bad alpha

    def alpha_of(self, alpha):
        """alpha checked by the family's rule; None if it takes no alpha."""
        if self.check_alpha is None:
            return None
        self.check_alpha(alpha)
        return alpha

    def jump_radii(self, alpha, k: float = math.inf) -> tuple:
        """Circles where |mu| capped at k jumps: the edge of the emptied
        disk (the onset circle for k = inf), plus the unit circle for
        rim_jump families; none once the cap empties the whole disk."""
        inner = self.radius(alpha, k)
        if inner >= 1.0:
            return ()
        return (inner, 1.0) if self.rim_jump else (inner,)


FAMILIES = {
    "example3": Family(
        mu=mu_example3,
        radius=example3_truncation_radius,
        rim_jump=True,
        solution=solution_example3,
        inverse=inverse_example3,
        image_weight=example3_image_weight,
        check_alpha=_check_alpha3,
    ),
    "example4": Family(
        mu=lambda z, alpha: mu_example4(z),
        radius=lambda alpha, k: example4_truncation_radius(k),
        rim_jump=False,
        solution=lambda z, alpha, k: solution_example4(z, k),
        inverse=lambda y, alpha, k: inverse_example4(y, k),
        image_weight=lambda alpha: example4_image_weight(),
    ),
}


def named_map(name: str, alpha: float | None = None, k: float | None = None,
              m: float | None = None):
    """Closed-form map registry for scans: returns (evaluator on complex
    arrays, branch radii).  Names: identity, example2, and the solutions of
    the table families (alpha defaults to 0.5, k to no cap)."""
    kk = math.inf if k is None else check_level(k)
    if name in FAMILIES:
        fam = FAMILIES[name]
        a = fam.alpha_of(0.5 if alpha is None else alpha)
        r_t = fam.radius(a, kk)
        return (lambda z: fam.solution(z, a, kk)), ((r_t,) if r_t < 1.0 else ())
    if name == "identity":
        return (lambda z: _as_complex(z)), ()
    if name == "example2":
        prof = Example2Profile(2, 2.0 if m is None else float(m))

        def outer(z, r):
            return z / r * np.array([prof.value(t) for t in r])

        return (lambda z: _radial_branches(z, 0.0, outer)), prof.kink_radii
    raise ValueError(f"unknown map name {name!r}")
