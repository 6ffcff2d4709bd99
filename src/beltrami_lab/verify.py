"""Continuity and degeneracy harnesses for maps of the unit disk.

Two empirical checks live here:

* the log-continuity product |f(x) - f(y)| ln^{1/2}(1 + r0 / (2|x-y|)),
  scanned over random point pairs at dyadic separations; for maps built
  from integrable dilatation weights the per-scale maxima stay bounded;
  the caller gives the weight's mass, which scales the empirical constant,
* a divergence classifier for the integral of dt / (t q(t)) near 0, which
  separates weights that admit homeomorphic solutions from those that do
  not.

None of the unknown constants in the continuity bounds are assumed; the
scans only test boundedness and report the empirical constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import IntegrandNonFinite, QuadratureNonConvergence
from .radial import RadialWeight, lehto_integral

__all__ = [
    "HolderConfig",
    "HolderReport",
    "holder_product",
    "holder_scan",
    "LehtoScan",
    "lehto_divergence_scan",
]


@dataclass(frozen=True)
class HolderConfig:
    """Sampling plan for the continuity scan of a planar map.

    The compact is {|z| <= compact_radius}; r0 is its distance to the unit
    circle.  Scales are the pair separations, decreasing.
    """

    compact_radius: float = 0.75
    dyadic_scales: tuple = tuple(2.0**-j for j in range(3, 15))
    pairs_per_scale: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.compact_radius < 1.0):
            raise ValueError("compact_radius must lie in (0, 1)")
        sc = self.dyadic_scales
        # holder_scan's bounded flag compares the three finest scales
        if len(sc) < 3 or any(b >= a for a, b in zip(sc, sc[1:])):
            raise ValueError("need at least three strictly decreasing scales")
        if sc[0] >= 2.0 * self.compact_radius or sc[-1] <= 0.0:
            raise ValueError("scales must lie in (0, 2 * compact_radius)")
        if self.pairs_per_scale < 1:
            raise ValueError("pairs_per_scale must be positive")

    @property
    def r0(self) -> float:
        return 1.0 - self.compact_radius


@dataclass(frozen=True)
class HolderReport:
    per_scale_max_product: tuple
    empirical_C: float
    bounded_flag: bool


def holder_product(f: Callable, x, y, r0: float):
    """|f(x) - f(y)| ln^{1/2}(1 + r0/(2|x - y|)) at two points, or
    elementwise at two equal-shape arrays of points; 0 where x = y (the
    continuous extension).  f is evaluated once, on x and y together."""
    if not (r0 > 0.0):
        raise ValueError("r0 must be positive")
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    vals = np.asarray(f(np.concatenate([x.ravel(), y.ravel()])))
    diffs = np.abs(vals[: x.size] - vals[x.size:])
    dist = np.abs(x - y).ravel()
    out = np.zeros(x.size)
    apart = dist > 0.0
    out[apart] = diffs[apart] * np.log1p(r0 / (2.0 * dist[apart])) ** 0.5
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _generic_pairs(rng, count: int, radius: float, scale: float):
    inner = max(radius - scale, 0.0)
    r = inner * np.sqrt(rng.uniform(size=count))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    x = r * np.exp(1j * phi)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    y = x + scale * np.exp(1j * theta)
    return x, y


def _branch_pairs(rng, count: int, radius: float, scale: float, circles: Sequence[float]):
    rc = np.array([circles[i % len(circles)] for i in range(count)])
    center = rc + rng.uniform(-1.0, 1.0, size=count) * scale
    center = np.clip(center, scale, radius - scale)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    psi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    mid = center * np.exp(1j * phi)
    half = 0.5 * scale * np.exp(1j * psi)
    return mid - half, mid + half


def holder_scan(
    f: Callable,
    cfg: HolderConfig | None = None,
    q_l1: float = math.nan,
    branch_radii: Sequence[float] = (),
) -> HolderReport:
    """Max continuity product over random pairs at each of cfg's scales.

    Half the pairs straddle the branch circles inside the compact (the jump
    circles of the map's dilatation, where the example maps are least
    regular); the rest are uniform over the compact.  empirical_C is the
    largest product over q_l1^(1/2), q_l1 the weight's mass (nan unless
    finite).  The scan is deterministic given cfg.seed.  bounded_flag is
    false only when the maxima at the three finest scales grow
    monotonically by more than 5% overall.
    """
    cfg = cfg or HolderConfig()
    rng = np.random.default_rng(cfg.seed)
    usable = [rc for rc in branch_radii if 0.0 < rc < cfg.compact_radius]
    maxima = []
    for scale in cfg.dyadic_scales:
        m = cfg.pairs_per_scale
        if usable and scale < cfg.compact_radius / 2.0:
            nb = m // 2
            bx, by = _branch_pairs(rng, nb, cfg.compact_radius, scale, usable)
            gx, gy = _generic_pairs(rng, m - nb, cfg.compact_radius, scale)
            xs = np.concatenate([bx, gx])
            ys = np.concatenate([by, gy])
        else:
            xs, ys = _generic_pairs(rng, m, cfg.compact_radius, scale)
        maxima.append(float(holder_product(f, xs, ys, cfg.r0).max()))
    a, b, c = maxima[-3], maxima[-2], maxima[-1]
    growing = c > b > a and c >= 1.05 * a
    top = max(maxima)
    emp = top / q_l1 ** 0.5 if math.isfinite(q_l1) else math.nan
    return HolderReport(
        per_scale_max_product=tuple(maxima),
        empirical_C=emp,
        bounded_flag=not growing,
    )


@dataclass(frozen=True)
class LehtoScan:
    values: tuple
    increments: tuple
    classification: str
    diagnostics: str | None


def lehto_divergence_scan(
    w: RadialWeight,
    w0,
    delta: float,
    cutoffs: Sequence[float],
) -> LehtoScan:
    """Values of the integral of dt/(t q(t)) from each cutoff up to delta,
    with a growth classification as the cutoff shrinks.

    Increments between successive cutoffs are normalized by the log of the
    cutoff ratio; the scan reports "divergent" when the last three
    normalized increments agree to within 25% of their mean (the signature
    of logarithmic growth), "convergent" when the raw increments decay
    geometrically (ratio <= 0.7) or vanish, else "inconclusive".
    """
    if w.n != 2:
        raise ValueError("scan expects a planar weight (n = 2)")
    if w0 not in (None, 0, 0.0, 0j):
        raise ValueError("weights are radial about their own center; w0 must be 0")
    cuts = [float(c) for c in cutoffs]
    if not cuts or any(b >= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("cutoffs must be strictly decreasing")
    if cuts[0] >= delta or cuts[-1] <= 0.0:
        raise ValueError("cutoffs must lie in (0, delta)")
    values = []
    increments = []
    diagnostics = None
    try:
        total = lehto_integral(w, cuts[0], delta)
        values.append(total)
        for prev, cur in zip(cuts, cuts[1:]):
            seg = lehto_integral(w, cur, prev)
            increments.append(seg)
            total += seg
            values.append(total)
    except (QuadratureNonConvergence, IntegrandNonFinite) as exc:
        diagnostics = f"quadrature failure: {exc}"
    if diagnostics is not None or len(increments) < 3:
        cls = "inconclusive"
    else:
        d3 = increments[-3:]
        u3 = [d / math.log(a / b) for d, a, b in zip(d3, cuts[-4:-1], cuts[-3:])]
        ratios = [b / a if a > 0 else math.inf for a, b in zip(d3, d3[1:])]
        mean_u = sum(u3) / 3.0
        if all(r <= 0.7 for r in ratios) or all(d <= 1e-13 for d in d3):
            cls = "convergent"
        elif mean_u > 0 and max(abs(u - mean_u) for u in u3) <= 0.25 * mean_u:
            cls = "divergent"
        else:
            cls = "inconclusive"
    return LehtoScan(
        values=tuple(values),
        increments=tuple(increments),
        classification=cls,
        diagnostics=diagnostics,
    )
