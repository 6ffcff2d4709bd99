"""Uniform grids, complex-valued fields, difference operators and 1-D quadrature.

Conventions fixed here and relied on by the rest of the package:

* field samples are stored row-major with y as the outer index, so
  ``data[iy, ix]`` sits at ``(x_min + ix*dx, y_min + iy*dy)``;
* a sampled field is evaluated between its nodes by ``bilinear`` only;
* Wirtinger derivatives use centered second-order differences in the
  interior and one-sided second-order stencils at the edges, which makes
  them exact (up to rounding) on affine fields;
* the 1-D integrator is an adaptive Gauss-Kronrod (G7/K15) scheme; the
  rule is open, so integrands singular at an interval endpoint can still
  be evaluated.  Its first pass evaluates the initial panels together, in
  blocks of ``_BLOCK`` panels, and a refined panel's two halves form one
  pass of 30 nodes; the integrand still takes and returns one float.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "ComplexField",
    "bilinear",
    "QuadratureConfig",
    "QuadratureResult",
    "QuadratureNonConvergence",
    "IntegrandNonFinite",
    "wirtinger_derivatives",
    "wirtinger_at_point",
    "adaptive_integral_1d",
    "unit_sphere_area",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular sampling of a box in the plane."""

    nx: int
    ny: int
    x_min: float
    y_min: float
    dx: float
    dy: float

    def __post_init__(self) -> None:
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"grid must be at least 8x8, got {self.nx}x{self.ny}")
        if not (self.dx > 0.0 and self.dy > 0.0):
            raise ValueError("grid spacings must be positive")
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.dx, self.dy))):
            raise ValueError("grid origin and spacings must be finite")

    @classmethod
    def square(cls, n: int, half_width: float = 2.0) -> "GridSpec":
        """Centered n-by-n grid over [-half_width, half_width]^2, endpoints included."""
        if half_width <= 0.0:
            raise ValueError("half_width must be positive")
        if n < 8:
            raise ValueError(f"grid must be at least 8x8, got {n}x{n}")
        step = 2.0 * half_width / (n - 1)
        return cls(nx=n, ny=n, x_min=-half_width, y_min=-half_width, dx=step, dy=step)

    @property
    def x_max(self) -> float:
        return self.x_min + (self.nx - 1) * self.dx

    @property
    def y_max(self) -> float:
        return self.y_min + (self.ny - 1) * self.dy

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y_min + self.dy * np.arange(self.ny)

    def zz(self) -> np.ndarray:
        """Complex coordinates z = x + iy, shape (ny, nx)."""
        return self.xs()[None, :] + 1j * self.ys()[:, None]


@dataclass
class ComplexField:
    """Finite complex samples on a :class:`GridSpec`; non-finite data is
    rejected at construction."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"data shape {self.data.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite samples in a field")


def bilinear(field: ComplexField, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolant of a sampled field at the points pts (complex,
    any shape); points outside the grid's box are clamped onto it."""
    g = field.grid
    d = field.data
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


def wirtinger_derivatives(field: ComplexField) -> tuple[ComplexField, ComplexField]:
    """Discrete (f_z, f_zbar) of a sampled field.

    Centered second-order differences in the interior, one-sided
    second-order at the edges.  Exact for affine fields a + b*z + c*zbar up
    to rounding.
    """
    fx = np.gradient(field.data, field.grid.dx, axis=1, edge_order=2)
    fy = np.gradient(field.data, field.grid.dy, axis=0, edge_order=2)
    fz = 0.5 * (fx - 1j * fy)
    fzbar = 0.5 * (fx + 1j * fy)
    return ComplexField(field.grid, fz), ComplexField(field.grid, fzbar)


def wirtinger_at_point(f: Callable[[complex], complex], z: complex) -> tuple[complex, complex]:
    """Pointwise (f_z, f_zbar) of a map by centered differences of size 1e-5."""
    step = 1e-5
    fx = (f(z + step) - f(z - step)) / (2.0 * step)
    fy = (f(z + 1j * step) - f(z - 1j * step)) / (2.0 * step)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


# ---------------------------------------------------------------------------
# adaptive quadrature


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        # written so that a nan tolerance fails it: under one, no error
        # estimate is ever small enough and every panel refines to _MAX_DEPTH
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("quadrature tolerances must be positive and finite")


# Halvings after which adaptive_integral_1d stops refining a panel, and
# the number of initial panels it evaluates in one pass
_MAX_DEPTH = 48
_BLOCK = 256


class QuadratureResult(NamedTuple):
    value: float
    error_bound: float
    evaluations: int


class QuadratureNonConvergence(RuntimeError):
    """Raised when the refinement depth is exhausted; carries the partial estimate."""

    def __init__(self, estimate: float, error_bound: float, evaluations: int):
        super().__init__(
            f"quadrature did not converge: estimate={estimate!r} "
            f"error_bound={error_bound!r}"
        )
        self.estimate = estimate
        self.error_bound = error_bound
        self.evaluations = evaluations


class IntegrandNonFinite(RuntimeError):
    """Raised when the integrand returns inf/nan at a quadrature node."""

    def __init__(self, x: float, value: float):
        super().__init__(f"integrand is non-finite at x={x!r}: {value!r}")
        self.x = x
        self.value = value


# QUADPACK qk15 (Piessens et al., 1983) on [-1, 1], positive half: the
# Kronrod nodes, their K15 weights, and the G7 weights (0 at the
# Kronrod-only nodes); the centre node comes last.
_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
# The 15 nodes in evaluation order -x1, +x1, ..., -x7, +x7, 0 and their
# weights.  Every node is interior, so interval endpoints are never evaluated.
_NODES = np.append(np.outer(_X[:7], (-1.0, 1.0)), 0.0)
_K15 = np.append(np.repeat(_WK[:7], 2), _WK[7])
_G7 = np.append(np.repeat(_WG[:7], 2), _WG[7])


def _gk15(f: Callable[[float], float], edges: Sequence[float]) -> list:
    """G7/K15 on the panels between consecutive ``edges``, all in one pass:
    a (K15 value, |K15 - G7| error estimate) pair per panel.  ``f`` sees the
    nodes as floats, panel by panel, and the first non-finite value in that
    order is reported."""
    edges = np.array(edges, float)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    xs = 0.5 * (lo + hi) + half * _NODES
    vals = np.fromiter(map(f, xs.ravel().tolist()), float, xs.size).reshape(xs.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        j = int(finite.argmin())
        raise IntegrandNonFinite(float(xs.flat[j]), float(vals.flat[j]))
    k15, g7 = vals @ _K15, vals @ _G7
    return [(h * k, abs(h * (k - g)))
            for h, k, g in zip(half.ravel().tolist(), k15.tolist(), g7.tolist())]


def adaptive_integral_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Adaptive integral of ``f`` over ``[a, b]``.

    ``breakpoints`` pre-splits the interval at known non-smooth radii; each
    segment is then refined independently.  The first pass evaluates the
    segments ``_BLOCK`` at a time, each block's nodes in one sweep of ``f``
    in panel order, so the first non-finite node reported is the one a
    panel-by-panel pass would meet first.  Subdivision proceeds worst
    interval first until the summed error estimate is below
    ``max(abs_tol, rel_tol*|value|)``.  When every offending interval has
    reached ``_MAX_DEPTH`` halvings, :class:`QuadratureNonConvergence` is
    raised carrying the partial estimate.
    """
    cfg = cfg or QuadratureConfig()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if not b > a:
        raise ValueError(f"need b > a, got [{a!r}, {b!r}]")

    edges = [a, *sorted({float(t) for t in breakpoints if a < t < b}), b]
    # panels: (-err, tiebreak, lo, hi, value, depth); ``heap`` holds the
    # refinable ones, ``parked`` those at _MAX_DEPTH
    heap, parked = [], []
    for i in range(0, len(edges) - 1, _BLOCK):
        seg = edges[i:i + _BLOCK + 1]
        heap += [(-e, i + k, seg[k], seg[k + 1], v, 0)
                 for k, (v, e) in enumerate(_gk15(f, seg))]
    heapq.heapify(heap)
    evals = 15 * len(heap)
    total = math.fsum(p[4] for p in heap)
    err = math.fsum(-p[0] for p in heap)
    parked_err = 0.0
    while True:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err <= tol or not heap or parked_err > tol:
            # The running sums carry rounding; recount them exactly before
            # returning or giving up.  Once the parked error alone exceeds
            # the tolerance, refining the rest cannot recover.
            total = math.fsum(p[4] for p in heap + parked)
            err = math.fsum(-p[0] for p in heap + parked)
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            if err <= tol:
                return QuadratureResult(total, err, evals)
            if not heap or parked_err > tol:
                raise QuadratureNonConvergence(total, err, evals)
        panel = heapq.heappop(heap)
        neg_e, _, lo, hi, v, depth = panel
        if depth >= _MAX_DEPTH:
            parked.append(panel)
            parked_err -= neg_e
            continue
        mid = 0.5 * (lo + hi)
        for sub, (v2, e2) in zip(((lo, mid), (mid, hi)), _gk15(f, (lo, mid, hi))):
            heapq.heappush(heap, (-e2, evals, *sub, v2, depth + 1))
            evals += 15
            total += v2
            err += e2
        total -= v
        err += neg_e


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

