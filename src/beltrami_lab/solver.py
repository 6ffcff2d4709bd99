"""Spectral solver for planar Beltrami equations with bounded dilatation.

The equation f_zbar = mu f_z with compactly supported mu is solved through
the classical Neumann fixed point h <- mu S(h) + mu, where S is the
Beurling transform; the principal solution is then f = z + C(h) with C the
Cauchy transform.  Both transforms are frequency multipliers on a torus:
the data sits in one corner of a zero-padded periodic buffer.

The fixed point runs on the bounding box of mu's nonzero samples, since h
vanishes wherever mu does.  The box is zero-padded to a square torus about
TORUS_FACTOR = 1.5 times its side, of period P.  On that torus the Beurling
kernel -1/(pi z^2) becomes -wp(z)/pi, where wp is the Weierstrass function
of the square lattice P(Z + iZ):
wp(z) = z^-2 + c2 z^2 / P^4 + c4 z^6 / P^8 + c6 z^10 / P^12 + O(z^14 / P^16)
with c2 = 3 G4, c4 = 3 G4^2, c6 = 18 G4^3 / 13 (DLMF 23.9; the other
coefficients vanish because G6 does) and G4 = Gamma(1/4)^8 / (960 pi^2).
Each Beurling application adds the three terms back,
(1/pi) sum_k c_k P^-2k int (z - w)^(2k-2) h(w) dA over the box; without
them the periodization error of the small torus shows in the solution.
The lattice is square only when dx == dy, which SolveConfig requires.

The Cauchy step runs once per solve, on the full grid zero-padded to twice
its side, of period P.  On that torus the kernel 1/(pi z) becomes
(zeta(z) - pi zbar / P^2) / pi, with zeta the Weierstrass zeta function,
zeta(z) = 1/z - G4 z^3 / P^4 + O(z^7 / P^8).  C adds back the zbar term,
(1/P^2) int (zbar - wbar) h(w) dA (the frequency multiplier drops the zero
mode, and the zbar part restores it so the discrete dbar of f equals h),
and the cubic term (G4 / (pi P^4)) int (z - w)^3 h(w) dA.

Dilatation fields are sampled with subcell averaging in a thin band around
their discontinuity circles; without it, sampling quantization at the jump
roughly doubles the finite-difference dilatation error next to the excluded
band.  Sup-norm comparisons of derivative fields exclude a two-cell band
around each jump circle: finite differences are O(1) wrong across a
discontinuity at any resolution.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import fft as sfft

from .dilatation import MuSpec, check_level, truncate_mu
from .numerics import ComplexField, GridSpec, wirtinger_derivatives
from .radial import check_order_p

__all__ = [
    "PaddingError",
    "ContractionError",
    "SolveNonConvergence",
    "SolveConfig",
    "SolveResult",
    "ResidualReport",
    "TruncationRun",
    "check_k_schedule",
    "thread_count",
    "observed_ratio",
    "cauchy_transform",
    "beurling_transform",
    "solve_principal",
    "residual_report",
    "sup_distance",
    "grid_kip_integral",
    "truncation_scheme",
    "beurling_norm_estimate",
]

JUMP_BAND_CELLS = 2.0
# mu is averaged over ANTIALIAS_SUBCELLS^2 points in each cell within
# ANTIALIAS_BAND_CELLS cells of a jump circle
ANTIALIAS_SUBCELLS = 8
ANTIALIAS_BAND_CELLS = 1.5
# the residual is taken on |z| <= RESIDUAL_RADIUS, and solutions are
# compared on |z| <= COMPARE_RADIUS
RESIDUAL_RADIUS = 0.95
COMPARE_RADIUS = 0.9
# disk cell weights sample each cell the unit circle crosses at
# DISK_SUBCELLS^2 points
DISK_SUBCELLS = 4
# G4 = sum' (a + ib)^-4 over the unit square lattice (the lemniscatic case)
G4_SQUARE_LATTICE = math.gamma(0.25) ** 8 / (960.0 * math.pi**2)
# the fixed point's torus side over its support box side
TORUS_FACTOR = 1.5


class PaddingError(ValueError):
    """Input support reaches the grid boundary, so the padded-torus
    transform would wrap it around."""


class ContractionError(ValueError):
    """ess-sup |mu| is not bounded away from 1; the Neumann iteration has
    no contraction factor."""


class SolveNonConvergence(RuntimeError):
    """Fixed-point iteration hit max_iter; carries the last iterate and its
    L2 update."""

    def __init__(self, iterations: int, last_delta: float, partial: ComplexField):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last L2 update {last_delta:.3e})"
        )
        self.iterations = iterations
        self.last_delta = last_delta
        self.partial = partial


def thread_count() -> int:
    """Worker count for the FFTs, from BELTRAMI_LAB_THREADS (0 or unset
    means a small automatic default)."""
    raw = os.environ.get("BELTRAMI_LAB_THREADS", "0").strip()
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if val <= 0:
        return min(4, os.cpu_count() or 1)
    return val


@lru_cache(maxsize=8)
def _symbol(shape: tuple, dx: float, dy: float, kind: str) -> np.ndarray:
    """Frequency multiplier `kind` on a torus of `shape` samples spaced
    dx, dy; the zero mode is 0.  Built in place, one kind at a time."""
    ny, nx = shape
    kx = np.fft.fftfreq(nx, d=dx)
    ky = np.fft.fftfreq(ny, d=dy)
    sym = kx[None, :] + 1j * ky[:, None]
    sym[0, 0] = 1.0
    if kind == "cauchy":
        np.reciprocal(sym, out=sym)
        sym /= 1j * np.pi
    else:
        # conj(kappa) / kappa = conj(kappa)^2 / |kappa|^2; the adjoint is
        # its conjugate
        norm2 = (kx * kx)[None, :] + (ky * ky)[:, None]
        norm2[0, 0] = 1.0
        if kind == "beurling":
            np.conjugate(sym, out=sym)
        sym *= sym
        sym /= norm2
    sym[0, 0] = 0.0
    return sym


def _apply_multiplier(
    buf: np.ndarray, data: np.ndarray, grid: GridSpec, kind: str, overwrite: bool
) -> np.ndarray:
    """Multiplier `kind` applied to data on the torus of buf's shape, with
    the sample spacing of grid.

    data is written into the corner of buf, which must be zero elsewhere;
    buf stays that way for reuse unless overwrite is set.  Returns the
    data-shaped corner of the result, a view."""
    ny, nx = data.shape
    buf[:ny, :nx] = data
    workers = thread_count()
    spec = sfft.fft2(buf, workers=workers, overwrite_x=overwrite)
    spec *= _symbol(buf.shape, grid.dx, grid.dy, kind)
    return sfft.ifft2(spec, workers=workers, overwrite_x=True)[:ny, :nx]


def _padded_transform(data: np.ndarray, grid: GridSpec, kind: str) -> np.ndarray:
    """Multiplier `kind` on the grid zero-padded to twice its side."""
    buf = np.zeros((2 * grid.ny, 2 * grid.nx), dtype=np.complex128)
    return np.ascontiguousarray(_apply_multiplier(buf, data, grid, kind, overwrite=True))


def _torus_mean(h: ComplexField) -> complex:
    """Mean of h over the padded torus of the public transforms."""
    return complex(h.data.sum() / (4 * h.grid.nx * h.grid.ny))


def _check_boundary_support(h: ComplexField) -> None:
    d = np.abs(h.data)
    peak = d.max()
    if peak == 0.0:
        return
    frame = max(d[:2, :].max(), d[-2:, :].max(), d[:, :2].max(), d[:, -2:].max())
    if frame > 1e-5 * peak:
        raise PaddingError(
            "field support reaches the grid boundary "
            f"(edge magnitude {frame:.3e} vs peak {peak:.3e})"
        )


def cauchy_transform(h: ComplexField) -> ComplexField:
    """Solid Cauchy transform: the discrete dbar of the output equals h.

    The frequency multiplier is the Cauchy kernel periodized on the padded
    torus; the zbar term and the cubic lattice term of the module docstring
    are added back, from moments over the support box of h.  Without the
    zbar term the output of compactly supported data is off by a linear
    deficit at interior points, and without the constant in it by an offset
    that grows with the distance of h's support from 0.  The lattice terms
    assume a square torus (nx dx == ny dy), and other grids are rejected.
    h must vanish near the grid boundary."""
    grid = h.grid
    if not math.isclose(grid.nx * grid.dx, grid.ny * grid.dy, rel_tol=1e-12):
        raise ValueError("cauchy_transform needs a square torus (nx dx == ny dy)")
    _check_boundary_support(h)
    out = _padded_transform(h.data, grid, "cauchy")
    rows, cols = _support_box(h.data)
    xs, ys = grid.xs(), grid.ys()
    hb, x, y = h.data[rows, cols], xs[cols], ys[rows]
    cubic = G4_SQUARE_LATTICE / (math.pi * (2 * grid.nx * grid.dx) ** 4)
    out += _polynomial_kernel(((cubic, 3),), x, y, grid.cell_area, xs, ys)(hb)
    # (1/P^2) int (zbar - wbar) h dA, with P^2 the area of the torus
    area = 4 * grid.nx * grid.ny * grid.cell_area
    wbar = grid.cell_area * (hb.sum(axis=0) @ x - 1j * (hb.sum(axis=1) @ y))
    out += _torus_mean(h) * (xs[None, :] - 1j * ys[:, None]) - wbar / area
    return ComplexField(grid, out)


def beurling_transform(h: ComplexField) -> ComplexField:
    """Beurling transform: carries dbar g to d g for compactly supported
    smooth g; an L2 contraction in this discretization.

    It stays on the grid zero-padded to twice its side, with no lattice
    term and not on the solver's smaller torus: acceptance check 09 and
    beurling_norm_estimate need the exact L2 contraction of the plain
    frequency multiplier."""
    _check_boundary_support(h)
    return ComplexField(h.grid, _padded_transform(h.data, h.grid, "beurling"))


def _laurent_coefficients() -> tuple:
    """(k, c_k) for the nonzero terms c_k z^(2k-2) of wp(z) - z^-2 up to
    z^10, unit square lattice (DLMF 23.9.7 with g3 = 0)."""
    g4 = G4_SQUARE_LATTICE
    return (2, 3.0 * g4), (4, 3.0 * g4**2), (6, 18.0 * g4**3 / 13.0)


def _polynomial_kernel(terms, x, y, cell_area: float, x_out, y_out):
    """The map h -> sum over (c, n) in terms of c int (z - w)^n h(w) dA,
    from h on the tensor box with node abscissas x and ordinates y to its
    values on the tensor grid x_out, y_out.

    The moments of h and the polynomial in z are taken through the powers
    of x and of y, so one application is four small matrix products:
    Q = Y^T h X, then R = T Q (a fixed map through the moments and the
    polynomial coefficients), and Y_out R X_out^T.  Powers are taken about
    the box centre, which (z - w) does not see."""
    deg = max(n for _, n in terms)
    x0, y0 = 0.5 * (x[0] + x[-1]), 0.5 * (y[0] + y[-1])

    def powers(v):
        return np.vander(v, deg + 1, increasing=True).astype(complex)

    xp, yp, xo, yo = powers(x - x0), powers(y - y0), powers(x_out - x0), powers(y_out - y0)
    # split[j, (a, b)] = binom(j, a) i^a with a + b = j: w^j = sum split y^a x^b
    split = np.zeros((deg + 1, deg + 1, deg + 1), dtype=complex)
    for j in range(deg + 1):
        for a in range(j + 1):
            split[j, a, j - a] = math.comb(j, a) * 1j**a
    split = split.reshape(deg + 1, -1)
    # poly[d, j]: coefficient of z^d int w^j h dA
    poly = np.zeros((deg + 1, deg + 1))
    for c, n in terms:
        for j in range(n + 1):
            poly[n - j, j] += c * math.comb(n, j) * (-1) ** j
    t = cell_area * (split.T @ poly @ split)

    def apply(h: np.ndarray) -> np.ndarray:
        q = (yp.T @ h @ xp).ravel()
        return yo @ (t @ q).reshape(deg + 1, deg + 1) @ xo.T

    return apply


@dataclass(frozen=True)
class SolveConfig:
    grid: GridSpec = field(default_factory=lambda: GridSpec.square(512, 2.0))
    fix_tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self) -> None:
        g = self.grid
        if g.x_min > -1.5 or g.x_max < 1.5 or g.y_min > -1.5 or g.y_max < 1.5:
            raise ValueError("grid must contain [-L, L]^2 with L >= 1.5")
        if g.dx != g.dy:
            raise ValueError("grid cells must be square (dx == dy)")
        if g.nx != g.ny:
            raise ValueError("grid must be square (nx == ny)")
        if not (self.fix_tol > 0.0):
            raise ValueError("fix_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveResult:
    f: ComplexField
    f_z: ComplexField
    f_zbar: ComplexField
    residual_linf_on_disk: float
    mu_used: MuSpec
    mu_field: ComplexField
    mean_term: complex
    # the cell-weighted L2 norm of each fixed-point update, in order
    updates: tuple
    torus_side: int
    solve_seconds: float

    @property
    def iterations(self) -> int:
        return len(self.updates)


@dataclass(frozen=True)
class ResidualReport:
    linf: float
    l2: float
    worst_point: complex


def _subcell_points(grid: GridSpec, zz: np.ndarray, cells: np.ndarray, sub: int):
    """The cells where the mask ``cells`` holds, as (iy, ix), and a sub x sub
    lattice of points centred in each of them, one row per cell."""
    iy, ix = np.nonzero(cells)
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    ox, oy = np.meshgrid(offs * grid.dx, offs * grid.dy)
    return iy, ix, zz[iy, ix][:, None] + (ox + 1j * oy).ravel()[None, :]


def _sample_mu(spec: MuSpec, grid: GridSpec) -> np.ndarray:
    zz = grid.zz()
    data = np.asarray(spec.mu(zz), dtype=np.complex128)
    step = max(grid.dx, grid.dy)
    r = np.abs(zz)
    for rc in spec.jump_radii():
        band = np.abs(r - rc) <= ANTIALIAS_BAND_CELLS * step
        if band.any():
            iy, ix, pts = _subcell_points(grid, zz, band, ANTIALIAS_SUBCELLS)
            data[iy, ix] = np.asarray(spec.mu(pts)).mean(axis=1)
    return data


def _retained_mask(grid: GridSpec, spec: MuSpec) -> np.ndarray:
    zz = grid.zz()
    r = np.abs(zz)
    keep = r <= RESIDUAL_RADIUS
    step = max(grid.dx, grid.dy)
    for rc in spec.jump_radii():
        keep &= np.abs(r - rc) > JUMP_BAND_CELLS * step
    return keep


def _support_box(data: np.ndarray) -> tuple:
    """Slices of the bounding box of the nonzero samples (the whole grid
    when there are none)."""
    rows = np.flatnonzero(data.any(axis=1))
    cols = np.flatnonzero(data.any(axis=0))
    if rows.size == 0:
        return slice(None), slice(None)
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def observed_ratio(updates: Sequence[float]) -> float | None:
    """Observed contraction ratio of a fixed point from its update norms
    d_1 .. d_n: the larger of the last two ratios d_n/d_(n-1) and
    d_(n-1)/d_(n-2), or None before the third update."""
    if len(updates) < 3:
        return None
    d2, d1, d0 = updates[-3:]
    return max(d0 / d1, d1 / d2)


def _fixed_point(mu: np.ndarray, x: np.ndarray, y: np.ndarray, grid: GridSpec,
                 cfg: SolveConfig):
    """Neumann iteration h <- mu S(h) + mu on a box holding supp mu, with x
    and y the box's node abscissas and ordinates.  Returns (h, the L2 norms
    of the updates, torus side, converged).

    It stops once the update d and the observed ratio q < 1 bound the
    remaining error of h, d q / (1 - q), by fix_tol ||h||, or once d = 0.

    S runs on a square torus of side about TORUS_FACTOR times the box side,
    plus the three lattice terms of the torus kernel (see the module
    docstring)."""
    side = sfft.next_fast_len(math.ceil(TORUS_FACTOR * max(mu.shape)))
    buf = np.zeros((side, side), dtype=np.complex128)
    period = side * grid.dx
    terms = tuple((c / (math.pi * period ** (2 * k)), 2 * k - 2)
                  for k, c in _laurent_coefficients())
    remainder = _polynomial_kernel(terms, x, y, grid.cell_area, x, y)
    weight = math.sqrt(grid.cell_area)
    h = mu.copy()
    updates: list[float] = []
    for _ in range(cfg.max_iter):
        s_h = _apply_multiplier(buf, h, grid, "beurling", overwrite=False)
        s_h += remainder(h)
        h_new = mu * s_h + mu
        delta = float(np.linalg.norm(h_new - h)) * weight
        updates.append(delta)
        h = h_new
        q = observed_ratio(updates)
        if delta == 0.0 or (q is not None and q < 1.0 and delta * q / (1.0 - q)
                            <= cfg.fix_tol * float(np.linalg.norm(h)) * weight):
            return h, tuple(updates), side, True
    return h, tuple(updates), side, False


def solve_principal(mu: MuSpec, cfg: SolveConfig | None = None) -> SolveResult:
    """Principal solution of f_zbar = mu f_z, normalized to look like the
    identity far from the support.

    The Neumann iteration stops once its a posteriori bound on the
    remaining error of h, d q / (1 - q) from the last update d and the
    observed contraction ratio q (observed_ratio), is at most fix_tol
    times ||h||, both in the cell-weighted L2 norm.  The reported residual
    is the sup of |f_zbar - mu f_z| from finite-difference derivatives on
    {|z| <= 0.95}, off two-cell bands around the dilatation's jump circles.
    """
    cfg = cfg or SolveConfig()
    grid = cfg.grid
    t0 = time.perf_counter()
    mu_data = _sample_mu(mu, grid)
    sup = float(np.max(np.abs(mu_data)))
    if sup >= 1.0 - 1e-9:
        raise ContractionError(f"ess-sup |mu| = {sup:.12f} is not below 1")
    box = _support_box(mu_data)
    h = np.zeros_like(mu_data)
    h[box], updates, side, converged = _fixed_point(
        mu_data[box], grid.xs()[box[1]], grid.ys()[box[0]], grid, cfg
    )
    h_field = ComplexField(grid, h)
    f = ComplexField(grid, grid.zz() + cauchy_transform(h_field).data)
    if not converged:
        raise SolveNonConvergence(len(updates), updates[-1], f)
    f_z, f_zbar = wirtinger_derivatives(f)
    keep = _retained_mask(grid, mu)
    res = np.abs(f_zbar.data - mu_data * f_z.data)
    linf = float(res[keep].max()) if keep.any() else 0.0
    return SolveResult(
        f=f,
        f_z=f_z,
        f_zbar=f_zbar,
        residual_linf_on_disk=linf,
        mu_used=mu,
        mu_field=ComplexField(grid, mu_data),
        mean_term=_torus_mean(h_field),
        updates=updates,
        torus_side=side,
        solve_seconds=time.perf_counter() - t0,
    )


def residual_report(res: SolveResult) -> ResidualReport:
    """Norms of f_zbar - mu f_z over the retained compact (see
    solve_principal for the exclusion convention)."""
    grid = res.f.grid
    keep = _retained_mask(grid, res.mu_used)
    r = np.abs(res.f_zbar.data - res.mu_field.data * res.f_z.data)
    r = np.where(keep, r, 0.0)
    idx = np.unravel_index(int(np.argmax(r)), r.shape)
    l2 = float(np.sqrt(np.sum(r[keep] ** 2) * grid.cell_area))
    return ResidualReport(
        linf=float(r[idx]),
        l2=l2,
        worst_point=complex(grid.zz()[idx]),
    )


def sup_distance(a: ComplexField, b: ComplexField) -> float:
    """Sup of |a - b| over {|z| <= COMPARE_RADIUS}; fields must share a grid."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    mask = np.abs(a.grid.zz()) <= COMPARE_RADIUS
    return float(np.max(np.abs(a.data - b.data)[mask]))


@lru_cache(maxsize=8)
def _disk_cell_weights(grid: GridSpec) -> np.ndarray:
    """Fraction of each cell inside the unit disk (subsampled at partial
    cells); cached per grid."""
    zz = grid.zz()
    r = np.abs(zz)
    half_diag = 0.5 * math.hypot(grid.dx, grid.dy)
    w = np.zeros(r.shape)
    w[r <= 1.0 - half_diag] = 1.0
    part = (r < 1.0 + half_diag) & (r > 1.0 - half_diag)
    iy, ix, pts = _subcell_points(grid, zz, part, DISK_SUBCELLS)
    w[iy, ix] = (np.abs(pts) <= 1.0).mean(axis=1)
    return w


def grid_kip_integral(res: SolveResult, order_p: float) -> float:
    """Integral of the order-p inner dilatation of the inverse map over the
    image of the unit disk, computed in source coordinates as the integral
    of the operator norm ||f'||^p = (|f_z| + |f_zbar|)^p."""
    check_order_p(order_p)
    grid = res.f.grid
    w = _disk_cell_weights(grid)
    norm = np.abs(res.f_z.data) + np.abs(res.f_zbar.data)
    return float(np.sum(norm**order_p * w) * grid.cell_area)


@dataclass
class TruncationRun:
    k_schedule: tuple
    order_p: float
    per_k: list
    pairwise_sup_dist: tuple
    KIp_integrals: tuple
    bound_M: float | None
    bound_ok: tuple | None


def check_k_schedule(k_schedule: Sequence[float]) -> tuple:
    """The levels of a truncation scheme: at least one, strictly increasing,
    each a truncation level."""
    ks = tuple(check_level(k) for k in k_schedule)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_schedule must be a nonempty, strictly increasing sequence")
    return ks


def truncation_scheme(
    mu: MuSpec,
    k_schedule: Sequence[float],
    order_p: float,
    cfg: SolveConfig | None = None,
    bound_M: float | None = None,
) -> TruncationRun:
    """Solve the truncated equations along an increasing K-cap schedule.

    Per level k the dilatation is zeroed where its maximal dilatation
    exceeds k, solved, and the order-p inner-dilatation integral recorded;
    successive solutions are compared in sup norm on {|z| <= 0.9}.  Higher
    caps contract more slowly, so each level's iteration budget is raised
    to the a priori count ceil(ln(fix_tol (1 - b)) / ln b) for
    b = ess-sup |mu_k|, and never set below max_iter.
    """
    ks = check_k_schedule(k_schedule)
    check_order_p(order_p)
    cfg = cfg or SolveConfig()
    per_k: list[SolveResult] = []
    for k in ks:
        spec_k = truncate_mu(mu, k)
        bound = spec_k.sup_abs_bound()
        budget = cfg.max_iter
        if 0.0 < bound < 1.0:
            budget = max(budget, math.ceil(math.log(cfg.fix_tol * (1.0 - bound))
                                           / math.log(bound)))
        cfg_k = replace(cfg, max_iter=budget)
        per_k.append(solve_principal(spec_k, cfg_k))
    dists = tuple(
        sup_distance(a.f, b.f) for a, b in zip(per_k, per_k[1:])
    )
    integrals = tuple(grid_kip_integral(r, order_p) for r in per_k)
    if any(not math.isfinite(v) for v in integrals):
        raise ValueError("non-finite inner-dilatation integral")
    ok = None
    if bound_M is not None:
        ok = tuple(v <= bound_M for v in integrals)
    return TruncationRun(
        k_schedule=ks,
        order_p=order_p,
        per_k=per_k,
        pairwise_sup_dist=dists,
        KIp_integrals=integrals,
        bound_M=bound_M,
        bound_ok=ok,
    )


def beurling_norm_estimate(iterations: int = 30, seed: int = 0) -> float:
    """Power-iteration estimate of the discrete L2 norm of the Beurling
    transform restricted to fields supported in the unit disk, on the 256^2
    grid over [-2, 2]^2."""
    grid = GridSpec.square(256, 2.0)
    rng = np.random.default_rng(seed)
    mask = np.abs(grid.zz()) < 1.0
    v = rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
    v = np.where(mask, v, 0.0)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iterations):
        w = _padded_transform(v, grid, "beurling")
        back = _padded_transform(w, grid, "beurling_adj")
        back = np.where(mask, back, 0.0)
        lam = float(np.linalg.norm(back))
        est = math.sqrt(lam)
        v = back / lam
    return est
