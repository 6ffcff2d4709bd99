"""Spectral solver for planar Beltrami equations with bounded dilatation.

The equation f_zbar = mu f_z with compactly supported mu is solved through
the classical Neumann fixed point h <- mu S(h) + mu, where S is the
Beurling transform; the principal solution is then f = z + C(h) with C the
Cauchy transform.  Both transforms are frequency multipliers on a torus:
the data sits in one corner of a zero-padded periodic buffer.

The fixed point runs on the bounding box of mu's nonzero samples, since h
vanishes wherever mu does.  The box is zero-padded to a square torus about
twice its side, of period P.  On that torus the Beurling kernel
-1/(pi z^2) becomes -wp(z)/pi, where wp is the Weierstrass function of the
square lattice P(Z + iZ): wp(z) = z^-2 + 3 G4 z^2 / P^4 + O(z^6 / P^8),
because G6 vanishes for that lattice and G4 = Gamma(1/4)^8 / (960 pi^2).
Each Beurling application adds the leading term back,
(3 G4 / (pi P^4)) (z^2 M0 - 2 z M1 + M2) with M_k the integral of w^k h
over the box; without it the periodization error of the small torus shows
in the solution.  The lattice is square only when dx == dy, which
SolveConfig requires.

The Cauchy step runs once per solve, on the full grid zero-padded to twice
its side.  C includes an affine zbar correction carrying the mean of h over
that torus (the frequency multiplier drops the zero mode, and the
correction restores it so the discrete dbar of f equals h).

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


class PaddingError(ValueError):
    """Input support reaches the grid boundary, so the padded-torus
    transform would wrap it around."""


class ContractionError(ValueError):
    """ess-sup |mu| is not bounded away from 1; the Neumann iteration has
    no contraction factor."""


class SolveNonConvergence(RuntimeError):
    """Fixed-point iteration hit max_iter; carries the last iterate."""

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

    The frequency multiplier drops the padded-torus zero mode; the affine
    term a zbar, with a the padded-box mean of h, restores it.  Without
    that term the output of compactly supported data is off by a linear
    deficit at interior points.  h must vanish near the grid boundary."""
    _check_boundary_support(h)
    out = _padded_transform(h.data, h.grid, "cauchy")
    out += _torus_mean(h) * np.conj(h.grid.zz())
    return ComplexField(h.grid, out)


def beurling_transform(h: ComplexField) -> ComplexField:
    """Beurling transform: carries dbar g to d g for compactly supported
    smooth g; an L2 contraction in this discretization."""
    _check_boundary_support(h)
    return ComplexField(h.grid, _padded_transform(h.data, h.grid, "beurling"))


@dataclass(frozen=True)
class SolveConfig:
    grid: GridSpec = field(default_factory=lambda: GridSpec.square(512, 2.0))
    fix_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        g = self.grid
        if g.x_min > -1.5 or g.x_max < 1.5 or g.y_min > -1.5 or g.y_max < 1.5:
            raise ValueError("grid must contain [-L, L]^2 with L >= 1.5")
        if g.dx != g.dy:
            raise ValueError("grid cells must be square (dx == dy)")
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
    iterations: int
    mu_used: MuSpec
    mu_field: ComplexField
    mean_term: complex
    final_delta: float
    solve_seconds: float
    config: SolveConfig


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


def _fixed_point(mu: np.ndarray, z: np.ndarray, grid: GridSpec, cfg: SolveConfig):
    """Neumann iteration h <- mu S(h) + mu on a box holding supp mu, with z
    the box's coordinates.  Returns (h, iterations, last update, converged).

    S runs on a square torus of side about twice the box side, plus the
    leading lattice term of the torus kernel (see the module docstring)."""
    side = sfft.next_fast_len(2 * max(mu.shape))
    buf = np.zeros((side, side), dtype=np.complex128)
    lattice = 3.0 * G4_SQUARE_LATTICE / (math.pi * (side * grid.dx) ** 4)
    z1 = z.ravel()
    z2 = z1 * z1
    weight = math.sqrt(grid.cell_area)
    h = mu.copy()
    delta = math.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        s_h = _apply_multiplier(buf, h, grid, "beurling", overwrite=False)
        flat = h.ravel()
        m0, m1, m2 = (grid.cell_area * v for v in (flat.sum(), z1 @ flat, z2 @ flat))
        s_h += lattice * ((m0 * z - 2.0 * m1) * z + m2)
        h_new = mu * s_h + mu
        delta = float(np.linalg.norm(h_new - h)) * weight
        h = h_new
        if delta <= cfg.fix_tol:
            return h, iterations, delta, True
    return h, iterations, delta, False


def solve_principal(mu: MuSpec, cfg: SolveConfig | None = None) -> SolveResult:
    """Principal solution of f_zbar = mu f_z, normalized to look like the
    identity far from the support.

    Stops when the discrete L2 norm of the iterate update drops below
    fix_tol.  The reported residual is the sup of |f_zbar - mu f_z| from
    finite-difference derivatives on {|z| <= 0.95}, off two-cell bands
    around the dilatation's jump circles.
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
    h[box], iterations, delta, converged = _fixed_point(
        mu_data[box], grid.zz()[box], grid, cfg
    )
    h_field = ComplexField(grid, h)
    f = ComplexField(grid, grid.zz() + cauchy_transform(h_field).data)
    if not converged:
        raise SolveNonConvergence(iterations, delta, f)
    f_z, f_zbar = wirtinger_derivatives(f)
    keep = _retained_mask(grid, mu)
    res = np.abs(f_zbar.data - mu_data * f_z.data)
    linf = float(res[keep].max()) if keep.any() else 0.0
    return SolveResult(
        f=f,
        f_z=f_z,
        f_zbar=f_zbar,
        residual_linf_on_disk=linf,
        iterations=iterations,
        mu_used=mu,
        mu_field=ComplexField(grid, mu_data),
        mean_term=_torus_mean(h_field),
        final_delta=delta,
        solve_seconds=time.perf_counter() - t0,
        config=cfg,
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
    successive solutions are compared in sup norm on {|z| <= 0.9}.  The
    iteration budget is raised per level to the contraction estimate
    ln(fix_tol)/ln(ess-sup |mu_k|) plus margin, since higher caps contract
    more slowly.
    """
    ks = check_k_schedule(k_schedule)
    check_order_p(order_p)
    cfg = cfg or SolveConfig()
    per_k: list[SolveResult] = []
    for k in ks:
        spec_k = truncate_mu(mu, k)
        bound = spec_k.sup_abs_bound()
        if bound < 1.0 and bound > 0.0:
            estimate = int(math.log(cfg.fix_tol) / math.log(bound) * 1.25) + 50
        else:
            estimate = cfg.max_iter
        cfg_k = replace(cfg, max_iter=max(cfg.max_iter, estimate))
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


def beurling_norm_estimate(
    grid: GridSpec | None = None, iterations: int = 30, seed: int = 0
) -> float:
    """Power-iteration estimate of the discrete L2 norm of the Beurling
    transform restricted to fields supported in the unit disk."""
    grid = grid or GridSpec.square(256, 2.0)
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
