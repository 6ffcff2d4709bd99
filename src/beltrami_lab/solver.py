"""Spectral solver for planar Beltrami equations with bounded dilatation.

The equation f_zbar = mu f_z with compactly supported mu is solved through
the classical Neumann fixed point h <- mu S(h) + mu, where S is the
Beurling transform; the principal solution is then f = z + C(h) with C the
Cauchy transform.  Both transforms are frequency multipliers on a torus:
the data sits in one corner of a zero-padded periodic buffer.  One torus
operator (_torus_operator) serves the fixed point, the Cauchy step, the
public transforms and check 09's beurling_norm_estimate.

The fixed point runs on the bounding box of mu's nonzero samples, since h
vanishes wherever mu does.  It iterates in two precisions, as iterative
refinement does (Carson and Higham, SIAM J. Sci. Comput. 40 (2018)): in
complex64, where an FFT pair costs about 0.6 of a complex128 one, until its
error bound falls to SWITCH_TOL ||h||, and then in complex128 from that h.
The stop rule and fix_tol are judged in complex128 only; mu sampling, the
Cauchy step, the derivatives, the residual and the public transforms stay
in complex128.  The box is zero-padded to a square torus about
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

The Cauchy step runs once per solve, by the same rule: h's support box is
zero-padded to a square torus about TORUS_FACTOR times the grid's side, of
period P, and the result is taken on the whole grid.  On that torus the
kernel 1/(pi z) becomes (zeta(z) - pi zbar / P^2) / pi, with zeta the
Weierstrass zeta function of the same lattice,
zeta(z) = 1/z - sum_k c_k / (2k - 1) z^(2k-1) / P^2k, k = 2, 4, 6, ...
(zeta' = -wp, so its coefficients are wp's; the z^3 one is G4).  C adds
back the zbar term, (1/P^2) int (zbar - wbar) h(w) dA (the frequency
multiplier drops the zero mode, and the zbar part restores it so the
discrete dbar of f equals h), and the three zeta terms
(1/pi) sum_k c_k / (2k - 1) P^-2k int (z - w)^(2k-1) h(w) dA.  For h in
the unit disk on a grid over [-L, L]^2 with L >= 1.5, as SolveConfig
requires, |z - w| / P <= (sqrt(2) L + 1) / (3 L) <= 0.69 at every grid z.

A solve is three steps: _prepare samples mu and checks its sup, _iterate
runs the fixed point on mu's support box, and _finish takes the Cauchy
step, the derivatives and the residual.  solve_principal runs them in a
row.  truncation_scheme prepares every level, runs the levels' fixed
points on a pool of thread_count() threads, and finishes the levels on the
calling thread.  Only box-sized arrays are made on the pool, because each
thread's malloc arena keeps its own high-water mark resident.

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
from concurrent.futures import ThreadPoolExecutor
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
# a torus side over the side of the window the result is taken on
TORUS_FACTOR = 1.5
# the smallest fix_tol: below it round-off keeps the stop rule from ever
# holding, and the iteration runs out its whole budget
FIX_TOL_FLOOR = 1e-13
# the fixed point iterates in complex64 until its error bound is at most
# SWITCH_TOL ||h||, then in complex128; it sits above float32 round-off
# (about 6e-8), where complex64 updates plateau and the observed ratio
# drifts to 1
SWITCH_TOL = 1e-5
# residual_report's worst point is picked among the retained points whose
# residual is at least (1 - WORST_POINT_RTOL) times the largest, so that
# round-off ties between points of a symmetric orbit cannot decide it
WORST_POINT_RTOL = 1e-9


class PaddingError(ValueError):
    """Input support reaches the grid boundary, so the padded-torus
    transform would wrap it around."""


class ContractionError(ValueError):
    """ess-sup |mu| is not bounded away from 1; the Neumann iteration has
    no contraction factor."""


class SolveNonConvergence(RuntimeError):
    """Fixed-point iteration hit max_iter; carries f built from the last
    iterate h, and the last L2 update."""

    def __init__(self, iterations: int, last_delta: float, partial: ComplexField):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last L2 update {last_delta:.3e})"
        )
        self.iterations = iterations
        self.last_delta = last_delta
        self.partial = partial


def thread_count() -> int:
    """The library's thread budget, from BELTRAMI_LAB_THREADS (0 or unset
    means the cores this process may run on, at most 4): the size of
    truncation_scheme's pool of fixed points.  Every FFT runs on one
    worker."""
    raw = os.environ.get("BELTRAMI_LAB_THREADS", "0").strip()
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if val <= 0:
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:
            usable = os.cpu_count() or 1
        return min(4, usable)
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
        # conj(kappa) / kappa = conj(kappa)^2 / |kappa|^2
        norm2 = (kx * kx)[None, :] + (ky * ky)[:, None]
        norm2[0, 0] = 1.0
        np.conjugate(sym, out=sym)
        sym *= sym
        sym /= norm2
    sym[0, 0] = 0.0
    return sym


def _torus_window(a: np.ndarray, at: int, n: int, axis: int) -> np.ndarray:
    """The n samples of the periodic axis of a that start at -at, a copy."""
    return np.take(a, np.arange(-at, n - at), axis=axis, mode="wrap")


def _apply_multiplier(data: np.ndarray, symbol: np.ndarray, at: tuple = (0, 0),
                      out_shape: tuple | None = None) -> np.ndarray:
    """The multiplier symbol applied to data, zero-padded in one corner of
    the torus of symbol's shape, in the precision of symbol.  Returns the
    result on a window of out_shape (data's shape by default) in which data
    sits at offset at, a new array; the window wraps around the torus.

    The axes are transformed one at a time, in the order of fft2 and ifft2
    and with their one scaling, so on the same torus the result has the
    bits of ifft2(fft2(data, s) symbol).  The forward pass along axis 0 runs
    on data's columns only, since the padding's columns transform to 0, and
    the inverse pass along axis 1 on the window's rows only.  Each pass
    runs on one worker: on a 2-vCPU machine scipy's workers=2 kept the CPU
    time equal to the wall time from 256^2 to 2048^2, so the cores go to
    truncation_scheme's pool of fixed points instead."""
    ty, tx = symbol.shape
    ny, nx = out_shape or data.shape
    spec = sfft.fft(data, n=ty, axis=0)
    spec = sfft.fft(spec, n=tx, axis=1, overwrite_x=True)
    spec *= symbol
    spec = sfft.ifft(spec, axis=0, norm="forward", overwrite_x=True)
    spec = _torus_window(spec, at[0], ny, axis=0)
    # ifft2's scaling: one real factor, 1/(ty tx) rounded from long double
    # as pocketfft rounds it
    real = spec.view(spec.real.dtype)
    real *= real.dtype.type(1 / np.longdouble(ty * tx))
    spec = sfft.ifft(spec, axis=1, norm="forward", overwrite_x=True)
    return _torus_window(spec, at[1], nx, axis=1)


def _torus_operator(kind: str, grid: GridSpec, x: np.ndarray, y: np.ndarray, at: tuple,
                    x_out: np.ndarray, y_out: np.ndarray) -> tuple:
    """The kernel of kind, "beurling" or "cauchy", periodized on a square
    torus about TORUS_FACTOR times the window's side: data on the tensor box
    of node abscissas x and ordinates y goes to the window x_out, y_out, in
    which the box sits at offset at.  Returns the complex128 symbol,
    remainder() (the lattice terms' map R, built on first use, after the
    first multiplier) and apply(data, symbol=symbol): the multiplier plus R,
    in the precision of the symbol."""
    side = sfft.next_fast_len(math.ceil(TORUS_FACTOR * max(x_out.size, y_out.size)))
    period = side * grid.dx
    # zeta' = -wp: the Cauchy kernel's terms integrate the Beurling kernel's
    odd = kind == "cauchy"
    terms = tuple((c / ((2 * k - 1 if odd else 1) * math.pi * period ** (2 * k)),
                   2 * k - 2 + odd) for k, c in _laurent_coefficients())
    symbol = _symbol((side, side), grid.dx, grid.dy, kind)

    @lru_cache(maxsize=None)
    def remainder():
        return _polynomial_kernel(terms, x, y, grid.cell_area, x_out, y_out)

    def apply(data: np.ndarray, symbol: np.ndarray = symbol) -> np.ndarray:
        out = _apply_multiplier(data, symbol, at, (y_out.size, x_out.size))
        out += remainder()(data)
        return out

    return symbol, remainder, apply


def _grid_transform(h: ComplexField, kind: str) -> ComplexField:
    """The torus operator of kind on h's support box, taken on the whole
    grid, plus the Cauchy kernel's zbar term.  The lattice is square only on
    a square grid of square cells; h must vanish near the grid boundary."""
    grid = h.grid
    if grid.nx != grid.ny or not math.isclose(grid.dx, grid.dy, rel_tol=1e-12):
        raise ValueError(f"{kind}_transform needs a square torus (nx == ny, dx == dy)")
    peak = np.abs(h.data).max()
    frame = max(np.abs(e).max() for e in (h.data[:2], h.data[-2:], h.data[:, :2], h.data[:, -2:]))
    if peak > 0.0 and frame > 1e-5 * peak:
        raise PaddingError("field support reaches the grid boundary "
                           f"(edge magnitude {frame:.3e} vs peak {peak:.3e})")
    rows, cols = _support_box(h.data)
    xs, ys = grid.xs(), grid.ys()
    hb, x, y = h.data[rows, cols], xs[cols], ys[rows]
    symbol, _, apply = _torus_operator(kind, grid, x, y, (rows.start, cols.start), xs, ys)
    out = apply(hb)
    if kind == "cauchy":
        # (1/P^2) int (zbar - wbar) h dA, with P^2 the area of the torus:
        # zbar times h's mean over the torus, the zero mode the multiplier
        # drops, less the first moment of h over that area
        wbar = grid.cell_area * (hb.sum(axis=0) @ x - 1j * (hb.sum(axis=1) @ y))
        mean = complex(hb.sum() / symbol.size)
        out += (mean * xs - wbar / (symbol.shape[0] * grid.dx)**2)[None, :]
        out -= (1j * mean * ys)[:, None]
    return ComplexField(grid, out)


def cauchy_transform(h: ComplexField) -> ComplexField:
    """Solid Cauchy transform: the discrete dbar of the output equals h.

    _grid_transform adds back the zbar and zeta terms of the module
    docstring, from moments over h's support box.  Without the zbar term
    the output of compactly supported data is off by a linear deficit at
    interior points, and without the constant in it by an offset that grows
    with the distance of h's support from 0.  The zeta series stops at
    z^11, so its error is of order (|z - w| / P)^15; on solver inputs
    |z - w| / P <= 0.69."""
    return _grid_transform(h, "cauchy")


def beurling_transform(h: ComplexField) -> ComplexField:
    """Beurling transform: carries dbar g to d g for compactly supported
    smooth g.  It is the operator the fixed point applies, with the wp
    terms of the module docstring, taken on the whole grid
    (_grid_transform); beurling_norm_estimate bounds its norm."""
    return _grid_transform(h, "beurling")


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
    polynomial coefficients), and Y_out R X_out^T, in the precision of h.
    Powers are taken about the box centre, which (z - w) does not see."""
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
    mats = {dt: [m.astype(dt, copy=False) for m in (yp.T, xp, t, yo, xo.T)]
            for dt in (np.dtype(np.complex64), np.dtype(np.complex128))}

    def apply(h: np.ndarray) -> np.ndarray:
        ypt, xp_, t_, yo_, xot = mats[h.dtype]
        q = (ypt @ h @ xp_).ravel()
        return yo_ @ (t_ @ q).reshape(deg + 1, deg + 1) @ xot

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
        if not (self.fix_tol >= FIX_TOL_FLOOR):
            raise ValueError(f"fix_tol must be at least {FIX_TOL_FLOOR:g} (round-off floor)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class ResidualReport:
    linf: float
    l2: float
    worst_point: complex


@dataclass
class SolveResult:
    """A principal solution f and the residual of its finite-difference
    derivatives, which are not kept: wirtinger_derivatives(res.f)."""

    f: ComplexField
    residual: ResidualReport
    # the samples of mu; None on truncation levels, which drop them
    mu_field: ComplexField | None
    # the largest |mu| over the samples
    sup_mu: float
    # the cell-weighted L2 norm of each fixed-point update, in order
    updates: tuple
    # how many of the updates ran in complex64, before the upcast of h
    complex64_iterations: int
    torus_side: int
    # perf_counter spans of the solve's phases: sample_mu, fixed_point,
    # cauchy, and residual (the derivatives of f included)
    phase_seconds: dict
    # the wall time of solve_principal; None on truncation levels, whose
    # phases do not run back to back
    solve_seconds: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.updates)

    @property
    def fft_pairs(self) -> dict:
        """FFT pairs by precision: one per complex64 update, and one per
        complex128 update plus the Cauchy step's."""
        single = self.complex64_iterations
        return {"complex64": single, "complex128": self.iterations - single + 1}


def _near_circles(r: np.ndarray, circles: Sequence[float], band: float) -> np.ndarray:
    """Where the radius r lies within band of one of the circles about 0."""
    near = np.zeros(r.shape, dtype=bool)
    for rc in circles:
        near |= np.abs(r - rc) <= band
    return near


def _cell_average(fn, grid: GridSpec, circles: Sequence[float], band: float,
                  sub: int) -> np.ndarray:
    """fn at the cell centres of grid, except in cells within band of one of
    the circles about 0, where it is the mean of fn over a sub x sub lattice
    of points centred in the cell.

    fn must vanish off the closed unit disk, and the circles must lie in
    it; only the cells of the disk's bounding box widened by band are
    evaluated, and the others are 0."""
    box = tuple(slice(np.searchsorted(v, -1.0 - band), np.searchsorted(v, 1.0 + band, "right"))
                for v in (grid.ys(), grid.xs()))
    zz = grid.xs()[box[1]][None, :] + 1j * grid.ys()[box[0]][:, None]
    vals = np.asarray(fn(zz))
    iy, ix = np.nonzero(_near_circles(np.abs(zz), circles, band))
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    ox, oy = np.meshgrid(offs * grid.dx, offs * grid.dy)
    pts = zz[iy, ix][:, None] + (ox + 1j * oy).ravel()[None, :]
    vals[iy, ix] = np.asarray(fn(pts)).mean(axis=1)
    out = np.zeros((grid.ny, grid.nx), dtype=vals.dtype)
    out[box] = vals
    return out


def _sample_mu(spec: MuSpec, grid: GridSpec) -> np.ndarray:
    return _cell_average(spec.mu, grid, spec.jump_radii(),
                         ANTIALIAS_BAND_CELLS * max(grid.dx, grid.dy), ANTIALIAS_SUBCELLS)


def _retained_mask(grid: GridSpec, spec: MuSpec) -> np.ndarray:
    r = np.abs(grid.zz())
    near = _near_circles(r, spec.jump_radii(), JUMP_BAND_CELLS * max(grid.dx, grid.dy))
    return (r <= RESIDUAL_RADIUS) & ~near


def _support_box(data: np.ndarray) -> tuple:
    """Slices of the bounding box of the nonzero samples (the whole grid
    when there are none)."""
    rows = np.flatnonzero(data.any(axis=1))
    cols = np.flatnonzero(data.any(axis=0))
    if rows.size == 0:
        return slice(0, data.shape[0]), slice(0, data.shape[1])
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def observed_ratio(updates: Sequence[float]) -> float | None:
    """Observed contraction ratio of a fixed point from its update norms
    d_1 .. d_n: the larger of the last two ratios d_n/d_(n-1) and
    d_(n-1)/d_(n-2), or None before the third update.  A ratio over a zero
    update is infinite: the fixed point's complex64 phase can stall
    exactly where the complex128 one still moves."""
    if len(updates) < 3:
        return None
    d2, d1, d0 = updates[-3:]
    return max(d0 / d1 if d1 else math.inf, d1 / d2 if d2 else math.inf)


def _fixed_point(mu: np.ndarray, x: np.ndarray, y: np.ndarray, grid: GridSpec,
                 cfg: SolveConfig):
    """Neumann iteration h <- mu S(h) + mu on a box holding supp mu, with x
    and y the box's node abscissas and ordinates.  Returns (h in
    complex128, the L2 norms of the updates, torus side, converged, the
    number of complex64 updates).

    The iteration runs in two precisions, as one loop with one update
    history and one max_iter budget.  It starts in complex64 and upcasts h
    to complex128 once the update d and the observed ratio q bound the
    remaining error of h, d q / (1 - q), by SWITCH_TOL ||h||, or once
    q >= 1, or on a zero update.  It stops once that bound is at most
    fix_tol ||h|| in complex128, or once d = 0 there, so the stop rule and
    fix_tol are judged in complex128 only.  A mu with no nonzero sample
    starts in complex128.

    S is the Beurling torus operator of the box (_torus_operator), on a
    square torus of side about TORUS_FACTOR times the box side."""
    symbol, _, apply = _torus_operator("beurling", grid, x, y, (0, 0), x, y)
    weight = math.sqrt(grid.cell_area)
    # the complex64 symbol lives only as long as its phase; the cache holds
    # the complex128 one
    low, switch = bool(mu.any()), 0
    h = mu_k = mu.astype(np.complex64) if low else mu
    sym_k = symbol.astype(np.complex64) if low else symbol
    updates: list[float] = []
    for _ in range(cfg.max_iter):
        # S(h) is named: as one expression, mu * S(h) + mu rounds differently
        s_h = apply(h, sym_k)
        h_new = mu_k * s_h + mu_k
        delta = float(np.linalg.norm(h_new - h)) * weight
        updates.append(delta)
        h = h_new
        q = observed_ratio(updates)
        tol = SWITCH_TOL if low else cfg.fix_tol
        bound_met = delta == 0.0 or (q is not None and q < 1.0 and delta * q / (1.0 - q)
                                     <= tol * float(np.linalg.norm(h)) * weight)
        if not low and bound_met:
            return h, tuple(updates), symbol.shape[0], True, switch
        if low and (bound_met or q is not None and q >= 1.0):
            low, switch = False, len(updates)
            mu_k, sym_k, h = mu, symbol, h.astype(np.complex128)
    return (h.astype(np.complex128, copy=False), tuple(updates), symbol.shape[0], False,
            len(updates) if low else switch)


@dataclass
class _Level:
    """A solve between its steps: mu and its config, mu's samples (handed
    on by _finish), their sup and support box, the output of the fixed
    point once it has run (_fixed_point's tuple), and the seconds of each
    phase so far."""

    spec: MuSpec
    cfg: SolveConfig
    mu_data: np.ndarray | None
    sup: float
    box: tuple
    seconds: dict
    fixed: tuple | None = None


def _prepare(mu: MuSpec, cfg: SolveConfig) -> _Level:
    """The first step of a solve: sample mu on the grid, check that its sup
    is below 1 and find its support box."""
    t0 = time.perf_counter()
    mu_data = _sample_mu(mu, cfg.grid)
    sup = float(np.max(np.abs(mu_data)))
    if not sup < 1.0 - 1e-9:  # a NaN sup fails this test too
        raise ContractionError(f"ess-sup |mu| = {sup:.12f} is not below 1")
    return _Level(mu, cfg, mu_data, sup, _support_box(mu_data),
                  {"sample_mu": time.perf_counter() - t0})


def _iterate(level: _Level) -> None:
    """The second step: the fixed point on level's support box.  It touches
    only box-sized arrays and calls no public name of the package, so
    levels may run it on pool threads."""
    t0 = time.perf_counter()
    grid, (rows, cols) = level.cfg.grid, level.box
    level.fixed = _fixed_point(level.mu_data[rows, cols], grid.xs()[cols], grid.ys()[rows],
                               grid, level.cfg)
    level.seconds["fixed_point"] = time.perf_counter() - t0


def _finish(level: _Level) -> tuple:
    """The last step: f = z + C(h) from the fixed point's h, then the
    residual from f's derivatives.  Returns the SolveResult and the
    derivatives; raises SolveNonConvergence, carrying f, if the fixed point
    did not converge."""
    h_box, updates, side, converged, single = level.fixed
    mu_data, level.fixed, level.mu_data = level.mu_data, None, None
    grid, box, seconds = level.cfg.grid, level.box, level.seconds
    t0 = time.perf_counter()
    h = np.zeros((grid.ny, grid.nx), dtype=complex)
    h[box] = h_box
    del h_box
    f_data = cauchy_transform(ComplexField(grid, h)).data
    del h
    f_data += grid.zz()
    f = ComplexField(grid, f_data)
    t1 = time.perf_counter()
    seconds["cauchy"] = t1 - t0
    if not converged:
        raise SolveNonConvergence(len(updates), updates[-1], f)
    derivatives = wirtinger_derivatives(f)
    residual = residual_report(level.spec, mu_data, *derivatives)
    seconds["residual"] = time.perf_counter() - t1
    return SolveResult(
        f=f,
        residual=residual,
        mu_field=ComplexField(grid, mu_data),
        sup_mu=level.sup,
        updates=updates,
        complex64_iterations=single,
        torus_side=side,
        phase_seconds=seconds,
    ), derivatives


def solve_principal(mu: MuSpec, cfg: SolveConfig | None = None) -> SolveResult:
    """Principal solution of f_zbar = mu f_z, normalized to look like the
    identity far from the support.

    The Neumann iteration runs in complex64 until its a posteriori bound
    on the remaining error of h, d q / (1 - q) from the last update d and
    the observed contraction ratio q (observed_ratio), is at most
    SWITCH_TOL times ||h||, and then in complex128 from that h.  It stops
    once the bound, taken in complex128, is at most fix_tol times ||h||,
    both in the cell-weighted L2 norm; max_iter counts the updates of both
    phases, and complex64_iterations those of the first.  The result
    carries the residual f_zbar - mu f_z of the finite-difference
    derivatives (see residual_report).
    """
    t0 = time.perf_counter()
    level = _prepare(mu, cfg or SolveConfig())
    _iterate(level)
    res = _finish(level)[0]
    res.solve_seconds = time.perf_counter() - t0
    return res


def residual_report(mu: MuSpec, mu_data: np.ndarray, f_z: ComplexField,
                    f_zbar: ComplexField) -> ResidualReport:
    """Norms of f_zbar - mu f_z, with mu_data the samples of mu, over the
    retained compact: {|z| <= 0.95} off two-cell bands around the jump
    circles of mu (finite differences are O(1) wrong across a jump).

    The worst point is, among the retained points whose residual is at
    least (1 - WORST_POINT_RTOL) linf, the one of smallest arg z in
    [0, 2 pi), then of smallest |z|: a symmetric mu ties a whole orbit of
    points up to round-off, and the pick must not depend on which of them
    round-off favours."""
    grid = f_z.grid
    keep = _retained_mask(grid, mu)
    r = np.abs(f_zbar.data - mu_data * f_z.data)
    l2 = float(np.sqrt(np.sum(r[keep] ** 2) * grid.cell_area))
    r[~keep] = 0.0
    linf = float(r.max())
    iy, ix = np.nonzero(r >= (1.0 - WORST_POINT_RTOL) * linf)
    z = grid.xs()[ix] + 1j * grid.ys()[iy]
    pick = np.lexsort((np.abs(z), np.mod(np.angle(z), 2.0 * math.pi)))[0]
    return ResidualReport(linf=linf, l2=l2, worst_point=complex(z[pick]))


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
    return _cell_average(lambda z: (np.abs(z) <= 1.0) * 1.0, grid, (1.0,),
                         0.5 * math.hypot(grid.dx, grid.dy), DISK_SUBCELLS)


def _kip_integral(f_z: ComplexField, f_zbar: ComplexField, order_p: float) -> float:
    """The integral of (|f_z| + |f_zbar|)^p over the unit disk."""
    grid = f_z.grid
    norm = np.abs(f_z.data) + np.abs(f_zbar.data)
    return float(np.sum(norm**order_p * _disk_cell_weights(grid)) * grid.cell_area)


def grid_kip_integral(res: SolveResult, order_p: float) -> float:
    """Integral of the order-p inner dilatation of the inverse map over the
    image of the unit disk, computed in source coordinates as the integral
    of the operator norm ||f'||^p = (|f_z| + |f_zbar|)^p."""
    check_order_p(order_p)
    return _kip_integral(*wirtinger_derivatives(res.f), order_p)


@dataclass
class TruncationRun:
    per_k: list
    pairwise_sup_dist: tuple
    KIp_integrals: tuple
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
    exceeds k, solved, and the order-p inner-dilatation integral recorded
    (grid_kip_integral, from the derivatives the residual takes);
    successive solutions are compared in sup norm on {|z| <= 0.9}.  Higher
    caps contract more slowly, so each level's iteration budget is raised
    to the a priori count ceil(ln(fix_tol (1 - b)) / ln b) for
    b = ess-sup |mu_k|, and never set below max_iter.

    The levels are independent.  Each is sampled on the calling thread
    first, so a ContractionError comes before any iteration.  Their fixed
    points then run on a pool of thread_count() threads, at most one per
    level, highest k first since those run longest.  They touch only
    box-sized arrays, so every full-grid array is made on the calling
    thread.  Once all have run, so that the heap peak does not depend on
    thread timing, the levels are finished on the calling thread in
    schedule order, and each drops its mu samples (mu_field is None).  The
    first level in schedule order whose fixed point did not converge
    raises SolveNonConvergence; if a fixed point raises or the wait is
    interrupted, those not yet started are cancelled.  The result has the
    same bytes at any thread count.
    """
    ks = check_k_schedule(k_schedule)
    check_order_p(order_p)
    cfg = cfg or SolveConfig()
    levels = []
    for k in ks:
        spec_k = truncate_mu(mu, k)
        bound = spec_k.sup_abs_bound()
        budget = cfg.max_iter
        if 0.0 < bound < 1.0:
            budget = max(budget, math.ceil(math.log(cfg.fix_tol * (1.0 - bound))
                                           / math.log(bound)))
        levels.append(_prepare(spec_k, replace(cfg, max_iter=budget)))
    per_k: list[SolveResult] = []
    integrals = []
    with ThreadPoolExecutor(min(thread_count(), len(levels))) as pool:
        list(pool.map(_iterate, levels[::-1]))
    for level in levels:
        res, derivatives = _finish(level)
        res.mu_field = None
        integrals.append(_kip_integral(*derivatives, order_p))
        per_k.append(res)
        # two grid fields the next level's finish must not hold
        del derivatives
    dists = tuple(
        sup_distance(a.f, b.f) for a, b in zip(per_k, per_k[1:])
    )
    if any(not math.isfinite(v) for v in integrals):
        raise ValueError("non-finite inner-dilatation integral")
    ok = None
    if bound_M is not None:
        ok = tuple(v <= bound_M for v in integrals)
    return TruncationRun(
        per_k=per_k,
        pairwise_sup_dist=dists,
        KIp_integrals=tuple(integrals),
        bound_ok=ok,
    )


def beurling_norm_estimate() -> float:
    """Power-iteration estimate (30 steps from a seed-0 random start) of
    the discrete L2 norm of the fixed point's Beurling operator on fields
    supported in the unit disk: the torus operator of the disk's support
    box on the 256^2 grid over [-2, 2]^2.  Its adjoint is the conjugate
    symbol's multiplier plus conj(R(conj v)), since the lattice terms'
    kernel (z - w)^(2k-2) is symmetric in z and w."""
    grid = GridSpec.square(256, 2.0)
    mask = np.abs(grid.zz()) < 1.0
    rows, cols = _support_box(mask)
    mask, x, y = mask[rows, cols], grid.xs()[cols], grid.ys()[rows]
    symbol, remainder, apply = _torus_operator("beurling", grid, x, y, (0, 0), x, y)
    adjoint = np.conj(symbol)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
    v = np.where(mask, v, 0.0)
    for _ in range(30):
        w = apply(v)
        back = _apply_multiplier(w, adjoint) + np.conj(remainder()(np.conj(w)))
        back = np.where(mask, back, 0.0)
        lam = float(np.linalg.norm(back))
        v = back / lam
    return math.sqrt(lam)
