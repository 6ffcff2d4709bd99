import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft as sfft

from beltrami_lab import solver
from beltrami_lab.dilatation import MuSpec, truncate_mu
from beltrami_lab.numerics import ComplexField, GridSpec, wirtinger_derivatives
from beltrami_lab.solver import (
    G4_SQUARE_LATTICE,
    ContractionError,
    PaddingError,
    SolveConfig,
    SolveNonConvergence,
    beurling_norm_estimate,
    beurling_transform,
    cauchy_transform,
    grid_kip_integral,
    observed_ratio,
    residual_report,
    solve_principal,
    sup_distance,
    thread_count,
    truncation_scheme,
)


def _disk_indicator(grid):
    zz = grid.zz()
    return ComplexField(grid, np.where(np.abs(zz) < 1.0, 1.0 + 0.0j, 0.0j))


def _disk_indicator_averaged(grid, sub=16):
    """Indicator of the unit disk with cell-averaged boundary values.

    Each node carries the fraction of its grid cell inside the disk,
    which is the right sampling of a jump for a band-limited method."""
    zz = grid.zz()
    offsets = (np.arange(sub) + 0.5) / sub - 0.5
    acc = np.zeros(zz.shape)
    for ox in offsets:
        for oy in offsets:
            acc += np.abs(zz + ox * grid.dx + 1j * oy * grid.dy) < 1.0
    return ComplexField(grid, (acc / sub**2).astype(complex))


def _spy_iterates(monkeypatch):
    """A list that collects the h of every fixed point the solver runs."""
    seen = []
    run = solver._fixed_point

    def spy(*args):
        out = run(*args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(solver, "_fixed_point", spy)
    return seen


def _near(field, z0):
    """Field value at the grid node closest to z0."""
    g = field.grid
    ix = int(round((z0.real - g.x_min) / g.dx))
    iy = int(round((z0.imag - g.y_min) / g.dy))
    return field.data[iy, ix], g.xs()[ix] + 1j * g.ys()[iy]


def _off_centre_bump(grid):
    zz = grid.zz()
    val = 0.6 * np.exp(-np.abs(zz - (0.35 + 0.2j)) ** 2 / 0.08)
    return np.where(np.abs(zz) < 0.95, val, 0.0)


class TestApplyMultiplier:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("side", [192, 384])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_same_bits_as_fft2_pair(self, dtype, side, threads):
        # the axis-by-axis, pruned passes against ifft2(fft2(data, s) symbol),
        # for data in the corner and for data at an offset inside a window
        # larger than it, applied on `threads` threads at once as the pool of
        # fixed points applies it
        rng = np.random.default_rng(side)

        def noise(shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)

        symbol = noise((side, side))
        for shape, at, out_shape in (((side // 2, side // 3), (0, 0), None),
                                     ((side // 3, side // 2 + 1), (7, 5), (side // 2 + 20, side - 9)),
                                     ((side // 5, side // 4), (side // 3, 2), (side // 2, side // 2))):
            data = noise(shape)
            full = sfft.ifft2(sfft.fft2(data, s=(side, side)) * symbol)
            ny, nx = out_shape or shape
            want = np.roll(full, at, axis=(0, 1))[:ny, :nx]
            with ThreadPoolExecutor(threads) as pool:
                runs = [pool.submit(solver._apply_multiplier, data, symbol, at, out_shape)
                        for _ in range(threads)]
            for run in runs:
                got = run.result(timeout=60)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


class TestCauchyTransform:
    def test_disk_indicator_brute_force_oracle(self):
        # Riemann-sum check of the closed form C(chi_disk)(z) = conj(z)
        # inside the disk, entirely independent of the FFT path
        n = 900
        xs = np.linspace(-1.0, 1.0, n)
        X, Y = np.meshgrid(xs, xs)
        W = X + 1j * Y
        inside = np.abs(W) < 1.0
        z0 = 0.5 + 0.0j
        denom = W - z0
        denom[np.abs(denom) < 1e-12] = np.inf  # drop the singular cell
        cell = (xs[1] - xs[0]) ** 2
        integral = -np.sum(inside / denom) * cell / math.pi
        assert integral == pytest.approx(0.5, abs=5e-3)

    def test_disk_indicator_matches_conjugate(self):
        g = GridSpec.square(256, 2.0)
        out = cauchy_transform(_disk_indicator(g))
        zz = g.zz()
        mask = np.abs(zz) <= 0.7
        err = np.max(np.abs(out.data - np.conj(zz))[mask])
        assert err < 5e-3

    @pytest.mark.parametrize("transform, bound", [(cauchy_transform, 1e-5),
                                                  (beurling_transform, 1e-4)],
                             ids=["cauchy", "beurling"])
    def test_matches_wide_torus_on_the_whole_grid(self, transform, bound, monkeypatch):
        # reference: the multiplier on a torus 8 times the grid's side, where
        # the lattice terms are small, with all of them added, and the zbar
        # term for the Cauchy kernel; on the 1.5x torus the first lattice
        # term alone leaves 3.8e-4 (Cauchy) and 7.9e-4 (Beurling), and the
        # plain multiplier on the 2x torus 4.0e-5 with z^3 (Cauchy) and
        # 1.0e-3 with no term (Beurling)
        g = GridSpec.square(128, 2.0)
        h = ComplexField(g, _off_centre_bump(g))
        side = 8 * g.nx
        period = side * g.dx
        odd = transform is cauchy_transform
        kind = "cauchy" if odd else "beurling"
        symbol = solver._symbol((side, side), g.dx, g.dy, kind)
        ref = sfft.ifft2(sfft.fft2(h.data, s=(side, side)) * symbol)[:g.ny, :g.nx]
        xs, ys, zz = g.xs(), g.ys(), g.zz()
        terms = tuple((c / ((2 * k - 1 if odd else 1) * math.pi * period ** (2 * k)),
                       2 * k - 2 + odd) for k, c in solver._laurent_coefficients())
        ref += solver._polynomial_kernel(terms, xs, ys, g.cell_area, xs, ys)(h.data)
        if odd:
            ref += (h.data.sum() / side**2 * np.conj(zz)
                    - g.cell_area * np.sum(np.conj(zz) * h.data) / period**2)

        def error():
            return np.max(np.abs(transform(h).data - ref))

        assert error() <= bound
        first = solver._laurent_coefficients()[:1]
        monkeypatch.setattr(solver, "_laurent_coefficients", lambda: first)
        assert error() > bound

    def test_zero_field(self):
        g = GridSpec.square(64, 2.0)
        out = cauchy_transform(ComplexField(g, np.zeros((64, 64))))
        assert np.max(np.abs(out.data)) == 0.0

    @pytest.mark.parametrize("transform", [cauchy_transform, beurling_transform],
                             ids=["cauchy", "beurling"])
    def test_boundary_support_rejected(self, transform):
        g = GridSpec.square(64, 2.0)
        data = np.zeros((64, 64), dtype=complex)
        data[:, 0] = 1.0
        with pytest.raises(PaddingError):
            transform(ComplexField(g, data))

    @pytest.mark.parametrize("nx, ny", [(160, 128), (128, 160), (200, 128)])
    def test_non_square_torus_rejected(self, nx, ny):
        # the lattice terms assume a square torus; on a 160 x 128 grid of
        # square cells the error on an averaged disk was 3.8x the 128 x 128
        # one; both public transforms run the one torus path
        step = 4.0 / 127
        g = GridSpec(nx, ny, -2.0, -2.0, step, step)
        for transform in (cauchy_transform, beurling_transform):
            with pytest.raises(ValueError, match="square torus"):
                transform(_disk_indicator(g))


class TestBeurlingTransform:
    def test_disk_indicator_closed_form(self):
        # S(chi_disk) vanishes inside the disk and equals -1/z^2 outside
        g = GridSpec.square(256, 2.0)
        out = beurling_transform(_disk_indicator_averaged(g))
        zz = g.zz()
        inner = np.abs(zz) <= 0.6
        assert np.max(np.abs(out.data[inner])) < 1e-2
        for z0 in (1.4 + 0.2j, -1.1 - 0.9j, 0.3 + 1.5j):
            got, z_node = _near(out, z0)
            assert got == pytest.approx(-1.0 / z_node**2, abs=1e-2)

    def test_intertwines_derivatives_on_gaussian(self):
        # S maps dbar(g) to dz(g); both derivatives of the modulated
        # Gaussian are available in closed form
        g = GridSpec.square(256, 2.0)
        zz = g.zz()
        bump = np.exp(-4.0 * np.abs(zz) ** 2)
        dbar = (1.0 - 4.0 * np.abs(zz) ** 2) * bump
        dz = -4.0 * np.conj(zz) ** 2 * bump
        out = beurling_transform(ComplexField(g, dbar))
        mask = np.abs(zz) <= 1.0
        assert np.max(np.abs(out.data - dz)[mask]) < 5e-3

    def test_operator_norm_at_most_one(self):
        est = beurling_norm_estimate()
        assert est <= 1.0 + 1e-6
        assert est > 0.9


def _cell_average_whole_grid(fn, grid, circles, band, sub):
    """The cell averages of solver._cell_average, taken on every cell of the
    grid."""
    zz = grid.zz()
    out = np.asarray(fn(zz))
    iy, ix = np.nonzero(solver._near_circles(np.abs(zz), circles, band))
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    ox, oy = np.meshgrid(offs * grid.dx, offs * grid.dy)
    pts = zz[iy, ix][:, None] + (ox + 1j * oy).ravel()[None, :]
    out[iy, ix] = np.asarray(fn(pts)).mean(axis=1)
    return out


class TestCellAverage:
    @pytest.mark.parametrize("spec", [MuSpec.constant(0.3), MuSpec.example3(0.5),
                                      MuSpec.example3(0.7), MuSpec.example4()],
                             ids=["const", "example3-0.5", "example3-0.7", "example4"])
    @pytest.mark.parametrize("k", [math.inf, 4.0, 64.0])
    def test_box_sampler_matches_whole_grid(self, spec, k):
        # mu vanishes off the unit disk, so sampling the disk's box widened
        # by the antialias band gives the bytes of sampling every cell; the
        # band matters where |mu| jumps at the unit circle
        spec = truncate_mu(spec, k)
        for n, half_width in ((64, 1.5), (128, 2.0), (512, 3.0)):
            grid = GridSpec.square(n, half_width)
            band = solver.ANTIALIAS_BAND_CELLS * grid.dx
            want = _cell_average_whole_grid(spec.mu, grid, spec.jump_radii(), band,
                                            solver.ANTIALIAS_SUBCELLS)
            assert np.array_equal(solver._sample_mu(spec, grid), want)

    @pytest.mark.parametrize("n, half_width", [(64, 1.5), (128, 2.0), (512, 3.0)])
    def test_disk_cell_weights_match_whole_grid(self, n, half_width):
        grid = GridSpec.square(n, half_width)
        want = _cell_average_whole_grid(lambda z: (np.abs(z) <= 1.0) * 1.0, grid, (1.0,),
                                        0.5 * math.hypot(grid.dx, grid.dy),
                                        solver.DISK_SUBCELLS)
        assert np.array_equal(solver._disk_cell_weights(grid), want)


class TestSolvePrincipal:
    def test_zero_mu_is_identity(self):
        cfg = SolveConfig(grid=GridSpec.square(128, 2.0))
        res = solve_principal(MuSpec.constant(0.0), cfg)
        zz = cfg.grid.zz()
        assert res.iterations == 1
        assert res.updates == (0.0,)
        assert observed_ratio(res.updates) is None
        assert np.array_equal(res.f.data, zz)
        assert res.residual.linf < 1e-10

    @pytest.mark.parametrize("spec, n", [
        (truncate_mu(MuSpec.example3(0.5), 10.0), 128),
        (truncate_mu(MuSpec.example4(), 4.0), 96),
        (MuSpec.constant(0.0), 64),
        (truncate_mu(MuSpec.example4(), 64.0), 512),
    ], ids=["example3-k10", "example4-k4", "const-0", "example4-k64-512"])
    def test_cauchy_step_matches_public_transform(self, spec, n):
        # _finish applies the Cauchy operator to h on mu's support box, and
        # cauchy_transform to h on the whole grid, where it finds h's own
        # box: the two must give the same bits.  mu = 0 has no support, so
        # both take the whole grid.  At 512^2, numpy's sum of this h rounds
        # differently over the contiguous box and over a strided view of
        # the grid field, so the operator's mean must not hang on the layout
        g = GridSpec.square(n, 2.0)
        level = solver._prepare(spec, SolveConfig(grid=g))
        solver._iterate(level)
        h_box, box = level.fixed[0].copy(), level.box
        res = solver._finish(level)[0]
        h = np.zeros((g.ny, g.nx), dtype=complex)
        h[box] = h_box
        want = g.zz() + cauchy_transform(ComplexField(g, h)).data
        assert res.f.data.tobytes() == want.tobytes()

    def test_constant_mu_closed_form(self):
        c = 0.4 + 0.1j
        cfg = SolveConfig(grid=GridSpec.square(256, 2.0))
        res = solve_principal(MuSpec.constant(c), cfg)
        zz = cfg.grid.zz()
        mask = np.abs(zz) <= 0.8
        err = np.max(np.abs(res.f.data - (zz + c * np.conj(zz)))[mask])
        assert err < 5e-3
        rep = res.residual
        assert rep == residual_report(MuSpec.constant(c), res.mu_field.data,
                                      *wirtinger_derivatives(res.f))
        assert rep.linf < 2e-2
        assert abs(rep.worst_point) <= 0.951

    def test_residual_decreases_with_resolution(self):
        spec = MuSpec.constant(0.3)
        res_lo = solve_principal(spec, SolveConfig(grid=GridSpec.square(128, 2.0)))
        res_hi = solve_principal(spec, SolveConfig(grid=GridSpec.square(256, 2.0)))
        assert res_lo.residual.linf / res_hi.residual.linf >= 1.5

    def test_iteration_counts_track_contraction(self):
        cfg = SolveConfig(grid=GridSpec.square(128, 2.0), max_iter=400)
        counts = {}
        for c in (0.1, 0.5, 0.9):
            res = solve_principal(MuSpec.constant(c), cfg)
            predicted = math.log(cfg.fix_tol) / math.log(c)
            counts[c] = res.iterations / predicted
        assert counts[0.1] == pytest.approx(0.8, abs=0.3)
        assert counts[0.5] == pytest.approx(0.8, abs=0.3)
        assert counts[0.9] == pytest.approx(0.8, abs=0.3)

    def test_contraction_violation(self, monkeypatch):
        seen = _spy_iterates(monkeypatch)
        g = GridSpec.square(64, 2.0)
        zz = g.zz()
        data = np.where(np.abs(zz) < 0.5, 1.0 + 0.0j, 0.0j)
        # a field that returns NaN has a NaN sup, which is not below 1 either
        nan_spec = MuSpec("nan", lambda z: complex(math.nan), 0.5, lambda k: ())
        for spec in (MuSpec.from_grid(ComplexField(g, data)), nan_spec):
            with pytest.raises(ContractionError):
                solve_principal(spec, SolveConfig(grid=g))
        assert seen == []

    def test_non_convergence_carries_partial(self):
        cfg = SolveConfig(grid=GridSpec.square(64, 2.0), max_iter=3)
        with pytest.raises(SolveNonConvergence) as err:
            solve_principal(MuSpec.constant(0.6), cfg)
        assert err.value.iterations == 3
        assert err.value.partial is not None
        # the third update of the same iteration run to its stop
        full = solve_principal(MuSpec.constant(0.6), replace(cfg, max_iter=200))
        assert err.value.last_delta == full.updates[2] > 0.0

    @pytest.mark.parametrize("spec", [
        truncate_mu(MuSpec.example4(), 64.0),
        truncate_mu(MuSpec.example3(0.5), 10.0),
        MuSpec.constant(0.9),
    ], ids=["example4-k64", "example3-k10", "const-0.9"])
    def test_stop_bounds_remaining_error(self, spec, monkeypatch):
        # the stopped h lies within fix_tol ||h|| of the fixed point, taken
        # as the h iterated to a relative bound of 1e-13
        seen = _spy_iterates(monkeypatch)
        cfg = SolveConfig(grid=GridSpec.square(256, 2.0))
        solve_principal(spec, cfg)
        solve_principal(spec, replace(cfg, fix_tol=1e-13, max_iter=1000))
        stopped, limit = seen
        assert np.linalg.norm(stopped - limit) <= cfg.fix_tol * np.linalg.norm(limit)

    @pytest.mark.parametrize("spec", [
        truncate_mu(MuSpec.example4(), 64.0),
        MuSpec.constant(0.9),
        MuSpec.constant(0.1),
    ], ids=["example4-k64", "const-0.9", "const-0.1"])
    def test_switch_below_round_off_hands_over_on_ratio(self, spec, monkeypatch):
        # below float32 round-off the complex64 bound never holds: the
        # complex64 phase ends once its observed ratio reaches 1, inside the
        # budget, and the complex128 stop rule still bounds the error of h
        monkeypatch.setattr(solver, "SWITCH_TOL", 1e-12)
        seen = _spy_iterates(monkeypatch)
        cfg = SolveConfig(grid=GridSpec.square(128, 2.0), max_iter=400)
        res = solve_principal(spec, cfg)
        solve_principal(spec, replace(cfg, fix_tol=1e-13, max_iter=1000))
        switch = res.complex64_iterations
        assert 3 <= switch < res.iterations < cfg.max_iter
        assert observed_ratio(res.updates[:switch]) >= 1.0
        stopped, limit = seen
        assert np.linalg.norm(stopped - limit) <= cfg.fix_tol * np.linalg.norm(limit)

    def test_budget_spent_in_complex64_leaves_complex128_partial(self, monkeypatch):
        spec = truncate_mu(MuSpec.example4(), 16.0)
        cfg = SolveConfig(grid=GridSpec.square(64, 2.0))
        assert solve_principal(spec, cfg).complex64_iterations > 3
        seen = _spy_iterates(monkeypatch)
        with pytest.raises(SolveNonConvergence) as err:
            solve_principal(spec, replace(cfg, max_iter=3))
        assert err.value.iterations == 3
        (h,) = seen
        assert h.dtype == np.complex128 and np.all(np.isfinite(h))
        assert np.all(np.isfinite(err.value.partial.data))

    def test_hand_over_after_some_complex64_updates(self):
        spec = truncate_mu(MuSpec.example4(), 16.0)
        res = solve_principal(spec, SolveConfig(grid=GridSpec.square(128, 2.0)))
        assert 0 < res.complex64_iterations < res.iterations

    def test_zero_mu_runs_no_complex64_update(self):
        res = solve_principal(MuSpec.constant(0.0),
                              SolveConfig(grid=GridSpec.square(64, 2.0)))
        assert res.updates == (0.0,)
        assert res.complex64_iterations == 0

    def test_complex64_stall_hands_over(self):
        # mu S(h) underflows float32 at |mu| = 1e-30, so the first complex64
        # update is exactly 0 while the complex128 iteration still moves;
        # the ratio over that zero update is infinite, not a division error
        res = solve_principal(MuSpec.constant(1e-30),
                              SolveConfig(grid=GridSpec.square(64, 2.0)))
        assert res.complex64_iterations == 1
        assert res.updates[0] == 0.0 < res.updates[1]
        assert observed_ratio(res.updates[:3]) == math.inf

    @pytest.mark.parametrize("k", [16.0, 64.0])
    def test_observed_ratio_below_sup_bound(self, k):
        spec = truncate_mu(MuSpec.example4(), k)
        res = solve_principal(spec, SolveConfig(grid=GridSpec.square(128, 2.0)))
        assert 0.0 < observed_ratio(res.updates) < spec.sup_abs_bound()

    def test_fix_tol_below_round_off_rejected(self):
        # below 1e-13 the updates stall at round-off before the stop rule
        # holds, and the iteration would run out its whole budget
        SolveConfig(fix_tol=1e-13)
        with pytest.raises(ValueError, match="fix_tol"):
            SolveConfig(fix_tol=1e-14)

    def test_grid_must_cover_padded_disk(self):
        with pytest.raises(ValueError):
            SolveConfig(grid=GridSpec.square(64, 1.2))

    def test_grid_cells_must_be_square(self):
        # the lattice corrections assume a square period lattice: square
        # cells and as many columns as rows
        for g in (
            GridSpec(nx=64, ny=64, x_min=-2.0, y_min=-2.0, dx=4.0 / 63, dy=4.1 / 63),
            GridSpec(nx=80, ny=64, x_min=-2.0, y_min=-2.0, dx=4.0 / 63, dy=4.0 / 63),
        ):
            with pytest.raises(ValueError):
                SolveConfig(grid=g)

    def test_phase_seconds(self):
        cfg = SolveConfig(grid=GridSpec.square(64, 2.0))
        res = solve_principal(truncate_mu(MuSpec.example4(), 4.0), cfg)
        phases = res.phase_seconds
        assert list(phases) == ["sample_mu", "fixed_point", "cauchy", "residual"]
        assert all(t > 0.0 for t in phases.values())
        assert sum(phases.values()) <= res.solve_seconds

    def test_heap_peak_at_512(self):
        # traced heap of a 512^2 solve with cold symbol caches, in grid fields
        # (one 512^2 complex128 array); it was 12.6 with the Cauchy step on
        # the 2x torus
        cfg = SolveConfig(grid=GridSpec.square(512, 2.0))
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        solver._symbol.cache_clear()
        tracemalloc.start()
        try:
            solve_principal(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 512 * 512 * 16

    def test_worst_point_ignores_round_off_ties(self):
        # |z|^2 is symmetric under z -> iz, so its largest value on the
        # retained disk ties at several nodes; a relative perturbation of
        # 1e-12, or of 3e-8 as the complex64 phase leaves, must not move
        # the reported one
        g = GridSpec.square(129, 2.0)
        spec = MuSpec.constant(0.0)
        ones = ComplexField(g, np.ones((g.ny, g.nx)))
        r2 = np.abs(g.zz()) ** 2 + 0j
        rng = np.random.default_rng(5)
        points = set()
        for eps in (0.0, 1e-12, -1e-12, 3e-8, -3e-8):
            noisy = r2 * (1.0 + eps * rng.standard_normal(r2.shape))
            rep = residual_report(spec, np.zeros(r2.shape), ones, ComplexField(g, noisy))
            points.add(rep.worst_point)
        assert len(points) == 1
        (z,) = points
        assert 0.0 <= np.angle(z) < math.pi / 4

    def test_worst_point_does_not_depend_on_fix_tol(self):
        # example3's residual ties over a symmetric orbit; the round-off a
        # looser fix_tol leaves in h must not pick another point of it
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        points = {
            solve_principal(spec, SolveConfig(grid=GridSpec.square(128, 2.0),
                                              fix_tol=tol)).residual.worst_point
            for tol in (1e-6, 1e-9)
        }
        assert len(points) == 1

    def test_lattice_correction_matches_wide_torus(self, monkeypatch):
        # reference: the same Neumann loop through the plain Beurling
        # multiplier on a grid 128 cells wider on each side, zero-padded to
        # twice its side, a torus about 5x the solver's support-box torus;
        # both sides share the Cauchy step so only the fixed point is compared
        g = GridSpec.square(256, 2.0)
        pad = 128
        wide = GridSpec(g.nx + 2 * pad, g.ny + 2 * pad, g.x_min - pad * g.dx,
                        g.y_min - pad * g.dy, g.dx, g.dy)

        # both sides are iterated far below the 1e-6 thresholds, so that
        # iteration error cannot decide either comparison
        spec = MuSpec.from_grid(ComplexField(g, _off_centre_bump(g)))
        cfg = SolveConfig(grid=g, fix_tol=1e-10)
        mu = _off_centre_bump(wide)
        torus = (2 * wide.ny, 2 * wide.nx)
        symbol = solver._symbol(torus, wide.dx, wide.dy, "beurling")
        h = mu.astype(complex)
        for _ in range(cfg.max_iter):
            s_h = sfft.ifft2(sfft.fft2(h, s=torus) * symbol)[:wide.ny, :wide.nx]
            h_new = mu * s_h + mu
            delta = np.linalg.norm(h_new - h) * g.dx
            h = h_new
            if delta <= 1e-10:
                break
        h_ref = ComplexField(g, h[pad:pad + g.ny, pad:pad + g.nx])
        f_ref = g.zz() + cauchy_transform(h_ref).data
        mask = np.abs(g.zz()) <= 0.9

        def error():
            return np.max(np.abs(solve_principal(spec, cfg).f.data - f_ref)[mask])

        assert error() <= 1e-6
        monkeypatch.setattr(solver, "G4_SQUARE_LATTICE", 0.0)
        assert error() > 1e-6

    def test_g4_matches_square_lattice_sum(self):
        # sum' (a + ib)^-4 over |a|, |b| <= 400; the tail is O(1/N^2)
        n = 400
        a = np.arange(-n, n + 1)
        lam = (a[None, :] + 1j * a[:, None]).ravel()
        lam = lam[lam != 0]
        assert np.sum(lam ** -4.0) == pytest.approx(G4_SQUARE_LATTICE, abs=1e-5)

    def test_laurent_coefficients_match_lattice_sum(self):
        # wp(z) - z^-2 = sum' [(z + w)^-2 - w^-2] = c2 z^2 + c4 z^6 + c6 z^10
        # + O(z^14), summed over |a|, |b| <= 200.  The z^2 term is taken with
        # the same truncated sum' w^-4, so its O(1/N^2) tail cancels; the
        # remaining tail is O(1/N^6) and c8 z^14 is below 1e-8 here
        n = 200
        a = np.arange(-n, n + 1)
        lam = (a[None, :] + 1j * a[:, None]).ravel()
        lam = lam[lam != 0]
        coeffs = dict(solver._laurent_coefficients())
        assert coeffs[2] == pytest.approx(3.0 * G4_SQUARE_LATTICE, rel=1e-15)
        for z in (0.2, 0.15 + 0.1j):
            direct = (np.sum((z + lam) ** -2.0 - lam ** -2.0)
                      - 3.0 * np.sum(lam ** -4.0) * z**2)
            want = coeffs[4] * z**6 + coeffs[6] * z**10
            assert abs(direct - want) <= 1e-2 * abs(coeffs[6] * z**10)

    def test_polynomial_kernel_matches_dense_sum(self):
        # the separable form against the double sum of the solver's lattice
        # terms (1/pi) sum_k c_k P^-2k (z - w)^(2k-2) h(w) dA on a non-square,
        # off-centre box, where an x/y or transpose mix-up would show; then
        # the Cauchy cubic, evaluated on a wider grid than the box
        step = 0.013
        x = 0.31 + step * np.arange(24)
        y = -0.2 + step * np.arange(20)
        period = 1.5 * 24 * step
        g4 = G4_SQUARE_LATTICE
        terms = tuple((c / (math.pi * period ** (2 * k)), 2 * k - 2)
                      for k, c in ((2, 3 * g4), (4, 3 * g4**2), (6, 18 * g4**3 / 13)))
        rng = np.random.default_rng(3)
        h = rng.standard_normal((20, 24)) + 1j * rng.standard_normal((20, 24))
        w = (x[None, :] + 1j * y[:, None]).ravel()
        x_out = -0.5 + step * np.arange(90)
        y_out = -0.6 + step * np.arange(70)
        z_out = (x_out[None, :] + 1j * y_out[:, None]).ravel()
        for terms, xo, yo, z in ((terms, x, y, w), (((0.7, 3),), x_out, y_out, z_out)):
            got = solver._polynomial_kernel(terms, x, y, step**2, xo, yo)(h)
            u = z[:, None] - w[None, :]
            kernel = sum(c * u**n for c, n in terms)
            want = (kernel @ h.ravel() * step**2).reshape(yo.size, xo.size)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_off_centre_constant_disk(self):
        # mu = k on |z - c| < R: f = z + k (zbar - cbar) inside and
        # z + k R^2 / (z - c) outside.  Moving the disk off 0 must not cost
        # more than half again the centred error (the Cauchy step's constant
        # (1/P^2) int wbar h dA is zero only for the centred disk)
        k, radius, sub = 0.3, 0.5, 8
        g = GridSpec.square(256, 2.0)
        zz = g.zz()
        offs = (np.arange(sub) + 0.5) / sub - 0.5

        def error(c):
            frac = sum(np.abs(zz + ox * g.dx + 1j * oy * g.dy - c) < radius
                       for ox in offs for oy in offs) / sub**2
            spec = MuSpec.from_grid(ComplexField(g, k * frac + 0j))
            f = solve_principal(spec, SolveConfig(grid=g)).f.data
            inside = np.abs(zz - c) < radius
            exact = zz.copy()
            exact[inside] += k * np.conj(zz[inside] - c)
            exact[~inside] += k * radius**2 / (zz[~inside] - c)
            keep = (np.abs(zz) <= 0.8) & (np.abs(np.abs(zz - c) - radius) > 2 * g.dx)
            return np.max(np.abs(f - exact)[keep])

        centred = error(0.0)
        assert centred < 1e-3
        assert error(0.3 + 0.2j) <= 1.5 * centred

    def test_solution_dilatation_recovery(self):
        # finite differences of the solved map reproduce the capped field
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        cfg = SolveConfig(grid=GridSpec.square(256, 2.0))
        res = solve_principal(spec, cfg)
        fz, fzb = wirtinger_derivatives(res.f)
        zz = cfg.grid.zz()
        h = cfg.grid.dx
        mask = (np.abs(zz) <= 0.9) & (np.abs(np.abs(zz) - 0.625) > 2.0 * h)
        mu_fd = fzb.data[mask] / fz.data[mask]
        mu_exact = spec.mu(zz[mask])
        assert np.max(np.abs(mu_fd - mu_exact)) < 8e-2

    def test_jacobian_positive_off_band(self):
        spec = truncate_mu(MuSpec.example3(0.5), 10.0)
        cfg = SolveConfig(grid=GridSpec.square(256, 2.0))
        res = solve_principal(spec, cfg)
        zz = cfg.grid.zz()
        h = cfg.grid.dx
        mask = (np.abs(zz) <= 0.9) & (np.abs(np.abs(zz) - 0.625) > 2.0 * h)
        fz, fzb = wirtinger_derivatives(res.f)
        jac = np.abs(fz.data) ** 2 - np.abs(fzb.data) ** 2
        assert np.min(jac[mask]) > 0.0

    def test_sup_distance_symmetric(self):
        spec = MuSpec.constant(0.2)
        res_a = solve_principal(spec, SolveConfig(grid=GridSpec.square(128, 2.0)))
        res_b = solve_principal(spec, SolveConfig(grid=GridSpec.square(128, 2.0)))
        assert sup_distance(res_a.f, res_b.f) == 0.0


class TestGridKipIntegrals:
    def test_constant_mu_routes_match_closed_form(self):
        # for mu = m the p-energy over the disk is pi (1 + m)^p
        m = 0.3
        res = solve_principal(MuSpec.constant(m),
                              SolveConfig(grid=GridSpec.square(256, 2.0)))
        want = math.pi * (1.0 + m) ** 1.5
        direct = grid_kip_integral(res, 1.5)
        assert direct == pytest.approx(want, rel=2e-2)

    def test_order_validation(self):
        res = solve_principal(MuSpec.constant(0.1),
                              SolveConfig(grid=GridSpec.square(64, 2.0)))
        with pytest.raises(ValueError):
            grid_kip_integral(res, 2.5)


class TestTruncationScheme:
    def test_monotone_schedule_results(self):
        run = truncation_scheme(
            MuSpec.example4(), (4.0, 8.0), 1.5,
            SolveConfig(grid=GridSpec.square(128, 2.0)),
        )
        assert len(run.per_k) == 2
        assert run.KIp_integrals[0] < run.KIp_integrals[1]
        assert run.bound_ok is None
        assert len(run.pairwise_sup_dist) == 1
        assert run.pairwise_sup_dist[0] > 0.0

    def test_levels_hold_one_copy_of_each_field(self):
        # a level keeps f only: it drops its mu samples once finished, and
        # the derivatives of f are taken from f where needed
        run = truncation_scheme(
            MuSpec.example4(), (4.0, 8.0, 16.0), 1.5,
            SolveConfig(grid=GridSpec.square(128, 2.0)),
        )
        for res in run.per_k:
            fields = [k for k, v in vars(res).items() if isinstance(v, ComplexField)]
            assert fields == ["f"]
            assert res.mu_field is None
            assert 0.0 < res.sup_mu < 1.0

    def test_bound_checked(self):
        run = truncation_scheme(
            MuSpec.example4(), (4.0, 8.0), 1.5,
            SolveConfig(grid=GridSpec.square(128, 2.0)),
            bound_M=5.0 * math.pi,
        )
        assert run.bound_ok == (True, True)

    def test_a_priori_budget_suffices(self, monkeypatch):
        # with max_iter = 1 each level runs on its a priori budget alone,
        # ceil(ln(fix_tol (1 - b)) / ln b) for b = ess-sup |mu_k|, and
        # converges within it
        budgets = []
        fixed_point = solver._fixed_point

        def spy(mu, x, y, grid, cfg):
            budgets.append(cfg.max_iter)
            return fixed_point(mu, x, y, grid, cfg)

        monkeypatch.setattr(solver, "_fixed_point", spy)
        # one pool thread runs the levels' fixed points highest K first
        monkeypatch.setattr(solver, "thread_count", lambda: 1)
        ks = (64.0, 256.0, 1024.0, 4096.0)
        cfg = SolveConfig(grid=GridSpec.square(128, 2.0), max_iter=1)
        run = truncation_scheme(MuSpec.example4(), ks, 1.5, cfg)
        for k, budget, res in zip(ks, budgets[::-1], run.per_k, strict=True):
            b = truncate_mu(MuSpec.example4(), k).sup_abs_bound()
            assert budget == math.ceil(math.log(cfg.fix_tol * (1.0 - b)) / math.log(b))
            assert 1 < res.iterations <= budget

    def test_floor_tolerance_converges_at_a_high_cap(self):
        # the smallest fix_tol still meets the stop rule at K = 4096 (63
        # iterations, far below the a priori budget)
        cfg = SolveConfig(grid=GridSpec.square(64, 2.0), fix_tol=1e-13)
        run = truncation_scheme(MuSpec.example4(), (4096.0,), 1.5, cfg)
        assert 1 < run.per_k[0].iterations < 200

    def test_kip_from_the_residual_derivatives(self):
        # each level takes KIp from the derivatives its residual took, with
        # the bits of grid_kip_integral of its f
        run = truncation_scheme(MuSpec.example4(), (4.0, 16.0), 1.5,
                                SolveConfig(grid=GridSpec.square(64, 2.0)))
        assert run.KIp_integrals == tuple(grid_kip_integral(res, 1.5) for res in run.per_k)

    def test_first_failing_level_raises(self, monkeypatch):
        # levels 16 and 32 stop after 3 updates; the error is level 16's,
        # as when the levels ran one after another, though the pool runs
        # level 32 first
        cfg = SolveConfig(grid=GridSpec.square(64, 2.0), max_iter=1)
        b = truncate_mu(MuSpec.example4(), 16.0).sup_abs_bound()
        limit = math.ceil(math.log(cfg.fix_tol * (1.0 - b)) / math.log(b))
        fixed_point = solver._fixed_point

        def stop_early(mu, x, y, grid, cfg_k):
            if cfg_k.max_iter >= limit:
                cfg_k = replace(cfg_k, max_iter=3)
            return fixed_point(mu, x, y, grid, cfg_k)

        monkeypatch.setattr(solver, "_fixed_point", stop_early)
        with pytest.raises(SolveNonConvergence) as got:
            truncation_scheme(MuSpec.example4(), (4.0, 8.0, 16.0, 32.0), 1.5, cfg)
        with pytest.raises(SolveNonConvergence) as want:
            solve_principal(truncate_mu(MuSpec.example4(), 16.0), replace(cfg, max_iter=3))
        assert got.value.iterations == 3
        assert got.value.partial.data.tobytes() == want.value.partial.data.tobytes()

    def test_contraction_error_before_any_fixed_point(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a fixed point ran")

        monkeypatch.setattr(solver, "_fixed_point", unreachable)
        g = GridSpec.square(64, 2.0)
        data = np.where(np.abs(g.zz()) < 0.5, 1.0 + 0.0j, 0.0j)
        with pytest.raises(ContractionError):
            truncation_scheme(MuSpec.from_grid(ComplexField(g, data)), (2.0, math.inf), 1.5,
                              SolveConfig(grid=g))

    def test_heap_peak_at_512(self):
        # traced heap of a two-level 512^2 run with cold caches, in grid
        # fields (one 512^2 complex128 array); 10.88 when the levels were
        # solved one after another, each keeping its mu samples, and 10.38
        # with the fixed points on the pool and the levels finished after
        cfg = SolveConfig(grid=GridSpec.square(512, 2.0))
        solver._symbol.cache_clear()
        solver._disk_cell_weights.cache_clear()
        tracemalloc.start()
        try:
            truncation_scheme(MuSpec.example4(), (4.0, 64.0), 1.5, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * 512 * 512 * 16

    def test_bad_schedule(self):
        cfg = SolveConfig(grid=GridSpec.square(64, 2.0))
        with pytest.raises(ValueError):
            truncation_scheme(MuSpec.example4(), (8.0, 4.0), 1.5, cfg)
        with pytest.raises(ValueError):
            truncation_scheme(MuSpec.example4(), (0.5, 4.0), 1.5, cfg)


class TestThreads:
    def test_env_override(self, monkeypatch):
        # the cores this process may run on, at most 4, whatever the
        # environment holds: with os.environ gone the count is the same
        usable = min(4, len(os.sched_getaffinity(0)))
        assert thread_count() == usable
        with monkeypatch.context() as m:
            m.setattr(os, "environ", None)
            count = thread_count()
        assert count == usable

    def test_thread_count_does_not_change_f(self, monkeypatch):
        # the levels' fixed points run on a pool of thread_count() threads,
        # which share the symbol cache; every level's f and updates, the
        # KIp values and the distances keep their bytes, also with more
        # threads than cores switching often
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2, 3):
                monkeypatch.setattr(solver, "thread_count", lambda: threads)
                solver._symbol.cache_clear()
                run = truncation_scheme(MuSpec.example4(), (4.0, 8.0, 16.0), 1.5,
                                        SolveConfig(grid=GridSpec.square(128, 2.0)))
                runs.append((
                    [(res.f.data.tobytes(), res.updates) for res in run.per_k],
                    run.KIp_integrals, run.pairwise_sup_dist,
                ))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]
