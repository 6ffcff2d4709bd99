"""Span tracer for the benchmark's traced pass.

The tracer wraps public functions and methods of ``beltrami_lab`` from the
outside: each wrapped call records a span ``[name, parent, start, end]`` in
memory, and a few boundaries also bump counters (iterations, quadrature
evaluations, integrand calls, mu sample points).  A span's layer is the part
of its name before the first dot, so the layers are the package modules.
Nothing under ``src/`` is edited; ``restore`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "solver", "dilatation", "numerics", "radial", "verify")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def patch_function(self, module, attr, name, after=None):
        """Replace ``module.attr`` in every beltrami_lab namespace that
        holds it, since modules import each other's functions by name."""
        orig = getattr(module, attr)
        traced = self._wrap(name, orig, after)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("beltrami_lab"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr, name=None, after=None, wrapper=None):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, wrapper(orig) if wrapper else self._wrap(name, orig, after))

    def restore(self) -> None:
        while self._undo:
            owner, key, val = self._undo.pop()
            setattr(owner, key, val)

    def install(self) -> None:
        """Wrap the layer boundaries the benchmark reports on."""
        import numpy as np

        from beltrami_lab import cli, dilatation, numerics, radial, solver, verify

        def iterations(tr, args, res):
            tr.counts["solver.iterations"] += res.iterations
            tr.maxima["solver.iterations_max"] = max(
                tr.maxima["solver.iterations_max"], res.iterations)

        def evaluations(tr, args, res):
            tr.counts["numerics.quad.evals"] += res.evaluations
            tr.maxima["numerics.quad.evals_max"] = max(
                tr.maxima["numerics.quad.evals_max"], res.evaluations)

        def mu_points(tr, args, out):
            tr.counts["dilatation.mu_eval_points"] += int(np.size(args[1]))

        def breakpoints(tr, args, out):
            tr.counts["radial.breakpoints"] += len(out)

        for mod, attr, name, after in (
            (cli, "main", "cli.main", None),
            (cli, "dump_field", "cli.dump_field", None),
            (cli, "write_csv", "cli.write_csv", None),
            (solver, "solve_principal", "solver.solve_principal", iterations),
            (solver, "truncation_scheme", "solver.truncation_scheme", None),
            (solver, "residual_report", "solver.residual_report", None),
            (solver, "sup_distance", "solver.sup_distance", None),
            (solver, "grid_kip_integral", "solver.grid_kip_integral", None),
            (solver, "beurling_transform", "solver.beurling_transform", None),
            (solver, "cauchy_transform", "solver.cauchy_transform", None),
            (dilatation, "truncate_mu", "dilatation.truncate_mu", None),
            (numerics, "wirtinger_derivatives", "numerics.wirtinger", None),
            (numerics, "adaptive_integral_1d", "numerics.quad", evaluations),
            (radial, "lehto_integral", "radial.lehto_integral", None),
            (radial, "inverse_poletsky_check", "radial.poletsky_check", None),
            (verify, "lehto_divergence_scan", "verify.lehto_scan", None),
        ):
            self.patch_function(mod, attr, name, after)
        self.patch_method(dilatation.MuSpec, "mu", "dilatation.mu_eval", mu_points)
        self.patch_method(radial.NumericProfile, "__init__", "radial.profile_build")
        self.patch_method(radial.NumericProfile, "inverse", "radial.profile_inverse")
        # The two hottest radial boundaries are counted, not spanned: a span
        # per integrand call would cost more than the call itself.
        self.patch_method(radial.RadialWeight, "breakpoints",
                          wrapper=lambda orig: self._counted(orig, breakpoints))
        self.patch_method(radial.RadialWeight, "__post_init__",
                          wrapper=self._count_q_calls)

    def _counted(self, orig, after):
        def counted(*args):
            out = orig(*args)
            after(self, args, out)
            return out
        return counted

    def _count_q_calls(self, orig_post_init):
        counts = self.counts

        def post_init(weight):
            orig_post_init(weight)
            q = weight.q

            def counted_q(t):
                counts["radial.q_calls"] += 1
                return q(t)

            object.__setattr__(weight, "q", counted_q)

        return post_init

    def self_times(self) -> dict:
        """name -> [calls, self seconds], where self time is the span's
        duration minus the time covered by its child spans."""
        covered = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict = defaultdict(lambda: [0, 0.0])
        for i, (name, _, t0, t1) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += (t1 - t0) - covered[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0!r},{t1!r}\n")
