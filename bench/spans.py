"""Span tracing around fastslow's public entry points, for the per-layer metrics.

:class:`Tracer` replaces each entry point in the module (or class) where its
callers look it up with a wrapper that records one span: name, layer, parent
span, start and end in ns, and work counts computed from the call's
arguments and return value.  Spans stay in memory until the run writes them
out.  A layer's self time is the summed duration of its spans minus the time
their child spans cover; calls nest on one thread, so the children of a span
never overlap and that time is the sum of their durations.

Helper calls that are not wrapped (``chain_se``, ``centering_residual``,
interpolation onto the cloud) count towards the layer of the span that
makes them.
"""

from __future__ import annotations

import inspect
import math
import time

import reference
from fastslow import corrector, homogenize, rng, simulate

# name: unit; every traced run reports all of them, 0 where the layer does
# no work on the workload
PER_LAYER = {
    "rng.normals": "count",
    "rng.calls": "count",
    "rng.ns_per_normal": "ns",
    "rng.self_s": "s",
    "simulate.coupled_path_steps": "count",
    "simulate.coupled_ns_per_path_step": "ns",
    "simulate.limit_path_steps": "count",
    "simulate.limit_ns_per_path_step": "ns",
    "simulate.self_s": "s",
    "ergodic.clouds": "count",
    "ergodic.chain_steps": "count",
    "ergodic.ess": "count",
    "ergodic.ess_per_s": "1/s",
    "ergodic.ns_per_chain_step": "ns",
    "ergodic.self_s": "s",
    "corrector.solves": "count",
    "corrector.path_point_steps": "count",
    "corrector.ns_per_path_point_step": "ns",
    "corrector.self_s": "s",
    "homogenize.cells": "count",
    "homogenize.lookup_rows": "count",
    "homogenize.hit_rate": "fraction",
    "homogenize.ns_per_lookup_row": "ns",
    "homogenize.self_s": "s",
    "trace.overhead": "ratio",
}


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_normals(fn, args, kwargs, out):
    return {"normals": int(out.size)}


def _count_cloud(fn, args, kwargs, out):
    burn_in, dt = _arg(fn, args, kwargs, "burn_in"), _arg(fn, args, kwargs, "dt")
    n, thin = _arg(fn, args, kwargs, "n_samples"), _arg(fn, args, kwargs, "thinning")
    return {"chain_steps": int(math.ceil(burn_in / dt)) + n * thin,
            "ess": float(out.ess)}


def _count_solve(fn, args, kwargs, out):
    q = _arg(fn, args, kwargs, "query")
    steps = max(1, int(round(q.T_max / q.dt)))
    return {"path_point_steps": q.n_paths * q.points.shape[0] * steps}


def _count_coupled(fn, args, kwargs, out):
    schedule = _arg(fn, args, kwargs, "schedule")
    eps, cfg = _arg(fn, args, kwargs, "eps"), _arg(fn, args, kwargs, "cfg")
    n_macro, n_micro = reference.stiff_grid(schedule.scales(eps)[0], cfg.T,
                                            cfg.dt_slow, cfg.micro_substeps_per_alpha2)
    return {"path_steps": cfg.n_paths * n_macro * n_micro}


def _count_limit(fn, args, kwargs, out):
    T, dt = _arg(fn, args, kwargs, "T"), _arg(fn, args, kwargs, "dt")
    n_steps = max(1, int(round(T / dt))) if T > 0 else 0
    return {"path_steps": _arg(fn, args, kwargs, "n_paths") * n_steps}


def _count_lookup(fn, args, kwargs, out):
    return {"lookup_rows": int(out.shape[0])}


# (owner, attribute, layer, counter); the owner is where the program looks
# the callable up, so the wrapper sees every call
def _entry_points():
    return [
        (rng, "normals", "rng", _count_normals),
        (homogenize, "sample_invariant_measure", "ergodic", _count_cloud),
        (homogenize, "solve_poisson_fk", "corrector", _count_solve),
        (corrector, "solve_poisson_fk", "corrector", _count_solve),
        (homogenize, "gradients", "corrector", None),
        (homogenize, "outer_product_HPhi", "corrector", None),
        (homogenize, "regime_averages", "homogenize", None),
        (homogenize, "build_limit_sde", "homogenize", None),
        (homogenize.CellField, "eval_batch", "homogenize", _count_lookup),
        (simulate, "integrate_coupled", "simulate", _count_coupled),
        (simulate, "integrate_limit", "simulate", _count_limit),
    ]


class Tracer:
    """Records spans while installed; ``round`` tags the spans of one round."""

    def __init__(self):
        self.spans: list = []      # [round, parent, name, layer, t0_ns, t1_ns, counts]
        self._stack: list[int] = []
        self._saved: list = []
        self.round = 0

    def _wrap(self, fn, name, layer, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([self.round, stack[-1] if stack else -1, name, layer,
                          0, 0, {}])
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx][4:6] = (t0, t1)
            if count is not None:
                spans[idx][6] = count(fn, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, layer, count in _entry_points():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            name = f"{owner.__name__.removeprefix('fastslow.')}.{attr}"
            setattr(owner, attr, self._wrap(fn, name, layer, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def layer_metrics(self, n_rounds: int, overhead: float) -> dict:
        """Per-round work counts and self times of each layer, plus rates."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child_ns[s[1]] += s[5] - s[4]
        self_ns: dict = {}
        total = {}
        clouds_ns = 0
        for i, (_, _, name, layer, t0, t1, counts) in enumerate(self.spans):
            own = t1 - t0 - child_ns[i]
            self_ns[layer] = self_ns.get(layer, 0) + own
            self_ns[name] = self_ns.get(name, 0) + own
            total[name] = total.get(name, 0) + 1
            for key, val in counts.items():
                total[f"{name}:{key}"] = total.get(f"{name}:{key}", 0) + val
            if layer == "ergodic":
                clouds_ns += t1 - t0

        def per_ns(ns_key, count_key):
            n = total.get(count_key, 0)
            return self_ns.get(ns_key, 0) / n if n else 0.0

        solves = (total.get("homogenize.solve_poisson_fk", 0)
                  + total.get("corrector.solve_poisson_fk", 0))
        pps = (total.get("homogenize.solve_poisson_fk:path_point_steps", 0)
               + total.get("corrector.solve_poisson_fk:path_point_steps", 0))
        solve_ns = (self_ns.get("homogenize.solve_poisson_fk", 0)
                    + self_ns.get("corrector.solve_poisson_fk", 0))
        clouds = total.get("homogenize.sample_invariant_measure", 0)
        ess = total.get("homogenize.sample_invariant_measure:ess", 0.0)
        rows = total.get("CellField.eval_batch:lookup_rows", 0)
        cells = total.get("homogenize.regime_averages", 0)
        per_round = 1.0 / n_rounds
        out = {
            "rng.normals": total.get("rng.normals:normals", 0) * per_round,
            "rng.calls": total.get("rng.normals", 0) * per_round,
            "rng.ns_per_normal": per_ns("rng", "rng.normals:normals"),
            "rng.self_s": self_ns.get("rng", 0) * 1e-9 * per_round,
            "simulate.coupled_path_steps":
                total.get("simulate.integrate_coupled:path_steps", 0) * per_round,
            "simulate.coupled_ns_per_path_step":
                per_ns("simulate.integrate_coupled",
                       "simulate.integrate_coupled:path_steps"),
            "simulate.limit_path_steps":
                total.get("simulate.integrate_limit:path_steps", 0) * per_round,
            "simulate.limit_ns_per_path_step":
                per_ns("simulate.integrate_limit",
                       "simulate.integrate_limit:path_steps"),
            "simulate.self_s": self_ns.get("simulate", 0) * 1e-9 * per_round,
            "ergodic.clouds": clouds * per_round,
            "ergodic.chain_steps":
                total.get("homogenize.sample_invariant_measure:chain_steps", 0)
                * per_round,
            "ergodic.ess": ess / clouds if clouds else 0.0,
            "ergodic.ess_per_s": ess / (clouds_ns * 1e-9) if clouds_ns else 0.0,
            "ergodic.ns_per_chain_step":
                per_ns("ergodic", "homogenize.sample_invariant_measure:chain_steps"),
            "ergodic.self_s": self_ns.get("ergodic", 0) * 1e-9 * per_round,
            "corrector.solves": solves * per_round,
            "corrector.path_point_steps": pps * per_round,
            "corrector.ns_per_path_point_step": solve_ns / pps if pps else 0.0,
            "corrector.self_s": self_ns.get("corrector", 0) * 1e-9 * per_round,
            "homogenize.cells": cells * per_round,
            "homogenize.lookup_rows": rows * per_round,
            "homogenize.hit_rate": 1.0 - cells / rows if rows else 0.0,
            "homogenize.ns_per_lookup_row":
                per_ns("CellField.eval_batch", "CellField.eval_batch:lookup_rows"),
            "homogenize.self_s": self_ns.get("homogenize", 0) * 1e-9 * per_round,
            "trace.overhead": overhead,
        }
        assert out.keys() == PER_LAYER.keys()
        return out
