"""Monte Carlo solution of the auxiliary equation via frozen-path integrals.

The time integral of a centered integrand along frozen trajectories,
truncated at a finite horizon, estimates the auxiliary solution:

* ``mode="corrector"`` returns Phi with  (generator) Phi = -f,
* ``mode="poisson"``   returns u   with  (generator) u   =  f,

which differ only by sign.  Exponential ergodicity of the frozen process
makes the truncation tail geometric; the solver reports a per-point tail
estimate extrapolated from the last fifth of the integral.

All query points share the same driving increments (common random numbers),
so differences between nearby points - the finite-difference gradients -
carry far less noise than independent solves would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import BlowUp, GridTooCoarse, NonFiniteCoefficient, NotCentered
from .ergodic import MeasureEnsemble, _interp_axes, average, chain_se
from .model import CoupledSystem

Array = np.ndarray


@dataclass(frozen=True)
class CorrectorQuery:
    """Query grid and Monte Carlo budgets for one solve."""

    t: float
    y: Array
    points: Array
    T_max: float = 10.0
    n_paths: int = 10000
    dt: float = 0.01
    seed: int = 0
    n_batches: int = 20
    chunk_paths: int = 4096
    grid_axes: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64).reshape(-1))
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        object.__setattr__(self, "points", pts)
        if self.T_max <= 0 or self.dt <= 0:
            raise ValueError("T_max and dt must be > 0")
        if self.points.shape[0] < 1:
            raise ValueError("points must be non-empty")
        if self.n_paths < self.n_batches:
            raise ValueError("n_paths must be >= n_batches")

    @classmethod
    def from_grid(cls, axes, **kwargs) -> "CorrectorQuery":
        """Build a query on a regular tensor grid (enables x-gradients)."""
        axes = tuple(np.asarray(ax, dtype=np.float64) for ax in axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return cls(points=pts, grid_axes=axes, **kwargs)


@dataclass
class CorrectorField:
    """Estimated auxiliary solution on the query points.

    ``values`` has shape (Q, k) where k is the codomain of the integrand;
    ``batch_means`` keeps per-path-batch means so that any linear
    post-processing can propagate Monte Carlo noise correctly.  Gradients
    are attached by :func:`gradients` (central differences on the grid for
    x, common-random-number re-solves for y).
    """

    query: CorrectorQuery
    mode: str
    values: Array
    se: Array
    batch_means: Array
    tail_bound: Array
    k: int
    grad_x: Array | None = None
    grad_y: Array | None = None
    grad_y_batches: Array | None = None
    _system: CoupledSystem | None = None
    _f: object | None = None
    _centering_z: float | None = None

    @property
    def grid_shape(self) -> tuple[int, ...]:
        if self.query.grid_axes is None:
            raise ValueError("field was not solved on a tensor grid")
        return tuple(len(ax) for ax in self.query.grid_axes)


def _probe_codomain(f, query: CorrectorQuery) -> int:
    vals = np.asarray(f(query.t, query.points, query.y), dtype=np.float64)
    if vals.ndim <= 1:
        return 1
    return int(vals.shape[-1])


def _as_cols(vals: Array, lead_shape: tuple[int, ...], k: int) -> Array:
    vals = np.asarray(vals, dtype=np.float64)
    if vals.ndim == len(lead_shape):
        vals = vals[..., None]
    return np.broadcast_to(vals, lead_shape + (k,))


def solve_poisson_fk(system: CoupledSystem, f, query: CorrectorQuery,
                     mode: str = "corrector", centering_z: float | None = None,
                     auto_center: bool = False,
                     mu: MeasureEnsemble | None = None) -> CorrectorField:
    """Truncated frozen-path time integral of ``f`` at every query point.

    The integrand must be centered against the stationary law at
    (query.t, query.y); the solver refuses to run otherwise because the
    integral then grows linearly in the horizon.  Pass the z-score from
    :func:`fastslow.ergodic.centering_residual`, or set ``auto_center=True``
    together with a sample cloud ``mu`` to subtract the estimated mean.
    """
    if mode not in ("corrector", "poisson"):
        raise ValueError("mode must be 'corrector' or 'poisson'")
    if auto_center:
        if mu is None:
            raise ValueError("auto_center requires a MeasureEnsemble")
        shift, _ = average(f, mu, query.t)
        base_f = f

        def f_use(t, x, y, _s=shift, _f=base_f):
            return np.asarray(_f(t, x, y), dtype=np.float64) - _s

        z_eff = 0.0
    else:
        if centering_z is None:
            raise NotCentered(
                "no centering evidence supplied; run centering_residual first "
                "or pass auto_center=True with a sample cloud")
        z_eff = float(centering_z)
        if z_eff > 3.0:
            raise NotCentered(f"centering z-score {z_eff:.3g} exceeds 3")
        f_use = f

    t0, y_fix = query.t, query.y
    pts = query.points
    Q, d1 = pts.shape
    k = _probe_codomain(f_use, query)
    K = max(1, int(round(query.T_max / query.dt)))
    dtE = query.T_max / K
    sq = math.sqrt(dtE)
    nb = query.n_batches
    i80, i90 = int(0.8 * K), int(0.9 * K)

    batch_sums = np.zeros((nb, Q, k))
    batch_counts = np.zeros(nb, dtype=np.int64)
    w1 = np.zeros((Q, k))
    w2 = np.zeros((Q, k))

    for lo in range(0, query.n_paths, query.chunk_paths):
        hi = min(lo + query.chunk_paths, query.n_paths)
        m = hi - lo
        ids = np.arange(lo, hi, dtype=np.uint64)
        X = np.broadcast_to(pts, (m, Q, d1)).copy()
        acc = np.zeros((m, Q, k))
        wacc1 = np.zeros((m, Q, k))
        wacc2 = np.zeros((m, Q, k))
        for s in range(K):
            fv = _as_cols(f_use(t0, X, y_fix), (m, Q), k)
            acc += fv * dtE
            if s >= i90:
                wacc2 += fv * dtE
            elif s >= i80:
                wacc1 += fv * dtE
            z = rng.normals(query.seed, rng.LANE_FAST, ids, np.uint64(s), d1)
            drift = np.asarray(system.b(X, y_fix), dtype=np.float64)
            sig = np.asarray(system.sigma(X, y_fix), dtype=np.float64)
            X = X + drift * dtE + (sig @ z[:, None, :, None])[..., 0] * sq
            if (s & 127) == 127:
                if not np.all(np.isfinite(X)):
                    raise NonFiniteCoefficient("frozen paths became non-finite")
        if not np.all(np.isfinite(acc)):
            raise NonFiniteCoefficient("path integrals became non-finite")
        if np.linalg.norm(X, axis=-1).max() > 1e6:
            raise BlowUp("frozen paths exceeded the norm cap 1e6")
        bidx = (ids.astype(np.int64) * nb) // query.n_paths
        for b in np.unique(bidx):
            sel = bidx == b
            batch_sums[b] += acc[sel].sum(axis=0)
            batch_counts[b] += int(sel.sum())
        w1 += wacc1.sum(axis=0)
        w2 += wacc2.sum(axis=0)

    values = batch_sums.sum(axis=0) / query.n_paths
    batch_means = batch_sums / batch_counts[:, None, None]
    se = batch_means.std(axis=0, ddof=1) / math.sqrt(nb)
    w1 /= query.n_paths
    w2 /= query.n_paths
    ratio = np.clip(np.abs(w2) / np.maximum(np.abs(w1), 1e-300), 0.0, 0.97)
    tail = np.abs(w2) * ratio / (1.0 - ratio)
    tail[np.abs(w1) < 1e-300] = 0.0

    sign = 1.0 if mode == "corrector" else -1.0
    return CorrectorField(
        query=query, mode=mode, values=sign * values, se=se,
        batch_means=sign * batch_means, tail_bound=tail, k=k,
        _system=system, _f=f_use, _centering_z=z_eff)


def _axis_central(grid_vals: Array, axis: int, h: float) -> Array:
    """Central difference along ``axis``; edge slots hold NaN."""
    out = np.full_like(grid_vals, np.nan)
    sl_mid = [slice(None)] * grid_vals.ndim
    sl_up = [slice(None)] * grid_vals.ndim
    sl_dn = [slice(None)] * grid_vals.ndim
    sl_mid[axis] = slice(1, -1)
    sl_up[axis] = slice(2, None)
    sl_dn[axis] = slice(None, -2)
    out[tuple(sl_mid)] = (grid_vals[tuple(sl_up)] - grid_vals[tuple(sl_dn)]) / (2 * h)
    return out


def _coarseness_check(grid_vals: Array, axis: int, h: float, se_med: float,
                      coarse_tol: float) -> None:
    sl_up = [slice(None)] * grid_vals.ndim
    sl_dn = [slice(None)] * grid_vals.ndim
    sl_mid = [slice(None)] * grid_vals.ndim
    sl_up[axis] = slice(2, None)
    sl_dn[axis] = slice(None, -2)
    sl_mid[axis] = slice(1, -1)
    second = np.abs(grid_vals[tuple(sl_up)] - 2 * grid_vals[tuple(sl_mid)]
                    + grid_vals[tuple(sl_dn)])
    first = np.abs(grid_vals[tuple(sl_up)] - grid_vals[tuple(sl_dn)]) / 2
    s2 = float(np.median(second))
    s1 = float(np.median(first))
    scale = max(s1, float(np.median(np.abs(grid_vals))) * 1e-3, 1e-300)
    if s2 > coarse_tol * scale and s2 > 10.0 * se_med:
        raise GridTooCoarse(
            f"axis {axis}: median second difference {s2:.3g} exceeds "
            f"{coarse_tol} x median first difference {s1:.3g} at spacing {h:g}")


def grid_grad_x(field: CorrectorField, values: Array) -> Array:
    """Central-difference x-gradient, (Q, k, d1), of grid values (Q, k)
    laid out on ``field``'s tensor grid; edge nodes hold NaN."""
    gshape = field.grid_shape
    vals_g = values.reshape(gshape + (field.k,))
    grad = np.empty((values.shape[0], field.k, len(gshape)))
    for p, ax in enumerate(field.query.grid_axes):
        g = _axis_central(vals_g, p, float(ax[1] - ax[0]))
        grad[:, :, p] = g.reshape(-1, field.k)
    return grad


def gradients(field: CorrectorField, grid_spacing=None, want_grad_y: bool = True,
              delta_y: float | None = None, coarse_tol: float = 0.5) -> CorrectorField:
    """Attach state and parameter gradients to a grid-solved field.

    x-gradients are central differences on the tensor grid (NaN at edge
    nodes).  y-gradients re-solve the field at y +/- delta along each slow
    coordinate with the same seed, so the Monte Carlo noise largely cancels
    in the difference.  Raises :class:`GridTooCoarse` when second differences
    dominate first differences beyond ``coarse_tol`` (and clear the noise
    floor).
    """
    q = field.query
    if q.grid_axes is None:
        raise ValueError("x-gradients need a query built with from_grid")
    axes = q.grid_axes
    gshape = field.grid_shape
    d1 = len(axes)
    steps = [float(ax[1] - ax[0]) if len(ax) > 1 else 1.0 for ax in axes]
    if grid_spacing is not None:
        given = np.broadcast_to(np.asarray(grid_spacing, dtype=np.float64), (d1,))
        if not np.allclose(given, steps, rtol=1e-9):
            raise ValueError("grid_spacing disagrees with the query grid")

    vals_g = field.values.reshape(gshape + (field.k,))
    se_med = float(np.median(field.se))
    for p in range(d1):
        if gshape[p] < 3:
            raise GridTooCoarse(f"axis {p} has fewer than 3 nodes")
        _coarseness_check(vals_g[..., 0] if field.k == 1 else vals_g.mean(-1),
                          p, steps[p], se_med, coarse_tol)
    grad_x = grid_grad_x(field, field.values)

    grad_y = None
    grad_y_b = None
    if want_grad_y:
        if field._system is None or field._f is None:
            raise ValueError("field lost its provenance; cannot re-solve in y")
        d2 = q.y.shape[0]
        delta = delta_y if delta_y is not None else \
            1e-3 * max(1.0, float(np.linalg.norm(q.y)))
        grad_y = np.empty((field.values.shape[0], field.k, d2))
        nb = field.batch_means.shape[0]
        grad_y_b = np.empty((nb, field.values.shape[0], field.k, d2))
        for j in range(d2):
            shift = np.zeros(d2)
            shift[j] = delta
            fp = solve_poisson_fk(field._system, field._f,
                                  replace(q, y=q.y + shift), mode=field.mode,
                                  centering_z=field._centering_z)
            fm = solve_poisson_fk(field._system, field._f,
                                  replace(q, y=q.y - shift), mode=field.mode,
                                  centering_z=field._centering_z)
            grad_y[:, :, j] = (fp.values - fm.values) / (2 * delta)
            grad_y_b[:, :, :, j] = (fp.batch_means - fm.batch_means) / (2 * delta)

    return replace(field, grad_x=grad_x, grad_y=grad_y, grad_y_batches=grad_y_b)


@dataclass(frozen=True)
class OuterProductResult:
    matrix: Array
    se: Array
    antisym_norm: float


def outer_product_HPhi(system: CoupledSystem, field: CorrectorField,
                       mu: MeasureEnsemble, t: float) -> OuterProductResult:
    """Symmetrized stationary average of H (solution)^T.

    ``field`` must hold the corrector solution for f = H at the same
    (t, y) as ``mu``.  The antisymmetric remainder is returned as a
    diagnostic only; the limit law depends on the symmetric part.
    """
    d2 = system.d2
    if field.k != d2:
        raise ValueError("field codomain does not match the slow dimension")
    phi_s = _field_at(field, mu.samples)            # (n, d2)
    Hs = np.asarray(system.H(t, mu.samples, mu.y), dtype=np.float64)
    Hs = np.broadcast_to(Hs, (mu.n_samples, d2))
    outer = Hs[:, :, None] * phi_s[:, None, :]
    M = outer.mean(axis=0)
    se_mu = chain_se(outer.reshape(mu.n_samples, -1)).reshape(d2, d2)

    nb = field.batch_means.shape[0]
    per_b = np.empty((nb, d2, d2))
    for b in range(nb):
        pb = _field_at(replace(field, values=field.batch_means[b]), mu.samples)
        per_b[b] = (Hs[:, :, None] * pb[:, None, :]).mean(axis=0)
    se_f = per_b.std(axis=0, ddof=1) / math.sqrt(nb)

    sym = 0.5 * (M + M.T)
    anti = 0.5 * (M - M.T)
    se = np.sqrt(se_mu ** 2 + se_f ** 2)
    se = 0.5 * (se + se.T)
    return OuterProductResult(matrix=sym, se=se,
                              antisym_norm=float(np.linalg.norm(anti)))


def _field_at(field: CorrectorField, points: Array) -> Array:
    """Interpolate field values at arbitrary points (clamped multilinear)."""
    q = field.query
    if q.grid_axes is None:
        raise ValueError("interpolation needs a tensor-grid query")
    gvals = field.values.reshape(field.grid_shape + (field.k,))
    return _interp_axes(q.grid_axes, gvals, np.asarray(points, dtype=np.float64))


def grad_x_at(field: CorrectorField, points: Array) -> Array:
    """Interpolated x-gradient (interior stencil, edge-clamped), (n, k, d1)."""
    if field.grad_x is None:
        raise ValueError("call gradients() first")
    q = field.query
    gshape = field.grid_shape
    d1 = len(gshape)
    g = field.grad_x.reshape(gshape + (field.k, d1))
    inner_axes = []
    sl = [slice(None)] * d1
    for p in range(d1):
        sl[p] = slice(1, -1)
        inner_axes.append(q.grid_axes[p][1:-1])
    g_in = g[tuple(sl)]
    return _interp_axes(tuple(inner_axes), g_in, np.asarray(points, dtype=np.float64))


def grad_y_at(field: CorrectorField, points: Array) -> Array:
    """Interpolated y-gradient, (n, k, d2)."""
    if field.grad_y is None:
        raise ValueError("call gradients(want_grad_y=True) first")
    gvals = field.grad_y.reshape(field.grid_shape + (field.k, field.grad_y.shape[-1]))
    return _interp_axes(field.query.grid_axes, gvals,
                        np.asarray(points, dtype=np.float64))
