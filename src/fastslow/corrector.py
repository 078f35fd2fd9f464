"""Monte Carlo solution of the auxiliary equation via frozen-path integrals.

The time integral of a centered integrand f along frozen trajectories,
truncated at a finite horizon, estimates the corrector Phi of the Poisson
equation (generator) Phi = -f.  Exponential ergodicity of the frozen
process makes the truncation tail geometric; the solver reports a
per-point tail estimate extrapolated from the last fifth of the integral.

A query is a tensor grid of fast states.  The caller centers the integrand
and passes its z-score from :func:`fastslow.ergodic.centering_residual`.

All query points share the same driving increments (common random numbers),
so differences between nearby points - the finite-difference gradients -
carry far less noise than independent solves would.  The same holds across
slow states: the y-gradients integrate from y +/- delta along each slow
coordinate with the centre's increments, in the same pass as the centre
(:func:`solve_poisson_fk` with ``want_grad_y``), so each block of increments
is drawn once and drives every state.  Blocks are sized by
:func:`fastslow.rng.block_steps`, and the noise coefficient is applied by
:func:`fastslow.model.apply_matrix`, once per block if it has no batch axes.

This module also holds the grid calculus on such solutions: one central
difference stencil (:func:`_central`) gives the x-gradients, the
:class:`GridTooCoarse` gate and the gradient and Hessian that the
derivative transfer (:func:`fastslow.homogenize.transfer_derivative`) needs.

One rule, :func:`batch_se`, gives the path-batch error of every cloud
average of a linear functional of the solution: H Phi^T, the drift
corrections c . grad_x Phi and H . grad_y Phi, and the derivative transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import rng
from .errors import GridTooCoarse, NonFiniteCoefficient, NotCentered
from .ergodic import MeasureEnsemble
from .model import CoupledSystem, _count, apply_matrix, check_state
from .simulate import _chunks

Array = np.ndarray

# gradients() refuses a grid whose median second difference exceeds this
# fraction of the median first difference (and clears the noise floor)
_COARSE_TOL = 0.5

# paths integrated together; the sums add path after path, so results do
# not depend on it
_CHUNK_PATHS = 4096


@dataclass(frozen=True)
class CorrectorQuery:
    """Tensor grid of fast states (one 1-d axis per coordinate) and Monte
    Carlo budgets for one solve; ``points`` are the (Q, d1) nodes, "ij" order."""

    t: float
    y: Array
    grid_axes: tuple
    T_max: float = 10.0
    n_paths: int = 10000
    dt: float = 0.01
    seed: int = 0
    n_batches: int = 20
    points: Array = dc_field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64).reshape(-1))
        axes = tuple(np.asarray(ax, dtype=np.float64) for ax in self.grid_axes)
        if not axes or any(ax.ndim != 1 or ax.size < 1 for ax in axes):
            raise ValueError("grid_axes must be non-empty 1-d axes")
        object.__setattr__(self, "grid_axes", axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        object.__setattr__(self, "points", np.stack([m.ravel() for m in mesh], axis=-1))
        if self.T_max <= 0 or self.dt <= 0:
            raise ValueError("T_max and dt must be > 0")
        _count("n_paths", self.n_paths)
        _count("n_batches", self.n_batches)
        if self.n_batches < 2:
            raise ValueError("n_batches must be >= 2 to estimate a standard error")
        if self.n_paths < self.n_batches:
            raise ValueError("n_paths must be >= n_batches")


@dataclass
class CorrectorField:
    """Estimated corrector on the query points.

    ``values`` has shape (Q, k) where k is the codomain of the integrand;
    ``batch_means`` keeps per-path-batch means so that any linear
    post-processing can propagate Monte Carlo noise correctly.  The
    y-gradients come from the solve itself (:func:`solve_poisson_fk` with
    ``want_grad_y``); :func:`gradients` attaches the x-gradients.
    """

    query: CorrectorQuery
    values: Array
    se: Array
    batch_means: Array
    tail_bound: Array
    grad_x: Array | None = None
    grad_y: Array | None = None
    grad_y_batches: Array | None = None

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.query.grid_axes)


def codomain(f, t: float, x: Array, y: Array) -> int:
    """Number of components of the integrand ``f`` probed at (t, x, y):
    1 for a scalar output per point, else the size of its last axis."""
    vals = np.asarray(f(t, x, y), dtype=np.float64)
    return 1 if vals.ndim <= 1 else int(vals.shape[-1])


def _as_cols(vals: Array, lead_shape: tuple[int, ...], k: int) -> Array:
    vals = np.asarray(vals, dtype=np.float64)
    if vals.ndim == len(lead_shape):
        vals = vals[..., None]
    if vals.shape == lead_shape + (k,):
        return vals
    return np.broadcast_to(vals, lead_shape + (k,))


def _check_delta_y(delta_y) -> None:
    """Refuse a y-step that is neither None (the default step) nor a finite
    number > 0; a zero step makes every y-difference 0 / 0."""
    if delta_y is not None and not (math.isfinite(delta_y) and delta_y > 0):
        raise ValueError(f"delta_y must be None or a finite number > 0, got {delta_y!r}")


def _y_step(y: Array, delta_y: float | None) -> float:
    """Step of the central y-differences: ``delta_y``, or by default
    1e-3 * max(1, |y|)."""
    _check_delta_y(delta_y)
    if delta_y is not None:
        return float(delta_y)
    return 1e-3 * max(1.0, float(np.linalg.norm(y)))


def _shifted_states(y: Array, delta: float) -> list[Array]:
    """The slow states y + delta e_j and y - delta e_j, j = 0, 1, ..."""
    states = []
    for j in range(y.shape[0]):
        shift = np.zeros(y.shape[0])
        shift[j] = delta
        states += [y + shift, y - shift]
    return states


def _path_sums(system: CoupledSystem, f, query: CorrectorQuery, ys, k: int):
    """Frozen-path time integrals of ``f`` from every query point, for each
    slow state in ``ys``.

    The states advance in lockstep, each in its own (m, Q, d1) array: every
    block of increments is drawn once and drives all of them, so a state
    sees exactly the increments a solve of it alone would see.  Returns the
    path-batch sums (len(ys), nb, Q, k), the batch sizes and, for the first
    state, the integrals over the last two tenths of the horizon.
    """
    t0 = query.t
    pts = query.points
    Q, d1 = pts.shape
    K = max(1, int(round(query.T_max / query.dt)))
    dtE = query.T_max / K
    sq = math.sqrt(dtE)
    nb = query.n_batches
    i80, i90 = int(0.8 * K), int(0.9 * K)

    batch_sums = np.zeros((len(ys), nb, Q, k))
    batch_counts = np.zeros(nb, dtype=np.int64)
    w1 = np.zeros((Q, k))
    w2 = np.zeros((Q, k))

    for lo, hi in _chunks(query.n_paths, _CHUNK_PATHS):
        m = hi - lo
        ids = np.arange(lo, hi, dtype=np.uint64)
        paths = rng.PathIndex(ids[None, :])
        block = rng.block_steps(m)
        Xs = [np.broadcast_to(pts, (m, Q, d1)).copy() for _ in ys]
        accs = [np.zeros((m, Q, k)) for _ in ys]
        wacc1 = np.zeros((m, Q, k))
        wacc2 = np.zeros((m, Q, k))
        for s in range(K):
            j = s % block
            if j == 0:
                steps = np.arange(s, min(s + block, K), dtype=np.uint64)
                zb = rng.normals(query.seed, rng.LANE_FAST, paths,
                                 steps[:, None], d1)[:, :, None, :]
                # a sigma without batch axes is state-independent (see model):
                # one product per block, each step's (m, 1, d1) noise broadcast
                sigs = [system.sigma(X, y_i) for X, y_i in zip(Xs, ys)]
                noises = [apply_matrix(sg, zb) * sq if np.ndim(sg) == 2 else None
                          for sg in sigs]
            for i, y_i in enumerate(ys):
                X = Xs[i]
                fdt = _as_cols(f(t0, X, y_i), (m, Q), k) * dtE
                accs[i] += fdt
                if i == 0:
                    if s >= i90:
                        wacc2 += fdt
                    elif s >= i80:
                        wacc1 += fdt
                drift = np.asarray(system.b(X, y_i), dtype=np.float64)
                if noises[i] is None:  # a sigma with batch axes, at every step
                    sig = sigs[i] if j == 0 else system.sigma(X, y_i)
                    noise = apply_matrix(sig, zb[j]) * sq
                X = X + drift * dtE
                X += noise if noises[i] is None else noises[i][j]
                Xs[i] = X
            if (s & 127) == 127 or s == K - 1:
                for X in Xs:
                    check_state("frozen", X, 1e6, (s + 1) * dtE, lo)
        if not all(np.all(np.isfinite(acc)) for acc in accs):
            raise NonFiniteCoefficient("path integrals became non-finite")
        # np.add.at adds path after path, so the sums do not depend on how
        # the paths were split into chunks
        bidx = (ids.astype(np.int64) * nb) // query.n_paths
        for i, acc in enumerate(accs):
            np.add.at(batch_sums[i], bidx, acc)
        np.add.at(batch_counts, bidx, 1)
        first = np.zeros(m, dtype=np.intp)
        np.add.at(w1[None], first, wacc1)
        np.add.at(w2[None], first, wacc2)
    return batch_sums, batch_counts, w1, w2


def _y_gradient(shifted_sums: Array, counts: Array, n_paths: int,
                delta: float) -> tuple[Array, Array]:
    """Central y-differences (Q, k, d2) of the solution and their per-batch
    values (nb, Q, k, d2), from the path-batch sums of the states laid out
    as :func:`_shifted_states` lays them out."""
    vals = shifted_sums.sum(axis=1) / n_paths               # (2 d2, Q, k)
    batch = shifted_sums / counts[:, None, None]            # (2 d2, nb, Q, k)
    grad = (vals[0::2] - vals[1::2]) / (2 * delta)
    grad_b = (batch[0::2] - batch[1::2]) / (2 * delta)
    return np.moveaxis(grad, 0, -1), np.moveaxis(grad_b, 0, -1)


def solve_poisson_fk(system: CoupledSystem, f, query: CorrectorQuery,
                     centering_z: float | None = None,
                     want_grad_y: bool = False,
                     delta_y: float | None = None) -> CorrectorField:
    """Corrector Phi of (generator) Phi = -f at every query point: the
    truncated frozen-path time integral of ``f``.

    The integrand must be centered against the stationary law at
    (query.t, query.y); the solver refuses to run otherwise because the
    integral then grows linearly in the horizon.  Pass the z-score from
    :func:`fastslow.ergodic.centering_residual` as ``centering_z``; a
    caller subtracts the cloud mean (:func:`fastslow.ergodic.average`) first.

    With ``want_grad_y`` the same pass also integrates from the slow states
    y +/- delta along each slow coordinate (``delta_y``, default
    1e-3 * max(1, |y|)), driven by the centre's increments, and attaches
    their central differences as ``grad_y`` and ``grad_y_batches``.  This
    is the one way to get y-gradients.
    """
    delta = _y_step(query.y, delta_y) if want_grad_y else None
    if centering_z is None:
        raise NotCentered("no centering evidence supplied; run centering_residual first")
    if not float(centering_z) <= 3.0:  # NaN is refused too
        raise NotCentered(f"centering z-score {float(centering_z):.3g} is not <= 3")

    k = codomain(f, query.t, query.points, query.y)
    ys = [query.y] + (_shifted_states(query.y, delta) if want_grad_y else [])
    batch_sums, batch_counts, w1, w2 = _path_sums(system, f, query, ys, k)

    nb = query.n_batches
    grad_y = grad_y_b = None
    if want_grad_y:
        grad_y, grad_y_b = _y_gradient(batch_sums[1:], batch_counts,
                                       query.n_paths, delta)
    values = batch_sums[0].sum(axis=0) / query.n_paths
    batch_means = batch_sums[0] / batch_counts[:, None, None]
    se = batch_means.std(axis=0, ddof=1) / math.sqrt(nb)
    w1 /= query.n_paths
    w2 /= query.n_paths
    ratio = np.clip(np.abs(w2) / np.maximum(np.abs(w1), 1e-300), 0.0, 0.97)
    tail = np.abs(w2) * ratio / (1.0 - ratio)
    tail[np.abs(w1) < 1e-300] = 0.0

    return CorrectorField(
        query=query, values=values, se=se, batch_means=batch_means,
        tail_bound=tail, grad_y=grad_y, grad_y_batches=grad_y_b)


def _central(vals: Array, axis: int, h: float, order: int = 1) -> Array:
    """Central first (``order=1``) or second difference along ``axis``.

    Only interior nodes carry a central stencil, so the result is two nodes
    shorter than ``vals`` along ``axis``.
    """
    def shifted(lo, hi):
        idx = [slice(None)] * vals.ndim
        idx[axis] = slice(lo, hi)
        return vals[tuple(idx)]

    up, dn = shifted(2, None), shifted(None, -2)
    if order == 1:
        return (up - dn) / (2 * h)
    return (up - 2 * shifted(1, -1) + dn) / h ** 2


def _interior(vals: Array, axes) -> Array:
    """View of ``vals`` without the edge nodes of the listed axes."""
    idx = [slice(None)] * vals.ndim
    for a in axes:
        idx[a] = slice(1, -1)
    return vals[tuple(idx)]


def _coarseness_check(grid_vals: Array, axis: int, h: float,
                      se_med: float) -> None:
    # unit spacing: the gate compares node differences, not derivatives
    s2 = float(np.median(np.abs(_central(grid_vals, axis, 1.0, order=2))))
    s1 = float(np.median(np.abs(_central(grid_vals, axis, 1.0))))
    scale = max(s1, float(np.median(np.abs(grid_vals))) * 1e-3, 1e-300)
    if s2 > _COARSE_TOL * scale and s2 > 10.0 * se_med:
        raise GridTooCoarse(
            f"axis {axis}: median second difference {s2:.3g} exceeds "
            f"{_COARSE_TOL} x median first difference {s1:.3g} at spacing {h:g}")


def grid_grad_x(field: CorrectorField, values: Array) -> Array:
    """Central-difference x-gradient, (Q, k, d1), of grid values (Q, k)
    laid out on ``field``'s tensor grid; edge nodes hold NaN."""
    gshape = field.grid_shape
    vals_g = values.reshape(gshape + (field.k,))
    grad = np.full(gshape + (field.k, len(gshape)), np.nan)
    for p, ax in enumerate(field.query.grid_axes):
        _interior(grad[..., p], (p,))[...] = _central(vals_g, p,
                                                      float(ax[1] - ax[0]))
    return grad.reshape(values.shape[0], field.k, len(gshape))


def gradients(field: CorrectorField) -> CorrectorField:
    """Attach the x-gradient to a grid-solved field.

    x-gradients are central differences on the tensor grid (NaN at edge
    nodes).  The field's y-gradients, if it was solved with
    ``want_grad_y``, are kept as they are.  Raises :class:`GridTooCoarse`
    when second differences dominate first differences beyond a fixed
    tolerance of 0.5 (and clear the noise floor).
    """
    gshape = field.grid_shape
    vals_g = field.values.reshape(gshape + (field.k,))
    scalar = vals_g[..., 0] if field.k == 1 else vals_g.mean(-1)
    se_med = float(np.median(field.se))
    for p, ax in enumerate(field.query.grid_axes):
        if gshape[p] < 3:
            raise GridTooCoarse(f"axis {p} has fewer than 3 nodes")
        _coarseness_check(scalar, p, float(ax[1] - ax[0]), se_med)
    return replace(field, grad_x=grid_grad_x(field, field.values))


@dataclass(frozen=True)
class OuterProductResult:
    matrix: Array
    se: Array
    antisym_norm: float


def batch_se(field: CorrectorField, per_sample) -> Array:
    """Path-batch standard error, (m,), of the cloud mean of a linear
    functional ``per_sample(values, grad_y) -> (n, m)`` of grid values and
    y-gradients: the mean is taken again on each batch's ``batch_means``
    and ``grad_y_batches`` (None without them), and the spread of the nb
    means, over sqrt(nb), is returned."""
    nb = field.batch_means.shape[0]
    gyb = field.grad_y_batches
    per_b = np.stack([
        per_sample(field.batch_means[b], None if gyb is None else gyb[b]).mean(axis=0)
        for b in range(nb)])
    return per_b.std(axis=0, ddof=1) / math.sqrt(nb)


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
    Hs = np.asarray(system.H(t, mu.samples, mu.y), dtype=np.float64)
    Hs = np.broadcast_to(Hs, (mu.n_samples, d2))

    def outer(values: Array, grad_y) -> Array:
        phi_s = _grid_at(field, values, mu.samples)     # (n, d2)
        return (Hs[:, :, None] * phi_s[:, None, :]).reshape(mu.n_samples, -1)

    per = outer(field.values, field.grad_y)
    M = per.mean(axis=0).reshape(d2, d2)
    se_mu = mu.se(per).reshape(d2, d2)
    se_f = batch_se(field, outer).reshape(d2, d2)

    sym = 0.5 * (M + M.T)
    anti = 0.5 * (M - M.T)
    se = np.sqrt(se_mu ** 2 + se_f ** 2)
    se = 0.5 * (se + se.T)
    return OuterProductResult(matrix=sym, se=se,
                              antisym_norm=float(np.linalg.norm(anti)))


def _interp_axes(axes, grid_values: Array, points: Array) -> Array:
    """Multilinear interpolation on a tensor grid, clamped at the edges.

    ``grid_values`` has the grid shape followed by arbitrary trailing axes.
    """
    d = len(axes)
    gshape = tuple(len(ax) for ax in axes)
    trail = grid_values.shape[d:]
    if d == 1:
        flat = grid_values.reshape(gshape[0], -1)
        cols = [np.interp(points[:, 0], axes[0], flat[:, j])
                for j in range(flat.shape[1])]
        return np.stack(cols, axis=-1).reshape((points.shape[0],) + trail)
    # imported here, not at the top, so that importing fastslow stays fast
    from scipy.interpolate import RegularGridInterpolator  # noqa: PLC0415
    pts = points.copy()
    for j, ax in enumerate(axes):
        pts[:, j] = np.clip(pts[:, j], ax[0], ax[-1])
    itp = RegularGridInterpolator(axes, grid_values.reshape(gshape + (-1,)),
                                  method="linear")
    return itp(pts).reshape((points.shape[0],) + trail)


def _grid_at(field: CorrectorField, node_vals: Array, points: Array,
             interior: bool = False) -> Array:
    """Interpolate per-node arrays (Q, ...) of ``field``'s tensor grid at
    ``points`` (clamped multilinear); ``interior`` first drops the edge
    nodes, where an x-gradient has no central stencil."""
    axes = field.query.grid_axes
    gshape = field.grid_shape
    grid = node_vals.reshape(gshape + node_vals.shape[1:])
    if interior:
        grid = _interior(grid, range(len(gshape)))
        axes = tuple(ax[1:-1] for ax in axes)
    return _interp_axes(axes, grid, np.asarray(points, dtype=np.float64))


def _interior_derivatives(u_grid: Array, steps) -> tuple[Array, Array]:
    """Gradient (..., d) and Hessian (..., d, d) of a scalar grid field at
    the interior nodes, from :func:`_central` with grid spacings ``steps``.

    A mixed partial is a first difference along the later axis followed by
    one along the earlier axis.
    """
    d = u_grid.ndim
    grad = np.empty(tuple(n - 2 for n in u_grid.shape) + (d,))
    hess = np.empty(grad.shape + (d,))
    for p in range(d):
        u_p = _interior(u_grid, [a for a in range(d) if a != p])
        grad[..., p] = _central(u_p, p, steps[p])
        hess[..., p, p] = _central(u_p, p, steps[p], order=2)
        for q in range(p + 1, d):
            u_pq = _interior(u_grid, [a for a in range(d) if a not in (p, q)])
            hess[..., p, q] = hess[..., q, p] = _central(
                _central(u_pq, q, steps[q]), p, steps[p])
    return grad, hess
