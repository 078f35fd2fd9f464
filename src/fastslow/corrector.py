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
coordinate with shared increments, in one pass (:func:`solve_poisson_fk`
with ``want_grad_y``), so each block of increments is drawn once and drives
every state.  That pass has no centre state: the field it returns is the
mean of the 2 d2 shifted states' solutions, which differs from the centre's
by O(delta^2).  Blocks are sized by :func:`fastslow.rng.block_steps`, and
each state takes the noise of a block from :func:`fastslow.model.block_noise`.

The step loop (:func:`_path_sums`) is laid out for the cache.  A state of
m paths from Q points is a points-major (Q, m, d1) array, so a step's
(m, d1) noise is added to each point's contiguous (m, d1) slab.  Each state
takes all the steps of a block segment before the next state starts, so
only one state's arrays are in use at a time.  ``b dt`` goes into one buffer
allocated per chunk of paths and is added in place; f is added unscaled,
and each path's sums are multiplied by dt once, at the end of the chunk.
The path arithmetic is that of a plain Euler pass, in the same order, so
the results do not depend on the layout.

This module also holds the one read-out of a grid-solved corrector at
free points such as a cloud's samples.  :func:`_node_derivatives` gives the
x-gradient and Hessian on the grid (NaN where the central stencil does not
reach); :func:`_grid_at` carries node arrays to the points, and derivatives
through the interior nodes alone; :func:`cloud_mean` gives the mean of a
linear functional of the solution (H Phi^T, c . grad_x Phi, H . grad_y Phi,
the derivative transfer's integrand) with the chain and path-batch errors
in quadrature.  The :class:`GridTooCoarse` gate keeps its own unit-spacing
differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from functools import partial

import numpy as np

from . import rng
from .errors import GridTooCoarse, NonFiniteCoefficient, NotCentered
from .ergodic import MeasureEnsemble
from .model import CoupledSystem, _count, block_noise, check_state
from .simulate import _chunks

Array = np.ndarray

# gradients() refuses a grid whose median second difference exceeds this
# fraction of the median first difference (and clears the noise floor)
_COARSE_TOL = 0.5

# paths integrated together; the sums add path after path, so results do
# not depend on it.  1024 keeps one state's arrays in cache: a default-budget
# R4 solve of ou_full (4000 paths, 21 points, 800 steps, the two y +/- delta
# states) took 0.420 s of CPU at 1024, 0.444 s at 512 and 0.479 s at 2048
# (best of 5 alternated runs, 2-vCPU VM, numpy 2.4)
_CHUNK_PATHS = 1024

# the path states are checked after every step s with
# s % _CHECK_EVERY == _CHECK_EVERY - 1, and after the last step
_CHECK_EVERY = 128


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
        if not (0 < self.T_max < math.inf and 0 < self.dt < math.inf):
            raise ValueError("T_max and dt must be finite and > 0")
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
    ``want_grad_y``), and then ``values``, ``batch_means`` and
    ``tail_bound`` are the means over the y +/- delta states, O(delta^2)
    from the centre's; :func:`gradients` attaches the x-gradients.
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


def _segments(K: int, block: int) -> list[tuple[int, int]]:
    """Step ranges ``(s0, s1)`` covering ``range(K)``, cut at every start of
    a block of ``block`` draws and after every check step."""
    cuts = set(range(block, K, block)) | set(range(_CHECK_EVERY, K, _CHECK_EVERY))
    edges = [0, *sorted(cuts), K]
    return list(zip(edges[:-1], edges[1:]))


def _path_sums(system: CoupledSystem, f, query: CorrectorQuery, ys, k: int):
    """Frozen-path time integrals of ``f`` from every query point, for each
    slow state in ``ys``.

    Each state lives in its own points-major (Q, m, d1) array.  Every block
    of increments is drawn once and drives all the states, so a state sees
    exactly the increments a solve of it alone would see; the states take
    the block's steps one after another, so only one state's arrays are in
    use at a time.  A block is split after each check step, and each state
    is checked there as soon as it reaches it, so the states are checked,
    and the first bad one reported, in the order of a lockstep pass.
    Returns the path-batch sums (len(ys), nb, Q, k), the batch sizes and
    each state's integrals over the last two tenths of the horizon,
    (len(ys), 2, Q, k).
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
    windows = np.zeros((len(ys), 2, Q, k))

    for lo, hi in _chunks(query.n_paths, _CHUNK_PATHS):
        m = hi - lo
        ids = np.arange(lo, hi, dtype=np.uint64)
        paths = rng.PathIndex(ids[None, :])
        block = rng.block_steps(m)
        Xs = [np.broadcast_to(pts[:, None, :], (Q, m, d1)).copy() for _ in ys]
        # per state, the sums of f over all steps and over the two tail
        # windows, each scaled by dt once, at the end of the chunk
        sums = [[np.zeros((Q, m, k)) for _ in range(3)] for _ in ys]
        dbuf = np.empty((Q, m, d1))  # b dt of the state in use, added in place
        for s0, s1 in _segments(K, block):
            if s0 % block == 0:
                steps = np.arange(s0, min(s0 + block, K), dtype=np.uint64)
                zb = rng.normals(query.seed, rng.LANE_FAST, paths, steps[:, None], d1)
                # each state's noise of the block, resumed in its next segment
                noises = [block_noise(partial(system.sigma, X, y_i), zb, sq)
                          for X, y_i in zip(Xs, ys)]
            for X, (acc, win1, win2), y_i, state_noise in zip(Xs, sums, ys, noises):
                for s in range(s0, s1):
                    # f, b and sigma all read the state before the step
                    fx = _as_cols(f(t0, X, y_i), (Q, m), k)
                    acc += fx
                    if s >= i90:
                        win2 += fx
                    elif s >= i80:
                        win1 += fx
                    np.multiply(np.asarray(system.b(X, y_i), dtype=np.float64),
                                dtE, out=dbuf)
                    noise = next(state_noise)
                    X += dbuf
                    X += noise
                if s1 % _CHECK_EVERY == 0 or s1 == K:
                    check_state("frozen", X.swapaxes(0, 1), 1e6, s1 * dtE, lo)
        # np.add.at adds path after path, so the sums do not depend on how
        # the paths were split into chunks
        bidx = (ids.astype(np.int64) * nb) // query.n_paths
        first = np.zeros(m, dtype=np.intp)
        for i, (acc, *wins) in enumerate(sums):
            acc *= dtE
            if not np.all(np.isfinite(acc)):
                raise NonFiniteCoefficient("path integrals became non-finite")
            np.add.at(batch_sums[i], bidx, acc.swapaxes(0, 1))
            for j, win in enumerate(wins):
                win *= dtE
                np.add.at(windows[i, j][None], first, win.swapaxes(0, 1))
        np.add.at(batch_counts, bidx, 1)
    return batch_sums, batch_counts, windows


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

    With ``want_grad_y`` the pass integrates only from the slow states
    y +/- delta along each slow coordinate (``delta_y``, default
    1e-3 * max(1, |y|)), all driven by the same increments, and attaches
    their central differences as ``grad_y`` and ``grad_y_batches``; this is
    the one way to get y-gradients.  Such a field has no centre solve: its
    ``values``, ``batch_means`` and ``tail_bound`` are each the mean over
    those 2 d2 states of the state's own result, and ``se`` comes from
    those batch means.  Phi is smooth in y, so that mean differs from the
    centre's solution by delta^2 / 2 times the mean over j of
    d^2 Phi / dy_j^2, the order of the gradient's own error: far below the
    standard error at the default step, but a large ``delta_y`` makes it
    visible (0.24 SE at delta_y = 0.1 with the default ``Budgets``, on a 2-d
    slow state that sets the relaxation rate and the noise).
    """
    delta = _y_step(query.y, delta_y) if want_grad_y else None
    if centering_z is None:
        raise NotCentered("no centering evidence supplied; run centering_residual first")
    if not float(centering_z) <= 3.0:  # NaN is refused too
        raise NotCentered(f"centering z-score {float(centering_z):.3g} is not <= 3")

    k = codomain(f, query.t, query.points, query.y)
    ys = _shifted_states(query.y, delta) if want_grad_y else [query.y]
    batch_sums, batch_counts, windows = _path_sums(system, f, query, ys, k)

    # each state's own solution, batch means and tail bound
    vals = batch_sums.sum(axis=1) / query.n_paths        # (len(ys), Q, k)
    batch = batch_sums / batch_counts[:, None, None]     # (len(ys), nb, Q, k)
    w1, w2 = windows[:, 0] / query.n_paths, windows[:, 1] / query.n_paths
    ratio = np.clip(np.abs(w2) / np.maximum(np.abs(w1), 1e-300), 0.0, 0.97)
    tail = np.abs(w2) * ratio / (1.0 - ratio)
    tail[np.abs(w1) < 1e-300] = 0.0

    grad_y = grad_y_b = None
    if want_grad_y:
        grad_y = np.moveaxis((vals[0::2] - vals[1::2]) / (2 * delta), 0, -1)
        grad_y_b = np.moveaxis((batch[0::2] - batch[1::2]) / (2 * delta), 0, -1)
    batch_means = batch.mean(axis=0)
    se = batch_means.std(axis=0, ddof=1) / math.sqrt(query.n_batches)
    # the mean of the states' tail bounds bounds the tail of their mean
    return CorrectorField(
        query=query, values=vals.mean(axis=0), se=se, batch_means=batch_means,
        tail_bound=tail.mean(axis=0), grad_y=grad_y, grad_y_batches=grad_y_b)


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


def _node_derivatives(field: CorrectorField, values: Array,
                      order: int) -> tuple[Array, ...]:
    """Central-difference x-derivatives of grid values (Q, k) laid out on
    ``field``'s tensor grid, up to ``order``: the gradient (Q, k, d1) and, at
    order 2, the Hessian (Q, k, d1, d1).

    A node where a stencil does not reach holds NaN: the edge nodes of axis
    p for the p-th partials, and those of axes p and q for a mixed one.  A
    mixed partial is a difference along the later axis, then along the
    earlier one.
    """
    gshape = field.grid_shape
    d, k, Q = len(gshape), field.k, values.shape[0]
    vals_g = values.reshape(gshape + (k,))
    steps = [float(ax[1] - ax[0]) for ax in field.query.grid_axes]
    grad = np.full(gshape + (k, d), np.nan)
    for p in range(d):
        _interior(grad[..., p], (p,))[...] = _central(vals_g, p, steps[p])
    if order < 2:
        return (grad.reshape(Q, k, d),)
    hess = np.full(gshape + (k, d, d), np.nan)
    for p in range(d):
        _interior(hess[..., p, p], (p,))[...] = _central(vals_g, p, steps[p], order=2)
        for q in range(p + 1, d):
            mixed = _central(_central(vals_g, q, steps[q]), p, steps[p])
            _interior(hess[..., p, q], (p, q))[...] = mixed
            _interior(hess[..., q, p], (p, q))[...] = mixed
    return grad.reshape(Q, k, d), hess.reshape(Q, k, d, d)


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
    return replace(field, grad_x=_node_derivatives(field, field.values, 1)[0])


@dataclass(frozen=True)
class OuterProductResult:
    matrix: Array
    se: Array
    antisym_norm: float


def cloud_mean(mu: MeasureEnsemble, field: CorrectorField | None, per_sample,
               base: Array | None = None) -> tuple[Array, Array]:
    """Mean (m,) over the cloud ``mu`` of ``base`` (n, m), which carries no
    path noise, plus ``per_sample(values, grad_y) -> (n, m)``, a linear
    functional of ``field``'s grid values and y-gradients; with no field,
    the mean of ``base``.  The error adds in quadrature the chain error
    (``mu.se``) and the spread over sqrt(nb) of the nb means taken again on
    each batch's ``batch_means`` and ``grad_y_batches``.
    """
    se_f = 0.0
    if field is None:
        vals = base
    else:
        vals = per_sample(field.values, field.grad_y)
        if base is not None:
            vals = base + vals
        nb = field.batch_means.shape[0]
        gyb = field.grad_y_batches
        per_b = np.stack([
            per_sample(field.batch_means[b], None if gyb is None else gyb[b]).mean(axis=0)
            for b in range(nb)])
        se_f = per_b.std(axis=0, ddof=1) / math.sqrt(nb)
    return vals.mean(axis=0), np.sqrt(mu.se(vals) ** 2 + se_f ** 2)


def outer_product_HPhi(system: CoupledSystem, field: CorrectorField,
                       mu: MeasureEnsemble, t: float) -> OuterProductResult:
    """Symmetrized stationary average of H (solution)^T.

    ``field`` must hold the corrector solution for f = H at the same
    (t, y) as ``mu``.  The antisymmetric remainder is returned as a
    diagnostic only; the limit law depends on the symmetric part.

    The cells add this matrix once to G G^T; the coupled law takes it twice
    (ROADMAP direction 1).  ``bench/reference.r4_cell`` uses the same halved
    convention, so the factor changes only together with it.
    """
    d2 = system.d2
    if field.k != d2:
        raise ValueError("field codomain does not match the slow dimension")
    Hs = np.asarray(system.H(t, mu.samples, mu.y), dtype=np.float64)
    Hs = np.broadcast_to(Hs, (mu.n_samples, d2))

    def outer(values: Array, grad_y) -> Array:
        phi_s = _grid_at(field, values, mu.samples)     # (n, d2)
        return (Hs[:, :, None] * phi_s[:, None, :]).reshape(mu.n_samples, -1)

    mean, se = cloud_mean(mu, field, outer)
    M = mean.reshape(d2, d2)
    sym = 0.5 * (M + M.T)
    anti = 0.5 * (M - M.T)
    se = se.reshape(d2, d2)
    se = 0.5 * (se + se.T)
    return OuterProductResult(matrix=sym, se=se,
                              antisym_norm=float(np.linalg.norm(anti)))


def multilinear(base: Array, frac: Array, gather) -> Array:
    """Multilinear blend of the 2^d corner records of n cells.

    ``base`` (n, d) holds each cell's lowest corner index and ``frac``
    (n, d) the point's place in the cell, in [0, 1] per axis.
    ``gather(keys)`` returns the (2^d n, k) records at the integer keys
    (2^d n, d), corner after corner in ``itertools.product`` order.  Each
    weight is the product of ``frac`` or ``1 - frac`` over the axes, in
    axis order, and the weighted records are summed in corner order.
    """
    n, d = base.shape
    corners = np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int64)
    rows = gather((base + corners[:, None, :]).reshape(-1, d)).reshape(2 ** d, n, -1)
    out = None
    for corner, row in zip(corners, rows):
        w = np.ones(n)
        for j, o in enumerate(corner):
            w = w * (frac[:, j] if o else 1.0 - frac[:, j])
        out = w[:, None] * row if out is None else out + w[:, None] * row
    return out


def _interp_axes(axes, grid_values: Array, points: Array) -> Array:
    """Multilinear interpolation on a tensor grid, clamped at the edges.

    ``grid_values`` has the grid shape followed by arbitrary trailing axes.
    Above d = 1, ``searchsorted`` finds each point's cell for
    :func:`multilinear`.  At d = 1 it is ``np.interp``, which rounds half of
    the values differently in the last bit, so d1 = 1 cells stay unchanged.
    """
    d = len(axes)
    gshape = tuple(len(ax) for ax in axes)
    flat = grid_values.reshape(gshape + (-1,))
    if d == 1:
        out = np.stack([np.interp(points[:, 0], axes[0], col) for col in flat.T], axis=-1)
        return out.reshape((points.shape[0],) + grid_values.shape[d:])
    base = np.zeros(points.shape, dtype=np.int64)
    frac = np.zeros(points.shape)
    for j, ax in enumerate(axes):
        if len(ax) > 1:  # a one-node axis keeps base 0 and weight 0 on node 1
            p = np.clip(points[:, j], ax[0], ax[-1])
            i = base[:, j] = np.clip(np.searchsorted(ax, p, side="right") - 1,
                                     0, len(ax) - 2)
            frac[:, j] = (p - ax[i]) / (ax[i + 1] - ax[i])
    top = np.asarray(gshape) - 1
    out = multilinear(base, frac, lambda keys: flat[tuple(np.minimum(keys, top).T)])
    return out.reshape((points.shape[0],) + grid_values.shape[d:])


def _grid_at(field: CorrectorField, node_vals: Array, points: Array,
             derivative: int = 0) -> Array:
    """The one route from ``field``'s tensor grid to ``points``: clamped
    multilinear interpolation of per-node arrays (Q, ...), or with
    ``derivative`` 1 or 2 of the x-gradient (n, k, d1) or Hessian
    (n, k, d1, d1) of grid values (Q, k), read on the interior nodes alone.
    """
    axes = field.query.grid_axes
    gshape = field.grid_shape
    if derivative:
        node_vals = _node_derivatives(field, node_vals, derivative)[-1]
    grid = node_vals.reshape(gshape + node_vals.shape[1:])
    if derivative:
        grid = _interior(grid, range(len(gshape)))
        axes = tuple(ax[1:-1] for ax in axes)
    return _interp_axes(axes, grid, np.asarray(points, dtype=np.float64))
