"""Deterministic solution of the auxiliary equation on a tensor grid.

The corrector solves L Phi = -f for the frozen generator L = b . grad +
a : grad^2, a = sigma sigma^T / 2.  On the query's tensor grid, L becomes
the generator L_h of a Markov chain with non-negative rates (Kushner &
Dupuis 2001, *Numerical Methods for Stochastic Control Problems in
Continuous Time*), and L_h Phi_h = -(f - pi_h f) is solved, pi_h the
chain's invariant law:

- along each axis, b and a_ii give Scharfetter-Gummel rates (Scharfetter &
  Gummel 1969), exponentially fitted to the drift of each edge; no rate
  leaves the grid (zero-flux edges);
- each off-diagonal a_ij moves to the diagonal neighbours x +- (h_i e_i +
  s h_j e_j), s the sign of a_ij, at rate |a_ij| / (h_i h_j), and takes
  that share off the axis rates, which stay non-negative while
  a_ii h_j >= sum_{j != i} |a_ij| h_i; a system that breaks this at a node
  has no monotone stencil and is refused;
- one dense bordered solve gives pi_h, one more Phi_h with pi_h Phi_h = 0.

Each solve runs on the query grid of n nodes per axis and on its 2n - 1-node
refinement.  The field holds the refined solution at the query nodes and the
query grid's beside it; their gap is the grid bias estimate.  The
y-gradients are central differences between solves at y +/- delta, on the
same grids, with no centre solve.

This module also holds the one read-out of a grid-solved corrector at free
points such as a cloud's samples: :func:`_node_derivatives` (x-gradient and
Hessian on the grid, NaN where the central stencil does not reach),
:func:`_grid_at` (node arrays to the points, derivatives through the
interior nodes alone) and :func:`cloud_mean` (the mean of a linear
functional of the solution with the chain error and the grid bias in
quadrature).  The :class:`GridTooCoarse` gate keeps its own unit-spacing
differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import GridTooCoarse, NotCentered
from .ergodic import MeasureEnsemble
from .model import CoupledSystem, _count, _require_finite

Array = np.ndarray

# gradients() refuses a grid whose median second difference exceeds this
# fraction of the median first difference (and clears the noise floor)
_COARSE_TOL = 0.5

# the most nodes a refined grid may have: the solve holds a few dense
# (N, N) float64 matrices, about 50 MB each at this N, and costs O(N^3)
_MAX_NODES = 2500


def _nodes(axes) -> Array:
    """The (N, d) nodes of the tensor grid ``axes``, "ij" order."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@dataclass(frozen=True)
class CorrectorQuery:
    """Tensor grid of fast states for one solve: one 1-d axis per
    coordinate, evenly spaced and increasing (or of a single node);
    ``points`` are the (Q, d1) nodes, "ij" order.

    ``T_max``, ``n_paths`` and ``dt`` are read by no solve: they are the
    budgets of the path-integral solver this grid solve replaced, still
    checked and still counted by the benchmark's span tracer.
    """

    t: float
    y: Array
    grid_axes: tuple
    T_max: float = 10.0
    n_paths: int = 10000
    dt: float = 0.01
    points: Array = dc_field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64).reshape(-1))
        axes = tuple(np.asarray(ax, dtype=np.float64) for ax in self.grid_axes)
        if not axes or any(ax.ndim != 1 or ax.size < 1 for ax in axes):
            raise ValueError("grid_axes must be non-empty 1-d axes")
        for j, ax in enumerate(axes):  # the rates and the refinement read one spacing
            steps = np.diff(ax)
            if not (np.all(steps > 0) and np.allclose(steps, steps[:1], rtol=1e-6, atol=0)):
                raise ValueError(f"grid axis {j} must be evenly spaced and increasing")
        object.__setattr__(self, "grid_axes", axes)
        object.__setattr__(self, "points", _nodes(axes))
        if not (0 < self.T_max < math.inf and 0 < self.dt < math.inf):
            raise ValueError("T_max and dt must be finite and > 0")
        _count("n_paths", self.n_paths)


@dataclass
class CorrectorField:
    """Grid-solved corrector on the query points.

    ``values`` (Q, k), k the codomain of the integrand, is the refined
    solution read at the query nodes and ``coarse`` the query grid's own;
    ``se`` is their gap, and :func:`cloud_mean` carries it through a linear
    functional by applying that to both.  ``grad_y`` and ``coarse_grad_y``
    come from the solve (``want_grad_y``), :func:`gradients` attaches
    ``grad_x``.
    """

    query: CorrectorQuery
    values: Array
    coarse: Array
    grad_x: Array | None = None
    grad_y: Array | None = None
    coarse_grad_y: Array | None = None

    @property
    def se(self) -> Array:
        """Grid bias estimate per node and component: |refined - query grid|."""
        return np.abs(self.values - self.coarse)

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


def _bernoulli(z: Array) -> Array:
    """B(z) = z / (e^z - 1), with B(0) = 1; B(z) -> 0 as z -> inf."""
    out = np.ones_like(z)
    nz = z != 0.0
    with np.errstate(over="ignore"):
        out[nz] = z[nz] / np.expm1(z[nz])
    return out


def _edge_pairs(index: Array, offset) -> tuple[Array, Array]:
    """Flat indices of every node of the grid ``index`` whose neighbour at
    the integer ``offset`` lies on the grid, and of that neighbour."""
    src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, index.shape))
    dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(offset, index.shape))
    return index[src].ravel(), index[dst].ravel()


def _generator(system: CoupledSystem, y: Array, axes, X: Array) -> Array:
    """Rate matrix (N, N) of the monotone Markov chain that stands for the
    frozen generator at ``y`` on the tensor grid ``axes`` of nodes ``X``;
    the diagonal makes each row sum to 0."""
    shape = tuple(len(ax) for ax in axes)
    N, d = X.shape
    # a one-node axis has no moves, and so takes no share of the others'
    h = [float(ax[1] - ax[0]) if len(ax) > 1 else math.inf for ax in axes]
    b = np.broadcast_to(_require_finite("b", system.b(X, y)), (N, d))
    a = np.broadcast_to(_require_finite("sigma", system.fast_cov(X, y)), (N, d, d))
    index = np.arange(N).reshape(shape)
    rates = np.zeros((N, N))
    for i in range(d):
        if shape[i] < 2:
            continue
        # a_ii less the share that the off-diagonal moves take over
        a_axis = a[:, i, i] - sum(np.abs(a[:, i, j]) * (h[i] / h[j])
                                  for j in range(d) if j != i)
        if np.any(a_axis < 0.0):
            node = X[int(np.argmax(a_axis < 0.0))]
            raise NotImplementedError(
                f"no monotone stencil: a_ii h_j < sum_j |a_ij| h_i on axis {i} "
                f"at node {node.tolist()}")
        lo, hi = _edge_pairs(index, [int(j == i) for j in range(d)])
        drift = 0.5 * (b[lo, i] + b[hi, i])
        diff = 0.5 * (a_axis[lo] + a_axis[hi])
        live = diff > 0.0
        # exponential fitting: B(-z) - B(z) = z, so the mean move is the
        # drift, and the rates go over to upwinding where diff is 0
        z = np.where(live, drift * h[i] / np.where(live, diff, 1.0), 0.0)
        rates[lo, hi] = np.where(live, diff * _bernoulli(-z) / h[i] ** 2,
                                 np.maximum(drift, 0.0) / h[i])
        rates[hi, lo] = np.where(live, diff * _bernoulli(z) / h[i] ** 2,
                                 np.maximum(-drift, 0.0) / h[i])
    for i, j in itertools.combinations(range(d), 2):
        for oi, oj in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            off = [0] * d
            off[i], off[j] = oi, oj
            src, dst = _edge_pairs(index, off)
            a_ij = a[src, i, j] * (oi * oj)
            rates[src, dst] += np.where(a_ij > 0.0, a_ij, 0.0) / (h[i] * h[j])
    rates[np.diag_indices(N)] = -rates.sum(axis=1)
    return rates


def _grid_solve(system: CoupledSystem, f, t: float, y: Array, axes, k: int) -> Array:
    """Phi_h (N, k) on the tensor grid ``axes``: L_h Phi_h = -(f - pi_h f)
    with pi_h Phi_h = 0, from two dense solves bordered by the constraint."""
    X = _nodes(axes)
    Q = _generator(system, y, axes, X)
    N = X.shape[0]
    fv = np.asarray(f(t, X, y), dtype=np.float64)
    fv = _require_finite("f", np.broadcast_to(fv[:, None] if fv.ndim == 1 else fv, (N, k)))
    M = np.zeros((N + 1, N + 1))
    M[:N, :N] = Q.T
    M[:N, N] = 1.0
    M[N, :N] = 1.0
    rhs = np.zeros(N + 1)
    rhs[N] = 1.0
    pi = np.linalg.solve(M, rhs)[:N]
    M[:N, :N] = Q
    M[N, :N] = pi
    rhs = np.zeros((N + 1, k))
    rhs[:N] = -(fv - pi @ fv)
    return np.linalg.solve(M, rhs)[:N]


def solve_poisson_fk(system: CoupledSystem, f, query: CorrectorQuery,
                     centering_z: float | None = None,
                     want_grad_y: bool = False,
                     delta_y: float | None = None) -> CorrectorField:
    """Corrector Phi of (generator) Phi = -f at every query point: the grid
    solve of this module on the query grid and on its refinement.

    The caller centers ``f`` on the cloud (:func:`fastslow.ergodic.average`)
    and passes the z-score from :func:`fastslow.ergodic.centering_residual`
    as ``centering_z``; a z above 3, or NaN, is refused.  The grid is the
    solve's domain, with zero-flux walls, so it must span the frozen law
    with room to spare.  Its refinement may hold at most ``_MAX_NODES``
    nodes, for the dense solves: at the cells' grid that admits d1 <= 2
    (19^3 nodes at d1 = 3 do not fit).

    With ``want_grad_y`` the solve runs only at the slow states y +/- delta
    along each slow coordinate (``delta_y``, default 1e-3 * max(1, |y|)),
    and attaches their central differences as ``grad_y`` and
    ``coarse_grad_y``; this is the one way to get y-gradients.  Such a
    field's ``values`` and ``coarse`` are the means over those 2 d2 states,
    which differ from the centre's by delta^2 / 2 times the mean over j of
    d^2 Phi / dy_j^2, the order of the gradient's own error.
    """
    delta = _y_step(query.y, delta_y) if want_grad_y else None
    if centering_z is None:
        raise NotCentered("no centering evidence supplied; run centering_residual first")
    if not float(centering_z) <= 3.0:  # NaN is refused too
        raise NotCentered(f"centering z-score {float(centering_z):.3g} is not <= 3")
    d1 = len(query.grid_axes)
    n_fine = math.prod(2 * len(ax) - 1 for ax in query.grid_axes)
    if n_fine > _MAX_NODES:
        raise NotImplementedError(
            f"the refined grid has {n_fine} nodes (d1 = {d1}), above the dense "
            f"solve's limit of {_MAX_NODES}")

    k = codomain(f, query.t, query.points, query.y)
    ys = _shifted_states(query.y, delta) if want_grad_y else [query.y]
    axes = query.grid_axes
    fine_axes = tuple(np.linspace(ax[0], ax[-1], 2 * len(ax) - 1) for ax in axes)
    gshape = tuple(len(ax) for ax in fine_axes)
    at_nodes = (slice(None, None, 2),) * d1
    coarse = np.stack([_grid_solve(system, f, query.t, y_s, axes, k) for y_s in ys])
    fine = np.stack([
        _grid_solve(system, f, query.t, y_s, fine_axes, k).reshape(gshape + (k,))
        [at_nodes].reshape(-1, k)
        for y_s in ys])

    grad_y = coarse_grad_y = None
    if want_grad_y:
        grad_y = np.moveaxis((fine[0::2] - fine[1::2]) / (2 * delta), 0, -1)
        coarse_grad_y = np.moveaxis((coarse[0::2] - coarse[1::2]) / (2 * delta), 0, -1)
    return CorrectorField(query=query, values=fine.mean(axis=0),
                          coarse=coarse.mean(axis=0), grad_y=grad_y,
                          coarse_grad_y=coarse_grad_y)


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
    grid bias, plus ``per_sample(values, grad_y) -> (n, m)``, a linear
    functional of ``field``'s grid values and y-gradients; with no field,
    the mean of ``base``.  The error adds in quadrature the chain error
    (``mu.se``) and the grid bias: the gap between the functional's means
    on the refined solution and on the query grid's (``coarse``,
    ``coarse_grad_y``).
    """
    bias = 0.0
    if field is None:
        vals = base
    else:
        vals = per_sample(field.values, field.grad_y)
        bias = np.abs(vals.mean(axis=0)
                      - per_sample(field.coarse, field.coarse_grad_y).mean(axis=0))
        if base is not None:
            vals = base + vals
    return vals.mean(axis=0), np.sqrt(mu.se(vals) ** 2 + bias ** 2)


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
    M, S = mean.reshape(d2, d2), se.reshape(d2, d2)
    return OuterProductResult(matrix=0.5 * (M + M.T), se=0.5 * (S + S.T),
                              antisym_norm=float(np.linalg.norm(0.5 * (M - M.T))))


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
