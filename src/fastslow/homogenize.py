"""Regime-dependent averaged drift and diffusion, packaged as a limit equation.

Depending on the regime, the averaged drift picks up corrector corrections
(the intermediate drift contracted with the state gradient of the auxiliary
solution, and/or the fast-varying slow drift contracted with its parameter
gradient), and the averaged squared diffusion is augmented by the
symmetrized stationary average of H (solution)^T before the matrix square
root is taken.

Field evaluation is lazy and memoized on a quantized lattice with
deterministic per-cell sub-seeds, because a limit simulation only visits a
narrow tube of slow states.  A batch of states is read in one vectorized
lookup: np.unique's inverse alone (no stable sort) reduces the batch to its
distinct cells in sorted order, Python touches each distinct cell once, and
``np.take`` gathers the cell records back through the inverse.  One record
holds drift and diffusion together, so a limit path-step costs one lookup,
and the diffusion is read from it as a view.

The parameter derivative of an averaged value (:func:`transfer_derivative`)
is built on the same cloud and corrector solve as a cell.

The corrector is the deterministic grid solve of
:func:`fastslow.corrector.solve_poisson_fk` on a tensor grid spanning the
cloud.  So a cell's error is the cloud's chain error and the solve's grid
bias in quadrature, and a cell draws no random numbers beyond its cloud.

Every corrector term is the cloud mean of a linear functional of Phi (c .
grad_x Phi, H . grad_y Phi, H Phi^T, the transfer's d_e h + (d_e L) Phi),
written here per sample; Phi is read only through the corrector module's
one read-out (:func:`fastslow.corrector._grid_at` and
:func:`fastslow.corrector.cloud_mean`).

The squared diffusion adds sym E[H Phi^T] once; the coupled law takes it
twice (ROADMAP direction 1).  ``bench/reference.r4_cell`` is written in the
same halved convention, so the factor changes only together with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .corrector import (CorrectorField, CorrectorQuery, cloud_mean, codomain,
                        gradients, multilinear, outer_product_HPhi,
                        solve_poisson_fk, _grid_at, _MAX_NODES, _y_step)
from .ergodic import (MeasureEnsemble, average, centering_residual,
                      sample_invariant_measure)
from .errors import PSDFailure
from .model import CoupledSystem, Regime, _count, _real

Array = np.ndarray


@dataclass(frozen=True)
class Budgets:
    """Budgets for one averaged-coefficient evaluation.

    The ``invariant_*`` fields size the cloud; ``grid_points`` and
    ``grid_pad`` lay the corrector's grid over it (:func:`_solve_on_cloud`),
    and ``delta_y`` is the step of the y-gradients.  The grid's edges are
    zero-flux walls, whose pull on Phi its refinement does not see, so the
    pad keeps the cloud clear of them: at 0.75 the R3 drift of small
    ``ou_full`` clouds missed its exact value by over three errors in 3 of
    199 cells, at 1.5 in none.  ``corrector_paths``, ``corrector_tmax``,
    ``corrector_dt`` and ``n_batches`` are read by nothing; they sized the
    path-integral solver that the grid solve replaced, and are still
    checked so that configs that set them keep working.
    """

    invariant_samples: int = 20000
    invariant_burn_in: float = 10.0
    invariant_thinning: int = 5
    invariant_dt: float = 1e-3
    corrector_paths: int = 4000
    corrector_tmax: float = 8.0
    corrector_dt: float = 0.01
    grid_points: int = 21
    grid_pad: float = 1.5
    n_batches: int = 20
    delta_y: float | None = None

    def __post_init__(self):
        # checked here, not only by their consumers, so that a bad budget is
        # refused before any cloud is sampled, also in regimes with no solve
        for name, least in (("invariant_samples", 1), ("invariant_thinning", 1),
                            ("corrector_paths", 0), ("grid_points", 3), ("n_batches", 2)):
            _count(name, getattr(self, name), least)
        for name in ("invariant_burn_in", "invariant_dt", "corrector_tmax",
                     "corrector_dt"):
            _real(name, getattr(self, name))
        # grid_pad may be 0; a negative one turns the grid axes around
        _real("grid_pad", self.grid_pad, closed=True)
        if self.corrector_paths < self.n_batches:
            raise ValueError("corrector_paths must be >= n_batches")
        if self.delta_y is not None:  # a zero step makes every y-difference 0 / 0
            _real("delta_y", self.delta_y)


def psd_sqrt(M: Array, tol_psd: float | None = None) -> Array:
    """Symmetric PSD square root of each (d, d) matrix in ``M``, with small
    negative eigenvalues clamped.  ``tol_psd`` defaults to 1e-6 * |trace|; an
    eigenvalue below -tol_psd raises :class:`PSDFailure` (not a covariance).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("expected a square matrix")
    scale = float(np.abs(M).max()) if M.size else 0.0
    if not np.allclose(M, M.swapaxes(-1, -2), atol=1e-8 * max(scale, 1.0)):
        raise ValueError("matrix is not symmetric")
    Ms = 0.5 * (M + M.swapaxes(-1, -2))
    w, V = np.linalg.eigh(Ms)
    tol = (1e-6 * np.abs(np.trace(Ms, axis1=-2, axis2=-1)) if tol_psd is None
           else _real("tol_psd", tol_psd, closed=True))
    if np.any(w[..., 0] < -tol):
        raise PSDFailure(
            f"eigenvalue {w.min():.3g} below -{np.min(tol):.3g}; increase the MC "
            "budget or check the diffusion non-degeneracy")
    S = (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(V, -1, -2)
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def _needs(regime: Regime, want_drift: bool, want_diffusion: bool):
    gx = want_drift and regime in (Regime.R2, Regime.R4)
    gy = want_drift and regime in (Regime.R3, Regime.R4)
    vals = want_diffusion and regime in (Regime.R3, Regime.R4)
    return gx, gy, vals


def _cloud(system: CoupledSystem, y: Array, budgets: Budgets,
           seed: int) -> MeasureEnsemble:
    """Invariant cloud of the frozen fast equation at ``y``, sampled with
    the budgets' invariant settings."""
    return sample_invariant_measure(
        system, y, burn_in=budgets.invariant_burn_in,
        n_samples=budgets.invariant_samples, thinning=budgets.invariant_thinning,
        dt=budgets.invariant_dt, seed=seed)


def _solve_on_cloud(system: CoupledSystem, f, t: float, y: Array,
                    mu: MeasureEnsemble, budgets: Budgets, want_grad_y: bool,
                    cover: Array | None = None) -> tuple[CorrectorField, float]:
    """Corrector for ``f`` on a tensor grid spanning the cloud ``mu``.

    Each axis runs from the cloud's range widened by ``grid_pad`` on both
    sides, and over the points ``cover`` (n, d1) as well.  It has
    ``grid_points`` nodes, above d1 = 1 at most the 25 whose (2 n - 1)^2
    refinement fits the dense solve's ``_MAX_NODES``; at d1 >= 3 only
    ``grid_points`` <= 7 fits (the default 21 refines to 41^3 nodes).  The
    centering z of ``f`` on the cloud is the solve's evidence, returned
    with the field.
    """
    n_pts = budgets.grid_points
    if system.d1 > 1:
        n_pts = min(n_pts, (math.isqrt(_MAX_NODES) + 1) // 2)
    lo = mu.samples.min(axis=0) - budgets.grid_pad
    hi = mu.samples.max(axis=0) + budgets.grid_pad
    if cover is not None:
        lo, hi = np.minimum(lo, cover.min(axis=0)), np.maximum(hi, cover.max(axis=0))
    axes = tuple(np.linspace(lo[j], hi[j], n_pts) for j in range(system.d1))
    query = CorrectorQuery(t=t, y=y, grid_axes=axes)
    z = centering_residual(f, mu, t)
    # with want_grad_y only the y +/- delta states are solved, and the
    # field is their mean, O(delta^2) from the centre's solution
    fld = solve_poisson_fk(system, f, query, centering_z=z,
                           want_grad_y=want_grad_y, delta_y=budgets.delta_y)
    return fld, z


def _phi_fields(system: CoupledSystem, f, t: float, y: Array,
                mu: MeasureEnsemble, budgets: Budgets,
                need_gx: bool, need_gy: bool, need_vals: bool):
    """Solve the corrector for ``f`` on a sample-spanning grid.

    Each field enters the averages contracted with a weight on the cloud:
    c for the x-gradient, H for the y-gradient and for the H Phi values.  A
    field whose weight is 0.0 at every sample contributes exactly zero, so
    it is dropped; when none remains no solve (and no centering gate) runs.
    Returns the field (None without a solve), its centering z, whether H Phi
    is kept, and ``corrections(values, grad_y)``, the per-sample drift
    corrections (n, k) of the kept gradients.
    """
    n, xs = mu.n_samples, mu.samples
    if need_gx:
        c_s = np.broadcast_to(np.asarray(system.c(xs, mu.y), dtype=np.float64),
                              (n, system.d1))
        need_gx = bool(np.any(c_s != 0.0))
    if need_gy or need_vals:
        H_s = np.broadcast_to(np.asarray(system.H(t, xs, mu.y), dtype=np.float64),
                              (n, system.d2))
        live = bool(np.any(H_s != 0.0))
        need_gy, need_vals = need_gy and live, need_vals and live
    if not (need_gx or need_gy or need_vals):
        return None, None, False, None
    fld, z = _solve_on_cloud(system, f, t, y, mu, budgets, need_gy)
    if need_gx or need_gy:
        fld = gradients(fld)

    def corrections(values: Array, grad_y) -> Array:
        corr = np.zeros((n, fld.k))
        if need_gx:
            gx = _grid_at(fld, values, xs, derivative=1)
            corr = corr + np.einsum("nj,nkj->nk", c_s, gx)
        if need_gy:
            corr = corr + np.einsum("nj,nkj->nk", H_s, _grid_at(fld, grad_y, xs))
        return corr

    return fld, z, need_vals, corrections


@dataclass
class RegimeAverages:
    """Averaged coefficients at one (t, y); each error is the chain error
    and the corrector's grid bias in quadrature."""

    regime: Regime
    t: float
    y: Array
    fhat: Array | None
    fhat_se: Array | None
    ghat: Array | None
    cov: Array | None
    cov_se: Array | None
    diagnostics: dict


def regime_averages(system: CoupledSystem, regime: Regime, t: float, y,
                    budgets: Budgets = Budgets(), seed: int = 0,
                    want_drift: bool = True, want_diffusion: bool = True,
                    ) -> RegimeAverages:
    """Estimate the averaged drift/diffusion of the given regime at (t, y)."""
    if regime is Regime.UNCLASSIFIED:
        raise ValueError("cannot average an unclassified regime")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    mu = _cloud(system, y, budgets, rng.derive_key(seed, rng.LANE_AUX, 11))
    need_gx, need_gy, need_vals = _needs(regime, want_drift, want_diffusion)
    fld, z, keep_vals, corrections = _phi_fields(
        system, system.H, t, y, mu, budgets, need_gx, need_gy, need_vals)

    diags: dict = {"ess": mu.ess}
    if fld is not None:
        diags["centering_z"] = z

    fhat = fhat_se = None
    if want_drift:
        Fv = np.asarray(system.F(t, mu.samples, mu.y), dtype=np.float64)
        Fv = np.broadcast_to(Fv, (mu.n_samples, system.d2)).copy()
        fhat, fhat_se = cloud_mean(mu, fld, corrections, base=Fv)

    ghat = cov = cov_se = None
    if want_diffusion:
        Gv = np.asarray(system.G(t, mu.samples, mu.y), dtype=np.float64)
        if Gv.ndim == 2:
            cov = Gv @ Gv.T
            cov_se = np.zeros_like(cov)
        else:
            GG = Gv @ np.swapaxes(Gv, -1, -2)
            cov = GG.mean(axis=0)
            cov_se = mu.se(GG.reshape(mu.n_samples, -1)).reshape(cov.shape)
        if keep_vals:
            # two cloud means add, and their errors add in quadrature
            op = outer_product_HPhi(system, fld, mu, t)
            cov = cov + op.matrix
            cov_se = np.sqrt(cov_se ** 2 + op.se ** 2)
            diags["antisym_norm"] = op.antisym_norm
        ghat = psd_sqrt(cov)

    return RegimeAverages(regime=regime, t=t, y=y, fhat=fhat, fhat_se=fhat_se,
                          ghat=ghat, cov=cov, cov_se=cov_se, diagnostics=diags)


def corrector_corrections(system: CoupledSystem, f, regime: Regime, t: float,
                          y, budgets: Budgets = Budgets(), seed: int = 0,
                          ) -> tuple[Array, Array]:
    """Stationary average of the regime's corrector functionals for a
    general centered integrand ``f`` (codomain k).

    Returns the (k,) vector that the rescaled time integral of ``f`` along
    coupled paths converges to per unit time, plus its standard error.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    k = codomain(f, t, np.zeros((2, system.d1)), y)
    use_gx, use_gy, _ = _needs(regime, True, False)
    if not (use_gx or use_gy):
        return np.zeros(k), np.zeros(k)
    mu = _cloud(system, y, budgets, rng.derive_key(seed, rng.LANE_AUX, 11))
    fld, _, _, corrections = _phi_fields(
        system, f, t, y, mu, budgets, use_gx, use_gy, False)
    if fld is None:
        return np.zeros(k), np.zeros(k)
    return cloud_mean(mu, fld, corrections)


@dataclass(frozen=True)
class TransferEstimate:
    """A transfer derivative and its two terms.  ``se`` is the chain error
    and the corrector's grid bias in quadrature."""

    value: float
    se: float
    mean_term: float
    corrector_term: float


def transfer_derivative(h, system: CoupledSystem, y, direction,
                        budgets: Budgets = Budgets(), seed: int = 0,
                        t: float = 0.0) -> TransferEstimate:
    """Directional derivative of the averaged value of ``h`` without
    differentiating the invariant measure.

    Writes the derivative as the average of the directional derivative of h
    plus the derivative of the generator applied to the corrector Phi of
    (generator) Phi = -(h - average of h), all integrated against the
    sampled stationary cloud.  Coefficient derivatives are central finite
    differences of the user callables with the budgets' y-step; Phi comes
    from the same cloud, grid and solve as the cells' corrector, and its
    gradient and Hessian reach the cloud by the cells' route.  The ``se``
    adds the chain error and the grid bias in quadrature.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    e = np.asarray(direction, dtype=np.float64).reshape(-1)
    if e.shape != y.shape:
        raise ValueError("direction must match the slow dimension")
    nrm = _real("the norm of direction", np.linalg.norm(e))
    if not np.isclose(nrm, 1.0, atol=1e-8):
        e = e / nrm

    mu = _cloud(system, y, budgets, rng.derive_key(seed, rng.LANE_AUX, 1))
    hbar, _ = average(h, mu, t)
    if hbar.shape != (1,):
        raise ValueError("transfer_derivative expects scalar-valued h")
    hb = float(hbar[0])

    def f_centered(tt, x, yy):
        return np.asarray(h(tt, x, yy), dtype=np.float64) - hb

    field, _ = _solve_on_cloud(system, f_centered, t, y, mu, budgets, False)

    delta = _y_step(y, budgets.delta_y)
    yp, ym = y + delta * e, y - delta * e
    xs = mu.samples

    dyh = ((np.asarray(h(t, xs, yp), dtype=np.float64)
            - np.asarray(h(t, xs, ym), dtype=np.float64)) / (2 * delta)).reshape(-1)
    dyb = (np.asarray(system.b(xs, yp), dtype=np.float64)
           - np.asarray(system.b(xs, ym), dtype=np.float64)) / (2 * delta)
    dya = (system.fast_cov(xs, yp) - system.fast_cov(xs, ym)) / (2 * delta)
    dya = np.broadcast_to(dya, (xs.shape[0], system.d1, system.d1))

    def integrand(values: Array, grad_y) -> Array:
        """d_e h plus (d_e generator) Phi at the cloud, (n, 1)."""
        gs = _grid_at(field, values, xs, derivative=1)[:, 0]     # (n, d1)
        hs = _grid_at(field, values, xs, derivative=2)[:, 0]     # (n, d1, d1)
        return (dyh + (np.einsum("npq,npq->n", dya, hs)
                       + np.einsum("np,np->n", dyb, gs)))[:, None]

    mean, se = cloud_mean(mu, field, integrand)
    value = float(mean[0])
    return TransferEstimate(value=value, se=float(se[0]),
                            mean_term=float(dyh.mean()),
                            corrector_term=float(value - dyh.mean()))


@dataclass(frozen=True)
class CachePolicy:
    """Quantization of the (t, y) plane for memoized field evaluation."""

    quantum: float = 1e-2
    interpolate: bool = False
    t_quantum: float | None = None

    def __post_init__(self):
        # a zero, negative or non-finite quantum makes the lattice keys of
        # eval_batch inf or nan, which all land in one meaningless cell
        _real("quantum", self.quantum)
        if self.t_quantum is not None:
            _real("t_quantum", self.t_quantum)

    @property
    def tq(self) -> float:
        return self.quantum if self.t_quantum is None else self.t_quantum


def _distinct_rows(keys: Array) -> tuple[Array, Array]:
    """Distinct rows of an (n, d) integer array, in sorted order: the index
    of one occurrence of each, and for every row the position of its
    distinct row.

    The columns are folded into one code a column at a time and np.unique
    re-ranks the code after each fold, so codes stay below n and cannot
    overflow however far apart the rows lie.  np.unique returns only the
    inverse, which needs no stable sort; one scatter of the row numbers
    through it then picks an occurrence of each distinct row.
    """
    distinct, code = np.unique(keys[:, 0], return_inverse=True)
    for col in keys.T[1:]:
        _, rank = np.unique(col, return_inverse=True)
        distinct, code = np.unique(code * (rank.max() + 1) + rank,
                                   return_inverse=True)
    rows = np.empty(distinct.shape[0], dtype=np.intp)
    rows[code] = np.arange(code.shape[0])
    return rows, code


class CellField:
    """Memo of a vector field on the quantized lattice, read a batch at a time.

    ``fn(t, y, cell_seed) -> 1-d array`` is evaluated once per cell at the
    cell center with a sub-seed derived from (master seed, cell index), so
    values do not depend on visit order or batch split.

    :meth:`eval_batch` is the one lookup.  It rounds the batch to integer
    cell keys and reduces them to their distinct cells in numpy
    (:func:`_distinct_rows`: the inverse of np.unique, and one scatter for a
    row of each cell).  It touches Python once per distinct cell, in sorted
    key order (a dict read, or computing a missing cell), and gathers the
    records back with ``np.take`` through the inverse.  With interpolation
    it reads the 2^d2 corner cells of each row in that one lookup and blends
    them with :func:`fastslow.corrector.multilinear`.  Memory grows with the
    number of visited cells, not with their bounding box.
    """

    def __init__(self, fn: Callable, policy: CachePolicy, seed: int, autonomous: bool):
        self._fn = fn
        self._policy = policy
        self._seed = seed
        self._autonomous = autonomous
        self._memo: dict[tuple, Array] = {}

    @property
    def n_cells(self) -> int:
        return len(self._memo)

    def _record(self, key: tuple) -> Array:
        hit = self._memo.get(key)
        if hit is None:
            ti, *yi = key
            t_c = ti * self._policy.tq
            y_c = np.asarray(yi, dtype=np.float64) * self._policy.quantum
            cell_seed = rng.derive_key(self._seed, rng.LANE_CELL, ti, *yi)
            hit = np.asarray(self._fn(t_c, y_c, cell_seed), dtype=np.float64)
            self._memo[key] = hit
        return hit

    def _gather(self, ti: int, keys: Array) -> Array:
        """Records of the cells (ti, *row) for the rows of ``keys``."""
        rows, inverse = _distinct_rows(keys)
        recs = np.array([self._record((ti, *yi)) for yi in keys[rows].tolist()])
        return np.take(recs, inverse, axis=0)

    def eval_batch(self, t: float, Y: Array) -> Array:
        Y = np.asarray(Y, dtype=np.float64)
        q = self._policy.quantum
        ti = 0 if self._autonomous else int(round(t / self._policy.tq))
        if not self._policy.interpolate:
            return self._gather(ti, np.rint(Y / q).astype(np.int64))
        # the 2^d2 corner cells of every row, gathered in one lookup
        base = np.floor(Y / q).astype(np.int64)
        return multilinear(base, Y / q - base, lambda keys: self._gather(ti, keys))

    def provenance(self) -> dict:
        return {
            "n_cells": self.n_cells,
            "quantum": self._policy.quantum,
            "interpolate": self._policy.interpolate,
            "seed": self._seed,
        }


class AveragedSDE:
    """Evaluable limit equation: one coefficient lookup plus provenance.

    ``coefficients_batch(t, Y)`` returns the drift (n, d2) and diffusion
    (n, d2, d2) of a batch of slow states from one pass over the fields;
    ``Fhat`` and ``Ghat`` read one slow state from it.
    """

    def __init__(self, regime: Regime, d2: int, coefficients_batch: Callable,
                 provenance: Callable[[], dict]):
        self.regime = regime
        self.d2 = d2
        self._coefficients = coefficients_batch
        self._prov = provenance

    def coefficients_batch(self, t: float, Y: Array) -> tuple[Array, Array]:
        return self._coefficients(t, np.asarray(Y, dtype=np.float64))

    def Fhat(self, t: float, y) -> Array:
        return self.coefficients_batch(t, np.reshape(y, (1, -1)))[0][0]

    def Ghat(self, t: float, y) -> Array:
        return self.coefficients_batch(t, np.reshape(y, (1, -1)))[1][0]

    def provenance(self) -> dict:
        return self._prov()

    @classmethod
    def from_callables(cls, regime: Regime, d2: int, fhat, ghat) -> "AveragedSDE":
        """Wrap closed-form fields (mainly for tests and known limits).

        ``fhat(t, Y)`` and ``ghat(t, Y)`` are called once per batch with the
        slow states ``Y`` of shape (n, d2), as coefficients are.  They return
        the drift as (n, d2) and the diffusion as (n, d2, d2), or anything
        that broadcasts to these, such as one (d2,) drift or one (d2, d2)
        matrix for every row.
        """

        def coefficients(t, Y):
            n = Y.shape[0]
            drift = np.asarray(fhat(t, Y), dtype=np.float64)
            diff = np.asarray(ghat(t, Y), dtype=np.float64)
            return (np.broadcast_to(drift, (n, d2)),
                    np.broadcast_to(diff, (n, d2, d2)))

        return cls(regime, d2, coefficients, lambda: {"source": "callables"})


def build_limit_sde(regime: Regime, system: CoupledSystem,
                    budgets: Budgets = Budgets(),
                    cache_policy: CachePolicy = CachePolicy(),
                    seed: int = 0) -> AveragedSDE:
    """Limit equation whose fields lazily invoke the averaged estimators.

    Each lattice cell evaluates drift and covariance together (they share
    the invariant cloud and corrector solve) and caches the PSD square root
    in the same record, so one lookup serves both fields.
    """
    d2 = system.d2

    def cell_fn(t_c: float, y_c: Array, cell_seed: int) -> Array:
        ra = regime_averages(system, regime, t_c, y_c, budgets, cell_seed)
        return np.concatenate([ra.fhat, ra.cov.ravel(), ra.ghat.ravel()])

    field = CellField(cell_fn, cache_policy, seed, system.autonomous)

    def coefficients_batch(t, Y):
        rec = field.eval_batch(t, Y)
        if cache_policy.interpolate:
            return rec[:, :d2], psd_sqrt(rec[:, d2:d2 + d2 * d2].reshape(-1, d2, d2))
        return rec[:, :d2], rec[:, d2 + d2 * d2:].reshape(-1, d2, d2)

    return AveragedSDE(regime, d2, coefficients_batch, field.provenance)
