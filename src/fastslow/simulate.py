"""Stiff Euler-Maruyama integration of the coupled, frozen and limit equations.

The coupled integrator splits time scales: the slow state advances on a
macro grid of target step ``dt_slow`` while the fast state takes micro
substeps of size alpha**2/nu inside each macro interval (with the slow
state held at its macro value).  The fast-varying slow drift is evaluated
at every micro substep and time-averaged over the interval before it is
applied, which removes most of the discretization bias of that stiff term.

All Brownian increments come from counter-based streams keyed by
(seed, lane, path index, step index), so results are bit-identical for any
chunk size.  The chunks run one after another in one loop.  Each chunk keys
its draws through one :class:`fastslow.rng.PathIndex`, so the path part of
the hash is computed once per chunk and lane, not at every step.

Inside a macro step the coupled integrator draws the fast increments a
block of micro steps at a time (:func:`fastslow.rng.block_steps`).  A noise
coefficient without batch axes is state-independent at the macro step's
frozen slow state (see :mod:`fastslow.model`), so it is evaluated once per
macro step and multiplied into a whole block at once; one with batch axes
is evaluated at every micro step.  Every noise product goes through
:func:`fastslow.model.apply_matrix`, and the fast state, its drift and the
micro-step accumulators are updated in place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import BlowUp, NonFiniteCoefficient
from .model import CoupledSystem, ScaleSchedule, apply_matrix

Array = np.ndarray


@dataclass(frozen=True)
class PathConfig:
    """Discretization and ensemble parameters for one coupled run.

    ``dt_slow`` is a target: the macro step actually used is T/n for the
    nearest integer n, so the grid lands exactly on T.  The fast micro step
    is alpha**2 / micro_substeps_per_alpha2, capped at the macro step.
    ``n_workers`` is kept for existing callers and must be 1.
    """

    T: float
    dt_slow: float
    micro_substeps_per_alpha2: int = 10
    seed: int = 0
    n_paths: int = 1
    blowup_cap: float = 1e6
    snapshot_times: tuple[float, ...] | None = None
    record_fast: bool = False
    chunk_size: int = 8192
    n_workers: int = 1

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.dt_slow <= 0:
            raise ValueError("dt_slow must be > 0")
        if self.micro_substeps_per_alpha2 < 1:
            raise ValueError("micro_substeps_per_alpha2 must be >= 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        _check_one_worker(self.n_workers)


@dataclass
class EnsembleResult:
    """Ensemble output; arrays are indexed by global path id."""

    terminal_slow: Array | None
    terminal_fast: Array | None
    snapshot_times: Array | None
    snapshots_slow: Array | None
    snapshots_fast: Array | None
    max_abs_fast: Array | None
    integrals: Array | None
    macro_integrals: Array | None
    stream_ids: Array
    seed: int

    @property
    def n_paths(self) -> int:
        return int(self.stream_ids.shape[0])

    def write_csv(self, path, include_fast: bool = False) -> None:
        """Dump recorded macro-node snapshots, one row per (path, node)."""
        if self.snapshots_slow is None:
            raise ValueError("no snapshots were recorded")
        d2 = self.snapshots_slow.shape[-1]
        header = ["path_id", "t"] + [f"y_{j + 1}" for j in range(d2)]
        fast = None
        if include_fast:
            if self.snapshots_fast is None:
                raise ValueError("fast snapshots were not recorded")
            fast = self.snapshots_fast
            header += [f"x_{j + 1}" for j in range(fast.shape[-1])]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for p in range(self.n_paths):
                for i, t in enumerate(self.snapshot_times):
                    row = [p, repr(float(t))]
                    row += [repr(float(v)) for v in self.snapshots_slow[i, p]]
                    if fast is not None:
                        row += [repr(float(v)) for v in fast[i, p]]
                    w.writerow(row)


def _vec(v, d: int, name: str) -> Array:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.shape == (1,) and d > 1:
        arr = np.full(d, arr[0])
    if arr.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {np.shape(v)}")
    return arr


def _check_state(tag: str, state: Array, cap: float, t: float, lo: int) -> None:
    norms = np.linalg.norm(state, axis=-1)
    bad = ~np.isfinite(norms)
    if bad.any():
        idx = lo + int(np.argmax(bad))
        raise NonFiniteCoefficient(f"{tag} state became non-finite on path {idx} near t={t:.6g}")
    over = norms > cap
    if over.any():
        idx = lo + int(np.argmax(over))
        raise BlowUp(f"{tag} state exceeded cap {cap:g} on path {idx} near t={t:.6g}")


def _snap_indices(times, dt: float, n_steps: int) -> list[int]:
    idx = []
    for t in times:
        i = int(round(t / dt))
        if i < 0 or i > n_steps or abs(i * dt - t) > 0.5 * dt + 1e-12:
            raise ValueError(f"snapshot time {t} does not sit on the macro grid")
        idx.append(i)
    return idx


def _check_one_worker(n_workers: int) -> None:
    if n_workers != 1:
        raise ValueError(f"n_workers must be 1 (paths run in one loop), got {n_workers!r}")


def _run_chunks(n_paths: int, chunk: int, body) -> None:
    """Run ``body(lo, hi)`` over consecutive chunks of ``chunk`` paths."""
    if chunk < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk!r}")
    for lo in range(0, n_paths, chunk):
        body(lo, min(lo + chunk, n_paths))


def integrate_coupled(system: CoupledSystem, schedule: ScaleSchedule, eps: float,
                      x0, y0, cfg: PathConfig, integrand=None,
                      macro_integrand=None) -> EnsembleResult:
    """Simulate the coupled pair on [0, T] for an ensemble of paths.

    ``integrand(t, x, y)`` is accumulated as a left-endpoint time integral
    along the micro grid (one value per path); ``macro_integrand(t, y)``
    likewise along the macro grid.  Both are optional.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    al, be, ga = schedule.scales(eps)
    d1, d2 = system.d1, system.d2
    x_init = _vec(x0, d1, "x0")
    y_init = _vec(y0, d2, "y0")

    n_macro = max(1, int(round(cfg.T / cfg.dt_slow))) if cfg.T > 0 else 0
    dt = cfg.T / n_macro if n_macro else 0.0
    h_fast = al * al / cfg.micro_substeps_per_alpha2
    n_micro = max(1, int(math.ceil(dt / h_fast - 1e-12))) if n_macro else 1
    h = dt / n_micro if n_macro else 0.0

    snap_idx = None
    snaps_y = snaps_x = snap_t = None
    if cfg.snapshot_times is not None:
        snap_idx = _snap_indices(cfg.snapshot_times, dt if n_macro else 1.0, n_macro)
        snap_t = np.asarray(cfg.snapshot_times, dtype=np.float64)
        snaps_y = np.empty((len(snap_idx), cfg.n_paths, d2))
        if cfg.record_fast:
            snaps_x = np.empty((len(snap_idx), cfg.n_paths, d1))

    term_y = np.empty((cfg.n_paths, d2))
    term_x = np.empty((cfg.n_paths, d1))
    max_abs = np.zeros(cfg.n_paths)
    acc_store: list[Array | None] = [None]
    macc_store: list[Array | None] = [None]

    inv_a2 = 1.0 / (al * al)
    inv_b = 1.0 / be
    inv_g = 1.0 / ga
    sq_h = math.sqrt(h) / al if n_macro else 0.0
    sq_dt = math.sqrt(dt) if n_macro else 0.0

    def body(lo: int, hi: int) -> None:
        m = hi - lo
        paths = rng.PathIndex(np.arange(lo, hi))
        block = rng.block_steps(m)
        X = np.tile(x_init, (m, 1))
        Y = np.tile(y_init, (m, 1))
        acc = None
        macc = None
        mx = np.linalg.norm(X, axis=-1)
        drift = np.empty((m, d1))
        c_term = np.empty((m, d1))
        Hsum = np.empty((m, d2))

        def record(node: int) -> None:
            if snap_idx is None:
                return
            for si, ni in enumerate(snap_idx):
                if ni == node:
                    snaps_y[si, lo:hi] = Y
                    if snaps_x is not None:
                        snaps_x[si, lo:hi] = X

        record(0)
        for mi in range(n_macro):
            tm = mi * dt
            # copies: X is updated in place below, and a coefficient may
            # return a view of it
            Fm = np.array(system.F(tm, X, Y), dtype=np.float64)
            Gm = np.array(system.G(tm, X, Y), dtype=np.float64)
            if macro_integrand is not None:
                val = np.asarray(macro_integrand(tm, Y), dtype=np.float64)
                if val.ndim == 1:
                    val = val[:, None]
                macc = val * dt if macc is None else macc + val * dt
            Hsum.fill(0.0)
            sig = np.asarray(system.sigma(X, Y), dtype=np.float64)
            per_step = sig.ndim != 2
            for j0 in range(0, n_micro, block):
                nb = min(block, n_micro - j0)
                k0 = mi * n_micro + j0
                steps = np.arange(k0, k0 + nb, dtype=np.uint64)[:, None]
                z = rng.normals(cfg.seed, rng.LANE_FAST, paths, steps, d1)
                if not per_step:
                    # sigma is fixed for the macro step: the noise of the
                    # whole block is one product
                    z = apply_matrix(sig, z)
                    z *= sq_h
                for j in range(j0, j0 + nb):
                    tj = tm + j * h
                    Hsum += system.H(tj, X, Y)
                    if integrand is not None:
                        val = np.asarray(integrand(tj, X, Y), dtype=np.float64)
                        if val.ndim == 1:
                            val = val[:, None]
                        if acc is None:
                            acc = val * h
                        else:
                            acc += val * h
                    if per_step:
                        if j:
                            sig = np.asarray(system.sigma(X, Y), dtype=np.float64)
                        noise = apply_matrix(sig, z[j - j0])
                        noise *= sq_h
                    else:
                        noise = z[j - j0]
                    # X + (b / alpha^2 + c / beta) h + noise, in this order
                    np.multiply(np.asarray(system.b(X, Y), dtype=np.float64),
                                inv_a2, out=drift)
                    np.multiply(np.asarray(system.c(X, Y), dtype=np.float64),
                                inv_b, out=c_term)
                    drift += c_term
                    drift *= h
                    X += drift
                    X += noise
            z2 = rng.normals(cfg.seed, rng.LANE_SLOW, paths, np.uint64(mi), d2)
            Y = Y + (Fm + Hsum * (inv_g / n_micro)) * dt + apply_matrix(Gm, z2) * sq_dt
            _check_state("fast", X, cfg.blowup_cap, tm + dt, lo)
            _check_state("slow", Y, cfg.blowup_cap, tm + dt, lo)
            mx = np.maximum(mx, np.linalg.norm(X, axis=-1))
            record(mi + 1)

        term_y[lo:hi] = Y
        term_x[lo:hi] = X
        max_abs[lo:hi] = mx
        if acc is not None:
            if acc_store[0] is None:
                acc_store[0] = np.zeros((cfg.n_paths, acc.shape[1]))
            acc_store[0][lo:hi] = acc
        if macc is not None:
            if macc_store[0] is None:
                macc_store[0] = np.zeros((cfg.n_paths, macc.shape[1]))
            macc_store[0][lo:hi] = macc

    _run_chunks(cfg.n_paths, cfg.chunk_size, body)
    return EnsembleResult(
        terminal_slow=term_y, terminal_fast=term_x,
        snapshot_times=snap_t, snapshots_slow=snaps_y, snapshots_fast=snaps_x,
        max_abs_fast=max_abs,
        integrals=acc_store[0], macro_integrals=macc_store[0],
        stream_ids=np.arange(cfg.n_paths, dtype=np.uint64), seed=cfg.seed)


def integrate_frozen(system: CoupledSystem, y, x0, T: float, dt: float,
                     seed: int, n_paths: int, blowup_cap: float = 1e6,
                     chunk_size: int = 8192) -> EnsembleResult:
    """Simulate the fast equation with the slow state held fixed at ``y``."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    d1 = system.d1
    x_init = _vec(x0, d1, "x0")
    y_fix = _vec(y, system.d2, "y")
    n_steps = max(1, int(round(T / dt))) if T > 0 else 0
    hE = T / n_steps if n_steps else 0.0
    sq = math.sqrt(hE)

    term_x = np.empty((n_paths, d1))
    max_abs = np.zeros(n_paths)

    def body(lo: int, hi: int) -> None:
        m = hi - lo
        paths = rng.PathIndex(np.arange(lo, hi))
        X = np.tile(x_init, (m, 1))
        mx = np.linalg.norm(X, axis=-1)
        for k in range(n_steps):
            z = rng.normals(seed, rng.LANE_FAST, paths, np.uint64(k), d1)
            X = X + np.asarray(system.b(X, y_fix), dtype=np.float64) * hE \
                + apply_matrix(system.sigma(X, y_fix), z) * sq
            if (k & 63) == 63 or k == n_steps - 1:
                _check_state("fast", X, blowup_cap, (k + 1) * hE, lo)
            mx = np.maximum(mx, np.linalg.norm(X, axis=-1))
        term_x[lo:hi] = X
        max_abs[lo:hi] = mx

    _run_chunks(n_paths, chunk_size, body)
    return EnsembleResult(
        terminal_slow=None, terminal_fast=term_x,
        snapshot_times=None, snapshots_slow=None, snapshots_fast=None,
        max_abs_fast=max_abs, integrals=None, macro_integrals=None,
        stream_ids=np.arange(n_paths, dtype=np.uint64), seed=seed)


def integrate_limit(avg, y0, T: float, dt: float, seed: int, n_paths: int,
                    blowup_cap: float = 1e6, snapshot_times=None,
                    chunk_size: int = 8192, n_workers: int = 1) -> EnsembleResult:
    """Euler-Maruyama for an averaged equation with evaluable fields.

    Each step reads drift and diffusion of the whole chunk with one call of
    ``avg.coefficients_batch``; for a memoized limit field that is one
    vectorized lattice lookup per step.  Shares the slow-noise lane with
    :func:`integrate_coupled`, so running both with the same seed and macro
    step pairs their driving increments.  ``n_workers`` is kept for
    existing callers and must be 1.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    _check_one_worker(n_workers)
    d2 = avg.d2
    y_init = _vec(y0, d2, "y0")
    n_steps = max(1, int(round(T / dt))) if T > 0 else 0
    dtE = T / n_steps if n_steps else 0.0
    sq = math.sqrt(dtE)

    snap_idx = None
    snaps_y = snap_t = None
    if snapshot_times is not None:
        snap_idx = _snap_indices(snapshot_times, dtE if n_steps else 1.0, n_steps)
        snap_t = np.asarray(snapshot_times, dtype=np.float64)
        snaps_y = np.empty((len(snap_idx), n_paths, d2))

    term_y = np.empty((n_paths, d2))

    def body(lo: int, hi: int) -> None:
        m = hi - lo
        paths = rng.PathIndex(np.arange(lo, hi))
        Y = np.tile(y_init, (m, 1))

        def record(node: int) -> None:
            if snap_idx is None:
                return
            for si, ni in enumerate(snap_idx):
                if ni == node:
                    snaps_y[si, lo:hi] = Y

        record(0)
        for k in range(n_steps):
            tk = k * dtE
            drift, diff = avg.coefficients_batch(tk, Y)
            z = rng.normals(seed, rng.LANE_SLOW, paths, np.uint64(k), d2)
            Y = Y + drift * dtE + apply_matrix(diff, z) * sq
            _check_state("limit", Y, blowup_cap, tk + dtE, lo)
            record(k + 1)
        term_y[lo:hi] = Y

    _run_chunks(n_paths, chunk_size, body)
    return EnsembleResult(
        terminal_slow=term_y, terminal_fast=None,
        snapshot_times=snap_t, snapshots_slow=snaps_y, snapshots_fast=None,
        max_abs_fast=None, integrals=None, macro_integrals=None,
        stream_ids=np.arange(n_paths, dtype=np.uint64), seed=seed)
