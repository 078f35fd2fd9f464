"""Euler-Maruyama integration of the coupled and limit equations.

The averaged limit takes plain Euler steps (:func:`integrate_limit`): each
step reads the drift a and noise coefficient B of a chunk in one call and
sets Y = Y + a h + B z sqrt(h), with z drawn on the slow-noise lane.  The
frozen fast equation is integrated where it is used, by the invariant-cloud
sampler (:func:`fastslow.ergodic.sample_invariant_measure`).

The coupled integrator splits time scales: the slow state advances on a
macro grid of target step ``dt_slow`` while the fast state takes micro
substeps of size alpha**2/nu inside each macro interval (the slow state
held at its macro value).  The fast-varying slow drift is averaged over the
micro substeps before it is applied, which removes most of the
discretization bias of that stiff term.

Increments are keyed by (seed, lane, path, step), so results are
bit-identical for any chunk size.  Every integrator is a plain loop over
the (lo, hi) path ranges of :func:`_chunks`; each chunk keys its draws
through one :class:`fastslow.rng.PathIndex` and checks its state with
:func:`fastslow.model.check_state`, whose norms give the coupled
integrator's running maximum of the fast state.  Per-chunk integrals are
concatenated at the end.

Every loop draws its increments a block of steps per call
(:func:`fastslow.rng.block_steps`).  The coupled integrator takes the
micro steps' noise from :func:`fastslow.model.block_noise`, so a noise
coefficient without batch axes is evaluated once per block of draws and
one with batch axes at every micro step.  Noise products go through
:func:`fastslow.model.apply_matrix`, and the fast state and its
accumulators are updated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import rng
from .model import CoupledSystem, ScaleSchedule, apply_matrix, block_noise, check_state

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


@dataclass(kw_only=True)
class EnsembleResult:
    """Ensemble output indexed by global path id; fields not produced are None."""

    terminal_slow: Array | None = None
    terminal_fast: Array | None = None
    snapshot_times: Array | None = None
    snapshots_slow: Array | None = None
    snapshots_fast: Array | None = None
    max_abs_fast: Array | None = None
    integrals: Array | None = None
    macro_integrals: Array | None = None
    stream_ids: Array
    seed: int

    @property
    def n_paths(self) -> int:
        return int(self.stream_ids.shape[0])


def _vec(v, d: int, name: str) -> Array:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.shape == (1,) and d > 1:
        arr = np.full(d, arr[0])
    if arr.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {np.shape(v)}")
    return arr


def _snap_rows(times, dt: float, n_steps: int) -> dict[int, list[int]]:
    """Grid node -> the rows of ``times`` taken there (a time may repeat);
    a time off every node by more than rounding is refused."""
    dt = dt or 1.0  # no steps: only node 0 exists
    rows: dict[int, list[int]] = {}
    for r, t in enumerate(times):
        i = int(round(t / dt))
        if i < 0 or i > n_steps or abs(i * dt - t) > 1e-9 * max(dt, abs(t)):
            raise ValueError(f"snapshot time {t} does not sit on the macro grid")
        rows.setdefault(i, []).append(r)
    return rows


def _check_one_worker(n_workers: int) -> None:
    if n_workers != 1:
        raise ValueError(f"n_workers must be 1 (paths run in one loop), got {n_workers!r}")


def _chunks(n_paths: int, chunk: int) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges of at most ``chunk`` paths."""
    if chunk < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk!r}")
    return [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]


def _record(snaps, rows: dict, node: int, lo: int, state: Array) -> None:
    """Copy a chunk's states into the snapshot rows taken at ``node``."""
    if snaps is not None and node in rows:
        snaps[rows[node], lo:lo + state.shape[0]] = state


def _accumulate(acc, val, w: float) -> Array:
    """``acc + val w`` with ``val`` as (paths, k) columns; None starts the sum."""
    val = np.asarray(val, dtype=np.float64)
    if val.ndim == 1:
        val = val[:, None]
    if acc is None:
        return val * w
    acc += val * w
    return acc


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

    rows, snap_t, snaps_y, snaps_x = {}, None, None, None
    if cfg.snapshot_times is not None:
        rows = _snap_rows(cfg.snapshot_times, dt, n_macro)
        snap_t = np.asarray(cfg.snapshot_times, dtype=np.float64)
        snaps_y = np.empty((len(snap_t), cfg.n_paths, d2))
        if cfg.record_fast:
            snaps_x = np.empty((len(snap_t), cfg.n_paths, d1))
    term_y = np.empty((cfg.n_paths, d2))
    term_x = np.empty((cfg.n_paths, d1))
    max_abs = np.empty(cfg.n_paths)
    accs, maccs = [], []

    inv_a2 = 1.0 / (al * al)
    inv_b = 1.0 / be
    inv_g = 1.0 / ga
    sq_h = math.sqrt(h) / al if n_macro else 0.0
    sq_dt = math.sqrt(dt) if n_macro else 0.0

    for lo, hi in _chunks(cfg.n_paths, cfg.chunk_size):
        m = hi - lo
        paths = rng.PathIndex(np.arange(lo, hi))
        block = rng.block_steps(m)
        X = np.tile(x_init, (m, 1))
        Y = np.tile(y_init, (m, 1))
        acc = macc = None
        mx = np.linalg.norm(X, axis=-1)
        drift = np.empty((m, d1))
        c_term = np.empty((m, d1))
        Hsum = np.empty((m, d2))
        _record(snaps_y, rows, 0, lo, Y)
        _record(snaps_x, rows, 0, lo, X)
        for mi in range(n_macro):
            tm = mi * dt
            # copies: X is updated in place below, and a coefficient may
            # return a view of it
            Fm = np.array(system.F(tm, X, Y), dtype=np.float64)
            Gm = np.array(system.G(tm, X, Y), dtype=np.float64)
            if macro_integrand is not None:
                macc = _accumulate(macc, macro_integrand(tm, Y), dt)
            Hsum.fill(0.0)
            for j0 in range(0, n_micro, block):
                nb = min(block, n_micro - j0)
                k0 = mi * n_micro + j0
                steps = np.arange(k0, k0 + nb, dtype=np.uint64)[:, None]
                z = rng.normals(cfg.seed, rng.LANE_FAST, paths, steps, d1)
                noises = block_noise(partial(system.sigma, X, Y), z, sq_h)
                for j, noise in enumerate(noises, j0):
                    tj = tm + j * h
                    Hsum += system.H(tj, X, Y)
                    if integrand is not None:
                        acc = _accumulate(acc, integrand(tj, X, Y), h)
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
            mx = np.maximum(mx, check_state("fast", X, cfg.blowup_cap, tm + dt, lo))
            check_state("slow", Y, cfg.blowup_cap, tm + dt, lo)
            _record(snaps_y, rows, mi + 1, lo, Y)
            _record(snaps_x, rows, mi + 1, lo, X)
        term_y[lo:hi] = Y
        term_x[lo:hi] = X
        max_abs[lo:hi] = mx
        accs.append(acc)
        maccs.append(macc)

    return EnsembleResult(
        terminal_slow=term_y, terminal_fast=term_x,
        snapshot_times=snap_t, snapshots_slow=snaps_y, snapshots_fast=snaps_x,
        max_abs_fast=max_abs,
        integrals=None if accs[0] is None else np.concatenate(accs),
        macro_integrals=None if maccs[0] is None else np.concatenate(maccs),
        stream_ids=np.arange(cfg.n_paths, dtype=np.uint64), seed=cfg.seed)


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
    _check_one_worker(n_workers)
    y_init = _vec(y0, avg.d2, "y0")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    d = y_init.shape[0]
    n_steps = max(1, int(round(T / dt))) if T > 0 else 0
    h = T / n_steps if n_steps else 0.0
    sq = math.sqrt(h)

    rows, snap_t, snaps = {}, None, None
    if snapshot_times is not None:
        rows = _snap_rows(snapshot_times, h, n_steps)
        snap_t = np.asarray(snapshot_times, dtype=np.float64)
        snaps = np.empty((len(snap_t), n_paths, d))
    terminal = np.empty((n_paths, d))

    for lo, hi in _chunks(n_paths, chunk_size):
        paths = rng.PathIndex(np.arange(lo, hi))
        block = rng.block_steps(hi - lo)
        Y = np.tile(y_init, (hi - lo, 1))
        _record(snaps, rows, 0, lo, Y)
        for k in range(n_steps):
            if k % block == 0:
                steps = np.arange(k, min(k + block, n_steps), dtype=np.uint64)
                zb = rng.normals(seed, rng.LANE_SLOW, paths, steps[:, None], d)
            drift, diff = avg.coefficients_batch(k * h, Y)
            Y = Y + np.asarray(drift, dtype=np.float64) * h \
                + apply_matrix(diff, zb[k % block]) * sq
            check_state("limit", Y, blowup_cap, (k + 1) * h, lo)
            _record(snaps, rows, k + 1, lo, Y)
        terminal[lo:hi] = Y
    return EnsembleResult(terminal_slow=terminal, snapshot_times=snap_t,
                          snapshots_slow=snaps,
                          stream_ids=np.arange(n_paths, dtype=np.uint64), seed=seed)
