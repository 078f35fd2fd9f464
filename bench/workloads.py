"""The three workloads: inputs made from the seed, operations, and checks.

Each workload object builds every program input explicitly in its
constructor, so a changed default in fastslow cannot move it.  ``ops(r)``
returns the operations of round ``r`` (a round is the same set of
operations every time), ``observe`` takes the output of one operation and
records its standardized errors against the closed forms in
:mod:`reference`, and ``verdict`` says whether the run's outputs were right.

Standardized errors are gated per operation at |z| <= Z_OP and, pooled
over a run by Stouffer's sum / sqrt(n) for each checked quantity, at
|Z| <= Z_POOL.  With Gaussian errors and at most 15 quantities that is a
false alarm in about one run in 10^5, while a bias of one standard error
per operation is caught once a run pools 25 operations.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import reference
from fastslow import harness, homogenize, presets, simulate
from fastslow.model import Regime, ScaleSchedule

Z_OP = 6.0
Z_POOL = 5.0


def _draws(name: str, seed: int) -> np.random.Generator:
    """numpy generator for the inputs of workload ``name`` under ``seed``."""
    return np.random.default_rng([sum(map(ord, name)), seed])


def _round_seed(seed: int, r: int, k: int = 0) -> int:
    """Program seed for round ``r`` (and stream ``k``) of a run."""
    return int(np.random.default_rng([seed, r, k]).integers(2 ** 62))


class Checks:
    """Named standardized errors, pooled per quantity over the run."""

    def __init__(self):
        self.z: dict[str, list[float]] = {}
        self.failures: list[str] = []

    def add(self, key: str, z: float) -> None:
        self.z.setdefault(key, []).append(float(z))

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def verdict(self) -> tuple[bool, dict]:
        worst_op, pooled = 0.0, {}
        for key, zs in self.z.items():
            worst_op = max(worst_op, max(abs(z) for z in zs))
            pooled[key] = sum(zs) / math.sqrt(len(zs))
            if not all(abs(z) <= Z_OP for z in zs):
                self.failures.append(f"{key}: |z| > {Z_OP} in one operation")
            if abs(pooled[key]) > Z_POOL:
                self.failures.append(f"{key}: pooled |Z| = {abs(pooled[key]):.3g} > {Z_POOL}")
        detail = {"max_abs_z_op": worst_op,
                  "pooled_z": {k: round(v, 4) for k, v in pooled.items()},
                  "failures": self.failures[:20]}
        return not self.failures, detail


class CellsR4:
    """Cold R4 cells of ``ou_full`` over a row of slow states drawn from the seed.

    The program seeds of the cells are fixed constants, so each round
    recomputes the same cells; later rounds must reproduce round 0 bit for
    bit.  Under the frozen law N(y, 1) every cell is the same computation
    shifted by y, so the seed moves the slow states and the timings, not
    which cells pass the centering gate.
    """

    name = "cells_r4"
    CELL_SEEDS = (0, 1, 2, 3)
    C = 0.5   # ou_full's intermediate drift, as written in the preset

    def __init__(self, seed: int):
        self.system = presets.get_system("ou_full")
        self.ys = np.sort(_draws(self.name, seed).uniform(-2.0, 2.0, len(self.CELL_SEEDS)))
        self.budgets = homogenize.Budgets(
            invariant_samples=20000, invariant_burn_in=5.0, invariant_thinning=2,
            invariant_dt=0.01, corrector_paths=1000, corrector_tmax=8.0,
            corrector_dt=0.01, grid_points=21, grid_pad=0.75, n_batches=20,
            delta_y=None)
        self.checks = Checks()
        self._first: dict[int, bytes] = {}
        b = self.budgets
        self._cor_steps = max(1, int(round(b.corrector_tmax / b.corrector_dt)))
        self._path_steps = (int(math.ceil(b.invariant_burn_in / b.invariant_dt))
                            + b.invariant_samples * b.invariant_thinning
                            + 3 * b.corrector_paths * b.grid_points * self._cor_steps)

    def ops(self, r: int):
        return [functools.partial(self._cell, i) for i in range(len(self.ys))]

    def _cell(self, i: int):
        return homogenize.regime_averages(
            self.system, Regime.R4, 0.0, [self.ys[i]], self.budgets,
            seed=self.CELL_SEEDS[i], want_drift=True, want_diffusion=True)

    @staticmethod
    def fingerprint(ra) -> bytes:
        return np.concatenate([ra.fhat, ra.fhat_se, ra.cov.ravel(),
                               ra.cov_se.ravel(), ra.ghat.ravel()]).tobytes()

    def observe(self, r: int, i: int, ra) -> None:
        fp = self.fingerprint(ra)
        if i in self._first:
            self.checks.require(fp == self._first[i],
                                f"cell {i}: round {r} differs from round 0")
            return
        self._first[i] = fp
        b = self.budgets
        drift, cov = reference.r4_cell(self.ys[i], self.C, b.invariant_dt,
                                       b.corrector_dt, self._cor_steps)
        self.checks.add("drift", (ra.fhat[0] - drift) / ra.fhat_se[0])
        self.checks.add("cov", (ra.cov[0, 0] - cov) / ra.cov_se[0, 0])
        self.checks.require(abs(ra.ghat[0, 0] ** 2 - ra.cov[0, 0]) <= 1e-12 * ra.cov[0, 0],
                            f"cell {i}: ghat^2 != cov")

    def ess(self, ra) -> float:
        return float(ra.diagnostics["ess"])

    def path_steps(self, ra) -> int:
        """Chain steps of the cloud plus the three corrector solves' path-point steps."""
        return self._path_steps


class CoupledR4:
    """Coupled ``ou_full`` ensembles in R4 at three eps, integrand x - y.

    eps 0.2, 0.1 and 0.05 take 3, 10 and 40 micro steps per macro step.
    Each round draws fresh program seeds, so the pooled errors gain power
    with every round.
    """

    name = "coupled_r4"
    EPS = (0.2, 0.1, 0.05)
    N_PATHS = 4096

    def __init__(self, seed: int):
        self.system = presets.get_system("ou_full")
        self.schedule = ScaleSchedule(1, 1, 1)
        self.seed = seed
        x0, y0 = _draws(self.name, seed).uniform(-1.0, 1.0, 2)
        self.x0, self.y0 = float(x0), float(y0)
        self.integrand = harness.fluctuation_integrand("x_minus_y")
        self.checks = Checks()
        self._law = {}

    def _config(self, seed: int) -> simulate.PathConfig:
        return simulate.PathConfig(
            T=1.0, dt_slow=0.01, micro_substeps_per_alpha2=10, seed=seed,
            n_paths=self.N_PATHS, blowup_cap=1e6, snapshot_times=None,
            record_fast=False, chunk_size=4096, n_workers=1)

    def ops(self, r: int):
        cfg = self._config(_round_seed(self.seed, r))
        return [functools.partial(self._ensemble, eps, cfg) for eps in self.EPS]

    def _ensemble(self, eps: float, cfg):
        res = simulate.integrate_coupled(self.system, self.schedule, eps,
                                         [self.x0], [self.y0], cfg,
                                         integrand=self.integrand)
        return eps, cfg, res

    @staticmethod
    def fingerprint(out) -> bytes:
        res = out[2]
        return np.concatenate([res.terminal_fast.ravel(), res.terminal_slow.ravel(),
                               res.integrals.ravel()]).tobytes()

    def observe(self, r: int, i: int, out) -> None:
        eps, cfg, res = out
        if eps not in self._law:
            self._law[eps] = reference.coupled_scheme_moments(
                eps, cfg.T, cfg.dt_slow, cfg.micro_substeps_per_alpha2,
                self.x0, self.y0)
        mean, cov = self._law[eps]
        sample = np.stack([res.terminal_fast[:, 0], res.terminal_slow[:, 0],
                           res.integrals[:, 0]], axis=1)
        n = sample.shape[0]
        m = sample.mean(axis=0)
        v = sample.var(axis=0, ddof=1)
        for j, label in enumerate(("x", "y", "integral")):
            self.checks.add(f"eps={eps}:mean_{label}",
                            (m[j] - mean[j]) / math.sqrt(cov[j, j] / n))
        for j, label in enumerate(("x", "y")):
            self.checks.add(f"eps={eps}:var_{label}",
                            (v[j] - cov[j, j]) / (cov[j, j] * math.sqrt(2.0 / (n - 1))))

    def ess(self, out) -> float:
        """Independent paths behind each ensemble estimate."""
        return float(out[2].n_paths)

    def path_steps(self, out) -> int:
        eps, cfg, res = out
        n_macro, n_micro = reference.stiff_grid(eps, cfg.T, cfg.dt_slow,
                                                cfg.micro_substeps_per_alpha2)
        return res.n_paths * n_macro * n_micro


class LimitR1:
    """Memoized R1 limit of ``ou_averaging`` at quantum 0.25, then its ensemble.

    Each round builds a fresh limit equation with fresh program seeds, so
    its cells are cold; the ensemble then reads them 2 x paths x steps
    times (drift and diffusion).  Every node of every path is recorded, so
    the visited cells can be counted apart from the program.
    """

    name = "limit_r1"
    N_PATHS = 2000
    T = 1.0
    DT = 0.01

    def __init__(self, seed: int):
        self.system = presets.get_system("ou_averaging")
        self.seed = seed
        self.y0 = float(_draws(self.name, seed).uniform(-0.5, 0.5))
        self.budgets = homogenize.Budgets(
            invariant_samples=1000, invariant_burn_in=10.0, invariant_thinning=5,
            invariant_dt=0.01, corrector_paths=4000, corrector_tmax=8.0,
            corrector_dt=0.01, grid_points=21, grid_pad=0.75, n_batches=20,
            delta_y=None)
        self.policy = homogenize.CachePolicy(quantum=0.25, interpolate=False,
                                             t_quantum=None)
        n = int(round(self.T / self.DT))
        self.nodes = tuple(k * (self.T / n) for k in range(n + 1))
        b = self.budgets
        self._chain_steps = (int(math.ceil(b.invariant_burn_in / b.invariant_dt))
                             + b.invariant_samples * b.invariant_thinning)
        self._cell_se = reference.ar1_mean_se(b.invariant_samples,
                                              b.invariant_thinning, b.invariant_dt)
        self.checks = Checks()

    def ops(self, r: int):
        return [functools.partial(self._limit, _round_seed(self.seed, r, 0),
                                  _round_seed(self.seed, r, 1))]

    def _limit(self, cell_seed: int, path_seed: int):
        lim = homogenize.build_limit_sde(Regime.R1, self.system, self.budgets,
                                         self.policy, seed=cell_seed)
        res = simulate.integrate_limit(
            lim, [self.y0], self.T, self.DT, seed=path_seed, n_paths=self.N_PATHS,
            blowup_cap=1e6, snapshot_times=self.nodes, chunk_size=4096,
            n_workers=1)
        return lim, res

    @staticmethod
    def fingerprint(out) -> bytes:
        lim, res = out
        return str(lim.provenance()["n_cells"]).encode() + res.snapshots_slow.tobytes()

    def observe(self, r: int, i: int, out) -> None:
        lim, res = out
        q = self.policy.quantum
        # drift and diffusion are looked up at every node but the last
        visited = np.unique(np.round(res.snapshots_slow[:-1, :, 0] / q).astype(np.int64))
        n_cells = lim.provenance()["n_cells"]
        self.checks.require(n_cells == visited.size,
                            f"round {r}: {n_cells} cells cached, {visited.size} visited")
        errs = []
        for k in visited:
            y_c = float(k) * q
            err = float(lim.Fhat(0.0, [y_c])[0]) + y_c
            errs.append(err)
            self.checks.add("cell_drift", err / self._cell_se)
            self.checks.require(abs(float(lim.Ghat(0.0, [y_c])[0, 0]) - 1.0) <= 1e-12,
                                f"round {r}: diffusion of cell {k} is not 1")
        self.checks.require(lim.provenance()["n_cells"] == n_cells,
                            f"round {r}: reading visited cells computed new ones")

        # with unit diffusion every Euler increment minus its cell's drift is
        # sqrt(h) times a standard normal
        h = self.T / (len(self.nodes) - 1)
        ys = res.snapshots_slow[:, :, 0]
        cell = np.searchsorted(visited, np.round(ys[:-1] / q).astype(np.int64))
        drift = np.asarray(errs)[cell] - visited[cell] * q
        z = ((ys[1:] - ys[:-1] - drift * h) / math.sqrt(h)).ravel()
        self.checks.add("increment_mean", z.mean() * math.sqrt(z.size))
        self.checks.add("increment_var", (z.var(ddof=1) - 1.0) / math.sqrt(2.0 / (z.size - 1)))

        # synchronous coupling with the exact Euler-OU path on the same noise:
        # the drift error -y_c + err - (-y) lies in [min err - q/2, max err + q/2]
        mean, var = reference.euler_ou_law(self.y0, self.T, self.DT)
        span = reference.coupling_span(self.T, self.DT)
        lo, hi = (min(errs) - q / 2) * span, (max(errs) + q / 2) * span
        yt = res.terminal_slow[:, 0]
        n = yt.shape[0]
        se_mean = math.sqrt(var / n)
        gap = float(yt.mean()) - mean
        self.checks.require(lo - Z_OP * se_mean <= gap <= hi + Z_OP * se_mean,
                            f"round {r}: terminal mean off the Euler-OU law by {gap:.4g}, "
                            f"outside [{lo:.4g}, {hi:.4g}] +- {Z_OP} se")
        sd, sd_exact = float(yt.std(ddof=1)), math.sqrt(var)
        bound = max(abs(lo), abs(hi)) + Z_OP * sd_exact / math.sqrt(2.0 * (n - 1))
        self.checks.require(abs(sd - sd_exact) <= bound,
                            f"round {r}: terminal sd {sd:.4g} vs Euler-OU {sd_exact:.4g} "
                            f"beyond {bound:.4g}")

    def ess(self, out) -> float:
        """Independent paths behind the ensemble estimate."""
        return float(out[1].n_paths)

    def path_steps(self, out) -> int:
        lim, res = out
        return (res.n_paths * (len(self.nodes) - 1)
                + lim.provenance()["n_cells"] * self._chain_steps)


WORKLOADS = {w.name: w for w in (CellsR4, CoupledR4, LimitR1)}
