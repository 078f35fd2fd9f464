"""Invariant-measure estimation and ergodic averages.

The stationary law of the frozen equation is stood in for by a cloud from
``N_CHAINS`` independent trajectories, advanced together as one vectorized
state: each starts at x = 0, discards its own burn-in and keeps every
``thinning``-th state.  Increments are drawn a block of steps at a time,
sized by :func:`fastslow.rng.block_steps`.  A noise coefficient without
batch axes is state-independent at the frozen y (see :mod:`fastslow.model`),
so it is evaluated once per block and the noise of the whole block is one
:func:`fastslow.model.apply_matrix`; one with batch axes is evaluated at
every step.  There is one error rule: the standard error of an average
over the cloud (:func:`chain_se`) is taken from the chain means, so the z
of an exactly centered integrand follows a t law with K - 1 degrees of
freedom for K chains.  A single long chain is passed as K >= 2 contiguous
segments, each much longer than its autocorrelation time, which gives
batch means (Flegal and Jones 2010, Ann. Statist. 38).  The effective
sample size of a cloud is variance over squared SE.

The derivative transfer, which needs the auxiliary solution and its grid
derivatives, lives with the averaged coefficients in
:mod:`fastslow.homogenize`, where it shares their cloud, grid and solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NonFiniteCoefficient
from .model import CoupledSystem, _count, apply_matrix, check_state

Array = np.ndarray

# independent frozen chains behind one cloud; fewer when the cloud is smaller
N_CHAINS = 64


@dataclass
class MeasureEnsemble:
    """Sample cloud standing in for the stationary law at parameter ``y``.

    ``samples`` holds ``n_chains`` chains one after another, chain c in
    rows ``n c // n_chains`` up to ``n (c + 1) // n_chains``.
    """

    y: Array
    samples: Array
    burn_in: float
    thinning: int
    dt: float
    seed: int
    ess: float
    n_chains: int

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValueError("samples must be a non-empty (n, d1) array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        n = self.samples.shape[0]
        if not (2 <= self.n_chains <= n or self.n_chains == n == 1):
            raise ValueError(
                f"n_chains must lie in [2, n_samples] (1 for one sample), got "
                f"{self.n_chains}; pass a single long chain as 2 or more contiguous "
                "segments, each much longer than its autocorrelation time")

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    def se(self, vals: Array) -> Array:
        """:func:`chain_se` of per-sample values (n, k) laid out like ``samples``."""
        return chain_se(vals, self.n_chains)


def _chain_bounds(n: int, n_chains: int) -> Array:
    """Row offsets of the chains of an n-row cloud: chain c spans
    ``[bounds[c], bounds[c + 1])``, and lengths differ by at most one."""
    return (n * np.arange(n_chains + 1)) // n_chains


def _ess(samples: Array, n_chains: int) -> float:
    """Effective sample size of the slowest-mixing state component.

    Each component's variance over its squared :func:`chain_se`, clipped to
    [1, n]; a constant component counts as n independent samples.
    """
    n = samples.shape[0]
    if n < 2:
        return 1.0
    var = samples.var(axis=0, ddof=1)
    se2 = chain_se(samples, n_chains) ** 2
    ess = np.full(var.shape, float(n))
    live = se2 > 0.0
    ess[live] = var[live] / se2[live]
    return float(np.clip(ess.min(), 1.0, n))


def sample_invariant_measure(system: CoupledSystem, y, burn_in: float = 10.0,
                             n_samples: int = 10000, thinning: int = 10,
                             dt: float = 1e-3, seed: int = 0,
                             blowup_cap: float = 1e6) -> MeasureEnsemble:
    """Frozen trajectories from K = min(N_CHAINS, n_samples) independent
    chains, each with its burn-in discarded and every ``thinning``-th state
    kept, returned chain after chain.

    The K chains advance as one (K, d1) state.  Chain c draws its increments
    on path c of ``LANE_FAST`` (step k is step k of every chain) and keeps
    ``n (c + 1) // K - n c // K`` states, so exactly ``n_samples`` rows come
    back.  With one chain this is the single trajectory keyed on path 0.
    """
    if burn_in <= 0 or dt <= 0:
        raise ValueError("burn_in and dt must be > 0")
    if _count("n_samples", n_samples) < 1 or _count("thinning", thinning) < 1:
        raise ValueError("n_samples and thinning must be >= 1")
    d1 = system.d1
    y_fix = np.asarray(y, dtype=np.float64).reshape(-1)
    if y_fix.shape != (system.d2,):
        raise ValueError(f"y must have shape ({system.d2},)")
    K = min(N_CHAINS, n_samples)
    per_chain = np.diff(_chain_bounds(n_samples, K))
    n_keep = int(per_chain.max())
    x = np.zeros((K, d1))
    kept = np.empty((n_keep, K, d1))

    burn_steps = int(math.ceil(burn_in / dt))
    total = burn_steps + n_keep * thinning
    sq = math.sqrt(dt)
    chains = rng.PathIndex(np.arange(K)[None, :])
    block = rng.block_steps(K)
    # the state after step keep_at is the next one kept, in row i
    keep_at, i = burn_steps + thinning - 1, 0
    for k0 in range(0, total, block):
        nb = min(block, total - k0)
        steps = np.arange(k0, k0 + nb, dtype=np.uint64)[:, None]
        z = rng.normals(seed, rng.LANE_FAST, chains, steps, d1)
        z *= sq
        sig = np.asarray(system.sigma(x, y_fix), dtype=np.float64)
        per_step = sig.ndim != 2
        if not per_step:
            # a sigma without batch axes is state-independent (see model),
            # so the noise of the whole block is one product; it replaces
            # the increments, so one block-sized array stays alive
            z = apply_matrix(sig, z)
        for j in range(nb):
            if per_step:
                if j:
                    sig = np.asarray(system.sigma(x, y_fix), dtype=np.float64)
                noise = apply_matrix(sig, z[j])
            else:
                noise = z[j]
            x += np.asarray(system.b(x, y_fix), dtype=np.float64) * dt
            x += noise
            if k0 + j == keep_at:
                kept[i] = x
                i += 1
                keep_at += thinning
        check_state("frozen", x, blowup_cap, (k0 + nb) * dt)
    # chain-major: chain c's first per_chain[c] kept states
    out = kept.transpose(1, 0, 2)[np.arange(n_keep) < per_chain[:, None]]
    return MeasureEnsemble(y=y_fix, samples=out, burn_in=burn_in,
                           thinning=thinning, dt=dt, seed=seed,
                           ess=_ess(out, K), n_chains=K)


def _eval_on(h, t: float, mu: MeasureEnsemble) -> Array:
    vals = np.asarray(h(t, mu.samples, mu.y), dtype=np.float64)
    if vals.ndim == 0:
        vals = np.full((mu.n_samples, 1), float(vals))
    elif vals.ndim == 1:
        vals = vals[:, None]
    if not np.all(np.isfinite(vals)):
        raise NonFiniteCoefficient("integrand returned non-finite values on the sample cloud")
    return vals


def chain_se(vals: Array, n_chains: int) -> Array:
    """Standard error of the column means of a cloud of stationary chains.

    ``vals`` (n, k) holds ``n_chains`` chains one after another, laid out
    as :class:`MeasureEnsemble` describes.  The SE is the sample standard
    deviation of the K chain means over sqrt(K), so for independent chains
    the z of a centered column is t-distributed with K - 1 degrees of
    freedom.  A constant column has SE 0; one row gives SE inf.

    Two or more rows need two or more chains, which
    :class:`MeasureEnsemble` enforces.
    """
    n, k = vals.shape
    if n < 2:
        return np.full(k, np.inf)
    live = np.any(vals != vals[0], axis=0)
    se = np.zeros(k)
    bounds = _chain_bounds(n, n_chains)
    means = np.add.reduceat(vals, bounds[:-1], axis=0) / np.diff(bounds)[:, None]
    se[live] = means[:, live].std(axis=0, ddof=1) / math.sqrt(n_chains)
    return se


def average(h, mu: MeasureEnsemble, t: float = 0.0) -> tuple[Array, Array]:
    """Sample mean of h(t, x, y) over the cloud with its :func:`chain_se`."""
    vals = _eval_on(h, t, mu)
    return vals.mean(axis=0), mu.se(vals)


def centering_residual(f, mu: MeasureEnsemble, t: float = 0.0) -> float:
    """Largest z = |mean| / SE of ``f`` over its components on the cloud.

    With the :func:`chain_se` error of a K-chain cloud, z of an exactly
    centered component is the absolute value of a t variable with K - 1
    degrees of freedom, so the per-call gate z <= 3 of
    :func:`fastslow.corrector.solve_poisson_fk` rejects a centered
    integrand with probability about 0.39% at K = 64 (0.27% for a normal
    z).  A component whose mean is exactly 0 scores 0; a nonzero constant
    scores inf.
    """
    mean, se = average(f, mu, t)
    z = np.zeros_like(mean)
    nonzero = mean != 0.0
    with np.errstate(divide="ignore"):
        z[nonzero] = np.abs(mean[nonzero]) / se[nonzero]
    return float(z.max())
