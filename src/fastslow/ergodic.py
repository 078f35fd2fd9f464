"""Invariant-measure estimation and ergodic averages.

One long trajectory of the frozen equation (burn-in discarded, thinned)
stands in for the stationary law.  The standard error of an average over
it (:func:`chain_se`) is sized from the chain itself: each integrand
column's sample standard deviation over the square root of that column's
effective sample size, read off its own autocorrelation function, so the
error widens with the correlation length that the thinned samples keep.

The derivative transfer, which needs the auxiliary solution and its grid
derivatives, lives with the corrector in :mod:`fastslow.corrector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import BlowUp, NonFiniteCoefficient
from .model import CoupledSystem

Array = np.ndarray


@dataclass
class MeasureEnsemble:
    """Sample cloud standing in for the stationary law at parameter ``y``."""

    y: Array
    samples: Array
    burn_in: float
    thinning: int
    dt: float
    seed: int
    ess: float

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValueError("samples must be a non-empty (n, d1) array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])


def _autocorr_time(x: Array) -> tuple[float, int]:
    """Integrated autocorrelation time of one centered chain column.

    Sums the sample autocorrelations over the lags before the first
    non-positive one (the single-lag form of Geyer's 1992 initial positive
    sequence) and returns ``(tau, m)`` with ``m`` the last lag summed.  A
    constant column, or one with fewer than four entries, gives ``(1, 0)``.
    """
    n = x.shape[0]
    var = float(np.dot(x, x))
    if n < 4 or var <= 0.0:
        return 1.0, 0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(f * np.conj(f), nfft)[:n].real / var
    s = 0.0
    m = 0
    for k in range(1, min(n - 1, 10000)):
        if acf[k] <= 0.0:
            break
        s += acf[k]
        m = k
    return 1.0 + 2.0 * s, m


def _ess_estimate(samples: Array) -> float:
    """Effective sample size n / tau of the slowest-mixing state component."""
    tau = max(_autocorr_time(samples[:, j] - samples[:, j].mean())[0]
              for j in range(samples.shape[1]))
    return max(1.0, samples.shape[0] / tau)


def sample_invariant_measure(system: CoupledSystem, y, burn_in: float = 10.0,
                             n_samples: int = 10000, thinning: int = 10,
                             dt: float = 1e-3, seed: int = 0,
                             blowup_cap: float = 1e6) -> MeasureEnsemble:
    """One long frozen trajectory, burn-in discarded, every ``thinning``-th state kept."""
    if burn_in <= 0 or dt <= 0:
        raise ValueError("burn_in and dt must be > 0")
    if n_samples < 1 or thinning < 1:
        raise ValueError("n_samples and thinning must be >= 1")
    d1 = system.d1
    y_fix = np.asarray(y, dtype=np.float64).reshape(-1)
    if y_fix.shape != (system.d2,):
        raise ValueError(f"y must have shape ({system.d2},)")
    x = np.zeros((1, d1))

    burn_steps = int(math.ceil(burn_in / dt))
    total = burn_steps + n_samples * thinning
    sq = math.sqrt(dt)
    out = np.empty((n_samples, d1))
    kept = 0
    block = 32768
    k0 = 0
    while k0 < total:
        nb = min(block, total - k0)
        z = rng.normals(seed, rng.LANE_FAST, 0, np.arange(k0, k0 + nb), d1) * sq
        for j in range(nb):
            k = k0 + j
            x = x + np.asarray(system.b(x, y_fix), dtype=np.float64) * dt \
                + (np.asarray(system.sigma(x, y_fix), dtype=np.float64)
                   @ z[j][:, None])[..., 0]
            if k >= burn_steps and (k - burn_steps + 1) % thinning == 0:
                out[kept] = x[0]
                kept += 1
        if not np.all(np.isfinite(x)):
            raise NonFiniteCoefficient("frozen trajectory became non-finite")
        if np.linalg.norm(x) > blowup_cap:
            raise BlowUp(f"frozen trajectory exceeded cap {blowup_cap:g}")
        k0 += nb
    assert kept == n_samples
    return MeasureEnsemble(y=y_fix, samples=out, burn_in=burn_in,
                           thinning=thinning, dt=dt, seed=seed,
                           ess=_ess_estimate(out))


def _eval_on(h, t: float, mu: MeasureEnsemble) -> Array:
    vals = np.asarray(h(t, mu.samples, mu.y), dtype=np.float64)
    if vals.ndim == 0:
        vals = np.full((mu.n_samples, 1), float(vals))
    elif vals.ndim == 1:
        vals = vals[:, None]
    if not np.all(np.isfinite(vals)):
        raise NonFiniteCoefficient("integrand returned non-finite values on the sample cloud")
    return vals


def chain_se(vals: Array) -> Array:
    """Standard error of the column means of a stationary chain.

    Each column gets its own autocorrelation time ``tau`` and window ``m``
    from :func:`_autocorr_time`, so the error follows the correlation length
    of the integrand itself, not that of the state.  The squared SE is the
    windowed autocovariance sum over ``n``, divided by
    ``(1 - m/n) (1 - (m+1)/n)`` to remove its first-order bias from the
    estimated mean; at ``m = 0`` that is Bessel's correction, and for
    ``m << n`` the SE is the sample standard deviation over
    ``sqrt(n / tau)``.  A constant column has SE 0; fewer than two rows
    give SE inf.
    """
    n, k = vals.shape
    if n < 2:
        return np.full(k, np.inf)
    se = np.zeros(k)
    for j in range(k):
        col = vals[:, j]
        if np.any(col != col[0]):
            x = col - col.mean()
            tau, m = _autocorr_time(x)
            se[j] = math.sqrt(float(np.dot(x, x)) * tau
                              / ((n - m) * (n - m - 1)))
    return se


def average(h, mu: MeasureEnsemble, t: float = 0.0) -> tuple[Array, Array]:
    """Sample mean of h(t, x, y) over the cloud with its :func:`chain_se`."""
    vals = _eval_on(h, t, mu)
    return vals.mean(axis=0), chain_se(vals)


def centering_residual(f, mu: MeasureEnsemble, t: float = 0.0) -> float:
    """Largest z = |mean| / SE of ``f`` over its components on the cloud.

    With the :func:`chain_se` error, z of an exactly centered component is
    close to the absolute value of a standard normal, so the per-call gate
    z <= 3 of :func:`fastslow.corrector.solve_poisson_fk` rejects a centered
    integrand with nominal probability 0.27%.  A component whose mean is
    exactly 0 scores 0; a nonzero constant scores inf.
    """
    mean, se = average(f, mu, t)
    z = np.zeros_like(mean)
    nonzero = mean != 0.0
    with np.errstate(divide="ignore"):
        z[nonzero] = np.abs(mean[nonzero]) / se[nonzero]
    return float(z.max())
