"""Coupled fast-slow systems, power-law scale schedules and regime tags.

A coupled system carries six coefficient callables.  All of them must be
numpy-vectorized over leading batch axes and pure (no hidden state): the
fast state ``x`` arrives with shape ``(..., d1)``, the slow state ``y``
with shape ``(..., d2)`` or plain ``(d2,)``, and ``t`` is a scalar.

A matrix-valued coefficient (``sigma``, ``G``) returns either one matrix
per batch row, ``(..., d, d)``, or a single ``(d, d)`` array without batch
axes.  The second form is a promise: the matrix is state-independent at
that (t, y), so a step loop that holds (t, y) fixed may evaluate it once
per block of steps and reuse it.  A coefficient that depends on the
state must return batch axes; broadcasting does the rest.
For sigma, :func:`block_noise` is the one user of that promise: the
invariant sampler and the coupled integrator take the noise of a block of
draws from it.

:func:`apply_matrix` is the one kernel that multiplies such a coefficient
into a batch of noise vectors; :func:`check_state` is the one state check
of every step loop (the integrators and the invariant sampler).

The library's input checks are :func:`_real` (a finite real number above a
bound), :func:`_count` (an integer of at least a bound, 1 by default) and
:func:`fastslow.rng.check_seed`; each refuses by name, once per call, not per step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from . import rng
from .errors import BlowUp, NonFiniteCoefficient

Array = np.ndarray


def _as_fraction(q, name: str = "theta") -> Fraction:
    """Exact rational coercion; floats convert by their binary value, and a
    non-finite one raises ValueError naming ``name``."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, float):
        _real(name, q, lo=-math.inf)
    if isinstance(q, (int, float, str)) and not isinstance(q, bool):
        return Fraction(q)
    raise TypeError(f"cannot interpret {q!r} as a rational exponent")


class Regime(Enum):
    """Asymptotic ordering of the three scales; decides which corrections survive."""

    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    UNCLASSIFIED = "Unclassified"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ScaleSchedule:
    """Scales eps**q for the fast, intermediate and slow perturbations.

    Exponents are exact rationals so the regime limits (ratios vanishing or
    exact equality) are decidable.  ``exp_alpha`` must be positive;
    ``exp_beta``/``exp_gamma`` may be zero, which freezes that scale at 1
    (the classical two-scale reduction).
    """

    exp_alpha: Fraction
    exp_beta: Fraction
    exp_gamma: Fraction

    def __post_init__(self):
        for name in ("exp_alpha", "exp_beta", "exp_gamma"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name), name))
        if self.exp_alpha <= 0:
            raise ValueError("exp_alpha must be > 0")
        if self.exp_beta < 0 or self.exp_gamma < 0:
            raise ValueError("exp_beta and exp_gamma must be >= 0")
        if not 2 * self.exp_alpha > self.exp_beta:
            raise ValueError(
                "need 2*exp_alpha > exp_beta so the fast drift dominates "
                "the intermediate one")

    @property
    def exponents(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.exp_alpha, self.exp_beta, self.exp_gamma)

    def scales(self, eps: float) -> tuple[float, float, float]:
        """(alpha, beta, gamma) evaluated at eps."""
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        return (eps ** float(self.exp_alpha),
                eps ** float(self.exp_beta),
                eps ** float(self.exp_gamma))


def classify_regime(schedule: ScaleSchedule) -> Regime:
    """Tag a schedule by exact rational comparison of its exponents."""
    a, b, g = schedule.exponents
    if a > g and 2 * a > b + g:
        return Regime.R1
    if a > g and 2 * a == b + g:
        return Regime.R2
    if a == g and a > b:
        return Regime.R3
    if a == b == g:
        return Regime.R4
    return Regime.UNCLASSIFIED


@dataclass(frozen=True)
class CoupledSystem:
    """Coefficients of the coupled pair of equations.

    ``b``/``sigma`` drive the fast component, ``c`` is the intermediate-scale
    fast drift, ``F``/``H``/``G`` the slow drift, fast-varying slow drift and
    slow diffusion.  ``autonomous=True`` declares that the time argument is
    ignored, which lets averaged fields drop the time axis from their cache
    keys.
    """

    d1: int
    d2: int
    b: Callable[[Array, Array], Array]
    sigma: Callable[[Array, Array], Array]
    c: Callable[[Array, Array], Array]
    F: Callable[[float, Array, Array], Array]
    H: Callable[[float, Array, Array], Array]
    G: Callable[[float, Array, Array], Array]
    autonomous: bool = False
    name: str = "custom"

    def __post_init__(self):
        _count("d1", self.d1)
        _count("d2", self.d2)

    def fast_cov(self, x: Array, y: Array) -> Array:
        """a = sigma sigma^T / 2 at a batch of points."""
        s = np.asarray(self.sigma(x, y), dtype=np.float64)
        return 0.5 * (s @ np.swapaxes(s, -1, -2))

    def slow_cov(self, t: float, x: Array, y: Array) -> Array:
        """G G^T / 2 at a batch of points."""
        g = np.asarray(self.G(t, x, y), dtype=np.float64)
        return 0.5 * (g @ np.swapaxes(g, -1, -2))


def apply_matrix(m, v: Array) -> Array:
    """``m v`` over the last axis of ``v``: a matrix-valued coefficient,
    ``(..., d, d)`` or ``(d, d)``, applied to a batch of vectors ``(..., d)``.

    Every result is bit-identical to the stacked product
    ``(m @ v[..., None])[..., 0]``.  A ``(1, 1)`` matrix, or a stack of
    ``(..., 1, 1)`` ones, is one elementwise product: the stacked product
    sums from +0.0, so ``+= 0.0`` turns a -0.0 into +0.0 as it does.  Every
    other shape keeps the stacked product; a per-column product of a
    ``(d, d)`` matrix is faster but rounds differently.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] == (1, 1):
        out = v * m[..., 0]
        out += 0.0
        return out
    return (m @ v[..., None])[..., 0]


class _StepNoise:
    """The noise of a block under a batched sigma, step by step: indexing
    step j reads sigma at the caller's state (step 0 at the block's first
    state, already read) and returns ``scale * sigma z[j]``."""

    def __init__(self, sigma_at: Callable[[], Array], sig0: Array, z: Array,
                 scale: float):
        self._sigma_at, self._sig0, self._z, self._scale = sigma_at, sig0, z, scale

    def __getitem__(self, j: int) -> Array:
        noise = apply_matrix(self._sig0 if j == 0 else self._sigma_at(), self._z[j])
        noise *= self._scale
        return noise


def block_noise(sigma_at: Callable[[], Array], z: Array, scale: float):
    """The noise of a block of draws ``z`` (steps on the leading axis):
    ``noise[j]`` is ``scale * sigma z[j]``, taken at step j, in step order.

    ``sigma_at()`` reads sigma at the caller's state, which the caller moves
    only after taking the step's noise.  Sigma is read at the block's first
    state.  A ``(d, d)`` one gives the whole block's noise as one array; a
    batched one is read again when each later step is indexed."""
    sig = np.asarray(sigma_at(), dtype=np.float64)
    if sig.ndim == 2:
        noise = apply_matrix(sig, z)
        noise *= scale
        return noise
    return _StepNoise(sigma_at, sig, z, scale)


def check_state(tag: str, state: Array, cap: float, t: float, lo: int = 0) -> Array:
    """Norms over the last axis of ``state``.  A non-finite norm raises
    :class:`NonFiniteCoefficient`, then one above ``cap`` raises :class:`BlowUp`,
    naming the first such path on the leading axis (from ``lo``) and ``t``."""
    # np.linalg.norm's arithmetic for real input, without its Python layers
    norms = np.sqrt(np.add.reduce(state * state, axis=-1))
    bad = ~np.isfinite(norms)
    if bad.any():
        path = lo + int(np.nonzero(bad)[0][0])
        raise NonFiniteCoefficient(
            f"{tag} state became non-finite on path {path} near t={t:.6g}")
    over = norms > cap
    if over.any():
        path = lo + int(np.nonzero(over)[0][0])
        raise BlowUp(
            f"{tag} state exceeded cap {cap:g} on path {path} near t={t:.6g}")
    return norms


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int if it is an int or numpy integer (not a bool) of at
    least ``least``; anything else, a whole float included, raises ValueError
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _real(name: str, value, lo: float = 0.0, closed: bool = False) -> float:
    """``value`` as a float if it is a finite real number (not a bool) above
    ``lo``, or at least ``lo`` when ``closed``; anything else raises
    ValueError naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not -math.inf < value < math.inf):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not (value >= lo if closed else value > lo):
        raise ValueError(f"{name} must be {'>=' if closed else '>'} {lo:g}, got {value!r}")
    return float(value)


def _require_finite(name: str, value: Array) -> Array:
    value = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise NonFiniteCoefficient(f"coefficient {name!r} returned a non-finite value")
    return value


@dataclass(frozen=True)
class ValidationReport:
    """Sampled evidence for the standing assumptions; never a proof."""

    lam: float
    sample_budget: int
    radius: float
    seed: int
    eps: float
    a_eig_min: float
    a_eig_max: float
    a_ok: bool
    g_eig_min: float
    g_eig_max: float
    g_ok: bool
    recurrence_max: float
    recurrence_plausible: bool
    ac_max: float
    ac_plausible: bool

    @property
    def passed(self) -> bool:
        return (self.a_ok and self.g_ok and self.recurrence_plausible
                and self.ac_plausible)

    def as_dict(self) -> dict:
        """The fields in order, ``lam`` written as "lambda", then "passed"."""
        return {("lambda" if f.name == "lam" else f.name): getattr(self, f.name)
                for f in fields(self)} | {"passed": self.passed}


_T_PROBE = (0.0, 0.5, 1.0)  # the times at which G G^T is screened


def validate_assumptions(system: CoupledSystem, lam: float, sample_budget: int,
                         radius: float, seed: int, eps: float = 0.1) -> ValidationReport:
    """Sample-based check of ellipticity, recurrence and non-explosion.

    Eigenvalues of both half-covariances are screened against [1/lam, lam]
    over a box of side 2*radius, G's at the times _T_PROBE; the inward-drift
    checks sample the sphere |x| = radius.  ``eps`` is the smallest scale at
    which the combined drift b + eps*c is screened.  Deterministic under ``seed``.
    """
    lam, radius, eps = _real("lam", lam, lo=1.0), _real("radius", radius), _real("eps", eps)
    n = _count("sample_budget", sample_budget)
    d1, d2 = system.d1, system.d2

    u = rng.uniforms(seed, rng.LANE_VALIDATE, 0, np.arange(n), d1 + d2)
    x_box = (2.0 * u[:, :d1] - 1.0) * radius
    y_box = (2.0 * u[:, d1:] - 1.0) * radius

    a = system.fast_cov(x_box, y_box)
    a = _require_finite("sigma", np.broadcast_to(a, (n, d1, d1)))
    a_eigs = np.linalg.eigvalsh(a)
    a_min, a_max = float(a_eigs.min()), float(a_eigs.max())

    g_min, g_max = np.inf, -np.inf
    for t in _T_PROBE:
        gc = system.slow_cov(t, x_box, y_box)
        gc = _require_finite("G", np.broadcast_to(gc, (n, d2, d2)))
        g_eigs = np.linalg.eigvalsh(gc)
        g_min = min(g_min, float(g_eigs.min()))
        g_max = max(g_max, float(g_eigs.max()))

    tol = 1e-12
    a_ok = (a_min >= 1.0 / lam - tol) and (a_max <= lam + tol)
    g_ok = (g_min >= 1.0 / lam - tol) and (g_max <= lam + tol)

    zs = rng.normals(seed, rng.LANE_VALIDATE, 1, np.arange(n), d1)
    norms = np.linalg.norm(zs, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    x_sph = zs / norms * radius

    bv = _require_finite("b", system.b(x_sph, y_box))
    rec = float(np.max(np.sum(x_sph * bv, axis=-1)))
    cv = _require_finite("c", system.c(x_sph, y_box))
    ac = float(np.max(np.sum(x_sph * (bv + eps * cv), axis=-1)))

    return ValidationReport(
        lam=lam, sample_budget=n, radius=radius, seed=int(seed), eps=eps,
        a_eig_min=a_min, a_eig_max=a_max, a_ok=bool(a_ok),
        g_eig_min=g_min, g_eig_max=g_max, g_ok=bool(g_ok),
        recurrence_max=rec, recurrence_plausible=bool(rec < 0.0),
        ac_max=ac, ac_plausible=bool(ac < 0.0),
    )
