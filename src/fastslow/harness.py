"""End-to-end experiments: weak-error rate studies and fluctuation diagnostics.

The weak-error study simulates the coupled ensemble at each eps and the
limit ensemble once (it does not depend on eps).  Weak errors are always
paired: both run ``paths_coupled`` paths on the slow-noise lane, so each
error and its SE come from per-path differences.  The study takes the sup
of |error| over a fixed time grid and fits a log-log slope over the eps
values whose error clears three standard errors.  Constants are not
reproducible, so everything here is about shapes: monotonicity and slope.

A report returns its table as ``table()`` -> (header, rows) and its summary
as ``summary()``, and writes nothing; the command line front end
(:mod:`fastslow.cli`) writes every output file.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np

from . import __version__ as _pkg_version
from . import rng
from .corrector import codomain
from .errors import ConfigError, NotCentered, ThetaOutOfRange
from .ergodic import centering_residual
from .homogenize import Budgets, CachePolicy, CellField, build_limit_sde, \
    corrector_corrections, _cloud
from .model import CoupledSystem, Regime, ScaleSchedule, classify_regime, \
    _as_fraction, _count, _real
from .presets import get_system
from .simulate import PathConfig, integrate_coupled, integrate_limit
from .testfns import FLUCT_LIBRARY, get_phi

Array = np.ndarray

CONVERGE_CSV_HEADER = ("eps,t,phi,err,se,sup_err,theoretical_exponent,"
                       "fitted_slope,slope_ci_lo,slope_ci_hi")
LLN_CSV_HEADER = "kind,eps,comp,value,se,bound_shape"
CLT_CSV_HEADER = "kind,eps,comp,lhs,correction,residual,se,bound_shape"


@dataclass(frozen=True)
class RateResult:
    """Dominant eps-exponent of the weak-error bound plus its term breakdown."""

    regime: Regime
    exponent: Fraction
    terms: dict
    warning: str | None = None


def theoretical_rate(regime: Regime, schedule: ScaleSchedule, theta) -> RateResult:
    """Exponent of the dominant bound term for the regime at smoothness theta."""
    th = _as_fraction(theta)
    a, b, g = schedule.exponents
    if regime in (Regime.R1, Regime.R2):
        if not 0 < th <= 2:
            raise ThetaOutOfRange("theta must lie in (0, 2] for regimes 1-2")
    elif regime in (Regime.R3, Regime.R4):
        if not 0 < th <= 1:
            raise ThetaOutOfRange("theta must lie in (0, 1] for regimes 3-4")
    else:
        raise ValueError("cannot rate an unclassified regime")

    if regime is Regime.R1:
        terms = {"alpha^theta/gamma": th * a - g,
                 "alpha^2/gamma^2": 2 * a - 2 * g,
                 "alpha^2/(beta*gamma)": 2 * a - b - g}
    elif regime is Regime.R2:
        terms = {"alpha^theta/gamma": th * a - g,
                 "alpha^2/gamma^2": 2 * a - 2 * g,
                 "alpha^2/beta": 2 * a - b}
    elif regime is Regime.R3:
        terms = {"alpha^theta": th * a, "alpha/beta": a - b}
    else:
        terms = {"alpha^theta": th * a}

    warning = None
    if regime in (Regime.R1, Regime.R2) and th * a - g <= 0:
        warning = ("alpha^theta/gamma does not vanish for these exponents; "
                   "the bound is not guaranteed to shrink")
        warnings.warn(warning, stacklevel=2)
    return RateResult(regime=regime, exponent=min(terms.values()), terms=terms,
                      warning=warning)


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _num(v) -> bool:
    """A JSON number that casts to a finite float: json reads Infinity and
    NaN as floats, and an integer of any size as an int."""
    return (_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _each(ok):
    return lambda v: ok(v) or isinstance(v, (list, tuple)) and all(map(ok, v))


# each kind of config value: what it must be, its check, and its form if changed
_KINDS = {
    "count": ("a JSON integer", _int, None),
    # rng.derive_key keeps a seed mod 2**64, so no two accepted seeds alias
    "seed": ("a JSON integer in [0, 2**64)", lambda v: _int(v) and 0 <= v < 2 ** 64,
             None),
    "counts": ("an integer or a list of integers", _each(_int), None),
    "real": ("a finite JSON number", _num, float),
    "vector": ("a finite number or a list of finite numbers", _each(_num),
               lambda v: tuple(np.atleast_1d(v).astype(float))),
    "vectors": ("a list of vectors", lambda v: isinstance(v, (list, tuple))
                and all(map(_each(_num), v)), None),
    "rational": ("a finite number or a fraction string",
                 lambda v: _num(v) or isinstance(v, str), None),
    "flag": ("a JSON boolean", lambda v: isinstance(v, bool), None),
    "text": ("a JSON string", lambda v: isinstance(v, str), None),
    "list": ("a JSON list", lambda v: isinstance(v, (list, tuple)), None),
    "object": ("a JSON object", lambda v: isinstance(v, dict), None),
    "budget": ("", lambda v: True, None),  # Budgets checks its own fields
}


def _read_config(d, kinds: dict, what: str = "config") -> dict:
    """The entries of the JSON object ``d`` checked against, and cast by, their
    kinds in ``kinds``; an unknown key or a wrong kind raises ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(d) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown {what} fields: {unknown}")
    out = {}
    for key, value in d.items():
        phrase, ok, cast = _KINDS[kinds[key]]
        if not ok(value):
            raise ConfigError(f"{key} must be {phrase}, got {value!r}")
        out[key] = value if cast is None else cast(value)
    return out


def _take(d: dict, *keys) -> dict:
    return {k: d.pop(k) for k in keys if k in d}


def _need(d: dict, key: str, form: str = ""):
    if key not in d:
        raise ConfigError(f"config needs '{key}'{form}")
    return d.pop(key)


_EXPERIMENT_KEYS = {
    "preset": "text", "seed": "seed", "exponents": "list",
    "theta": "rational", "eps_list": "vector", "budgets": "object", "quantum": "real",
    "interpolate": "flag", "phi": "list", "T": "real", "time_grid_n": "count",
    "dt_slow": "real", "micro_substeps": "count", "x0": "vector", "y0": "vector",
    "chunk_size": "count"}


def parse_budgets(d) -> tuple[Budgets, dict]:
    """A config's "budgets": the :class:`Budgets`, which checks its own fields,
    and the count "paths_coupled" of :class:`ExperimentConfig` if it is set."""
    d = _read_config(d, dict.fromkeys(Budgets.__dataclass_fields__, "budget")
                     | {"paths_coupled": "count"}, "budget")
    sizes = _take(d, "paths_coupled")
    return Budgets(**d), sizes


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration for the harness experiments."""

    system: CoupledSystem
    system_name: str
    schedule: ScaleSchedule
    theta: Fraction
    eps_list: tuple[float, ...]
    T: float = 1.0
    time_grid_n: int = 11
    phi_names: tuple[str, ...] = ("tanh",)
    x0: tuple[float, ...] = (0.0,)
    y0: tuple[float, ...] = (0.5,)
    dt_slow: float = 0.01
    micro_substeps: int = 10
    paths_coupled: int = 20000
    budgets: Budgets = dc_field(default_factory=Budgets)
    cache: CachePolicy = dc_field(default_factory=CachePolicy)
    seed: int = 0
    chunk_size: int = 8192

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        if not eps or any(not 0 < e < 1 for e in eps):
            raise ConfigError("eps_list entries must lie in (0, 1)")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
        object.__setattr__(self, "eps_list", eps)
        try:  # a study needs a positive horizon; PathConfig checks the rest
            _count("time_grid_n", self.time_grid_n, least=2)
            _real("T", self.T)
            self.path_config()
        except ValueError as e:  # named as the config names them
            raise ConfigError(str(e).replace("micro_substeps_per_alpha2", "micro_substeps")
                              .replace("n_paths", "paths_coupled")) from None
        rng.check_seed(self.seed)
        for name in self.phi_names:
            get_phi(name)
        object.__setattr__(self, "theta", _as_fraction(self.theta))

    @property
    def time_grid(self) -> tuple[float, ...]:
        n = self.time_grid_n
        k = max(1, int(round(self.T / self.dt_slow)))
        nodes = [round(i * (k / (n - 1))) * (self.T / k) for i in range(n)]
        return tuple(nodes)

    @property
    def regime(self) -> Regime:
        return classify_regime(self.schedule)

    def path_config(self, snapshot_times=None) -> PathConfig:
        """Coupled-ensemble settings of this experiment."""
        return PathConfig(T=self.T, dt_slow=self.dt_slow,
                          micro_substeps_per_alpha2=self.micro_substeps,
                          seed=self.seed, n_paths=self.paths_coupled,
                          snapshot_times=snapshot_times,
                          chunk_size=self.chunk_size)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Resolve a converge or fluctuate config, each key read by its kind in
        ``_EXPERIMENT_KEYS``: "preset" names the system, "exponents" the schedule,
        "budgets" goes through :func:`parse_budgets`, "quantum" and "interpolate"
        make the :class:`CachePolicy`, "phi" sets ``phi_names`` and the other keys
        name fields.  "theta" defaults to 1; other absent keys are not passed on."""
        d = {"theta": 1} | _read_config(d, _EXPERIMENT_KEYS)
        name = _need(d, "preset")
        exponents = _need(d, "exponents", ": [a, b, g]")
        budgets, sizes = parse_budgets(d.pop("budgets", {}))
        cache = CachePolicy(**_take(d, "quantum", "interpolate"))
        if "phi" in d:
            d["phi_names"] = tuple(d.pop("phi"))
        try:
            return cls(system=get_system(name), system_name=name,
                       schedule=ScaleSchedule(*exponents), budgets=budgets,
                       cache=cache, **sizes, **d)
        except (TypeError, ValueError, KeyError) as e:
            raise ConfigError(f"bad config value: {e}") from None

    def provenance(self) -> dict:
        return {
            "system": self.system_name,
            "exponents": [str(q) for q in self.schedule.exponents],
            "theta": str(self.theta),
            "eps_list": list(self.eps_list),
            "seed": self.seed,
            "paths_coupled": self.paths_coupled,
            "budgets": {k: getattr(self.budgets, k)
                        for k in Budgets.__dataclass_fields__},
            "versions": {"fastslow": _pkg_version,
                         "numpy": np.__version__,
                         "rng_backend": rng.backend_name()},
        }


@dataclass
class WeakErrorReport:
    """Per-(eps, t, phi) weak errors plus the fitted log-log slope."""

    config: ExperimentConfig
    regime: Regime
    time_grid: tuple[float, ...]
    err: Array          # (n_eps, n_t, n_phi)
    se: Array
    sup_err: Array      # (n_eps,)
    sup_se: Array
    rate: RateResult
    fitted_slope: float
    slope_ci: tuple[float, float]
    n_qualifying: int
    insufficient_signal: bool

    def table(self) -> tuple[list, list]:
        """(header, rows): one row per (eps, t, phi), the phi name as text."""
        cfg = self.config
        rows = [[eps, t, name, self.err[i, j, p], self.se[i, j, p], self.sup_err[i],
                 self.rate.exponent, self.fitted_slope, *self.slope_ci]
                for i, eps in enumerate(cfg.eps_list)
                for j, t in enumerate(self.time_grid)
                for p, name in enumerate(cfg.phi_names)]
        return CONVERGE_CSV_HEADER.split(","), rows

    def summary(self) -> dict:
        return {
            "regime": str(self.regime),
            "theoretical_exponent": float(self.rate.exponent),
            "rate_terms": {k: float(v) for k, v in self.rate.terms.items()},
            "rate_warning": self.rate.warning,
            "eps": list(self.config.eps_list),
            "time_grid": list(self.time_grid),
            "phi": list(self.config.phi_names),
            "err": self.err.tolist(),
            "se": self.se.tolist(),
            "sup_err": self.sup_err.tolist(),
            "sup_se": self.sup_se.tolist(),
            "fitted_slope": self.fitted_slope,
            "slope_ci": list(self.slope_ci),
            "n_qualifying": self.n_qualifying,
            "insufficient_signal": self.insufficient_signal,
            "provenance": self.config.provenance(),
        }


def _fit_loglog(eps: Array, sup_err: Array, sup_se: Array):
    """Least-squares slope of log(err) vs log(eps) over qualifying points."""
    mask = (sup_err > 3.0 * sup_se) & (sup_err > 0.0)
    n = int(mask.sum())
    if n < 3:
        return math.nan, (math.nan, math.nan), n, True
    x = np.log(eps[mask])
    z = np.log(sup_err[mask])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, z, rcond=None)
    slope = float(coef[0])
    ssr = float(res[0]) if res.size else float(((A @ coef - z) ** 2).sum())
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(ssr / (n - 2) / sxx) if sxx > 0 else math.nan
    ci = (slope - 1.96 * stderr, slope + 1.96 * stderr)
    return slope, ci, n, False


def weak_error_experiment(cfg: ExperimentConfig) -> WeakErrorReport:
    """Weak errors against the regime limit over eps, with a rate fit."""
    regime = cfg.regime
    if regime is Regime.UNCLASSIFIED:
        raise ConfigError("the configured exponents do not fall in a regime")
    rate = theoretical_rate(regime, cfg.schedule, cfg.theta)
    grid = cfg.time_grid
    phis = [get_phi(name) for name in cfg.phi_names]

    limit = build_limit_sde(regime, cfg.system, cfg.budgets, cfg.cache,
                            seed=rng.derive_key(cfg.seed, rng.LANE_AUX, 21))
    lim_res = integrate_limit(
        limit, cfg.y0, cfg.T, cfg.dt_slow, seed=cfg.seed, n_paths=cfg.paths_coupled,
        snapshot_times=grid, chunk_size=cfg.chunk_size)
    lim_vals = np.stack([np.stack([phi(lim_res.snapshots_slow[j])
                                   for j in range(len(grid))])
                         for phi in phis], axis=-1)  # (n_t, n_paths, n_phi)

    n_eps = len(cfg.eps_list)
    err = np.empty((n_eps, len(grid), len(phis)))
    se = np.empty_like(err)
    for i, eps in enumerate(cfg.eps_list):
        res = integrate_coupled(cfg.system, cfg.schedule, eps, cfg.x0, cfg.y0,
                                cfg.path_config(grid))
        for j in range(len(grid)):
            for p, phi in enumerate(phis):
                d = phi(res.snapshots_slow[j]) - lim_vals[j, :, p]
                err[i, j, p] = abs(float(d.mean()))
                se[i, j, p] = float(d.std(ddof=1) / math.sqrt(d.shape[0]))

    flat = err.reshape(n_eps, -1)
    arg = flat.argmax(axis=1)
    sup_err = flat[np.arange(n_eps), arg]
    sup_se = se.reshape(n_eps, -1)[np.arange(n_eps), arg]
    slope, ci, nq, weak = _fit_loglog(np.asarray(cfg.eps_list), sup_err, sup_se)
    return WeakErrorReport(
        config=cfg, regime=regime, time_grid=grid, err=err, se=se,
        sup_err=sup_err, sup_se=sup_se, rate=rate, fitted_slope=slope,
        slope_ci=ci, n_qualifying=nq, insufficient_signal=weak)


def lln_bound_shape(schedule: ScaleSchedule, theta, eps: float) -> float:
    """Shape of the time-integral fluctuation bound at eps."""
    th = float(_as_fraction(theta))
    al, be, ga = schedule.scales(eps)
    return al ** th + al ** min(th, 1.0) * (al / ga) + al * al / be


def clt_bound_shape(regime: Regime, schedule: ScaleSchedule, theta,
                    eps: float) -> float:
    """Shape of the rescaled-integral residual bound at eps, per regime."""
    th = float(_as_fraction(theta))
    al, be, ga = schedule.scales(eps)
    if regime is Regime.R1:
        return al ** th / ga + (al / ga) ** 2 + al * al / (be * ga)
    if regime is Regime.R2:
        return al ** th / ga + (al / ga) ** 2 + al * al / be
    if regime is Regime.R3:
        return al ** th + al / be
    if regime is Regime.R4:
        return al ** th
    raise ValueError("unclassified regime")


@dataclass
class FluctuationReport:
    """Per-eps fluctuation estimates for one centered integrand."""

    kind: str                      # "lln" or "clt"
    config: ExperimentConfig
    eps: tuple[float, ...]
    values: Array                  # lln: mean integral; clt: residual  (n_eps, k)
    se: Array                      # (n_eps, k)
    bounds: Array                  # (n_eps,)
    lhs: Array | None = None       # clt only: rescaled integral mean
    correction: Array | None = None

    def table(self) -> tuple[list, list]:
        """(header, rows): one row per (eps, component), kind and component
        as text."""
        clt = self.kind == "clt"
        rows = [[self.kind, eps, str(c + 1),
                 *([self.lhs[i, c], self.correction[i, c]] if clt else []),
                 self.values[i, c], self.se[i, c], self.bounds[i]]
                for i, eps in enumerate(self.eps)
                for c in range(self.values.shape[1])]
        return (CLT_CSV_HEADER if clt else LLN_CSV_HEADER).split(","), rows

    def summary(self) -> dict:
        out = {
            "kind": self.kind,
            "eps": list(self.eps),
            "values": self.values.tolist(),
            "se": self.se.tolist(),
            "bound_shape": self.bounds.tolist(),
            "provenance": self.config.provenance(),
        }
        if self.lhs is not None:
            out["lhs"] = self.lhs.tolist()
            out["correction"] = self.correction.tolist()
        return out


def _check_centered(cfg: ExperimentConfig, f) -> None:
    budgets = replace(cfg.budgets,
                      invariant_samples=min(cfg.budgets.invariant_samples, 20000))
    mu = _cloud(cfg.system, cfg.y0, budgets,
                rng.derive_key(cfg.seed, rng.LANE_AUX, 31))
    z = centering_residual(f, mu, 0.0)
    if z > 3.0:
        raise NotCentered(
            f"integrand fails the centering gate at the initial slow state "
            f"(z = {z:.3g})")


def fluctuation_lln(cfg: ExperimentConfig, f) -> FluctuationReport:
    """Ensemble mean of the plain time integral of ``f`` along coupled paths."""
    _check_centered(cfg, f)
    means, ses = [], []
    for eps in cfg.eps_list:
        res = integrate_coupled(cfg.system, cfg.schedule, eps, cfg.x0, cfg.y0,
                                cfg.path_config(), integrand=f)
        ints = res.integrals
        means.append(ints.mean(axis=0))
        ses.append(ints.std(axis=0, ddof=1) / math.sqrt(ints.shape[0]))
    bounds = np.array([lln_bound_shape(cfg.schedule, cfg.theta, e)
                       for e in cfg.eps_list])
    return FluctuationReport(kind="lln", config=cfg, eps=cfg.eps_list,
                             values=np.stack(means), se=np.stack(ses),
                             bounds=bounds)


def fluctuation_clt(cfg: ExperimentConfig, f, regime: Regime | None = None,
                    ) -> FluctuationReport:
    """Residual of the rescaled time integral of ``f`` against the regime's
    corrector functional accumulated along the same paths."""
    regime = regime or cfg.regime
    if regime is Regime.UNCLASSIFIED:
        raise ConfigError("fluctuation_clt needs a classified regime")
    _check_centered(cfg, f)

    k = codomain(f, 0.0, np.zeros((2, cfg.system.d1)), np.asarray(cfg.y0))

    def cell_fn(t_c, y_c, cell_seed):
        val, _ = corrector_corrections(cfg.system, f, regime, t_c, y_c,
                                       cfg.budgets, cell_seed)
        return val

    field = CellField(cell_fn, cfg.cache, rng.derive_key(cfg.seed, rng.LANE_AUX, 32),
                      cfg.system.autonomous)

    def correction_fn(t, Y):
        return field.eval_batch(t, Y)[:, :k]

    lhs_m, corr_m, resid_m, ses = [], [], [], []
    for eps in cfg.eps_list:
        _, _, ga = cfg.schedule.scales(eps)
        res = integrate_coupled(cfg.system, cfg.schedule, eps, cfg.x0, cfg.y0,
                                cfg.path_config(), integrand=f,
                                macro_integrand=correction_fn)
        lhs = res.integrals / ga
        corr = res.macro_integrals
        resid = lhs - corr
        lhs_m.append(lhs.mean(axis=0))
        corr_m.append(corr.mean(axis=0))
        resid_m.append(resid.mean(axis=0))
        ses.append(resid.std(axis=0, ddof=1) / math.sqrt(resid.shape[0]))
    bounds = np.array([clt_bound_shape(regime, cfg.schedule, cfg.theta, e)
                       for e in cfg.eps_list])
    return FluctuationReport(kind="clt", config=cfg, eps=cfg.eps_list,
                             values=np.stack(resid_m), se=np.stack(ses),
                             bounds=bounds, lhs=np.stack(lhs_m),
                             correction=np.stack(corr_m))


def fluctuation_integrand(name: str):
    try:
        return FLUCT_LIBRARY[name]
    except KeyError:
        raise ConfigError(f"unknown fluctuation integrand {name!r}; "
                          f"known: {sorted(FLUCT_LIBRARY)}") from None
