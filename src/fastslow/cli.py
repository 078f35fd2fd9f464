"""Command line front end.

Every subcommand except ``classify`` reads a JSON config and writes a CSV
plus a JSON summary into the configured output directory.  Exit codes:
0 success, 2 config error, 3 numerical failure (blow-up, PSD failure,
centering refusal).  Outputs are byte-identical across repeated runs and
chunk sizes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import rng
from .errors import (BlowUp, ConfigError, GridTooCoarse, NonFiniteCoefficient,
                     NotCentered, PSDFailure, ThetaOutOfRange)
from .corrector import CorrectorQuery, gradients, solve_poisson_fk
from .ergodic import centering_residual, sample_invariant_measure
from .harness import (ExperimentConfig, _fmt, _json_bool, fluctuation_clt,
                      fluctuation_integrand, fluctuation_lln, parse_budgets,
                      weak_error_experiment, write_summary)
from .homogenize import regime_averages
from .model import Regime, ScaleSchedule, classify_regime, validate_assumptions
from .presets import get_system

_NUMERICAL = (BlowUp, PSDFailure, NotCentered, NonFiniteCoefficient,
              GridTooCoarse, ThetaOutOfRange)

# the keys each command reads; converge and fluctuate check theirs in
# ExperimentConfig.from_dict
_COMMON_KEYS = {"preset", "out_dir", "seed"}
_CONFIG_KEYS = {
    "validate": _COMMON_KEYS | {"lambda", "sample_budget", "radius", "eps"},
    "invariant": _COMMON_KEYS | {"ys", "y", "burn_in", "n_samples", "thinning", "dt"},
    "corrector": _COMMON_KEYS | {"grid", "t", "y", "T_max", "n_paths", "dt",
                                 "centering_samples", "gradients"},
    "average": _COMMON_KEYS | {"exponents", "budgets", "t", "ys", "y"},
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path!r}: line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return cfg


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out_dir")
    if not out:
        raise ConfigError("config needs 'out_dir'")
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _error_summary(out: Path | None, name: str, exc: Exception) -> None:
    if out is None:
        return
    write_summary(out / f"{name}_summary.json", {
        "status": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    })


def _cmd_classify(args) -> int:
    parts = [p.strip() for p in args.exponents.split(",")]
    if len(parts) != 3:
        raise ConfigError("--exponents expects 'a,b,g'")
    schedule = ScaleSchedule(*parts)
    print(classify_regime(schedule))
    return 0


def _cmd_validate(cfg: dict, out: Path) -> int:
    system = get_system(cfg.get("preset"))
    report = validate_assumptions(
        system, lam=float(cfg.get("lambda", 2.0)),
        sample_budget=int(cfg.get("sample_budget", 1000)),
        radius=float(cfg.get("radius", 10.0)), seed=int(cfg.get("seed", 0)),
        eps=float(cfg.get("eps", 0.1)))
    rows = report.as_dict()
    with open(out / "validate.csv", "w", newline="") as fh:
        fh.write("metric,value\n")
        for key, val in rows.items():
            fh.write(f"{key},{val if isinstance(val, bool) else _fmt(val)}\n")
    write_summary(out / "validate_summary.json", {"status": "ok", **rows})
    return 0


def _cmd_invariant(cfg: dict, out: Path) -> int:
    system = get_system(cfg.get("preset"))
    ys = cfg.get("ys") or [cfg.get("y", [0.0] * system.d2)]
    seed = int(cfg.get("seed", 0))
    d1, d2 = system.d1, system.d2
    header = ([f"y_{j+1}" for j in range(d2)]
              + [f"mean_{j+1}" for j in range(d1)]
              + [f"var_{j+1}" for j in range(d1)] + ["ess"])
    lines = []
    for i, y in enumerate(ys):
        mu = sample_invariant_measure(
            system, y, burn_in=float(cfg.get("burn_in", 10.0)),
            n_samples=int(cfg.get("n_samples", 10000)),
            thinning=int(cfg.get("thinning", 10)),
            dt=float(cfg.get("dt", 1e-3)),
            seed=rng.derive_key(seed, rng.LANE_AUX, 41, i))
        mean = mu.samples.mean(axis=0)
        var = mu.samples.var(axis=0, ddof=1)
        lines.append([_fmt(v) for v in list(mu.y) + list(mean) + list(var)]
                     + [_fmt(mu.ess)])
    with open(out / "invariant.csv", "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in lines:
            fh.write(",".join(row) + "\n")
    write_summary(out / "invariant_summary.json",
                  {"status": "ok", "header": header, "rows": lines,
                   "seed": seed, "preset": system.name})
    return 0


def _cmd_corrector(cfg: dict, out: Path) -> int:
    system = get_system(cfg.get("preset"))
    grid = cfg.get("grid")
    if not grid:
        raise ConfigError("corrector config needs 'grid': {lo, hi, n}")
    lo = np.atleast_1d(np.asarray(grid["lo"], dtype=float))
    hi = np.atleast_1d(np.asarray(grid["hi"], dtype=float))
    npts = np.atleast_1d(np.asarray(grid["n"], dtype=int))
    if not (len(lo) == len(hi) == len(npts) == system.d1):
        raise ConfigError("grid lo/hi/n must have length d1")
    axes = tuple(np.linspace(lo[j], hi[j], npts[j]) for j in range(system.d1))
    want_grad = _json_bool("gradients", cfg.get("gradients", True))
    t = float(cfg.get("t", 0.0))
    y = np.atleast_1d(np.asarray(cfg.get("y", [0.0] * system.d2), dtype=float))
    seed = int(cfg.get("seed", 0))
    query = CorrectorQuery(
        t=t, y=y, grid_axes=axes, T_max=float(cfg.get("T_max", 10.0)),
        n_paths=int(cfg.get("n_paths", 10000)), dt=float(cfg.get("dt", 0.01)),
        seed=rng.derive_key(seed, rng.LANE_AUX, 42))
    mu = sample_invariant_measure(
        system, y, n_samples=int(cfg.get("centering_samples", 20000)),
        seed=rng.derive_key(seed, rng.LANE_AUX, 43))
    z = centering_residual(system.H, mu, t)
    field = solve_poisson_fk(system, system.H, query, centering_z=z,
                             want_grad_y=want_grad)
    if want_grad:
        field = gradients(field)
    d1, k, d2 = system.d1, field.k, system.d2
    header = ([f"x_{j+1}" for j in range(d1)]
              + [f"phi_{j+1}" for j in range(k)]
              + [f"se_{j+1}" for j in range(k)])
    if want_grad:
        header += [f"grad_x_{i+1}{j+1}" for i in range(k) for j in range(d1)]
        header += [f"grad_y_{i+1}{j+1}" for i in range(k) for j in range(d2)]
    with open(out / "corrector.csv", "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for q in range(field.values.shape[0]):
            row = [_fmt(v) for v in field.query.points[q]]
            row += [_fmt(v) for v in field.values[q]]
            row += [_fmt(v) for v in field.se[q]]
            if want_grad:
                row += [_fmt(v) for v in field.grad_x[q].ravel()]
                row += [_fmt(v) for v in field.grad_y[q].ravel()]
            fh.write(",".join(row) + "\n")
    write_summary(out / "corrector_summary.json", {
        "status": "ok", "centering_z": z,
        "tail_bound_max": float(field.tail_bound.max()), "seed": seed,
        "preset": system.name,
    })
    return 0


def _cmd_average(cfg: dict, out: Path) -> int:
    system = get_system(cfg.get("preset"))
    schedule = ScaleSchedule(*cfg["exponents"])
    regime = classify_regime(schedule)
    if regime is Regime.UNCLASSIFIED:
        raise ConfigError("exponents do not fall in a regime")
    budgets, _ = parse_budgets(cfg.get("budgets", {}))
    t = float(cfg.get("t", 0.0))
    ys = cfg.get("ys") or [cfg.get("y", [0.0] * system.d2)]
    seed = int(cfg.get("seed", 0))
    d2 = system.d2
    header = (["regime", "t"] + [f"y_{j+1}" for j in range(d2)]
              + [f"fhat_{j+1}" for j in range(d2)]
              + [f"ghat_{i+1}{j+1}" for i in range(d2) for j in range(d2)]
              + [f"se_{j+1}" for j in range(d2)])
    with open(out / "average.csv", "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i, y in enumerate(ys):
            ra = regime_averages(system, regime, t, y, budgets,
                                 seed=rng.derive_key(seed, rng.LANE_AUX, 44, i))
            row = [str(regime), _fmt(t)]
            row += [_fmt(v) for v in np.atleast_1d(np.asarray(y, dtype=float))]
            row += [_fmt(v) for v in ra.fhat]
            row += [_fmt(v) for v in ra.ghat.ravel()]
            row += [_fmt(v) for v in ra.fhat_se]
            fh.write(",".join(row) + "\n")
    write_summary(out / "average_summary.json",
                  {"status": "ok", "regime": str(regime), "seed": seed,
                   "preset": system.name})
    return 0


def _cmd_converge(cfg: dict, out: Path) -> int:
    exp = ExperimentConfig.from_dict(cfg)
    report = weak_error_experiment(exp)
    report.to_csv(out / "converge.csv")
    report.to_json(out / "converge_summary.json")
    return 0


def _cmd_fluctuate(cfg: dict, out: Path) -> int:
    kind = cfg.pop("kind", "lln")
    f = fluctuation_integrand(cfg.pop("f", "x_minus_y"))
    exp = ExperimentConfig.from_dict(cfg)
    if kind == "lln":
        report = fluctuation_lln(exp, f)
    elif kind == "clt":
        report = fluctuation_clt(exp, f)
    else:
        raise ConfigError("fluctuate kind must be 'lln' or 'clt'")
    report.to_csv(out / "fluctuate.csv")
    report.to_json(out / "fluctuate_summary.json")
    return 0


_CONFIG_COMMANDS = {
    "validate": _cmd_validate,
    "invariant": _cmd_invariant,
    "corrector": _cmd_corrector,
    "average": _cmd_average,
    "converge": _cmd_converge,
    "fluctuate": _cmd_fluctuate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="Coupled fast-slow SDE toolkit: averaging, correctors, "
                    "limit equations and rate studies")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="tag a scale schedule by regime")
    p.add_argument("--exponents", required=True,
                   help="comma-separated rational exponents a,b,g")

    for name, help_text in [
        ("validate", "sample-check the standing assumptions"),
        ("invariant", "estimate stationary moments of the frozen equation"),
        ("corrector", "solve the auxiliary equation on a grid"),
        ("average", "evaluate the regime's averaged coefficients"),
        ("converge", "weak-error convergence study"),
        ("fluctuate", "time-integral fluctuation diagnostics"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    out = None
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        cfg = _load_config(args.config)
        out = _out_dir(cfg)
        unknown = sorted(set(cfg) - _CONFIG_KEYS.get(args.command, set()))
        if args.command in _CONFIG_KEYS and unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        return _CONFIG_COMMANDS[args.command](cfg, out)
    except _NUMERICAL as e:
        _error_summary(out, args.command, e)
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, KeyError, TypeError) as e:
        _error_summary(out, args.command, e)
        print(f"config error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
