"""Command line front end.

Every subcommand except ``classify`` reads a JSON config, runs, and returns
its table and summary; :func:`run_cli` alone writes them, into the
directory the config names as "out_dir":

- ``<command>.csv``: a header line, then one line per row; a text cell is
  written as it is and every other cell as ``repr(float(v))``;
- ``<command>_summary.json``: the summary as sorted, indented JSON with a
  final newline; a non-finite number is written as null.  A run that
  succeeds writes ``{"status": "ok"}`` and its summary; one that fails
  after "out_dir" was read writes only this file, as
  ``{"status": "error", "error": {"type", "message"}}``.

Exit codes: 0 success, 2 config error, 3 numerical failure (blow-up, PSD
failure, centering refusal).  Outputs are byte-identical across repeated
runs and chunk sizes.

One reader checks each config key against its kind (``_CONFIG_KEYS``) before
anything runs: a count is a JSON integer, a seed one in [0, 2**64), a real a
JSON number within float range, a flag a JSON boolean, a text, list or object
that JSON type, and a vector a number or a list of numbers; "exponents" and
"theta" may hold fraction strings such as "1/2".  The reader checks kinds
only; the library checks ranges (a radius > 0, a step > 0), and names the
parameter of a value out of its range.  "out_dir" belongs to the run and is
read first, as text.  An absent key is not passed on, so the called
function's default applies; the CLI's own defaults are ``_DEFAULTS``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import rng
from .errors import (BlowUp, ConfigError, GridTooCoarse, NonFiniteCoefficient,
                     NotCentered, PSDFailure, ThetaOutOfRange)
from .corrector import _grid_at, _nodes, gradients
from .ergodic import sample_invariant_measure
from .harness import (_EXPERIMENT_KEYS, ExperimentConfig, _need, _read_config,
                      _take, fluctuation_clt, fluctuation_integrand,
                      fluctuation_lln, parse_budgets, weak_error_experiment)
from .homogenize import Budgets, _solve_on_cloud, regime_averages
from .model import Regime, ScaleSchedule, classify_regime, validate_assumptions
from .presets import get_system

_NUMERICAL = (BlowUp, PSDFailure, NotCentered, NonFiniteCoefficient,
              GridTooCoarse, ThetaOutOfRange)

# the kind of each key a command reads (converge and fluctuate: from_dict's)
_CONFIG_KEYS = {
    "validate": {"preset": "text", "seed": "seed", "lambda": "real",
                 "sample_budget": "count", "radius": "real", "eps": "real"},
    "invariant": {"preset": "text", "seed": "seed", "ys": "vectors", "y": "vector",
                  "burn_in": "real", "n_samples": "count", "thinning": "count",
                  "dt": "real"},
    "corrector": {"preset": "text", "seed": "seed", "grid": "object", "t": "real",
                  "y": "vector", "centering_samples": "count", "gradients": "flag"},
    "average": {"preset": "text", "seed": "seed", "exponents": "list",
                "budgets": "object", "t": "real", "ys": "vectors", "y": "vector"},
    "converge": _EXPERIMENT_KEYS,
    "fluctuate": _EXPERIMENT_KEYS | {"kind": "text", "f": "text"},
}

# the corrector command centers on a larger cloud than the sampler's default
_DEFAULTS = {"seed": 0, "t": 0.0, "lambda": 2.0, "sample_budget": 1000,
             "radius": 10.0, "centering_samples": 20000, "gradients": True}


def _fmt(x) -> str:
    return repr(float(x))


def _finite_or_null(value):
    """``value`` with every non-finite float, in any list or dict, as None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_summary(path, payload: dict) -> None:
    """Write a run summary as sorted, indented, strict JSON with a final
    newline; a non-finite number, such as a slope that could not be fitted,
    is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _write_run(out: Path, name: str, header, rows, summary: dict) -> None:
    """Write ``<name>.csv`` (text cells as they are, others as repr(float))
    and ``<name>_summary.json`` with ``"status": "ok"`` into ``out``."""
    with open(out / f"{name}.csv", "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")
    write_summary(out / f"{name}_summary.json", {"status": "ok"} | summary)


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
    """Pop the run's "out_dir" from ``cfg``, check that it is text, and make it."""
    out = _read_config(_take(cfg, "out_dir"), {"out_dir": "text"}).get("out_dir")
    if not out:
        raise ConfigError("config needs 'out_dir'")
    p = Path(out)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make out_dir {out!r}: {e}") from None
    return p


def _error_summary(out: Path | None, name: str, exc: Exception) -> None:
    if out is None:
        return
    write_summary(out / f"{name}_summary.json", {
        "status": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    })


def _with_defaults(cfg: dict):
    """``cfg`` over ``_DEFAULTS``, y = 0 and ys = [y], and its preset's system."""
    cfg = _DEFAULTS | cfg
    system = get_system(_need(cfg, "preset"))
    cfg = {"y": [0.0] * system.d2} | cfg
    return cfg | {"ys": cfg.get("ys") or [cfg["y"]]}, system


def _cmd_classify(args) -> int:
    parts = [p.strip() for p in args.exponents.split(",")]
    if len(parts) != 3:
        raise ConfigError("--exponents expects 'a,b,g'")
    schedule = ScaleSchedule(*parts)
    print(classify_regime(schedule))
    return 0


def _cmd_validate(cfg: dict) -> tuple:
    cfg, system = _with_defaults(cfg)
    report = validate_assumptions(
        system, lam=cfg["lambda"], sample_budget=cfg["sample_budget"],
        radius=cfg["radius"], seed=cfg["seed"], **_take(cfg, "eps"))
    summary = report.as_dict()
    rows = [[key, str(val) if isinstance(val, bool) else val]
            for key, val in summary.items()]
    return ["metric", "value"], rows, summary


def _cmd_invariant(cfg: dict) -> tuple:
    cfg, system = _with_defaults(cfg)
    d1, d2 = system.d1, system.d2
    header = ([f"y_{j+1}" for j in range(d2)]
              + [f"mean_{j+1}" for j in range(d1)]
              + [f"var_{j+1}" for j in range(d1)] + ["ess"])
    rows = []
    budget = _take(cfg, "burn_in", "n_samples", "thinning", "dt")
    for i, y in enumerate(cfg["ys"]):
        mu = sample_invariant_measure(
            system, y, seed=rng.derive_key(cfg["seed"], rng.LANE_AUX, 41, i), **budget)
        rows.append([*mu.y, *mu.samples.mean(axis=0), *mu.samples.var(axis=0, ddof=1),
                     mu.ess])
    # every cloud has the same number of chains
    return header, rows, {"n_chains": mu.n_chains, "min_ess": min(r[-1] for r in rows),
                          "seed": cfg["seed"], "preset": system.name}


def _cmd_corrector(cfg: dict) -> tuple:
    """Phi of the preset's H, solved as in a cell on the default
    :class:`Budgets` grid over the centering cloud (keyed by "seed") and the
    config's grid, then read at the config's nodes; each se column is the
    grid bias estimate.  With "gradients" (the default) the solve runs only
    at y +/- delta, so phi and se are the pair's mean, O(delta^2) from the
    centre's solution."""
    cfg, system = _with_defaults(cfg)
    grid = _read_config(_need(cfg, "grid", ": {lo, hi, n}"),
                        {"lo": "vector", "hi": "vector", "n": "counts"}, "grid")
    lo, hi, npts = (np.atleast_1d(_need(grid, key)) for key in ("lo", "hi", "n"))
    if not (len(lo) == len(hi) == len(npts) == system.d1):
        raise ConfigError("grid lo/hi/n must have length d1")
    points = _nodes([np.linspace(lo[j], hi[j], npts[j]) for j in range(system.d1)])
    want_grad, t, y = cfg["gradients"], cfg["t"], cfg["y"]
    mu = sample_invariant_measure(
        system, y, n_samples=cfg["centering_samples"],
        seed=rng.derive_key(cfg["seed"], rng.LANE_AUX, 43))
    field, z = _solve_on_cloud(system, system.H, t, y, mu, Budgets(), want_grad,
                               cover=points)
    if want_grad:
        field = gradients(field)
    d1, k, d2, n = system.d1, field.k, system.d2, points.shape[0]
    header = ([f"x_{j+1}" for j in range(d1)]
              + [f"phi_{j+1}" for j in range(k)]
              + [f"se_{j+1}" for j in range(k)])
    blocks = [points, _grid_at(field, field.values, points),
              _grid_at(field, field.se, points)]
    if want_grad:
        header += [f"grad_x_{i+1}{j+1}" for i in range(k) for j in range(d1)]
        header += [f"grad_y_{i+1}{j+1}" for i in range(k) for j in range(d2)]
        blocks += [_grid_at(field, field.values, points, derivative=1).reshape(n, -1),
                   _grid_at(field, field.grad_y, points).reshape(n, -1)]
    return header, np.hstack(blocks), {
        "centering_z": z, "seed": cfg["seed"], "preset": system.name}


def _cmd_average(cfg: dict) -> tuple:
    cfg, system = _with_defaults(cfg)
    regime = classify_regime(ScaleSchedule(*_need(cfg, "exponents", ": [a, b, g]")))
    if regime is Regime.UNCLASSIFIED:
        raise ConfigError("exponents do not fall in a regime")
    budgets, sizes = parse_budgets(cfg.get("budgets", {}))
    if sizes:
        # paths_coupled sizes an experiment's ensembles; average runs none
        raise ConfigError(f"unknown budget fields: {sorted(sizes)}")
    d2 = system.d2
    header = (["regime", "t"] + [f"y_{j+1}" for j in range(d2)]
              + [f"fhat_{j+1}" for j in range(d2)]
              + [f"ghat_{i+1}{j+1}" for i in range(d2) for j in range(d2)]
              + [f"se_{j+1}" for j in range(d2)])
    rows = []
    for i, y in enumerate(cfg["ys"]):
        ra = regime_averages(system, regime, cfg["t"], y, budgets,
                             seed=rng.derive_key(cfg["seed"], rng.LANE_AUX, 44, i))
        rows.append([str(regime), cfg["t"], *np.atleast_1d(y), *ra.fhat,
                     *ra.ghat.ravel(), *ra.fhat_se])
    return header, rows, {"regime": str(regime), "seed": cfg["seed"],
                          "preset": system.name}


def _cmd_converge(cfg: dict) -> tuple:
    report = weak_error_experiment(ExperimentConfig.from_dict(cfg))
    return *report.table(), report.summary()


def _cmd_fluctuate(cfg: dict) -> tuple:
    run = {"lln": fluctuation_lln, "clt": fluctuation_clt}.get(cfg.pop("kind", "lln"))
    if run is None:
        raise ConfigError("fluctuate kind must be 'lln' or 'clt'")
    f = fluctuation_integrand(cfg.pop("f", "x_minus_y"))
    report = run(ExperimentConfig.from_dict(cfg), f)
    return *report.table(), report.summary()


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
        cfg = _read_config(cfg, _CONFIG_KEYS[args.command])
        _write_run(out, args.command, *_CONFIG_COMMANDS[args.command](cfg))
        return 0
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


if __name__ == "__main__":
    main()
