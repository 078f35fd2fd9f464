"""Import-time guards: what ``import fastslow`` loads, where the package
imports its own modules, that it starts no threads or processes, that
every draw goes through ``rng``'s public entry points, that only
``model.check_state`` raises ``BlowUp``, that only ``model.py`` checks a
number for being finite or infinite, that the grid calculus stays in
``corrector.py`` and that ``corrector.py`` draws nothing, that no config
command coerces a value or writes a numeric default of its own, that only
the CLI opens a file for writing, that the names the benchmark tracer wraps
exist, and the public API surface with the kinds of the CLI's config keys."""

import ast
import dataclasses
import enum
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_import_loads_no_scipy():
    # numpy is the one dependency; a scipy module in sys.modules after the
    # import would mean that some module reaches for it
    probe = ("import sys, fastslow; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# a d1 = 2 system whose cells interpolate the corrector on a 2-d grid, the
# one place that once imported scipy; run with scipy made unimportable
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from fastslow import (Budgets, CoupledSystem, Regime, regime_averages,
                      transfer_derivative)
sigma = np.array([[1.3, 0.4], [-0.2, 0.9]])
system = CoupledSystem(
    d1=2, d2=1, b=lambda x, y: y - x * np.array([1.0, 1.5]),
    sigma=lambda x, y: sigma, c=lambda x, y: 0.3 * np.tanh(x),
    F=lambda t, x, y: x[..., :1] - 2.0 * y, H=lambda t, x, y: x[..., :1] - y,
    G=lambda t, x, y: np.array([[1.0]]), autonomous=True)
budgets = Budgets(invariant_samples=500, invariant_burn_in=1.0, invariant_dt=0.02,
                  corrector_paths=40, corrector_tmax=0.5, corrector_dt=0.05,
                  grid_points=9, n_batches=4)
ra = regime_averages(system, Regime.R4, 0.0, [0.3], budgets, seed=1)
td = transfer_derivative(lambda t, x, y: x[..., 0] * x[..., 1], system, [0.3],
                         [1.0], budgets, seed=2)
print(np.isfinite([*ra.fhat, *ra.ghat.ravel(), td.value]).all())
"""


def test_runs_without_scipy():
    # pyproject.toml lists numpy alone, so a d1 = 2 R4 cell and a d1 = 2
    # transfer derivative must run where scipy cannot be imported
    deps = (SRC.parent / "pyproject.toml").read_text()
    assert "scipy" not in deps
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "fastslow"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "fastslow" for a in node.names)
    return False


def test_no_function_local_package_imports():
    # a package import inside a function body is how an import cycle gets
    # worked around; modules import each other at the top or not at all
    found = set()
    for path in sorted((SRC / "fastslow").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if _is_package_import(node)}
    assert sorted(found) == []


_CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def _concurrency_imports(tree) -> list[int]:
    """Lines that import ``threading``, ``concurrent`` or ``multiprocessing``
    (or a submodule of one), in any form."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] in _CONCURRENCY for n in names):
            lines.append(node.lineno)
    return lines


def test_no_threads_or_processes():
    # every result is independent of how the paths are split, and the
    # chunks run in one loop; no module needs a thread or process pool
    found = []
    for path in sorted((SRC / "fastslow").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _concurrency_imports(tree)]
    assert found == []


def test_concurrency_guard_sees_each_form():
    src = ("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
           "import multiprocessing.pool as mp\nimport numpy\nfrom . import rng\n"
           "def f():\n    import concurrent.futures\n")
    assert sorted(_concurrency_imports(ast.parse(src))) == [1, 2, 3, 7]


def _rng_private_uses(tree) -> list[int]:
    """Lines that reach a private name of ``fastslow.rng``: ``rng._x`` on any
    name the module is bound to, or ``from .rng import _x``."""
    aliases = set()
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "rng":
                lines += [node.lineno for a in node.names if a.name.startswith("_")]
            elif node.level > 0 or module == "fastslow":
                aliases |= {a.asname or a.name for a in node.names if a.name == "rng"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "fastslow.rng" and a.asname}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            lines.append(node.lineno)
    return lines


def test_draws_go_through_public_rng_entry_points():
    # a profiler or tracer that wraps rng.normals and rng.uniforms sees a
    # draw only if no other module calls the hash kernel behind them
    found = []
    for path in sorted((SRC / "fastslow").glob("*.py")):
        if path.name == "rng.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _rng_private_uses(tree)]
    assert found == []


def test_private_rng_guard_sees_each_form():
    src = ("from . import rng\nfrom .rng import _mix, normals\n"
           "import fastslow.rng as R\nrng._row_hashes(0)\nR._top53(1)\nrng.normals(2)\n")
    assert sorted(_rng_private_uses(ast.parse(src))) == [2, 4, 5]


def _blowup_constructions(tree) -> list[str]:
    """The function around each ``BlowUp(...)`` call ("<module>" outside
    any), whether the name is imported plainly, under an alias or reached
    as an attribute."""
    names = {"BlowUp"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.asname for a in node.names if a.name == "BlowUp" and a.asname}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if ((isinstance(f, ast.Name) and f.id in names)
                        or (isinstance(f, ast.Attribute) and f.attr == "BlowUp")):
                    found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return sorted(found)


def test_blowup_is_raised_only_by_check_state():
    # one state check serves every step loop; a loop that builds its own
    # BlowUp has grown a second copy of it
    found = []
    for path in sorted((SRC / "fastslow").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{fn}" for fn in _blowup_constructions(tree)]
    assert found == ["model.py:check_state"]


def test_blowup_guard_sees_each_form():
    src = ("from .errors import BlowUp, BlowUp as B\nfrom . import errors\n"
           "def f():\n    raise BlowUp('a')\n"
           "def g():\n    def h():\n        raise errors.BlowUp('b')\n"
           "    return B('c')\n"
           "kind = BlowUp\nraise kind('d') from BlowUp('e')\n")
    assert _blowup_constructions(ast.parse(src)) == ["<module>", "f", "g", "h"]


def _real_checks(tree) -> list[str]:
    """The function around ("<module>" outside any) each ``math.isfinite``
    call and each comparison with ``math.inf`` or ``np.inf``, negated or
    not, with the names imported plainly, under an alias or from the module."""
    isfinite, inf = {"isfinite"}, {"inf"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            isfinite |= {a.asname for a in node.names if a.name == "isfinite" and a.asname}
            inf |= {a.asname for a in node.names if a.name == "inf" and a.asname}

    def named(node, module, names):
        if isinstance(node, ast.Name):
            return node.id in names
        return (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id in module)

    def is_inf(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return named(node, ("math", "np", "numpy"), inf)

    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if ((isinstance(child, ast.Call) and named(child.func, ("math",), isfinite))
                    or (isinstance(child, ast.Compare)
                        and any(map(is_inf, [child.left, *child.comparators])))):
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return sorted(found)


def test_real_numbers_are_checked_only_in_model():
    # model._real is the one check of a real parameter; a module that tests
    # finiteness or compares with inf by itself has grown a second copy of
    # it.  cli._finite_or_null formats output and checks no input.
    found = []
    for path in sorted((SRC / "fastslow").glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{fn}" for fn in _real_checks(tree)]
    assert [where for where in found if where != "cli.py:_finite_or_null"] == []


def test_real_check_guard_sees_each_form():
    src = ("import math\nimport numpy as np\n"
           "from math import isfinite as fin, inf as INF\n"
           "def f(x):\n    return math.isfinite(x)\n"
           "def g(x):\n    def h(y):\n        return y < np.inf\n"
           "    return -math.inf < x < 1.0\n"
           "def k(x):\n    return fin(x) or x == -INF\n"
           "ok = math.isfinite(1.0) and np.isfinite(2.0)\n"
           "span = (-math.inf, np.inf)\nsmall = 1.0 < 2.0\n")
    assert _real_checks(ast.parse(src)) == ["<module>", "f", "g", "h", "k", "k"]


# the grid calculus of corrector.py: the interpolation, the stencil, the
# interior cut and the node-derivative routine
_GRID_CALCULUS = {"_interp_axes", "_central", "_interior", "_node_derivatives"}


def _grid_calculus_uses(tree) -> list[int]:
    """Lines that reach a name of ``_GRID_CALCULUS``: ``from .corrector import
    _x`` (under any alias), or ``corrector._x`` on any name the module is
    bound to."""
    aliases = set()
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "corrector":
                lines += [node.lineno for a in node.names if a.name in _GRID_CALCULUS]
            elif node.level > 0 or module == "fastslow":
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "corrector"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "fastslow.corrector" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _GRID_CALCULUS:
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                lines.append(node.lineno)
            elif (isinstance(base, ast.Attribute) and base.attr == "corrector"
                    and isinstance(base.value, ast.Name) and base.value.id == "fastslow"):
                lines.append(node.lineno)
    return sorted(lines)


def test_grid_calculus_stays_in_corrector():
    # every read-out of a grid solve at free points goes through
    # corrector._grid_at and corrector.cloud_mean; a module that takes
    # derivatives or interpolates by itself has grown a second read-out
    found = []
    for path in sorted((SRC / "fastslow").glob("*.py")):
        if path.name == "corrector.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _grid_calculus_uses(tree)]
    assert found == []


def test_grid_calculus_guard_sees_each_form():
    src = ("from .corrector import _interp_axes, _grid_at\n"
           "from fastslow.corrector import _node_derivatives as nd\n"
           "from . import corrector\nimport fastslow.corrector as C\n"
           "import fastslow.corrector\n"
           "corrector._central(u, 0, 1.0)\nC._interior(u, (0,))\n"
           "fastslow.corrector._interp_axes(a, g, p)\ncorrector.cloud_mean(m, f, s)\n"
           "from .homogenize import _interior\n")
    assert _grid_calculus_uses(ast.parse(src)) == [1, 2, 6, 7, 8]


def _random_imports(tree) -> list[int]:
    """Lines that import the ``rng`` module or ``block_noise``, in any form:
    ``from . import rng``, ``from .rng import x``, ``import fastslow.rng``,
    ``from .model import block_noise`` (under any alias)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if module == "rng" or any(a.name in ("rng", "block_noise")
                                      for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "rng" for a in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_corrector_draws_nothing():
    # the corrector is a deterministic grid solve: a draw there would make
    # its fields depend on a seed again
    tree = ast.parse((SRC / "fastslow" / "corrector.py").read_text())
    assert _random_imports(tree) == []


def test_random_import_guard_sees_each_form():
    src = ("from . import rng\nfrom .rng import normals as n\n"
           "import fastslow.rng\nfrom .model import check_state, block_noise\n"
           "from fastslow import rng as R\nfrom .model import check_state\n"
           "import numpy as np\n")
    assert _random_imports(ast.parse(src)) == [1, 2, 3, 4, 5]


def _config_coercions(tree) -> list[str]:
    """``<function>:<line>`` of each call of ``int``, ``float`` or ``bool``,
    and of each ``.get`` or ``.pop`` with a numeric literal default, inside a
    ``_cmd_*`` function or ``from_dict``."""
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and (fn.name.startswith("_cmd_") or fn.name == "from_dict")):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("int", "float", "bool"):
                found.append(f"{fn.name}:{node.lineno}")
            elif (isinstance(f, ast.Attribute) and f.attr in ("get", "pop")
                    and len(node.args) == 2):
                default = node.args[1]
                if isinstance(default, ast.UnaryOp):
                    default = default.operand
                if (isinstance(default, ast.Constant)
                        and isinstance(default.value, (int, float))):
                    found.append(f"{fn.name}:{node.lineno}")
    return sorted(set(found))


def test_config_commands_coerce_nothing():
    # every config value is checked by its kind in one reader, and an absent
    # key is left to the called function's default; an int() here would
    # truncate a count, and a literal default would be a second copy
    found = []
    for name in ("cli.py", "harness.py"):
        path = SRC / "fastslow" / name
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{name}:{where}" for where in _config_coercions(tree)]
    assert found == []


def test_coercion_guard_sees_each_form():
    src = ("def _cmd_a(cfg):\n    n = int(cfg['n'])\n    x = float(cfg['x'])\n"
           "    g = bool(cfg['g'])\n    s = cfg.get('s', 0)\n"
           "    t = cfg.pop('t', -1.5)\n    u = cfg.get('u', True)\n"
           "    k = cfg.pop('kind', 'lln')\n    y = cfg.get('y', [0.0])\n"
           "    return cfg.get('z')\n"
           "class C:\n    def from_dict(cls, d):\n"
           "        def inner():\n            return int(d)\n"
           "        return d.get('theta', 1)\n"
           "def helper(v):\n    return float(v)\n")
    assert _config_coercions(ast.parse(src)) == [
        "_cmd_a:2", "_cmd_a:3", "_cmd_a:4", "_cmd_a:5", "_cmd_a:6", "_cmd_a:7",
        "from_dict:14", "from_dict:15"]


_WRITE_MODES = set("wax+")
_WRITE_CALLS = {"write_text", "write_bytes", "save", "savez", "savez_compressed",
                "savetxt", "tofile", "to_csv", "to_json"}


def _file_writes(tree) -> list[int]:
    """Lines that open a file for writing: ``open`` or ``<x>.open`` with a
    mode that writes, appends, creates or updates, given by position or as
    ``mode=``, and calls such as ``write_text``, ``np.save`` or ``tofile``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in _WRITE_CALLS:
            lines.append(node.lineno)
        elif name == "open":
            # open(path, mode) names the file first; path.open(mode) does not
            at = 1 if isinstance(f, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else None
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), mode)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not _WRITE_MODES & set(str(mode.value))):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_the_cli_writes_files():
    # a command returns its table and summary, and one writer in cli.py
    # gives every output file its format; a second writer would be a second
    # copy of that format
    found = []
    for path in sorted((SRC / "fastslow").glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _file_writes(tree)]
    assert found == []


def test_write_guard_sees_each_form():
    src = ("open(p)\nopen(p, 'w')\nopen(p, mode='a', newline='')\n"
           "p.open('rb')\np.open('x')\np.write_text(s)\nnp.save(p, a)\n"
           "a.tofile(p)\nopen(p, m)\nopen(p, 'r+')\np.open(mode='w')\n"
           "open(p, 'rb')\np.read_text()\n")
    assert _file_writes(ast.parse(src)) == [2, 3, 5, 6, 7, 8, 9, 10, 11]


def test_tracer_entry_points_exist(monkeypatch):
    # bench/spans.py wraps each entry point in the module (or class) where
    # the program looks it up, reading owner.__dict__[attr]; a name dropped
    # or moved there makes a traced benchmark run fail with a KeyError
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in spans._entry_points()
               if attr not in owner.__dict__]
    assert missing == []


# Parameter names of every public callable and the fields of the config and
# result types that callers construct.  A change that adds or removes a knob
# edits this pin in the same diff.
PUBLIC_PARAMETERS = {
    "CoupledSystem": ("d1", "d2", "b", "sigma", "c", "F", "H", "G", "autonomous",
                      "name"),
    "ScaleSchedule": ("exp_alpha", "exp_beta", "exp_gamma"),
    "ValidationReport": ("lam", "sample_budget", "radius", "seed", "eps",
                         "a_eig_min", "a_eig_max", "a_ok", "g_eig_min",
                         "g_eig_max", "g_ok", "recurrence_max",
                         "recurrence_plausible", "ac_max", "ac_plausible"),
    "classify_regime": ("schedule",),
    "validate_assumptions": ("system", "lam", "sample_budget", "radius", "seed",
                             "eps", "t_probe"),
    "get_system": ("name",),
    "register_system": ("name", "system"),
    "EnsembleResult": ("terminal_slow", "terminal_fast", "snapshot_times",
                       "snapshots_slow", "snapshots_fast", "max_abs_fast",
                       "integrals", "macro_integrals", "stream_ids", "seed"),
    "PathConfig": ("T", "dt_slow", "micro_substeps_per_alpha2", "seed", "n_paths",
                   "blowup_cap", "snapshot_times", "record_fast", "chunk_size",
                   "n_workers"),
    "integrate_coupled": ("system", "schedule", "eps", "x0", "y0", "cfg",
                          "integrand", "macro_integrand"),
    "integrate_limit": ("avg", "y0", "T", "dt", "seed", "n_paths", "blowup_cap",
                        "snapshot_times", "chunk_size", "n_workers"),
    "MeasureEnsemble": ("y", "samples", "burn_in", "thinning", "dt", "seed", "ess",
                        "n_chains"),
    "average": ("h", "mu", "t"),
    "centering_residual": ("f", "mu", "t"),
    "sample_invariant_measure": ("system", "y", "burn_in", "n_samples", "thinning",
                                 "dt", "seed", "blowup_cap"),
    "CorrectorField": ("query", "values", "coarse", "grad_x", "grad_y",
                       "coarse_grad_y"),
    "CorrectorQuery": ("t", "y", "grid_axes", "T_max", "n_paths", "dt"),
    "OuterProductResult": ("matrix", "se", "antisym_norm"),
    "gradients": ("field",),
    "outer_product_HPhi": ("system", "field", "mu", "t"),
    "solve_poisson_fk": ("system", "f", "query", "centering_z", "want_grad_y",
                         "delta_y"),
    "AveragedSDE": ("regime", "d2", "coefficients_batch", "provenance"),
    "Budgets": ("invariant_samples", "invariant_burn_in", "invariant_thinning",
                "invariant_dt", "corrector_paths", "corrector_tmax", "corrector_dt",
                "grid_points", "grid_pad", "n_batches", "delta_y"),
    "CachePolicy": ("quantum", "interpolate", "t_quantum"),
    "TransferEstimate": ("value", "se", "mean_term", "corrector_term"),
    "build_limit_sde": ("regime", "system", "budgets", "cache_policy", "seed"),
    "psd_sqrt": ("M", "tol_psd"),
    "regime_averages": ("system", "regime", "t", "y", "budgets", "seed",
                        "want_drift", "want_diffusion"),
    "transfer_derivative": ("h", "system", "y", "direction", "budgets", "seed", "t"),
    "ExperimentConfig": ("system", "system_name", "schedule", "theta", "eps_list",
                         "T", "time_grid_n", "phi_names", "x0", "y0", "dt_slow",
                         "micro_substeps", "paths_coupled", "budgets", "cache",
                         "seed", "chunk_size"),
    "FluctuationReport": ("kind", "config", "eps", "values", "se", "bounds", "lhs",
                          "correction"),
    "RateResult": ("regime", "exponent", "terms", "warning"),
    "WeakErrorReport": ("config", "regime", "time_grid", "err", "se", "sup_err",
                        "sup_se", "rate", "fitted_slope", "slope_ci",
                        "n_qualifying", "insufficient_signal"),
    "fluctuation_clt": ("cfg", "f", "regime"),
    "fluctuation_lln": ("cfg", "f"),
    "theoretical_rate": ("regime", "schedule", "theta"),
    "weak_error_experiment": ("cfg",),
}

# The kind of each config key each CLI command reads (converge and fluctuate
# read theirs through ExperimentConfig.from_dict); "out_dir" belongs to the
# run and is read apart.  A change that adds or removes a key, or changes its
# kind, edits this pin in the same diff, as for a knob above.
EXPERIMENT_KEYS = {
    "preset": "text", "seed": "seed", "exponents": "list",
    "theta": "rational", "eps_list": "vector", "budgets": "object",
    "quantum": "real", "interpolate": "flag", "phi": "list", "T": "real",
    "time_grid_n": "count", "dt_slow": "real", "micro_substeps": "count",
    "x0": "vector", "y0": "vector", "chunk_size": "count",
}
CONFIG_KEYS = {
    "validate": {"preset": "text", "seed": "seed", "lambda": "real",
                 "sample_budget": "count", "radius": "real", "eps": "real"},
    "invariant": {"preset": "text", "seed": "seed", "ys": "vectors",
                  "y": "vector", "burn_in": "real", "n_samples": "count",
                  "thinning": "count", "dt": "real"},
    "corrector": {"preset": "text", "seed": "seed", "grid": "object",
                  "t": "real", "y": "vector", "centering_samples": "count",
                  "gradients": "flag"},
    "average": {"preset": "text", "seed": "seed", "exponents": "list",
                "budgets": "object", "t": "real", "ys": "vectors", "y": "vector"},
    "converge": EXPERIMENT_KEYS,
    "fluctuate": EXPERIMENT_KEYS | {"kind": "text", "f": "text"},
}

# dataclass fields: the parameters, plus the points CorrectorQuery builds
FIELDS = {
    name: PUBLIC_PARAMETERS[name]
    for name in ("Budgets", "CachePolicy", "PathConfig", "ExperimentConfig",
                 "MeasureEnsemble")
} | {"CorrectorQuery": PUBLIC_PARAMETERS["CorrectorQuery"] + ("points",)}


def _public_parameters(module) -> dict:
    """Parameter names of each callable in ``module.__all__``; exceptions and
    enums are skipped, since their call signatures are Python's own."""
    out = {}
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj) or (isinstance(obj, type)
                                 and issubclass(obj, (BaseException, enum.Enum))):
            continue
        out[name] = tuple(inspect.signature(obj).parameters)
    return out


def test_public_api_surface_is_pinned():
    import fastslow
    import fastslow.cli
    assert _public_parameters(fastslow) == PUBLIC_PARAMETERS
    for name, fields in FIELDS.items():
        cls = getattr(fastslow, name)
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields, name
    assert fastslow.cli._CONFIG_KEYS == CONFIG_KEYS
