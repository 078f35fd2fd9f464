import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fastslow.cli
from fastslow import CoupledSystem, get_system, presets, register_system
from fastslow.cli import run_cli

SRC = Path(__file__).resolve().parents[1] / "src"

SMALL_BUDGETS = {"invariant_samples": 1000, "invariant_thinning": 5,
                 "invariant_dt": 0.01, "invariant_burn_in": 5.0}


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON value")


@pytest.fixture(autouse=True)
def summaries_are_strict_json(tmp_path):
    """Every summary a test here writes is strict JSON (RFC 8259): no NaN
    or Infinity tokens, which parsers such as JSON.parse refuse."""
    yield
    for path in sorted(tmp_path.rglob("*_summary.json")):
        json.loads(path.read_text(), parse_constant=_refuse_constant)


def write_config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def average_cfg(out_dir, **over):
    cfg = {"preset": "ou_averaging", "exponents": [1, 1, "1/2"],
           "ys": [[0.0], [0.5]], "seed": 3, "budgets": dict(SMALL_BUDGETS),
           "out_dir": str(out_dir)}
    cfg.update(over)
    return cfg


def converge_cfg(out_dir, **over):
    cfg = {"preset": "ou_averaging", "exponents": [1, 1, 1],
           "eps_list": [0.4, 0.3], "T": 0.1, "time_grid_n": 2,
           "dt_slow": 0.02, "micro_substeps": 4, "quantum": 0.25, "seed": 5,
           "y0": [0.3], "chunk_size": 64, "out_dir": str(out_dir),
           "budgets": dict(SMALL_BUDGETS, paths_coupled=200)}
    cfg.update(over)
    return cfg


def outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# the first line of each command's CSV
GOLDEN_HEADER = {
    "validate": "metric,value",
    "invariant": "y_1,mean_1,var_1,ess",
    "corrector": "x_1,phi_1,se_1,grad_x_11,grad_y_11",
    "average": "regime,t,y_1,fhat_1,ghat_11,se_1",
    "converge": ("eps,t,phi,err,se,sup_err,theoretical_exponent,fitted_slope,"
                 "slope_ci_lo,slope_ci_hi"),
    "fluctuate-lln": "kind,eps,comp,value,se,bound_shape",
    "fluctuate-clt": "kind,eps,comp,lhs,correction,residual,se,bound_shape",
}


def test_average_succeeds_and_repeats_byte_identical(tmp_path):
    runs = []
    for rep in ("a", "b"):
        out = tmp_path / rep
        path = write_config(tmp_path, rep, average_cfg(out))
        assert run_cli(["average", "--config", path]) == 0
        runs.append(outputs(out))
    assert set(runs[0]) == {"average.csv", "average_summary.json"}
    assert json.loads(runs[0]["average_summary.json"])["status"] == "ok"
    assert len(runs[0]["average.csv"].splitlines()) == 3
    assert runs[0]["average.csv"].decode().splitlines()[0] == GOLDEN_HEADER["average"]
    assert runs[0] == runs[1]


def test_converge_byte_identical_across_repeats_and_chunk_sizes(tmp_path):
    runs = []
    for rep, chunk in (("a", 64), ("b", 64), ("c", 999), ("d", 7)):
        out = tmp_path / rep
        path = write_config(tmp_path, rep, converge_cfg(out, chunk_size=chunk))
        assert run_cli(["converge", "--config", path]) == 0
        runs.append(outputs(out))
    assert set(runs[0]) == {"converge.csv", "converge_summary.json"}
    assert runs[0]["converge.csv"].decode().splitlines()[0] == GOLDEN_HEADER["converge"]
    assert runs[0] == runs[1] == runs[2] == runs[3]
    # two eps values leave no slope to fit: the summary holds null, not NaN
    summary = json.loads(runs[0]["converge_summary.json"])
    assert summary["fitted_slope"] is None and summary["slope_ci"] == [None, None]


GRID = {"lo": [-1], "hi": [1], "n": [5]}
R4_BUDGETS = dict(SMALL_BUDGETS, corrector_paths=200, corrector_tmax=1.0,
                  grid_points=9, paths_coupled=100)
# small configs of the commands the two tests above do not repeat
REPEATED = {
    "validate": {"preset": "ou_full", "sample_budget": 500, "seed": 2},
    "invariant": {"preset": "ou_averaging", "ys": [[0.0], [0.7]],
                  "n_samples": 2000, "seed": 4},
    "corrector": {"preset": "ou_full", "grid": GRID, "centering_samples": 4000,
                  "seed": 1},
    "fluctuate-lln": converge_cfg("", kind="lln"),
    "fluctuate-clt": converge_cfg("", kind="clt", budgets=R4_BUDGETS),
}


def test_corrector_is_right_on_a_grid_narrower_than_the_law(tmp_path):
    # ou_full's corrector is x - y; a solve with its zero-flux walls at the
    # ends of the config's [-1, 1] read a slope of 1 - e^(-1/2) at 0, and
    # the refinement, with the same walls, could not see it in se
    out = tmp_path / "out"
    cfg = dict(REPEATED["corrector"], out_dir=str(out))
    assert run_cli(["corrector", "--config", write_config(tmp_path, "c", cfg)]) == 0
    lines = (out / "corrector.csv").read_text().splitlines()
    x, phi, se, grad_x, grad_y = (list(col) for col in
                                  zip(*([float(v) for v in line.split(",")]
                                        for line in lines[1:])))
    assert x == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(abs(p - xi) <= 3 * s for p, xi, s in zip(phi, x, se))
    assert max(se) <= 0.05
    assert all(abs(g - 1.0) <= 0.02 for g in grad_x)
    assert all(abs(g + 1.0) <= 0.02 for g in grad_y)


@pytest.mark.parametrize("n", [0, -1])
def test_corrector_grid_without_nodes_exits_2_before_sampling(tmp_path, capsys,
                                                              monkeypatch, n):
    # n = 0 failed in a numpy reduction after the centering cloud was
    # drawn, and n = -1 in np.linspace; neither named the key
    monkeypatch.setattr(fastslow.cli, "sample_invariant_measure",
                        lambda *a, **k: pytest.fail("sampled before the check"))
    out = tmp_path / "out"
    cfg = dict(REPEATED["corrector"], out_dir=str(out), grid=dict(GRID, n=[n]))
    assert run_cli(["corrector", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"config error: grid n must be >= 1, got {n}" in capsys.readouterr().err
    assert not (out / "corrector.csv").exists()


@pytest.mark.parametrize("name", list(REPEATED))
def test_repeats_byte_identical(tmp_path, name):
    command = name.split("-")[0]
    runs = []
    for rep in ("a", "b"):
        out = tmp_path / rep
        cfg = dict(REPEATED[name], out_dir=str(out))
        assert run_cli([command, "--config", write_config(tmp_path, rep, cfg)]) == 0
        runs.append(outputs(out))
    assert set(runs[0]) == {f"{command}.csv", f"{command}_summary.json"}
    assert json.loads(runs[0][f"{command}_summary.json"])["status"] == "ok"
    lines = runs[0][f"{command}.csv"].decode().splitlines()
    assert lines[0] == GOLDEN_HEADER[name]
    assert len(lines) > 1
    assert runs[0] == runs[1]


def test_failure_after_a_row_writes_no_csv(tmp_path, capsys, monkeypatch):
    # the table is written only once the command has returned, so a run that
    # fails on its second slow state leaves its error summary and no rows
    import fastslow.cli
    from fastslow.errors import PSDFailure
    real, calls = fastslow.cli.regime_averages, []

    def second_fails(*a, **k):
        calls.append(a)
        if len(calls) == 2:
            raise PSDFailure("not a covariance")
        return real(*a, **k)

    monkeypatch.setattr(fastslow.cli, "regime_averages", second_fails)
    out = tmp_path / "out"
    path = write_config(tmp_path, "c", average_cfg(out))
    assert run_cli(["average", "--config", path]) == 3
    assert "PSDFailure: not a covariance" in capsys.readouterr().err
    assert outputs(out).keys() == {"average_summary.json"}
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary == {"status": "error", "error": {"type": "PSDFailure",
                                                   "message": "not a covariance"}}


@pytest.mark.parametrize("value", [5, True, ["a"]], ids=["number", "boolean", "list"])
def test_out_dir_of_another_kind_exits_2(tmp_path, capsys, value):
    # a number reached Path() and failed with a message that named no key
    cfg = dict(REPEATED["validate"], out_dir=value)
    assert run_cli(["validate", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert (f"config error: out_dir must be a JSON string, got {value!r}"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    # mkdir raised FileExistsError past run_cli, and the run exited 1
    (tmp_path / "taken").write_text("")
    cfg = dict(REPEATED["validate"], out_dir=str(tmp_path / "taken"))
    assert run_cli(["validate", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "config error: cannot make out_dir" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == ""


@pytest.mark.parametrize("value", [None, ""], ids=["absent", "empty"])
def test_missing_out_dir_exits_2(tmp_path, capsys, value):
    cfg = dict(REPEATED["validate"])
    if value is not None:
        cfg["out_dir"] = value
    assert run_cli(["validate", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "config error: config needs 'out_dir'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_workers_config_field_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = converge_cfg(out, workers=2)
    assert run_cli(["converge", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "unknown config fields: ['workers']" in capsys.readouterr().err
    assert not (out / "converge.csv").exists()


def test_paths_limit_budget_field_exits_2(tmp_path, capsys):
    # the limit ensemble is paired with the coupled one, path for path
    out = tmp_path / "out"
    cfg = converge_cfg(out)
    cfg["budgets"]["paths_limit"] = 100
    assert run_cli(["converge", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "unknown budget fields: ['paths_limit']" in capsys.readouterr().err
    assert not (out / "converge.csv").exists()


def test_workers_flag_exits_2(tmp_path):
    path = write_config(tmp_path, "c", converge_cfg(tmp_path / "out"))
    assert run_cli(["converge", "--config", path, "--workers", "1"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("chunk_size", -1), ("dt_slow", 0),
                                        ("micro_substeps", 0),
                                        ("interpolate", "false"),
                                        ("interpolate", 0)])
def test_bad_sizes_exit_2_without_csv(tmp_path, capsys, monkeypatch, key, value):
    # each of these once ran (or crashed) instead of being refused: a
    # negative chunk wrote nan rows, a zero step raised ZeroDivisionError,
    # zero micro substeps failed after the limit ensemble had run, and
    # bool() read the string "false" as true
    import fastslow.harness
    monkeypatch.setattr(fastslow.harness, "build_limit_sde",
                        lambda *a, **k: pytest.fail("ran before the config check"))
    out = tmp_path / "out"
    cfg = converge_cfg(out)
    cfg[key] = value
    assert run_cli(["converge", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err
    assert not (out / "converge.csv").exists()
    summary = json.loads((out / "converge_summary.json").read_text())
    assert summary["error"]["type"] == "ConfigError"


def test_zero_quantum_exits_2_without_csv(tmp_path, capsys):
    # a zero quantum filed every limit path under one meaningless cell and
    # exited 0
    out = tmp_path / "out"
    path = write_config(tmp_path, "c", converge_cfg(out, quantum=0))
    assert run_cli(["converge", "--config", path]) == 2
    assert "quantum must be > 0, got 0.0" in capsys.readouterr().err
    assert not (out / "converge.csv").exists()
    summary = json.loads((out / "converge_summary.json").read_text())
    assert summary["status"] == "error"


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"preset": "ou_averaging",')
    assert run_cli(["average", "--config", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, field", [
    ("average", "bogus_paths"), ("converge", "bogus_paths"),
    # the old spelling of corrector_paths
    ("converge", "paths_corrector"),
], ids=["average", "converge", "converge-paths_corrector"])
def test_unknown_budget_field_exits_2(tmp_path, capsys, command, field):
    out = tmp_path / "out"
    cfg = average_cfg(out) if command == "average" else converge_cfg(out)
    cfg["budgets"][field] = 10
    assert run_cli([command, "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"unknown budget fields: ['{field}']" in capsys.readouterr().err
    summary = json.loads((out / f"{command}_summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("command, cfg, typo", [
    ("validate", {"preset": "ou_averaging"}, "sample_budgets"),
    ("invariant", {"preset": "ou_averaging"}, "n_sample"),
    ("corrector", {"preset": "ou_averaging",
                   "grid": {"lo": [-1], "hi": [1], "n": [5]}}, "npaths"),
    ("average", average_cfg(""), "sed"),
    # keys that were removed: the solve has one sign, and "preset" names
    # the system
    ("corrector", {"preset": "ou_averaging",
                   "grid": {"lo": [-1], "hi": [1], "n": [5]}}, "mode"),
    ("validate", {"preset": "ou_averaging"}, "system_id"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, cfg, typo):
    # a misspelt key used to be ignored, and the command ran on its default
    out = tmp_path / "out"
    cfg = dict(cfg, out_dir=str(out), **{typo: 5})
    assert run_cli([command, "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"unknown config fields: ['{typo}']" in capsys.readouterr().err
    assert not (out / f"{command}.csv").exists()
    summary = json.loads((out / f"{command}_summary.json").read_text())
    assert summary["error"]["type"] == "ConfigError"


def test_non_object_config_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert run_cli(["average", "--config", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_blowup_exits_3(tmp_path, capsys):
    # a slow state beyond the blow-up cap fails on the first macro step
    out = tmp_path / "out"
    cfg = {"preset": "ou_averaging", "exponents": [1, 1, 1], "kind": "lln",
           "eps_list": [0.4], "T": 0.04, "dt_slow": 0.02, "micro_substeps": 4,
           "y0": [2e6], "out_dir": str(out),
           "budgets": dict(SMALL_BUDGETS, paths_coupled=8)}
    assert run_cli(["fluctuate", "--config",
                    write_config(tmp_path, "c", cfg)]) == 3
    assert "BlowUp" in capsys.readouterr().err
    summary = json.loads((out / "fluctuate_summary.json").read_text())
    assert summary["error"]["type"] == "BlowUp"


def test_single_path_batch_exits_2(tmp_path, capsys):
    # Budgets still checks n_batches, which no solve reads since the grid
    # solve replaced the path batches, until the benchmark stops passing it
    out = tmp_path / "out"
    cfg = {"preset": "ou_full", "exponents": [1, 1, 1], "ys": [[0.0]],
           "out_dir": str(out),
           "budgets": dict(SMALL_BUDGETS, corrector_paths=40,
                           corrector_tmax=0.5, n_batches=1)}
    assert run_cli(["average", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "n_batches must be >= 2" in capsys.readouterr().err
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary["error"]["type"] == "ValueError"


def test_single_path_batch_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    # the budget check refuses one path batch before the first cloud is
    # drawn, in R1 as in R4
    import fastslow.homogenize
    clouds = []
    monkeypatch.setattr(fastslow.homogenize, "sample_invariant_measure",
                        lambda *a, **k: clouds.append(a))
    out = tmp_path / "out"
    cfg = average_cfg(out, budgets=dict(SMALL_BUDGETS, n_batches=1))
    assert run_cli(["average", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "n_batches must be >= 2" in capsys.readouterr().err
    assert clouds == []
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary["error"]["type"] == "ValueError"


@pytest.mark.parametrize("budgets, message", [
    ({"corrector_paths": 5}, "corrector_paths must be >= n_batches"),
    ({"corrector_paths": 0}, "corrector_paths must be >= n_batches"),
    ({"grid_points": 1}, "grid_points must be >= 3"),
    ({"invariant_samples": 0}, "invariant_samples must be >= 1, got 0"),
    ({"invariant_thinning": 0}, "invariant_thinning must be >= 1, got 0"),
    ({"n_batches": -3}, "n_batches must be >= 2, got -3"),
    ({"invariant_burn_in": 0.0}, "invariant_burn_in must be > 0, got 0.0"),
    ({"invariant_dt": 0}, "invariant_dt must be > 0, got 0"),
    ({"corrector_tmax": -1.0}, "corrector_tmax must be > 0, got -1.0"),
    ({"corrector_dt": -0.01}, "corrector_dt must be > 0, got -0.01"),
    ({"grid_pad": -5.0}, "grid_pad must be >= 0, got -5.0"),
], ids=["paths-below-batches", "no-paths", "one-grid-point", "no-samples",
        "no-thinning", "negative-batches", "no-burn-in", "zero-dt", "negative-tmax",
        "negative-corrector-dt", "negative-pad"])
def test_out_of_range_budget_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                     budgets, message):
    # each was accepted, and R1 ran with 5 corrector paths while an R4 cell
    # with grid_pad -5 built decreasing grid axes and returned a wrong
    # covariance; a budget is refused before the first cloud is drawn
    import fastslow.homogenize
    clouds = []
    monkeypatch.setattr(fastslow.homogenize, "sample_invariant_measure",
                        lambda *a, **k: clouds.append(a))
    out = tmp_path / "out"
    cfg = average_cfg(out, budgets=dict(SMALL_BUDGETS, **budgets))
    assert run_cli(["average", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert message in capsys.readouterr().err
    assert clouds == []
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary["error"]["type"] == "ValueError"
    assert not (out / "average.csv").exists()


def test_paths_coupled_in_average_budgets_exits_2_before_sampling(tmp_path, capsys,
                                                                  monkeypatch):
    # average runs no coupled ensemble; the key was dropped and the run
    # exited 0
    import fastslow.homogenize
    clouds = []
    monkeypatch.setattr(fastslow.homogenize, "sample_invariant_measure",
                        lambda *a, **k: clouds.append(a))
    out = tmp_path / "out"
    cfg = average_cfg(out, budgets=dict(SMALL_BUDGETS, paths_coupled=100))
    assert run_cli(["average", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "unknown budget fields: ['paths_coupled']" in capsys.readouterr().err
    assert clouds == []
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary["error"]["type"] == "ConfigError"
    assert not (out / "average.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("invariant_samples", 2000.7), ("invariant_thinning", 2.5),
    ("corrector_paths", 1000.5), ("grid_points", 20.5), ("n_batches", 20.0),
])
def test_non_integer_budget_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                    field, value):
    # a fractional count was truncated, or failed only after the first
    # cloud, or in R1 never failed at all
    import fastslow.homogenize
    clouds = []
    monkeypatch.setattr(fastslow.homogenize, "sample_invariant_measure",
                        lambda *a, **k: clouds.append(a))
    out = tmp_path / "out"
    cfg = average_cfg(out, budgets=dict(SMALL_BUDGETS, **{field: value}))
    assert run_cli(["average", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"{field} must be an integer, got {value!r}" in capsys.readouterr().err
    assert clouds == []
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary["error"]["type"] == "ValueError"
    assert not (out / "average.csv").exists()


def test_non_boolean_gradients_exits_2_before_sampling(tmp_path, capsys,
                                                       monkeypatch):
    # bool() read the string "false" as true and solved for the gradients
    import fastslow.cli
    monkeypatch.setattr(fastslow.cli, "sample_invariant_measure",
                        lambda *a, **k: pytest.fail("sampled before the check"))
    out = tmp_path / "out"
    cfg = {"preset": "ou_averaging", "grid": {"lo": [-1], "hi": [1], "n": [5]},
           "gradients": "false", "out_dir": str(out)}
    assert run_cli(["corrector", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "gradients must be a JSON boolean, got 'false'" in capsys.readouterr().err
    assert not (out / "corrector.csv").exists()
    summary = json.loads((out / "corrector_summary.json").read_text())
    assert summary["error"]["type"] == "ConfigError"


def test_zero_delta_y_exits_2(tmp_path, capsys):
    # a zero y-step made every R4 drift 0 / 0 = nan
    out = tmp_path / "out"
    cfg = {"preset": "ou_full", "exponents": [1, 1, 1], "ys": [[0.0]],
           "out_dir": str(out),
           "budgets": dict(SMALL_BUDGETS, corrector_paths=40,
                           corrector_tmax=0.5, delta_y=0)}
    assert run_cli(["average", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "delta_y must be > 0, got 0" in capsys.readouterr().err
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary["error"]["type"] == "ValueError"
    assert not (out / "average.csv").exists()


@pytest.mark.parametrize("field", ["invariant_burn_in", "invariant_dt",
                                   "corrector_tmax", "corrector_dt", "grid_pad"])
@pytest.mark.parametrize("value", ["0.01", True, None, math.inf, -math.inf, math.nan],
                         ids=["string", "bool", "null", "inf", "-inf", "nan"])
def test_non_number_budget_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                   field, value):
    # a string real failed only after the first cloud, with a message about
    # '<=' between str and int; an Infinity (which json reads) ended in an
    # OverflowError traceback and exit 1
    import fastslow.homogenize
    clouds = []
    monkeypatch.setattr(fastslow.homogenize, "sample_invariant_measure",
                        lambda *a, **k: clouds.append(a))
    out = tmp_path / "out"
    cfg = average_cfg(out, budgets=dict(SMALL_BUDGETS, **{field: value}))
    assert run_cli(["average", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"{field} must be a finite number, got {value!r}" in capsys.readouterr().err
    assert clouds == []
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary["error"]["type"] == "ValueError"
    assert not (out / "average.csv").exists()


# a config of each command that runs as it is
VALID = {
    "validate": lambda out: {"preset": "ou_full", "out_dir": str(out)},
    "invariant": lambda out: {"preset": "ou_averaging", "out_dir": str(out)},
    "corrector": lambda out: {"preset": "ou_full", "grid": dict(GRID),
                              "out_dir": str(out)},
    "average": average_cfg,
    "converge": converge_cfg,
    "fluctuate": lambda out: converge_cfg(out, kind="lln"),
}
# values of another kind: a fraction, a boolean and a string number for
# counts and reals, and their like for the other kinds
WRONG = {
    "count": [10.5, True, "10"],
    "seed": [10.5, True, "10"],
    "counts": [5.5, [True], "5"],
    "real": [True, "0.5", None],
    "vector": ["0.5", True, [0.5, None]],
    "vectors": [0.5, [["0.5"]], [[True]]],
    "rational": [True, [1], None],
    "flag": ["false", 0, None],
    "text": [5, True, ["a"]],
    "list": ["1,1,1", 5, {"a": 1}],
    "object": [[1], "x", 5],
}
# the corrector's retired keys, with the kinds they had: any value of one,
# of whatever kind, is refused as an unknown field before its kind is read.
# Their cases keep the slot after "y" that they had while the keys were
# read: pytest numbers a case whose value it cannot print by its position,
# so the slot keeps every later case's id.
RETIRED = {"T_max": "real", "n_paths": "count", "dt": "real"}


def _tried_kinds(command: str) -> dict:
    """The keys whose wrong values are tried, with their kinds, in order."""
    kinds = fastslow.cli._CONFIG_KEYS[command]
    if command != "corrector":
        return kinds
    keys = list(kinds)
    at = keys.index("y") + 1
    return {key: kinds.get(key) or RETIRED[key]
            for key in keys[:at] + list(RETIRED) + keys[at:]}


TRIED_KINDS = {command: _tried_kinds(command) for command in fastslow.cli._CONFIG_KEYS}
WRONG_KINDS = [
    (command, key, value)
    for command, kinds in TRIED_KINDS.items()
    for key, kind in kinds.items()
    for value in WRONG[kind]
] + [("corrector", f"grid.{key}", value)
     for key, kind in {"lo": "vector", "hi": "vector", "n": "counts"}.items()
     for value in WRONG[kind]]
# the non-finite numbers that json reads (Infinity, -Infinity, NaN), for the
# kinds that hold numbers; an Infinity ended in an OverflowError traceback
# and exit 1, or ran as a numerical failure
NON_FINITE = {"real": [math.inf, math.nan], "vector": [-math.inf, [0.5, math.inf]],
              "vectors": [[[math.nan]]], "rational": [math.inf, math.nan]}
WRONG_KINDS += [
    (command, key, value)
    for command, kinds in TRIED_KINDS.items()
    for key, kind in kinds.items()
    for value in NON_FINITE.get(kind, [])
] + [("corrector", f"grid.{key}", value) for key in ("lo", "hi")
     for value in NON_FINITE["vector"]]
# a 400-digit integer, beyond float range, for each key of those kinds; it
# passed as finite and ended in an OverflowError traceback and exit 1
HUGE = {"real": 10 ** 400, "vector": [0.5, -10 ** 400], "vectors": [[10 ** 400]],
        "rational": -10 ** 400}
WRONG_KINDS += [
    pytest.param(command, key, HUGE[kind], id=f"{command}-{key}-huge")
    for command, kinds in TRIED_KINDS.items()
    for key, kind in kinds.items() if kind in HUGE
] + [pytest.param("corrector", f"grid.{key}", HUGE["vector"], id=f"corrector-grid.{key}-huge")
     for key in ("lo", "hi")]
# seeds outside [0, 2**64): rng.derive_key keeps a seed mod 2**64, so -1 and
# 2**64 - 1 gave the same draws under different recorded seeds
WRONG_KINDS += [(command, "seed", value) for command in fastslow.cli._CONFIG_KEYS
                for value in (-1, 2 ** 64)]


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail the test if a command samples, solves or simulates anything."""
    import fastslow.harness
    import fastslow.homogenize

    def ran(*a, **k):
        pytest.fail("ran before the config check")

    for module, name in [(fastslow.cli, "sample_invariant_measure"),
                         (fastslow.cli, "validate_assumptions"),
                         (fastslow.cli, "regime_averages"),
                         (fastslow.homogenize, "sample_invariant_measure"),
                         (fastslow.harness, "integrate_coupled"),
                         (fastslow.harness, "integrate_limit")]:
        monkeypatch.setattr(module, name, ran)


@pytest.mark.parametrize("command, key, value", WRONG_KINDS)
def test_value_of_another_kind_exits_2(tmp_path, capsys, nothing_runs, command,
                                       key, value):
    # each of these once ran as another run: int() truncated a count of
    # 10.5, float() read "0.5", and a boolean passed for the number 1
    out = tmp_path / "out"
    cfg = VALID[command](out)
    if key.startswith("grid."):
        key = key.removeprefix("grid.")
        cfg["grid"][key] = value
    else:
        cfg[key] = value
    assert run_cli([command, "--config", write_config(tmp_path, "c", cfg)]) == 2
    refusal = (f"unknown config fields: ['{key}']"
               if command == "corrector" and key in RETIRED else f"{key} must be ")
    assert f"config error: {refusal}" in capsys.readouterr().err
    assert not (out / f"{command}.csv").exists()
    summary = json.loads((out / f"{command}_summary.json").read_text())
    assert summary["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("key, value", [("T_max", 2.0), ("n_paths", 400),
                                        ("dt", 0.01)])
def test_removed_corrector_key_exits_2(tmp_path, capsys, nothing_runs, key, value):
    # the budgets of the path-integral corrector; the grid solve reads none,
    # so a config that sets one is refused as unknown before anything runs
    out = tmp_path / "out"
    cfg = dict(VALID["corrector"](out), **{key: value})
    assert run_cli(["corrector", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"config error: unknown config fields: ['{key}']" in capsys.readouterr().err
    assert not (out / "corrector.csv").exists()
    summary = json.loads((out / "corrector_summary.json").read_text())
    assert summary["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("command", ["average", "converge", "fluctuate"])
@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_exponent_exits_2(tmp_path, capsys, nothing_runs, command, value):
    # "exponents" is a list whose entries the schedule reads; an Infinity
    # there ended in an OverflowError traceback and exit 1, and a NaN named
    # no key
    out = tmp_path / "out"
    cfg = VALID[command](out)
    cfg["exponents"] = [1, value, 1]
    assert run_cli([command, "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"exp_beta must be a finite number, got {value!r}" in capsys.readouterr().err
    summary = json.loads((out / f"{command}_summary.json").read_text())
    assert summary["status"] == "error"
    assert not (out / f"{command}.csv").exists()


@pytest.mark.parametrize("key, value", [("radius", 0), ("radius", -1), ("eps", -3)])
def test_validate_out_of_range_exits_2(tmp_path, capsys, key, value):
    # a zero radius screened x = 0 alone and exited 0 with recurrence_max
    # 0.0; a negative radius or eps ran as well
    out = tmp_path / "out"
    cfg = {"preset": "ou_full", "out_dir": str(out), key: value}
    assert run_cli(["validate", "--config", write_config(tmp_path, "c", cfg)]) == 2
    message = f"{key} must be > 0, got {float(value)!r}"
    assert f"config error: {message}" in capsys.readouterr().err
    summary = json.loads((out / "validate_summary.json").read_text())
    assert summary == {"status": "error",
                       "error": {"type": "ValueError", "message": message}}
    assert not (out / "validate.csv").exists()


@pytest.mark.parametrize("key, value, message", [
    ("lambda", 0.5, "lambda must be > 1, got 0.5"),
    ("lambda", 1, "lambda must be > 1, got 1.0"),
    ("sample_budget", 0, "sample_budget must be >= 1, got 0"),
], ids=["lambda-half", "lambda-one", "no-budget"])
def test_validate_refusal_names_the_config_key(tmp_path, capsys, key, value, message):
    # a lambda out of range was refused as "lam", the library's name
    out = tmp_path / "out"
    cfg = {"preset": "ou_full", "out_dir": str(out), key: value}
    assert run_cli(["validate", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    summary = json.loads((out / "validate_summary.json").read_text())
    assert summary == {"status": "error",
                       "error": {"type": "ValueError", "message": message}}
    assert not (out / "validate.csv").exists()


def test_invariant_summary_holds_the_cloud_diagnostics(tmp_path):
    # the summary repeated every cell of the CSV as text; it holds the
    # chains per cloud and the smallest cloud ESS as numbers instead
    out = tmp_path / "out"
    cfg = dict(REPEATED["invariant"], out_dir=str(out))
    assert run_cli(["invariant", "--config", write_config(tmp_path, "c", cfg)]) == 0
    summary = json.loads((out / "invariant_summary.json").read_text())
    assert summary == {"status": "ok", "n_chains": 64, "min_ess": summary["min_ess"],
                       "seed": 4, "preset": "ou_averaging"}
    rows = (out / "invariant.csv").read_text().splitlines()[1:]
    assert summary["min_ess"] == min(float(row.split(",")[-1]) for row in rows)


@pytest.mark.parametrize("command", list(VALID))
def test_missing_preset_exits_2(tmp_path, capsys, nothing_runs, command):
    # the four commands outside from_dict said "unknown system None"
    out = tmp_path / "out"
    cfg = VALID[command](out)
    del cfg["preset"]
    assert run_cli([command, "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "config error: config needs 'preset'" in capsys.readouterr().err
    assert not (out / f"{command}.csv").exists()


def test_average_without_exponents_says_what_from_dict_says(tmp_path, capsys,
                                                             nothing_runs):
    out = tmp_path / "out"
    cfg = average_cfg(out)
    del cfg["exponents"]
    assert run_cli(["average", "--config", write_config(tmp_path, "c", cfg)]) == 2
    assert "config needs 'exponents': [a, b, g]" in capsys.readouterr().err


@pytest.mark.parametrize("exponents, regime", [
    ("1,1,1/2", "R1"), ("1,3/2,1/2", "R2"), ("1,1/2,1", "R3"), ("1,1,1", "R4"),
    ("1,1,2", "Unclassified")])
def test_classify_prints_the_regime(capsys, exponents, regime):
    assert run_cli(["classify", "--exponents", exponents]) == 0
    assert capsys.readouterr().out == f"{regime}\n"


def test_classify_of_two_exponents_exits_2(capsys):
    assert run_cli(["classify", "--exponents", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: --exponents expects 'a,b,g'" in captured.err


@pytest.fixture
def registry(monkeypatch):
    """An empty registry of user systems, restored after the test."""
    monkeypatch.setattr(presets, "_REGISTRY", {})
    return presets._REGISTRY


def shifted_ou():
    """The ou_averaging fast equation moved up by 1: frozen law N(y + 1, 1)."""
    return CoupledSystem(
        d1=1, d2=1, b=lambda x, y: y + 1.0 - x,
        sigma=lambda x, y: np.array([[math.sqrt(2.0)]]),
        c=lambda x, y: np.zeros_like(x), F=lambda t, x, y: x - 2.0 * y,
        H=lambda t, x, y: np.zeros_like(x), G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True, name="shifted_ou")


def test_registered_system_is_looked_up_by_name(registry):
    system = shifted_ou()
    register_system("shifted_ou", system)
    assert registry == {"shifted_ou": system}
    assert get_system("shifted_ou") is system
    # a preset is built afresh on each lookup, a registered system is not
    assert get_system("ou_full") is not get_system("ou_full")
    with pytest.raises(KeyError, match=r"unknown system 'nope'; known: "
                                       r"\['ou_averaging', 'ou_full', 'shifted_ou'\]"):
        get_system("nope")


@pytest.mark.parametrize("name", ["ou_averaging", "ou_full"])
def test_registered_system_may_not_shadow_a_preset(registry, name):
    with pytest.raises(ValueError, match=f"'{name}' shadows a built-in preset"):
        register_system(name, shifted_ou())
    assert registry == {}
    assert get_system(name).name == name


def test_cli_runs_a_registered_system(tmp_path, registry):
    register_system("shifted_ou", shifted_ou())
    out = tmp_path / "out"
    cfg = dict(REPEATED["invariant"], preset="shifted_ou", n_samples=20000,
               thinning=10, dt=0.01, out_dir=str(out))
    assert run_cli(["invariant", "--config", write_config(tmp_path, "c", cfg)]) == 0
    summary = json.loads((out / "invariant_summary.json").read_text())
    assert summary["preset"] == "shifted_ou"
    # the clouds sit at y + 1, as the registered fast equation puts them;
    # 0.2 is over 5 standard errors of each mean at this ESS
    rows = [row.split(",") for row in (out / "invariant.csv").read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [0.0, 0.7]
    for row in rows:
        assert abs(float(row[1]) - (float(row[0]) + 1.0)) <= 0.2


def test_runs_as_a_module():
    # without the __main__ guard, python -m fastslow.cli did nothing and
    # exited 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "fastslow.cli", "classify",
                           "--exponents", "1,1,1"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "R4"
