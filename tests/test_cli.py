import json

import pytest

from fastslow.cli import run_cli

SMALL_BUDGETS = {"invariant_samples": 1000, "invariant_thinning": 5,
                 "invariant_dt": 0.01, "invariant_burn_in": 5.0}


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
    assert runs[0] == runs[1]


def test_converge_byte_identical_across_repeats_and_chunk_sizes(tmp_path):
    runs = []
    for rep, chunk in (("a", 64), ("b", 64), ("c", 999), ("d", 7)):
        out = tmp_path / rep
        path = write_config(tmp_path, rep, converge_cfg(out, chunk_size=chunk))
        assert run_cli(["converge", "--config", path]) == 0
        runs.append(outputs(out))
    assert set(runs[0]) == {"converge.csv", "converge_summary.json"}
    assert runs[0] == runs[1] == runs[2] == runs[3]


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
    assert "quantum must be a finite number > 0" in capsys.readouterr().err
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
    # R4 solves the corrector, whose standard error needs two path batches
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
    # R1 never solves the corrector, so only the budget check can refuse
    # one path batch, and it does so before the first cloud is drawn
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
    assert "delta_y must be None or a finite number > 0" in capsys.readouterr().err
    summary = json.loads((out / "average_summary.json").read_text())
    assert summary["error"]["type"] == "ValueError"
    assert not (out / "average.csv").exists()
