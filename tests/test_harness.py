import math
from fractions import Fraction

import numpy as np
import pytest

from fastslow import (ConfigError, NotCentered, Regime, ScaleSchedule,
                      ThetaOutOfRange, theoretical_rate)
from fastslow.harness import (CONVERGE_CSV_HEADER, ExperimentConfig,
                              clt_bound_shape, fluctuation_clt,
                              fluctuation_lln, lln_bound_shape,
                              weak_error_experiment)
from fastslow.cli import _write_run
from fastslow.model import classify_regime


def sched(a, b, g):
    return ScaleSchedule(a, b, g)


class TestTheoreticalRate:
    def test_r4_unit(self):
        r = theoretical_rate(Regime.R4, sched(1, 1, 1), 1)
        assert r.exponent == 1

    def test_r1_example(self):
        r = theoretical_rate(Regime.R1, sched(1, "1/2", "3/4"), 2)
        assert r.exponent == Fraction(1, 2)

    def test_r3_example(self):
        r = theoretical_rate(Regime.R3, sched(1, "1/2", 1), 1)
        assert r.exponent == Fraction(1, 2)

    def test_theta_range(self):
        with pytest.raises(ThetaOutOfRange):
            theoretical_rate(Regime.R4, sched(1, 1, 1), 2)
        with pytest.raises(ThetaOutOfRange):
            theoretical_rate(Regime.R1, sched(1, "1/2", "3/4"), "5/2")
        with pytest.raises(ThetaOutOfRange):
            theoretical_rate(Regime.R3, sched(1, "1/2", 1), 0)

    def test_warning_when_leading_term_stalls(self):
        with pytest.warns(UserWarning):
            r = theoretical_rate(Regime.R1, sched(1, "1/2", "3/4"), "1/2")
        assert r.warning is not None

    def test_exhaustive_grid_matches_hand_minimum(self):
        vals = [Fraction(k, 3) for k in range(1, 8)]
        thetas = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
        checked = 0
        for a in vals:
            for b in vals:
                for g in vals:
                    if not 2 * a > b:
                        continue
                    s = ScaleSchedule(a, b, g)
                    regime = classify_regime(s)
                    if regime is Regime.UNCLASSIFIED:
                        continue
                    for th in thetas:
                        if regime in (Regime.R3, Regime.R4) and th > 1:
                            continue
                        import warnings
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            r = theoretical_rate(regime, s, th)
                        if regime is Regime.R1:
                            want = min(th * a - g, 2 * a - 2 * g, 2 * a - b - g)
                        elif regime is Regime.R2:
                            want = min(th * a - g, 2 * a - 2 * g, 2 * a - b)
                        elif regime is Regime.R3:
                            want = min(th * a, a - b)
                        else:
                            want = th * a
                        assert r.exponent == want
                        checked += 1
        assert checked > 200


def small_cfg(**over):
    d = {
        "preset": "ou_averaging",
        "exponents": [1, 1, 1],
        "theta": 1,
        "eps_list": [0.4, 0.3],
        "T": 0.2,
        "time_grid_n": 3,
        "dt_slow": 0.02,
        "micro_substeps": 4,
        "phi": ["tanh"],
        "budgets": {"paths_coupled": 400, "corrector_paths": 500,
                    "invariant_samples": 2000, "corrector_tmax": 3.0,
                    "invariant_burn_in": 5.0},
        "quantum": 0.2,
        "seed": 77,
        "y0": [0.5],
    }
    d.update(over)
    return d


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(small_cfg())
        assert cfg.regime is Regime.R4
        assert cfg.eps_list == (0.4, 0.3)
        assert len(cfg.time_grid) == 3
        assert cfg.time_grid[0] == 0.0 and cfg.time_grid[-1] == 0.2

    def test_rejects_bad_eps(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(small_cfg(eps_list=[0.3, 0.4]))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(small_cfg(eps_list=[1.5, 0.4]))

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(small_cfg(bogus=1))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(small_cfg(preset="nope"))

    def test_workers_is_an_unknown_field(self):
        # paths run in one loop; there is no worker count to set
        with pytest.raises(ConfigError, match=r"unknown config fields: \['workers'\]"):
            ExperimentConfig.from_dict(small_cfg(workers=2))

    @pytest.mark.parametrize("key, value", [
        ("dt_slow", 0), ("dt_slow", -0.01), ("micro_substeps", 0),
        ("chunk_size", 0), ("chunk_size", -1), ("paths_coupled", 0)])
    def test_rejects_bad_sizes(self, key, value):
        d = small_cfg()
        (d["budgets"] if key.startswith("paths_") else d)[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        # ExperimentConfig(seed=-1) was accepted and recorded -1, while its
        # draws were those of 2**64 - 1
        cfg = ExperimentConfig.from_dict(small_cfg())
        with pytest.raises(ValueError, match="seed must lie in"):
            ExperimentConfig(system=cfg.system, system_name=cfg.system_name,
                             schedule=cfg.schedule, theta=cfg.theta,
                             eps_list=cfg.eps_list, seed=seed)

    def test_rejects_missing_exponents(self):
        d = small_cfg()
        del d["exponents"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)


class TestWeakError:
    def test_report_shape_and_determinism(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_cfg())
        rep1 = weak_error_experiment(cfg)
        assert rep1.err.shape == (2, 3, 1)
        assert np.all(rep1.err >= 0.0)
        np.testing.assert_array_equal(
            rep1.sup_err, rep1.err.reshape(2, -1).max(axis=1))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_run(tmp_path, "a", *rep1.table(), rep1.summary())
        cfg2 = ExperimentConfig.from_dict(small_cfg(chunk_size=64))
        rep2 = weak_error_experiment(cfg2)
        _write_run(tmp_path, "b", *rep2.table(), rep2.summary())
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_golden(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_cfg(eps_list=[0.4]))
        rep = weak_error_experiment(cfg)
        out = tmp_path / "c.csv"
        _write_run(tmp_path, "c", *rep.table(), rep.summary())
        lines = out.read_text().splitlines()
        assert lines[0] == CONVERGE_CSV_HEADER
        assert lines[0] == ("eps,t,phi,err,se,sup_err,theoretical_exponent,"
                            "fitted_slope,slope_ci_lo,slope_ci_hi")
        assert len(lines) == 1 + 1 * 3 * 1

    def test_se_scaling_with_paths(self):
        base = small_cfg(eps_list=[0.4], time_grid_n=2)
        cfg_small = ExperimentConfig.from_dict(base)
        big = dict(base)
        big["budgets"] = dict(base["budgets"], paths_coupled=1600)
        cfg_big = ExperimentConfig.from_dict(big)
        se_small = weak_error_experiment(cfg_small).se[0, -1, 0]
        se_big = weak_error_experiment(cfg_big).se[0, -1, 0]
        assert 0.4 <= se_big / se_small <= 0.6

    def test_insufficient_signal_flag(self):
        # identical dynamics and limit: errors are pure noise, no fit
        cfg = ExperimentConfig.from_dict(small_cfg())
        rep = weak_error_experiment(cfg)
        if rep.n_qualifying < 3:
            assert rep.insufficient_signal
            assert math.isnan(rep.fitted_slope)


F_XY = lambda t, x, y: x - y


class TestFluctuations:
    def test_lln_zero_integrand_exact(self):
        cfg = ExperimentConfig.from_dict(small_cfg())
        rep = fluctuation_lln(cfg, lambda t, x, y: np.zeros_like(x))
        assert np.all(rep.values == 0.0)
        assert np.all(rep.se == 0.0)

    def test_lln_deterministic(self):
        cfg = ExperimentConfig.from_dict(small_cfg())
        r1 = fluctuation_lln(cfg, F_XY)
        r2 = fluctuation_lln(cfg, F_XY)
        assert np.array_equal(r1.values, r2.values)
        assert np.array_equal(r1.se, r2.se)

    def test_lln_not_centered(self):
        cfg = ExperimentConfig.from_dict(small_cfg())
        with pytest.raises(NotCentered):
            fluctuation_lln(cfg, lambda t, x, y: x - y + 5.0)

    def test_lln_bound_shape_values(self):
        # alpha^theta + alpha^(theta^1) * alpha/gamma + alpha^2/beta
        s = sched(1, 1, 1)
        assert lln_bound_shape(s, 1, 0.5) == pytest.approx(0.5 + 0.5 + 0.5)
        s2 = sched(1, "1/2", "3/4")
        e = 0.25
        want = e + e * (e / e ** 0.75) + e * e / e ** 0.5
        assert lln_bound_shape(s2, 1, e) == pytest.approx(want)

    def test_clt_zero_integrand_exact(self):
        cfg = ExperimentConfig.from_dict(small_cfg())
        rep = fluctuation_clt(cfg, lambda t, x, y: np.zeros_like(x))
        assert np.all(rep.lhs == 0.0)
        assert np.all(rep.values == 0.0)

    def test_clt_r2_with_zero_c_reduces_to_r1(self):
        # the benchmark has no intermediate drift, so the regime-2 correction
        # field is identically zero and the residual equals the plain
        # rescaled integral, bit for bit
        # per-cell centering needs total stationary time well past the
        # correlation scale, so the invariant budget is not the tiny default
        d = small_cfg(exponents=[1, "3/2", "1/2"], eps_list=[0.4])
        d["budgets"] = dict(d["budgets"], invariant_samples=4000,
                            invariant_thinning=25)
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.regime is Regime.R2
        rep2 = fluctuation_clt(cfg, F_XY)
        rep1 = fluctuation_clt(cfg, F_XY, regime=Regime.R1)
        assert np.all(rep2.correction == 0.0)
        assert np.array_equal(rep1.values, rep2.values)

    def test_clt_bound_shapes(self):
        s = sched(1, 1, 1)
        assert clt_bound_shape(Regime.R4, s, 1, 0.3) == pytest.approx(0.3)
        s3 = sched(1, "1/2", 1)
        e = 0.3
        assert clt_bound_shape(Regime.R3, s3, 1, e) == pytest.approx(e + e / e ** 0.5)
