import itertools
import math

import numpy as np
import pytest

from fastslow import (Budgets, CachePolicy, CoupledSystem, NotCentered,
                      PSDFailure, Regime,
                      build_limit_sde, psd_sqrt, regime_averages, rng,
                      transfer_derivative)
from fastslow import homogenize
from fastslow.homogenize import CellField, corrector_corrections
from fastslow.presets import ou_averaging, ou_full

RT2 = math.sqrt(2.0)

FAST_BUDGETS = Budgets(invariant_samples=20000, invariant_thinning=10,
                       corrector_paths=4000, corrector_tmax=6.0,
                       grid_points=17)
GOOD_BUDGETS = Budgets(invariant_samples=50000, invariant_thinning=20,
                       corrector_paths=20000, corrector_tmax=8.0,
                       grid_points=25)


def make_system(b=None, c=None, F=None, H=None, G=None, sigma=None):
    zero = lambda *a: np.zeros(np.shape(a[-2])[:-1] + (1,)) if False else None
    return CoupledSystem(
        d1=1, d2=1,
        b=b or (lambda x, y: -x),
        sigma=sigma or (lambda x, y: np.array([[RT2]])),
        c=c or (lambda x, y: np.zeros_like(x)),
        F=F or (lambda t, x, y: np.zeros_like(x)),
        H=H or (lambda t, x, y: np.zeros_like(x)),
        G=G or (lambda t, x, y: np.array([[1.0]])),
        autonomous=True,
    )


class TestPsdSqrt:
    def test_identity(self):
        assert np.array_equal(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        S = psd_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(S, np.diag([2.0, 3.0]), atol=1e-14)

    def test_two_by_two(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = psd_sqrt(M)
        w = np.linalg.eigvalsh(S)
        np.testing.assert_allclose(sorted(w ** 2), [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(S @ S, M, atol=1e-12)

    def test_random_matrices_reconstruct_clamped(self):
        gen = np.random.default_rng(2024)
        for _ in range(100):
            n = int(gen.integers(1, 6))
            A = gen.normal(size=(n, n))
            M = A + A.T
            S = psd_sqrt(M, tol_psd=np.inf)
            w, V = np.linalg.eigh(0.5 * (M + M.T))
            clamped = (V * np.clip(w, 0.0, None)) @ V.T
            assert np.linalg.norm(S @ S - clamped) <= 1e-10

    def test_psd_failure(self):
        with pytest.raises(PSDFailure):
            psd_sqrt(np.diag([1.0, -0.1]))

    def test_stack_equals_each_matrix(self):
        gen = np.random.default_rng(7)
        for d in (1, 2, 3):
            a = gen.normal(size=(4, 3, d, d))
            M = a @ np.swapaxes(a, -1, -2)
            M[0, 0] = 0.0
            S = psd_sqrt(M)
            for idx in np.ndindex(4, 3):
                assert np.array_equal(S[idx], psd_sqrt(M[idx]))
            if d == 1:
                # the root of a 1 x 1 covariance is its square root, bit for bit
                assert np.array_equal(S[..., 0, 0], np.sqrt(M[..., 0, 0]))

    def test_stack_psd_failure(self):
        with pytest.raises(PSDFailure):
            psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -0.1])]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestAveragedDrift:
    def test_r1_gaussian_mean(self):
        sys1 = make_system(b=lambda x, y: y - x, F=lambda t, x, y: x)
        for y in (-1.0, 0.0, 2.0):
            ra = regime_averages(sys1, Regime.R1, 0.0, [y], FAST_BUDGETS,
                                 seed=5, want_diffusion=False)
            assert abs(ra.fhat[0] - y) <= 3 * ra.fhat_se[0] + 0.01

    def test_r1_centered_slow_drift(self):
        sys1 = make_system(b=lambda x, y: y - x, F=lambda t, x, y: x - y)
        for y in (-1.0, 0.0, 1.0):
            ra = regime_averages(sys1, Regime.R1, 0.0, [y], FAST_BUDGETS,
                                 seed=8, want_diffusion=False)
            assert abs(ra.fhat[0]) <= 3 * ra.fhat_se[0] + 0.01

    def test_r2_with_zero_c_matches_r1_bitwise(self):
        sys1 = make_system(b=lambda x, y: y - x, F=lambda t, x, y: x,
                           H=lambda t, x, y: x - y)
        r1, r2 = (regime_averages(sys1, reg, 0.0, [0.5], FAST_BUDGETS, seed=3,
                                  want_diffusion=False)
                  for reg in (Regime.R1, Regime.R2))
        assert np.array_equal(r1.fhat, r2.fhat)

    def test_r2_correction_oracle(self):
        # H = x gives the identity corrector, so the correction is E[c]
        sys1 = make_system(H=lambda t, x, y: x, c=lambda x, y: x ** 2)
        ra = regime_averages(sys1, Regime.R2, 0.0, [0.0], GOOD_BUDGETS,
                             seed=11, want_diffusion=False)
        assert abs(ra.fhat[0] - 1.0) <= max(0.1, 4 * ra.fhat_se[0])

    def test_r3_no_parameter_dependence_matches_r1_bitwise(self):
        sys1 = make_system(H=lambda t, x, y: x, F=lambda t, x, y: x)
        r1, r3 = (regime_averages(sys1, reg, 0.0, [0.0], FAST_BUDGETS, seed=4,
                                  want_diffusion=False)
                  for reg in (Regime.R1, Regime.R3))
        assert np.array_equal(r1.fhat, r3.fhat)

    def test_r4_full_benchmark_oracle(self):
        # corrected drift of the fully coupled benchmark is -y + 1/2
        ra = regime_averages(ou_full(), Regime.R4, 0.0, [1.0], GOOD_BUDGETS,
                             seed=13, want_diffusion=False)
        assert abs(ra.fhat[0] - (-0.5)) <= max(0.1, 4 * ra.fhat_se[0])


class TestAveragedDiffusion:
    def test_constant_matrix_exact(self):
        sys1 = make_system(G=lambda t, x, y: RT2 * np.eye(1))
        ra = regime_averages(sys1, Regime.R1, 0.0, [0.0], FAST_BUDGETS,
                             seed=2, want_drift=False)
        assert ra.ghat[0, 0] == pytest.approx(RT2, abs=1e-15)
        assert np.all(ra.cov_se == 0.0)

    def test_state_free_factor_exact(self):
        sys1 = make_system(G=lambda t, x, y: (1.0 + float(y[..., 0]) ** 2) * np.eye(1))
        ra = regime_averages(sys1, Regime.R1, 0.0, [2.0], FAST_BUDGETS,
                             seed=2, want_drift=False)
        assert ra.ghat[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_augmented_diffusion_oracle(self):
        sys1 = make_system(H=lambda t, x, y: x)
        ra = regime_averages(sys1, Regime.R3, 0.0, [0.0], GOOD_BUDGETS,
                             seed=21, want_drift=False)
        assert abs(ra.ghat[0, 0] - RT2) <= 0.05

    def test_augmentation_is_psd(self):
        sys1 = make_system(H=lambda t, x, y: x)
        ra3 = regime_averages(sys1, Regime.R3, 0.0, [0.0], GOOD_BUDGETS, seed=21)
        ra1 = regime_averages(sys1, Regime.R1, 0.0, [0.0], GOOD_BUDGETS, seed=21)
        gap = ra3.ghat @ ra3.ghat - ra1.ghat @ ra1.ghat
        tol = 1e-6 * abs(np.trace(ra3.cov))
        assert np.linalg.eigvalsh(gap).min() >= -tol

    def test_reconstruction_tolerance(self):
        sys1 = make_system(H=lambda t, x, y: x)
        ra = regime_averages(sys1, Regime.R3, 0.0, [0.0], FAST_BUDGETS, seed=9)
        w, V = np.linalg.eigh(ra.cov)
        clamped = (V * np.clip(w, 0.0, None)) @ V.T
        assert np.linalg.norm(ra.ghat @ ra.ghat - clamped) <= 1e-10


class TestLimitField:
    def test_cache_hit_bit_identical(self):
        avg = build_limit_sde(Regime.R1, ou_averaging(), FAST_BUDGETS,
                              CachePolicy(quantum=1e-2), seed=7)
        a = avg.Fhat(0.0, [0.2501])
        b = avg.Fhat(0.0, [0.2549])  # same lattice cell
        c = avg.Fhat(0.0, [0.2501])
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
        assert avg.provenance()["n_cells"] == 1

    def test_r4_with_trivial_couplings_matches_r1(self):
        sys1 = ou_averaging()
        a1 = build_limit_sde(Regime.R1, sys1, FAST_BUDGETS, seed=3)
        a4 = build_limit_sde(Regime.R4, sys1, FAST_BUDGETS, seed=3)
        y = [0.4]
        assert np.array_equal(a1.Fhat(0.0, y), a4.Fhat(0.0, y))
        assert np.array_equal(a1.Ghat(0.0, y), a4.Ghat(0.0, y))

    def test_batch_matches_pointwise(self):
        avg = build_limit_sde(Regime.R1, ou_averaging(), FAST_BUDGETS, seed=7)
        Y = np.array([[0.1], [0.3]])
        batch, _ = avg.coefficients_batch(0.0, Y)
        assert np.array_equal(batch[0], avg.Fhat(0.0, [0.1]))
        assert np.array_equal(batch[1], avg.Fhat(0.0, [0.3]))

    def test_interpolation_between_cells(self):
        pol = CachePolicy(quantum=0.1, interpolate=True)
        avg = build_limit_sde(Regime.R1, ou_averaging(), FAST_BUDGETS,
                              CachePolicy(quantum=0.1), seed=7)
        avgi = build_limit_sde(Regime.R1, ou_averaging(), FAST_BUDGETS,
                               pol, seed=7)
        lo = avg.Fhat(0.0, [0.2])[0]
        hi = avg.Fhat(0.0, [0.3])[0]
        mid = avgi.Fhat(0.0, [0.25])[0]
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)

    def test_drift_tracks_mean_reversion(self):
        # the averaged drift of the benchmark is -y; check sign and scale
        avg = build_limit_sde(Regime.R1, ou_averaging(),
                              Budgets(invariant_samples=40000,
                                      invariant_thinning=10,
                                      corrector_paths=2000,
                                      corrector_tmax=4.0), seed=19)
        for y, want in ((-1.0, 1.0), (1.0, -1.0)):
            got = avg.Fhat(0.0, [y])[0]
            assert got == pytest.approx(want, abs=0.2)


def _seed_field(t_c, y_c, cell_seed):
    # cheap cell function whose record pins the cell center and its sub-seed
    return np.concatenate([[t_c], y_c, [(cell_seed % 2 ** 52) / 2 ** 52]])


def _reference_rows(policy, seed, autonomous, t, Y):
    """Per-row lookup: every row keyed and computed on its own."""
    q = policy.quantum
    ti = 0 if autonomous else int(round(t / policy.tq))

    def cell(yi):
        return _seed_field(ti * policy.tq, np.asarray(yi, dtype=np.float64) * q,
                           rng.derive_key(seed, rng.LANE_CELL, ti, *yi))

    rows = []
    for y in Y:
        if not policy.interpolate:
            rows.append(cell([int(k) for k in np.round(y / q)]))
            continue
        base = np.floor(y / q).astype(np.int64)
        frac = y / q - base
        acc = None
        for offs in itertools.product((0, 1), repeat=len(y)):
            w = 1.0
            for j, o in enumerate(offs):
                w = w * (frac[j] if o else 1.0 - frac[j])
            c = w * cell([int(b) + o for b, o in zip(base, offs)])
            acc = c if acc is None else acc + c
        rows.append(acc)
    return np.stack(rows)


class TestCellStore:
    @pytest.mark.parametrize("interpolate", [False, True])
    @pytest.mark.parametrize("d2,autonomous", [(1, True), (2, True), (2, False)])
    def test_matches_per_row_lookup(self, interpolate, d2, autonomous):
        gen = np.random.default_rng(d2 + 10 * interpolate + 100 * autonomous)
        policy = CachePolicy(quantum=0.1, interpolate=interpolate, t_quantum=0.05)
        field = CellField(_seed_field, policy, 1234, autonomous)
        seen = set()
        # later batches first visit cells far outside the earlier ones,
        # including negative keys and a jump of many lattice units
        for t, shift, scale in ((0.0, 0.0, 0.3), (0.12, 0.0, 0.3),
                                (0.12, 1e3, 0.3), (0.3, -5e4, 2.0),
                                (0.0, 0.0, 0.3)):
            Y = shift + scale * gen.normal(size=(257, d2))
            got = field.eval_batch(t, Y)
            want = _reference_rows(policy, 1234, autonomous, t, Y)
            assert np.array_equal(got, want)
            ti = 0 if autonomous else int(round(t / policy.tq))
            base = np.floor(Y / 0.1) if interpolate else np.round(Y / 0.1)
            offs = itertools.product((0, 1), repeat=d2) if interpolate else [(0,) * d2]
            for o in offs:
                seen |= {(ti, *map(int, row)) for row in base + np.asarray(o)}
            assert field.n_cells == len(seen)

    def test_repeated_rows_hit_one_cell(self):
        calls = []

        def fn(t_c, y_c, cell_seed):
            calls.append(tuple(y_c))
            return _seed_field(t_c, y_c, cell_seed)

        field = CellField(fn, CachePolicy(quantum=0.5), 3, True)
        Y = np.array([[0.1], [0.2], [-0.1], [0.9], [1.1], [0.0]])
        out = field.eval_batch(0.0, Y)
        assert field.n_cells == 2 and len(calls) == 2
        assert np.array_equal(out[0], out[2])
        assert np.array_equal(out[3], out[4])
        field.eval_batch(0.0, Y[::-1])
        assert len(calls) == 2

    def test_overlapping_batches_compute_each_cell_once(self):
        calls = []

        def fn(t_c, y_c, cell_seed):
            calls.append(1)
            return _seed_field(t_c, y_c, cell_seed)

        policy = CachePolicy(quantum=0.05)
        field = CellField(fn, policy, 9, True)
        Y = np.random.default_rng(4).normal(size=(400, 1))
        for i in range(8):
            batch = Y[(37 * i) % 400:][::-1]
            got = field.eval_batch(0.0, batch)
            assert np.array_equal(got, _reference_rows(policy, 9, True, 0.0, batch))
        assert len(calls) == field.n_cells


class TestZeroWeightSolves:
    BUDGETS = Budgets(invariant_samples=4000, invariant_thinning=5,
                      invariant_dt=0.01, corrector_paths=500,
                      corrector_tmax=3.0, grid_points=15)

    # the benchmark's span tracer counts clouds and solves by wrapping these
    # two names in homogenize, so the calls must go through them
    @staticmethod
    def _counted(monkeypatch, name):
        count = [0]
        real = getattr(homogenize, name)

        def counted(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(homogenize, name, counted)
        return count

    @pytest.fixture
    def solves(self, monkeypatch):
        return self._counted(monkeypatch, "solve_poisson_fk")

    @pytest.fixture
    def clouds(self, monkeypatch):
        return self._counted(monkeypatch, "sample_invariant_measure")

    def test_r2_with_zero_c_runs_no_solve(self, solves):
        sys1 = ou_averaging()
        f_xy = lambda t, x, y: x - y
        v2, se2 = corrector_corrections(sys1, f_xy, Regime.R2, 0.0, [0.3],
                                        self.BUDGETS, seed=6)
        v1, se1 = corrector_corrections(sys1, f_xy, Regime.R1, 0.0, [0.3],
                                        self.BUDGETS, seed=6)
        ra2 = regime_averages(sys1, Regime.R2, 0.0, [0.3], self.BUDGETS, seed=6)
        ra1 = regime_averages(sys1, Regime.R1, 0.0, [0.3], self.BUDGETS, seed=6)
        assert solves[0] == 0
        assert np.array_equal(v2, v1) and np.array_equal(se2, se1)
        for name in ("fhat", "fhat_se", "cov", "cov_se", "ghat"):
            assert np.array_equal(getattr(ra2, name), getattr(ra1, name))

    def test_nonzero_weight_still_solves(self, solves):
        corrector_corrections(ou_full(), lambda t, x, y: x - y, Regime.R2, 0.0,
                              [0.3], self.BUDGETS, seed=6)
        assert solves[0] == 1

    def test_r4_y_states_ride_the_one_solve(self, solves, clouds):
        # the y +/- delta states of the y-gradient share the centre's pass
        regime_averages(ou_full(), Regime.R4, 0.0, [0.3], self.BUDGETS, seed=6)
        assert solves[0] == 1 and clouds[0] == 1

    def test_transfer_makes_one_cloud_and_one_solve(self, solves, clouds):
        transfer_derivative(lambda t, x, y: x[..., 0], ou_full(), [0.3], [1.0],
                            self.BUDGETS, seed=6)
        assert solves[0] == 1 and clouds[0] == 1


class TestCellErrors:
    def test_r4_errors_add_chain_error_and_grid_bias(self, monkeypatch):
        # fhat_se and cov_se, rebuilt from the cell's own cloud and solve:
        # the chain error of the per-sample values and, in quadrature, the
        # gap between their means on the refined and the query grid's
        # solution
        seen = {}
        for name in ("sample_invariant_measure", "solve_poisson_fk"):
            def capture(*args, _real=getattr(homogenize, name), _name=name, **kwargs):
                seen[_name] = _real(*args, **kwargs)
                return seen[_name]
            monkeypatch.setattr(homogenize, name, capture)
        system = ou_full()
        ra = regime_averages(system, Regime.R4, 0.0, [0.3],
                             TestZeroWeightSolves.BUDGETS, seed=6)
        mu, fld = seen["sample_invariant_measure"], seen["solve_poisson_fk"]
        x, ax = mu.samples[:, 0], fld.query.grid_axes[0]
        c = system.c(mu.samples, mu.y)[:, 0]
        H = system.H(0.0, mu.samples, mu.y)[:, 0]

        def drift(values, grad_y):
            # per-sample c dPhi/dx + H dPhi/dy; the x-stencil is central
            gx = (values[2:, 0] - values[:-2, 0]) / (2 * (ax[1] - ax[0]))
            return (c * np.interp(x, ax[1:-1], gx)
                    + H * np.interp(x, ax, grad_y[:, 0, 0]))

        def outer(values, grad_y):
            return H * np.interp(x, ax, values[:, 0])

        def bias(per_sample):
            return abs(per_sample(fld.values, fld.grad_y).mean()
                       - per_sample(fld.coarse, fld.coarse_grad_y).mean())

        F = system.F(0.0, mu.samples, mu.y)[:, 0]
        se_mu = mu.se((F + drift(fld.values, fld.grad_y))[:, None])[0]
        assert ra.fhat_se[0] == math.sqrt(se_mu ** 2 + bias(drift) ** 2)
        se_mu = mu.se(outer(fld.values, None)[:, None])[0]
        assert ra.cov_se[0, 0] == math.sqrt(se_mu ** 2 + bias(outer) ** 2)
        assert bias(drift) > 0.0 and bias(outer) > 0.0


class TestCalibration:
    """Cell errors are calibrated: ``ou_full`` cells from small clouds sit
    within three reported errors of their exact values."""

    BUDGETS = Budgets(invariant_samples=4000, invariant_burn_in=2.0,
                      invariant_thinning=5, invariant_dt=0.02)
    C = 0.5   # ou_full's intermediate drift, as written in the preset

    def exact(self, regime, y):
        """Drift and squared diffusion under the cloud's own law, the frozen
        Euler chain x' = x + (y - x) dt + sqrt(2 dt) z: mean y and variance
        v = 2 dt / (1 - (1 - dt)^2).  The corrector of H = x - y is x - y,
        so c dPhi/dx = c, F + H dPhi/dy has mean -y, and E[H Phi] = v."""
        dt = self.BUDGETS.invariant_dt
        v = 2.0 * dt / (1.0 - (1.0 - dt) ** 2)
        drift = -y + (self.C if regime in (Regime.R2, Regime.R4) else 0.0)
        return drift, (1.0 if regime is Regime.R2 else 1.0 + v)

    def test_cells_within_three_errors(self):
        # 200 cells per regime, each with its own seed; a cell counts as a
        # miss if its drift or its diffusion is off by more than three
        # reported errors, or if the centering gate refuses it (about 0.4%
        # of cells); the chain errors alone would miss about 0.3%
        ys = np.random.default_rng(2026).uniform(-2.0, 2.0, 200)
        misses, cells = [], 0
        for regime in (Regime.R2, Regime.R3, Regime.R4):
            for i, y in enumerate(ys):
                cells += 1
                seed = 1000 * int(regime.value[1]) + i
                try:
                    ra = regime_averages(ou_full(), regime, 0.0, [y], self.BUDGETS,
                                         seed=seed)
                except NotCentered:
                    misses.append((regime, seed, "refused"))
                    continue
                drift, cov = self.exact(regime, y)
                if not (abs(ra.fhat[0] - drift) <= 3 * ra.fhat_se[0]
                        and abs(ra.cov[0, 0] - cov) <= 3 * ra.cov_se[0, 0]):
                    misses.append((regime, seed, ra.fhat[0] - drift, ra.cov[0, 0] - cov))
        assert cells == 600
        assert len(misses) <= 0.01 * cells, misses


def test_seed_outside_64_bits_is_refused():
    # seed=-1 computed the cell of seed=2**64 - 1
    with pytest.raises(ValueError, match="seed must lie in"):
        regime_averages(ou_full(), Regime.R4, 0.0, [0.3], TestZeroWeightSolves.BUDGETS,
                        seed=-1)


@pytest.mark.parametrize("delta_y", [0.0, -0.1, float("nan"), float("inf")])
def test_budgets_reject_bad_delta_y(delta_y):
    with pytest.raises(ValueError, match="delta_y"):
        Budgets(delta_y=delta_y)


@pytest.mark.parametrize("name", ["invariant_burn_in", "invariant_dt", "corrector_tmax",
                                  "corrector_dt", "grid_pad"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_budgets_reject_non_finite_reals(name, value):
    # an infinite corrector_tmax ended in an OverflowError when the solve
    # counted its steps
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        Budgets(**{name: value})


def test_budgets_accept_the_least_values():
    # a pad of 0 spans the cloud exactly, and each path batch may hold one path
    b = Budgets(grid_pad=0.0, grid_points=3, corrector_paths=2, n_batches=2,
                invariant_samples=1, invariant_thinning=1)
    assert (b.grid_pad, b.grid_points, b.corrector_paths) == (0.0, 3, 2)


@pytest.mark.parametrize("quantum", [0.0, -0.1, float("nan"), float("inf")])
def test_cache_policy_rejects_bad_quantum(quantum):
    # a zero quantum divided every lattice key by zero and filed all rows
    # under one cell
    with pytest.raises(ValueError, match="quantum"):
        CachePolicy(quantum=quantum)


@pytest.mark.parametrize("t_quantum", [0.0, -0.1, float("nan"), float("inf")])
def test_cache_policy_rejects_bad_t_quantum(t_quantum):
    with pytest.raises(ValueError, match="t_quantum"):
        CachePolicy(quantum=0.1, t_quantum=t_quantum)
    assert CachePolicy(quantum=0.1, t_quantum=None).tq == 0.1
