import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fastslow import (BlowUp, Budgets, CoupledSystem, MeasureEnsemble,
                      NonFiniteCoefficient, average, centering_residual, rng,
                      sample_invariant_measure, transfer_derivative)
from fastslow.ergodic import N_CHAINS

RT2 = math.sqrt(2.0)


def frozen_ou():
    """Fast equation relaxing to N(y, 1)."""
    return CoupledSystem(
        d1=1, d2=1,
        b=lambda x, y: y - x,
        sigma=lambda x, y: np.array([[RT2]]),
        c=lambda x, y: np.zeros_like(x),
        F=lambda t, x, y: np.zeros_like(x),
        H=lambda t, x, y: x - y,
        G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True,
    )


@pytest.fixture(scope="module")
def mu0():
    return sample_invariant_measure(frozen_ou(), [0.0], n_samples=30000,
                                    thinning=10, seed=101)


@pytest.fixture(scope="module")
def mu2():
    return sample_invariant_measure(frozen_ou(), [2.0], n_samples=30000,
                                    thinning=10, seed=102)


class TestInvariantMeasure:
    def test_gaussian_moments_centered(self, mu0):
        mean, se_m = average(lambda t, x, y: x, mu0)
        assert abs(mean[0]) <= 3 * se_m[0]
        var, se_v = average(lambda t, x, y: x ** 2, mu0)
        assert abs(var[0] - 1.0) <= 3 * se_v[0] + 0.01

    def test_gaussian_mean_shifted(self, mu2):
        mean, se = average(lambda t, x, y: x, mu2)
        assert abs(mean[0] - 2.0) <= 3 * se[0]

    def test_shift_equivariance(self, mu0, mu2):
        m0, s0 = average(lambda t, x, y: x, mu0)
        m2, s2 = average(lambda t, x, y: x, mu2)
        joint = math.hypot(s0[0], s2[0])
        assert abs((m2[0] - m0[0]) - 2.0) <= 3 * joint

    def test_single_sample_shape(self):
        mu = sample_invariant_measure(frozen_ou(), [0.0], burn_in=5.0,
                                      n_samples=1, thinning=1, seed=0)
        assert mu.samples.shape == (1, 1)
        assert np.isfinite(mu.samples).all()
        assert mu.n_chains == 1 and mu.ess == 1.0

    @pytest.mark.parametrize("name", ["n_samples", "thinning"])
    @pytest.mark.parametrize("value", [10.5, True])
    def test_fractional_count_is_refused(self, name, value):
        # 300.9 samples came back as 300
        with pytest.raises(ValueError, match=f"{name} must be an integer, "
                                             f"got {value!r}"):
            sample_invariant_measure(frozen_ou(), [0.0], **{name: value})

    def test_deterministic(self):
        a = sample_invariant_measure(frozen_ou(), [1.0], n_samples=500, seed=7)
        b = sample_invariant_measure(frozen_ou(), [1.0], n_samples=500, seed=7)
        assert np.array_equal(a.samples, b.samples)
        assert a.ess == b.ess
        assert a.n_chains == b.n_chains == N_CHAINS

    def test_ess_below_n(self, mu0):
        assert 1.0 <= mu0.ess <= mu0.n_samples

    def test_chains_laid_out_one_after_another(self):
        # 1000 rows over 64 chains: each keeps 15 or 16 states, and chain c
        # is the lone Euler chain driven by path c of the fast lane
        check_against_per_step_chains(frozen_ou(), np.array([0.5]), burn_in=0.5)

    @pytest.mark.parametrize("name", ["x-noise", "d1=2 non-diagonal", "d1=2 x-noise"])
    def test_per_step_reference_for_other_sigmas(self, name):
        # over several draw blocks: a sigma with batch axes is evaluated at
        # every step, a constant (2, 2) one once per block for all steps
        check_against_per_step_chains(SIGMA_KINDS[name](), np.array([0.5]),
                                      burn_in=12.0)

    @pytest.mark.parametrize("name, per_step", [("constant", False), ("x-noise", True),
                                                ("d1=2 non-diagonal", False)])
    def test_sigma_calls(self, name, per_step):
        # a (d1, d1) sigma is state-independent at a frozen y, so it is
        # called once per block of draws; a batched one once per step
        system = SIGMA_KINDS[name]()
        calls = []

        def sigma(x, y):
            calls.append(np.shape(x))
            return system.sigma(x, y)

        burn_in, n, thinning, dt = 12.0, 1000, 2, 0.01
        sample_invariant_measure(replace(system, sigma=sigma), [0.5],
                                 burn_in=burn_in, n_samples=n,
                                 thinning=thinning, dt=dt, seed=4)
        total = math.ceil(burn_in / dt) + math.ceil(n / N_CHAINS) * thinning
        block = rng.block_steps(N_CHAINS)
        assert total > 2 * block
        assert len(calls) == (total if per_step else math.ceil(total / block))
        assert set(calls) == {(N_CHAINS, system.d1)}

    @pytest.mark.parametrize("b, cap, error", [
        (lambda x, y: x + 1.0, 1e6, BlowUp),
        (lambda x, y: x ** 3 + 1.0, sys.float_info.max, NonFiniteCoefficient),
    ], ids=["cap", "non-finite"])
    def test_refuses_a_bad_state(self, b, cap, error):
        # the chains are checked after each block of draws; x + 1 leaves the
        # cap near t = 14, and x^3 + 1 overflows, which the largest finite
        # cap lets through to the non-finite check
        with np.errstate(all="ignore"), pytest.raises(error):
            sample_invariant_measure(replace(frozen_ou(), b=b), [0.0],
                                     burn_in=20.0, n_samples=100, thinning=1,
                                     dt=0.01, blowup_cap=cap)


def x_noise_ou():
    """Frozen OU whose noise coefficient has batch axes and depends on x."""
    return replace(frozen_ou(),
                   sigma=lambda x, y: RT2 * (1.0 + 0.2 * np.tanh(x))[..., None])


def correlated_ou_2():
    """d1 = 2: diagonal relaxation driven by a constant non-diagonal sigma."""
    rates = np.array([1.0, 1.5])
    sigma = np.array([[1.3, 0.4], [-0.2, 0.9]])
    return replace(frozen_ou(), d1=2, b=lambda x, y: y - x * rates,
                   sigma=lambda x, y: sigma,
                   H=lambda t, x, y: x - y)


def correlated_ou_2_x_noise():
    """d1 = 2 with the non-diagonal sigma scaled row by row by
    1 + 0.2 tanh(x): it has batch axes and depends on x."""
    base = correlated_ou_2()
    return replace(base, sigma=lambda x, y: (base.sigma(x, y)
                                             * (1.0 + 0.2 * np.tanh(x))[..., None]))


SIGMA_KINDS = {"constant": frozen_ou, "x-noise": x_noise_ou,
               "d1=2 non-diagonal": correlated_ou_2,
               "d1=2 x-noise": correlated_ou_2_x_noise}


def check_against_per_step_chains(system, y, burn_in, n=1000, thinning=2,
                                  dt=0.01, seed=9):
    """Chain c of the cloud equals the lone Euler chain driven by path c of
    the fast lane, evaluating b and sigma at every step, bit for bit."""
    mu = sample_invariant_measure(system, y, burn_in=burn_in, n_samples=n,
                                  thinning=thinning, dt=dt, seed=seed)
    d1 = system.d1
    assert mu.n_chains == N_CHAINS
    assert mu.samples.shape == (n, d1)
    bounds = [n * c // N_CHAINS for c in range(N_CHAINS + 1)]
    burn_steps = math.ceil(burn_in / dt)
    for c in (0, 1, 37, N_CHAINS - 1):
        rows = bounds[c + 1] - bounds[c]
        assert rows in (15, 16)
        steps = np.arange(burn_steps + rows * thinning)
        z = rng.normals(seed, rng.LANE_FAST, c, steps, d1) * math.sqrt(dt)
        x, kept = np.zeros((1, d1)), []
        for k in steps:
            x = x + np.asarray(system.b(x, y)) * dt \
                + (np.asarray(system.sigma(x, y)) @ z[k][None, :, None])[..., 0]
            if k >= burn_steps and (k - burn_steps + 1) % thinning == 0:
                kept.append(x[0])
        assert np.array_equal(mu.samples[bounds[c]:bounds[c + 1]], kept)


class TestAverage:
    def test_constant_is_exact(self, mu0):
        mean, se = average(lambda t, x, y: np.ones(x.shape[0]), mu0)
        assert mean[0] == 1.0
        assert se[0] == 0.0

    def test_power_of_two_scaling_bit_exact(self, mu0):
        f = lambda t, x, y: x[..., 0]
        m1, _ = average(f, mu0)
        m2, _ = average(lambda t, x, y: 4.0 * f(t, x, y), mu0)
        assert m2[0] == 4.0 * m1[0]

    def test_general_linearity_near_exact(self, mu0):
        f = lambda t, x, y: x[..., 0]
        g = lambda t, x, y: x[..., 0] ** 2
        m_comb, _ = average(lambda t, x, y: 0.3 * f(t, x, y) + 1.7 * g(t, x, y), mu0)
        mf, _ = average(f, mu0)
        mg, _ = average(g, mu0)
        assert m_comb[0] == pytest.approx(0.3 * mf[0] + 1.7 * mg[0],
                                          rel=1e-12, abs=1e-12)


class TestStandardError:
    def test_se_calibrated_at_low_ess(self):
        # 2000 samples every 0.005 time units: each of the 64 chains spans
        # 0.16, well inside the unit correlation time, so one serial chain
        # of the same budget would hold about 5 effective samples.  The
        # chain-mean SE makes z of the centered x - y a t variable with 63
        # degrees of freedom, E[z^2] = 63/61; over 400 clouds the sample
        # mean of z^2 has a spread near 0.075
        z = []
        for seed in range(400):
            mu = sample_invariant_measure(frozen_ou(), [0.5], burn_in=5.0,
                                          n_samples=2000, thinning=1,
                                          dt=0.005, seed=seed)
            mean, se = average(lambda t, x, y: x - y, mu)
            z.append(mean[0] / se[0])
        assert 0.8 <= np.mean(np.square(z)) <= 1.25

    def test_single_sample_se_is_infinite(self):
        mu = MeasureEnsemble(y=[0.0], samples=[[0.3]], burn_in=1.0,
                             thinning=1, dt=0.1, seed=0, ess=1.0, n_chains=1)
        _, se = average(lambda t, x, y: x, mu)
        assert se[0] == math.inf

    @pytest.mark.parametrize("n", [2, 50])
    def test_one_chain_of_two_or_more_samples_is_refused(self, n):
        # chain means are the one error rule; a single long chain is passed
        # as segments
        with pytest.raises(ValueError, match="segments"):
            MeasureEnsemble(y=[0.0], samples=np.zeros((n, 1)), burn_in=1.0,
                            thinning=1, dt=0.1, seed=0, ess=1.0, n_chains=1)

    def test_segments_of_one_chain_give_batch_means(self):
        x = np.arange(12.0)[:, None] ** 2
        mu = MeasureEnsemble(y=[0.0], samples=x, burn_in=1.0, thinning=1,
                             dt=0.1, seed=0, ess=1.0, n_chains=3)
        means = x.reshape(3, 4).mean(axis=1)
        _, se = average(lambda t, x, y: x, mu)
        assert se[0] == pytest.approx(means.std(ddof=1) / math.sqrt(3), rel=1e-14)


class TestCentering:
    def test_centered_function_passes(self, mu0):
        assert centering_residual(lambda t, x, y: x, mu0) <= 3.0

    def test_shifted_function_flagged(self, mu0):
        assert centering_residual(lambda t, x, y: x + 5.0, mu0) > 3.0

    def test_zero_function_is_zero(self, mu0):
        assert centering_residual(lambda t, x, y: np.zeros_like(x), mu0) == 0.0

    def test_recentered_residual_negligible(self, mu0):
        h = lambda t, x, y: x ** 2
        m, _ = average(h, mu0)
        z = centering_residual(lambda t, x, y: h(t, x, y) - m, mu0)
        assert z < 1e-10


class TestTransfer:
    BUDGETS = Budgets(invariant_samples=50000, invariant_thinning=20,
                      corrector_paths=8000, corrector_tmax=8.0, grid_points=25)

    def test_no_parameter_dependence_gives_zero(self):
        sys_flat = CoupledSystem(
            d1=1, d2=1,
            b=lambda x, y: -x,
            sigma=lambda x, y: np.array([[RT2]]),
            c=lambda x, y: np.zeros_like(x),
            F=lambda t, x, y: np.zeros_like(x),
            H=lambda t, x, y: np.zeros_like(x),
            G=lambda t, x, y: np.array([[1.0]]),
            autonomous=True,
        )
        est = transfer_derivative(lambda t, x, y: x[..., 0], sys_flat, [0.0],
                                  [1.0], self.BUDGETS, seed=3)
        assert abs(est.value) <= max(0.05, 3 * est.se)

    def test_linear_observable(self):
        est = transfer_derivative(lambda t, x, y: x[..., 0], frozen_ou(), [0.0],
                                  [1.0], self.BUDGETS, seed=3)
        # the corrector of h = x is x - y, so the derivative is exactly 1;
        # se carries the grid bias, and it must stay small enough to mean
        # something
        assert abs(est.value - 1.0) <= 3 * est.se
        assert est.se <= 0.05

    def test_quadratic_observable(self):
        est = transfer_derivative(lambda t, x, y: x[..., 0] ** 2, frozen_ou(),
                                  [1.0], [1.0], self.BUDGETS, seed=3)
        assert abs(est.value - 2.0) <= max(0.15, 5 * est.se)

    def test_two_fast_coordinates(self):
        # both coordinates relax to y, so the corrector of h = x1 + x2 is
        # (x - y) summed over the coordinates and the derivative of the
        # average is exactly 2; se carries the grid bias
        sys2 = CoupledSystem(
            d1=2, d2=1,
            b=lambda x, y: y - x,
            sigma=lambda x, y: RT2 * np.eye(2),
            c=lambda x, y: np.zeros_like(x),
            F=lambda t, x, y: np.zeros(np.shape(x)[:-1] + (1,)),
            H=lambda t, x, y: np.zeros(np.shape(x)[:-1] + (1,)),
            G=lambda t, x, y: np.array([[1.0]]),
            autonomous=True,
        )
        budgets = Budgets(invariant_samples=20000, invariant_thinning=10,
                          corrector_paths=2000, corrector_tmax=4.0,
                          grid_points=18)
        est = transfer_derivative(lambda t, x, y: x[..., 0] + x[..., 1], sys2,
                                  [0.0], [1.0], budgets, seed=3)
        assert abs(est.value - 2.0) <= 3 * est.se
        # the 18 x 18 grid reads 2.026 with se 0.080 at these budgets (seeds
        # 4-6: se 0.077-0.090); the 9 x 9 grid it once had read se 0.38, so
        # a grid that coarse again, or a blow-up of the bias, must fail
        assert est.se <= 0.12
