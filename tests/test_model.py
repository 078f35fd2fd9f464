import math
from fractions import Fraction

import numpy as np
import pytest

import fastslow.rng
from fastslow import (AveragedSDE, Budgets, CachePolicy, ConfigError,
                      CorrectorQuery, CoupledSystem, ExperimentConfig,
                      NonFiniteCoefficient, PathConfig, Regime, ScaleSchedule,
                      ThetaOutOfRange, classify_regime, integrate_coupled,
                      integrate_limit, psd_sqrt, sample_invariant_measure,
                      solve_poisson_fk, theoretical_rate, transfer_derivative,
                      validate_assumptions)
from fastslow.model import apply_matrix, block_noise
from fastslow.presets import get_system


def sched(a, b, g):
    return ScaleSchedule(a, b, g)


class TestClassify:
    def test_paper_style_examples(self):
        assert classify_regime(sched(1, "1/2", "3/4")) is Regime.R1
        assert classify_regime(sched(1, "3/2", "1/2")) is Regime.R2
        assert classify_regime(sched(1, 1, 1)) is Regime.R4
        assert classify_regime(sched(1, "1/2", 1)) is Regime.R3

    def test_two_scale_reduction_is_r1(self):
        assert classify_regime(sched(1, 0, 0)) is Regime.R1

    def test_unclassified(self):
        assert classify_regime(sched(1, "1/2", 2)) is Regime.UNCLASSIFIED
        assert classify_regime(sched(1, "3/2", 1)) is Regime.UNCLASSIFIED

    def test_float_and_fraction_agree(self):
        a = classify_regime(sched(1.0, 0.5, 0.75))
        b = classify_regime(sched(Fraction(1), Fraction(1, 2), Fraction(3, 4)))
        assert a is b is Regime.R1

    def test_exhaustive_grid_single_tag(self):
        # every triple gets exactly one tag, and it matches a literal
        # re-statement of the defining predicates
        vals = [Fraction(k, 4) for k in range(1, 11)]
        count = 0
        for a in vals:
            for b in vals:
                for g in vals:
                    if not 2 * a > b:
                        continue
                    tag = classify_regime(ScaleSchedule(a, b, g))
                    preds = {
                        Regime.R1: a > g and 2 * a > b + g,
                        Regime.R2: a > g and 2 * a == b + g,
                        Regime.R3: a == g and a > b,
                        Regime.R4: a == b == g,
                    }
                    holders = [r for r, ok in preds.items() if ok]
                    assert len(holders) <= 1
                    expected = holders[0] if holders else Regime.UNCLASSIFIED
                    assert tag is expected
                    count += 1
        assert count > 500

    def test_schedule_invariants(self):
        with pytest.raises(ValueError):
            ScaleSchedule(0, 1, 1)
        with pytest.raises(ValueError):
            ScaleSchedule(1, 2, 1)  # alpha^2/beta does not vanish
        with pytest.raises(ValueError):
            ScaleSchedule(1, -1, 1)

    def test_scales(self):
        al, be, ga = sched(1, "1/2", "3/4").scales(0.25)
        assert al == 0.25
        assert be == pytest.approx(0.5)
        assert ga == pytest.approx(0.25 ** 0.75)


def _ou(b=None, sigma=None, G=None, d1=1, d2=1):
    rt2 = np.sqrt(2.0)
    return CoupledSystem(
        d1=d1, d2=d2,
        b=b or (lambda x, y: -x),
        sigma=sigma or (lambda x, y: rt2 * np.eye(d1)),
        c=lambda x, y: np.zeros_like(x),
        F=lambda t, x, y: np.zeros_like(y) if np.ndim(y) > 1 else np.zeros(np.shape(x)[:-1] + (d2,)),
        H=lambda t, x, y: np.zeros(np.shape(x)[:-1] + (d2,)),
        G=G or (lambda t, x, y: np.eye(d2)),
    )


class TestValidate:
    def test_ou_passes(self):
        rep = validate_assumptions(_ou(), lam=2.0, sample_budget=500,
                                   radius=10.0, seed=1)
        assert rep.a_ok and rep.g_ok
        assert rep.recurrence_plausible and rep.ac_plausible
        assert rep.recurrence_max == pytest.approx(-100.0)
        assert rep.passed

    def test_outward_drift_fails(self):
        rep = validate_assumptions(_ou(b=lambda x, y: +x), lam=2.0,
                                   sample_budget=500, radius=5.0, seed=1)
        assert not rep.recurrence_plausible
        assert rep.recurrence_max == pytest.approx(25.0)

    def test_eigenvalue_flag(self):
        sig = lambda x, y: np.diag([1.0, 3.0])
        rep = validate_assumptions(_ou(sigma=sig, d1=2), lam=2.0,
                                   sample_budget=200, radius=5.0, seed=1)
        assert not rep.a_ok
        assert rep.a_eig_max == pytest.approx(4.5)

    def test_bit_identical_reports(self):
        r1 = validate_assumptions(_ou(), 2.0, 300, 10.0, seed=9)
        r2 = validate_assumptions(_ou(), 2.0, 300, 10.0, seed=9)
        assert r1 == r2

    @pytest.mark.parametrize("budget", [10.5, True, 10.0])
    def test_fractional_budget_is_refused(self, budget):
        # int() read 10.5 samples as 10
        with pytest.raises(ValueError, match=f"sample_budget must be an integer, "
                                             f"got {budget!r}"):
            validate_assumptions(_ou(), 2.0, budget, 10.0, seed=0)

    def test_as_dict_keys(self):
        # the order is the validate command's CSV rows
        rep = validate_assumptions(_ou(), 2.0, np.int64(50), 10.0, seed=9)
        assert list(rep.as_dict()) == [
            "lambda", "sample_budget", "radius", "seed", "eps", "a_eig_min",
            "a_eig_max", "a_ok", "g_eig_min", "g_eig_max", "g_ok",
            "recurrence_max", "recurrence_plausible", "ac_max", "ac_plausible",
            "passed"]
        assert rep.as_dict()["lambda"] == 2.0 and rep.as_dict()["passed"] is True
        assert type(rep.sample_budget) is int

    def test_non_finite(self):
        bad = _ou(b=lambda x, y: x * np.nan)
        with pytest.raises(NonFiniteCoefficient):
            validate_assumptions(bad, 2.0, 100, 5.0, seed=0)


def _stacked(m, v):
    return (np.asarray(m, dtype=np.float64) @ v[..., None])[..., 0]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("s", [0.0, -2.0, math.sqrt(2.0)])
@pytest.mark.parametrize("lead", [(257,), (257, 1), (9, 33)])
def test_apply_matrix_one_by_one_is_the_stacked_product(s, lead):
    # the elementwise path must give the stacked product's bits, signed
    # zeros included: the product sums from +0.0, so 0 * (-x) and
    # (-2) * (+0) come out as +0.0, not -0.0
    v = np.random.default_rng(3).standard_normal(lead + (1,))
    flat = v.reshape(-1)
    flat[:4] = [0.0, -0.0, 5e-324, -5e-324]
    got = apply_matrix(np.array([[s]]), v)
    want = _stacked(np.array([[s]]), v)
    assert got.shape == want.shape == lead + (1,)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.any(np.signbit(v * s) != np.signbit(want))


@pytest.mark.parametrize("lead", [(257,), (257, 1), (9, 33)])
def test_apply_matrix_other_shapes_are_the_stacked_product(lead):
    r = np.random.default_rng(4)
    v1 = r.standard_normal(lead + (1,))
    v2 = r.standard_normal(lead + (2,))
    batched = r.standard_normal(lead + (1, 1))
    const2 = np.array([[1.3, 0.4], [-0.2, 0.9]])
    batched2 = r.standard_normal(lead + (2, 2))
    for m, v in ((batched, v1), (const2, v2), (batched2, v2)):
        got = apply_matrix(m, v)
        assert got.shape == v.shape
        assert np.array_equal(_bits(got), _bits(_stacked(m, v)))


@pytest.mark.parametrize("shape", [(257, 1, 1), (1, 1), (257, 2, 2)])
def test_apply_matrix_signed_zeros_are_the_stacked_product(shape):
    # zeros of both signs in the matrices and in the vectors, against each
    # other and against normal, subnormal and infinite entries: a (1, 1)
    # matrix, or a stack of them, takes the elementwise path and must round,
    # and sign its zeros, as the stacked product does
    r = np.random.default_rng(6)
    d = shape[-1]
    special = [0.0, -0.0, 5e-324, -5e-324, math.inf, -2.5]
    v = r.standard_normal((257, d))
    v.reshape(-1)[:24] = np.tile(special, 4)
    v.reshape(-1)[-12:] = [-0.0, 0.0, -0.0] * 4
    if shape == (1, 1):
        ms = [np.array([[s]]) for s in special]
    else:
        m = r.standard_normal(shape)
        m.reshape(-1)[:24] = np.repeat(special, 4)
        m.reshape(-1)[-12:] = [0.0, -0.0] * 6
        ms = [m]
    plus_zeros = 0
    for m in ms:
        with np.errstate(invalid="ignore"):
            got = apply_matrix(m, v)
            want = _stacked(m, v)
        assert got.shape == want.shape == (257, d)
        assert np.array_equal(_bits(got), _bits(want))
        plus_zeros += np.count_nonzero((want == 0.0) & ~np.signbit(want))
    assert plus_zeros > 0


# sigma kinds of block_noise: (1, 1) and (2, 2) without batch axes, and a
# batched sigma that depends on the state, row i scaled by 1 + 0.2 tanh(x_i)
CONST2 = np.array([[1.3, 0.4], [-0.2, 0.9]])
BLOCK_SIGMAS = {
    "(1, 1)": (1, lambda x: np.array([[math.sqrt(2.0)]]), False),
    "constant (2, 2)": (2, lambda x: CONST2, False),
    "batched": (2, lambda x: CONST2 * (1.0 + 0.2 * np.tanh(x))[..., None], True),
}


@pytest.mark.parametrize("name", list(BLOCK_SIGMAS))
def test_block_noise_is_the_per_step_product(name):
    # the caller moves X in place after each step's noise; every step must
    # see apply_matrix(sigma(X_j), z_j) * scale, bit for bit, and a sigma
    # without batch axes must be read once per block
    d, sigma, batched = BLOCK_SIGMAS[name]
    r = np.random.default_rng(5)
    z = r.standard_normal((6, 40, d))
    scale = 0.1
    x0 = r.standard_normal((40, d))
    calls = []

    def sigma_at(x):
        calls.append(1)
        return sigma(x)

    X = x0.copy()
    got = []
    noise = block_noise(lambda: sigma_at(X), z, scale)
    for j in range(z.shape[0]):
        got.append(noise[j].copy())
        X += 0.05 * np.tanh(X) + got[-1]
    Xr = x0.copy()
    for j in range(z.shape[0]):
        want = apply_matrix(sigma(Xr), z[j]) * scale
        assert np.array_equal(_bits(got[j]), _bits(want)), j
        Xr += 0.05 * np.tanh(Xr) + want
    assert len(calls) == (z.shape[0] if batched else 1)
    assert np.array_equal(_bits(X), _bits(Xr))



OU_FULL = get_system("ou_full")
LIMIT = AveragedSDE.from_callables(Regime.R1, 1, lambda t, y: -np.asarray(y),
                                   lambda t, y: [[1.0]])


def _x_minus_y(t, x, y):
    return (x - y)[..., 0]


def _experiment(**kw):
    return ExperimentConfig(system=OU_FULL, system_name="ou_full",
                            schedule=ScaleSchedule(1, 0, 0), theta=1,
                            eps_list=(0.2,), **kw)


# every real parameter of a public entry point: the entry point, the
# parameter, a finite value out of its range, the call, and the error (a
# theta out of its regime's range raises ThetaOutOfRange)
REAL_PARAMETERS = [
    ("Budgets", "invariant_burn_in", 0.0, lambda v: Budgets(invariant_burn_in=v), ValueError),
    ("Budgets", "invariant_dt", -1.0, lambda v: Budgets(invariant_dt=v), ValueError),
    ("Budgets", "corrector_tmax", 0.0, lambda v: Budgets(corrector_tmax=v), ValueError),
    ("Budgets", "corrector_dt", 0.0, lambda v: Budgets(corrector_dt=v), ValueError),
    ("Budgets", "grid_pad", -0.5, lambda v: Budgets(grid_pad=v), ValueError),
    ("Budgets", "delta_y", 0.0, lambda v: Budgets(delta_y=v), ValueError),
    ("CachePolicy", "quantum", 0.0, lambda v: CachePolicy(quantum=v), ValueError),
    ("CachePolicy", "t_quantum", -1.0, lambda v: CachePolicy(t_quantum=v), ValueError),
    ("CorrectorQuery", "T_max", 0.0,
     lambda v: CorrectorQuery(t=0.0, y=[0.0], grid_axes=([0.0],), T_max=v), ValueError),
    ("CorrectorQuery", "dt", 0.0,
     lambda v: CorrectorQuery(t=0.0, y=[0.0], grid_axes=([0.0],), dt=v), ValueError),
    ("solve_poisson_fk", "delta_y", 0.0,
     lambda v: solve_poisson_fk(OU_FULL, OU_FULL.H, CorrectorQuery(
         t=0.0, y=[0.0], grid_axes=(np.linspace(-3.0, 3.0, 5),)),
         centering_z=0.0, want_grad_y=True, delta_y=v), ValueError),
    ("PathConfig", "T", -1.0, lambda v: PathConfig(T=v, dt_slow=0.1), ValueError),
    ("PathConfig", "dt_slow", 0.0, lambda v: PathConfig(T=1.0, dt_slow=v), ValueError),
    ("PathConfig", "blowup_cap", 0.0,
     lambda v: PathConfig(T=1.0, dt_slow=0.1, blowup_cap=v), ValueError),
    ("integrate_coupled", "eps", 1.0,
     lambda v: integrate_coupled(OU_FULL, ScaleSchedule(1, 1, 1), v, [0.0], [0.0],
                                 PathConfig(T=0.1, dt_slow=0.05)), ValueError),
    ("integrate_limit", "T", -1.0,
     lambda v: integrate_limit(LIMIT, [0.0], T=v, dt=0.05, seed=0, n_paths=2), ValueError),
    ("integrate_limit", "dt", 0.0,
     lambda v: integrate_limit(LIMIT, [0.0], T=1.0, dt=v, seed=0, n_paths=2), ValueError),
    ("integrate_limit", "blowup_cap", 0.0,
     lambda v: integrate_limit(LIMIT, [0.0], T=1.0, dt=0.05, seed=0, n_paths=2,
                               blowup_cap=v), ValueError),
    ("sample_invariant_measure", "burn_in", 0.0,
     lambda v: sample_invariant_measure(OU_FULL, [0.0], burn_in=v), ValueError),
    ("sample_invariant_measure", "dt", 0.0,
     lambda v: sample_invariant_measure(OU_FULL, [0.0], dt=v), ValueError),
    ("sample_invariant_measure", "blowup_cap", -1.0,
     lambda v: sample_invariant_measure(OU_FULL, [0.0], blowup_cap=v), ValueError),
    ("validate_assumptions", "lam", 1.0,
     lambda v: validate_assumptions(OU_FULL, lam=v, sample_budget=10, radius=1.0,
                                    seed=0), ValueError),
    ("validate_assumptions", "radius", 0.0,
     lambda v: validate_assumptions(OU_FULL, lam=2.0, sample_budget=10, radius=v,
                                    seed=0), ValueError),
    ("validate_assumptions", "eps", -3.0,
     lambda v: validate_assumptions(OU_FULL, lam=2.0, sample_budget=10, radius=1.0,
                                    seed=0, eps=v), ValueError),
    ("ScaleSchedule", "exp_alpha", 0.0, lambda v: ScaleSchedule(v, 0, 0), ValueError),
    ("ScaleSchedule", "exp_beta", -1.0, lambda v: ScaleSchedule(1, v, 0), ValueError),
    ("ScaleSchedule", "exp_gamma", -1.0, lambda v: ScaleSchedule(1, 0, v), ValueError),
    ("theoretical_rate", "theta", 3.0,
     lambda v: theoretical_rate(Regime.R1, ScaleSchedule(1, 0, 0), v),
     (ValueError, ThetaOutOfRange)),
    ("psd_sqrt", "tol_psd", -1.0, lambda v: psd_sqrt(np.eye(2), tol_psd=v), ValueError),
    ("transfer_derivative", "direction", 0.0,
     lambda v: transfer_derivative(_x_minus_y, OU_FULL, [0.3], [v]), ValueError),
    ("ExperimentConfig", "T", 0.0, lambda v: _experiment(T=v), ConfigError),
    ("ExperimentConfig", "dt_slow", 0.0, lambda v: _experiment(dt_slow=v), ConfigError),
]


@pytest.fixture
def nothing_is_sampled(monkeypatch):
    """Fail the test if anything draws a random number."""
    def drawn(*a, **k):
        pytest.fail("drew random numbers before the check")

    monkeypatch.setattr(fastslow.rng, "normals", drawn)
    monkeypatch.setattr(fastslow.rng, "uniforms", drawn)


@pytest.mark.parametrize("call, name, value, error", [
    pytest.param(call, name, value, error, id=f"{entry}-{name}-{label}")
    for entry, name, out_of_range, call, error in REAL_PARAMETERS
    for label, value in (("nan", math.nan), ("inf", math.inf),
                         ("out_of_range", out_of_range))])
def test_each_real_parameter_refuses_nan_inf_and_its_range(nothing_is_sampled, call,
                                                           name, value, error):
    # NaN passed every "x <= 0" check: a NaN horizon returned the initial
    # state, a NaN blow-up cap switched the guard off, and a zero direction
    # gave a NaN derivative; each is now refused by name before any draw
    with pytest.raises(error, match=rf"\b{name}\b.*\bmust\b"):
        call(value)
