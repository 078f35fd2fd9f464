import math
from fractions import Fraction

import numpy as np
import pytest

from fastslow import (CoupledSystem, NonFiniteCoefficient, Regime,
                      ScaleSchedule, classify_regime, validate_assumptions)
from fastslow.model import apply_matrix


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
