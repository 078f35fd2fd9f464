"""Each closed form in ``reference`` against a brute-force simulation.

The simulations are driven by numpy's own generator, never by fastslow's
streams, so a fault shared by the program and a reference cannot hide.

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402


def _z(sample_mean, exact_mean, exact_var, n):
    return (sample_mean - exact_mean) / math.sqrt(exact_var / n)


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_coupled_scheme_moments_match_brute_force(eps):
    T, dt_slow, micro, x0, y0, c = 0.5, 0.02, 10, -0.3, 0.7, 0.5
    n = 100_000
    g = np.random.default_rng(1)
    n_macro = int(round(T / dt_slow))
    dt = T / n_macro
    n_micro = math.ceil(dt / (eps * eps / micro) - 1e-12)
    h = dt / n_micro
    X = np.full(n, x0)
    Y = np.full(n, y0)
    I = np.zeros(n)
    for _ in range(n_macro):
        F = X - 2.0 * Y
        S = np.zeros(n)
        for _ in range(n_micro):
            S += X - Y
            I += (X - Y) * h
            X = X + ((Y - X) / eps ** 2 + c / eps) * h \
                + math.sqrt(2.0 * h) / eps * g.standard_normal(n)
        Y = Y + (F + S / (eps * n_micro)) * dt + math.sqrt(dt) * g.standard_normal(n)
    mean, cov = reference.coupled_scheme_moments(eps, T, dt_slow, micro, x0, y0, c)
    sample = np.stack([X, Y, I], axis=1)
    for j in range(3):
        assert abs(_z(sample[:, j].mean(), mean[j], cov[j, j], n)) < 5
        se_var = cov[j, j] * math.sqrt(2.0 / (n - 1))
        assert abs(sample[:, j].var(ddof=1) - cov[j, j]) < 5 * se_var
    assert np.allclose(np.cov(sample.T), cov, rtol=0.03, atol=1e-3)


def test_truncated_corrector_and_r4_cell_match_brute_force():
    y, dt, K, c, inv_dt = 0.4, 0.01, 300, 0.5, 0.1
    g = np.random.default_rng(2)
    n = 40_000
    # truncated corrector Phi(x) = sum_{s<K} (X_s - y) dt, independent paths per point
    xs = np.array([y - 1.0, y, y + 1.5])
    X = np.repeat(xs[:, None], n, axis=1)
    phi = np.zeros_like(X)
    for _ in range(K):
        phi += (X - y) * dt
        X = X + (y - X) * dt + math.sqrt(2.0 * dt) * g.standard_normal(X.shape)
    slope = reference.truncated_corrector_slope(dt, K)
    for j, x in enumerate(xs):
        se = phi[j].std(ddof=1) / math.sqrt(n)
        assert abs(phi[j].mean() - (x - y) * slope) < 5 * se + 1e-12

    # stationary law of the frozen Euler chain at a coarse step, by running
    # independent chains far past their relaxation time
    x = np.full(n, y)
    for _ in range(400):
        x = x + (y - x) * inv_dt + math.sqrt(2.0 * inv_dt) * g.standard_normal(n)
    var = reference.euler_ou_stationary_var(inv_dt)
    assert abs(x.var(ddof=1) - var) < 5 * var * math.sqrt(2.0 / (n - 1))
    assert var > 1.05  # the Euler bias is visible at this step

    # the cell's drift and squared diffusion assembled from the brute-force pieces
    drift, cov = reference.r4_cell(y, c, inv_dt, dt, K)
    d = (x - 2 * y) + c * slope + (x - y) * (-slope)
    assert abs(d.mean() - drift) < 5 * d.std(ddof=1) / math.sqrt(n)
    hphi = (x - y) * (x - y) * slope
    assert abs(1.0 + hphi.mean() - cov) < 5 * hphi.std(ddof=1) / math.sqrt(n)


def test_ar1_mean_se_matches_replicated_chains():
    n, thinning, dt, reps = 200, 3, 0.05, 4000
    g = np.random.default_rng(3)
    var = reference.euler_ou_stationary_var(dt)
    x = g.standard_normal(reps) * math.sqrt(var)   # stationary start
    means = np.zeros(reps)
    for _ in range(n):
        for _ in range(thinning):
            x = x - x * dt + math.sqrt(2.0 * dt) * g.standard_normal(reps)
        means += x / n
    se = reference.ar1_mean_se(n, thinning, dt)
    # sd of a sample sd over 4000 replicates is about 1.1%
    assert abs(means.std(ddof=1) / se - 1.0) < 0.06
    # and the large-L form sqrt(2/L) is close
    assert abs(se / math.sqrt(2.0 / (n * thinning * dt)) - 1.0) < 0.1


def test_euler_ou_law_matches_brute_force():
    y0, T, dt, n = 0.8, 1.0, 0.05, 200_000
    g = np.random.default_rng(4)
    Y = np.full(n, y0)
    for _ in range(int(round(T / dt))):
        Y = Y - Y * dt + math.sqrt(dt) * g.standard_normal(n)
    mean, var = reference.euler_ou_law(y0, T, dt)
    assert abs(_z(Y.mean(), mean, var, n)) < 5
    assert abs(Y.var(ddof=1) - var) < 5 * var * math.sqrt(2.0 / (n - 1))


def test_coupling_span_bounds_nearest_cell_paths():
    """A nearest-cell drift with bounded cell errors stays within the span bound."""
    T, dt, q, n = 1.0, 0.01, 0.25, 20_000
    g = np.random.default_rng(5)
    cell_err = dict(zip(range(-40, 41), g.uniform(-0.3, 0.2, 81)))
    Y = np.full(n, 0.3)
    Yc = Y.copy()
    for _ in range(int(round(T / dt))):
        z = g.standard_normal(n) * math.sqrt(dt)
        k = np.round(Yc / q).astype(np.int64)
        e = np.array([cell_err[int(i)] for i in k])
        Yc = Yc + (-k * q + e) * dt + z
        Y = Y - Y * dt + z
    span = reference.coupling_span(T, dt)
    lo = (min(cell_err.values()) - q / 2) * span
    hi = (max(cell_err.values()) + q / 2) * span
    gap = Yc - Y
    assert lo - 1e-12 <= gap.min() and gap.max() <= hi + 1e-12


def test_benchmark_json_names_what_the_runs_report():
    import run
    import spans
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
