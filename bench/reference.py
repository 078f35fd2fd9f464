"""Closed-form laws of the Ornstein-Uhlenbeck workloads, computed apart from fastslow.

Every function here works from the coefficients of the two presets as
written down in closed form, never from the program's objects:

* ``ou_full``:      b = y - x, sigma = sqrt(2), c = 1/2, F = x - 2y, H = x - y, G = 1
* ``ou_averaging``: the same with c = 0 and H = 0

Each scheme the program runs on them is linear with Gaussian noise, so the
exact mean and covariance of what it computes follow from small matrix
recursions and geometric sums.  ``tests/test_reference.py`` checks each one
against a brute-force simulation driven by numpy's own generator.
"""

from __future__ import annotations

import math

import numpy as np


def euler_ou_stationary_var(dt: float) -> float:
    """Stationary variance of the frozen Euler chain x' = x + (y - x) dt + sqrt(2 dt) z."""
    return 2.0 * dt / (1.0 - (1.0 - dt) ** 2)


def truncated_corrector_slope(dt: float, n_steps: int) -> float:
    """d/dx of the Euler corrector of H = x - y truncated after ``n_steps`` steps.

    The frozen Euler mean relaxes as (x - y)(1 - dt)^s, so the truncated
    time integral sum_{s < K} E[X_s - y] dt is (x - y)(1 - (1 - dt)^K).
    """
    return 1.0 - (1.0 - dt) ** n_steps


def r4_cell(y: float, c: float, inv_dt: float, cor_dt: float,
            cor_steps: int) -> tuple[float, float]:
    """Drift and squared diffusion of an R4 cell of ``ou_full``-type coefficients.

    Drift: the stationary mean of F + c dPhi/dx + H dPhi/dy, with the
    truncated corrector Phi = (x - y)(1 - (1 - dt)^K); since E[x - y] = 0 under
    the frozen Euler law this is -y + c (1 - (1 - dt)^K).  Squared diffusion:
    G G^T + E[H Phi] = 1 + (1 - (1 - dt)^K) * (stationary variance of the
    frozen Euler chain at the cloud's step).
    """
    slope = truncated_corrector_slope(cor_dt, cor_steps)
    return -y + c * slope, 1.0 + slope * euler_ou_stationary_var(inv_dt)


def ar1_mean_se(n: int, thinning: int, dt: float) -> float:
    """Exact standard error of the mean of ``n`` stationary thinned Euler-OU samples.

    The kept samples form an AR(1) chain with lag-one correlation
    rho = (1 - dt)^thinning and variance :func:`euler_ou_stationary_var`, so
    Var(mean) = var/n [(1 + rho)/(1 - rho) - 2 rho (1 - rho^n) / (n (1 - rho)^2)],
    about 2/L for a cloud spanning L = n * thinning * dt time units.
    """
    rho = (1.0 - dt) ** thinning
    var = euler_ou_stationary_var(dt)
    s = (1.0 + rho) / (1.0 - rho) - 2.0 * rho * (1.0 - rho ** n) / (n * (1.0 - rho) ** 2)
    return math.sqrt(var / n * s)


def euler_ou_law(y0: float, T: float, dt: float) -> tuple[float, float]:
    """Mean and variance at T of Euler Y' = Y - Y h + sqrt(h) z, with h = T / round(T / dt)."""
    n = max(1, int(round(T / dt)))
    h = T / n
    a = 1.0 - h
    return y0 * a ** n, h * (1.0 - a ** (2 * n)) / (1.0 - a * a)


def coupling_span(T: float, dt: float) -> float:
    """Gain from a drift error bounded per step to the terminal state.

    Two Euler paths of Y' = Y + (-Y + e_k) h + sqrt(h) z driven by the same
    noise differ at T by sum_k (1 - h)^(n-1-k) e_k h, so |e_k| <= E gives a
    gap of at most E * (1 - (1 - h)^n).
    """
    n = max(1, int(round(T / dt)))
    return 1.0 - (1.0 - T / n) ** n


def stiff_grid(alpha: float, T: float, dt_slow: float,
               micro_per_alpha2: int) -> tuple[int, int]:
    """Macro and micro step counts of the stiff scheme on [0, T].

    The macro step is T / round(T / dt_slow); each takes
    ceil(dt / (alpha^2 / micro_per_alpha2)) micro steps of the fast equation.
    """
    n_macro = max(1, int(round(T / dt_slow)))
    dt = T / n_macro
    return n_macro, max(1, int(math.ceil(dt / (alpha * alpha / micro_per_alpha2) - 1e-12)))


def coupled_scheme_moments(eps: float, T: float, dt_slow: float,
                           micro_per_alpha2: int, x0: float, y0: float,
                           c: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean (3,) and covariance (3, 3) of (X_T, Y_T, I_T) under the stiff scheme.

    Reproduces the micro/macro Euler-Maruyama discretization in R4 with
    scales alpha = beta = gamma = eps on the grid of :func:`stiff_grid`: the
    fast equation takes the micro steps with Y frozen, H = X - Y is averaged
    over their left endpoints and the integral I of X - Y accumulated at the
    same points; Y then moves with F = X - 2Y at the macro start plus the
    averaged H / eps.  The state (X, Y, I, S, X_start, 1) evolves by affine
    maps with Gaussian kicks, so mean and covariance propagate exactly.
    """
    n_macro, n_micro = stiff_grid(eps, T, dt_slow, micro_per_alpha2)
    dt = T / n_macro
    h = dt / n_micro
    X, Y, I, S, X0, ONE = range(6)

    start = np.eye(6)
    start[S, S] = 0.0
    start[X0, X0] = 0.0
    start[X0, X] = 1.0

    micro = np.eye(6)
    micro[S, X] += 1.0
    micro[S, Y] -= 1.0
    micro[I, X] += h
    micro[I, Y] -= h
    micro[X, X] -= h / eps ** 2
    micro[X, Y] += h / eps ** 2
    micro[X, ONE] += c * h / eps
    q_micro = 2.0 * h / eps ** 2

    slow = np.eye(6)
    slow[Y, X0] += dt
    slow[Y, Y] -= 2.0 * dt
    slow[Y, S] += dt / (eps * n_micro)
    q_slow = dt

    # one macro step as an affine map A with additive noise covariance Q
    A = start
    Q = np.zeros((6, 6))
    for _ in range(n_micro):
        A = micro @ A
        Q = micro @ Q @ micro.T
        Q[X, X] += q_micro
    A = slow @ A
    Q = slow @ Q @ slow.T
    Q[Y, Y] += q_slow

    m = np.zeros(6)
    m[[X, Y, ONE]] = (x0, y0, 1.0)
    C = np.zeros((6, 6))
    for _ in range(n_macro):
        m = A @ m
        C = A @ C @ A.T + Q
    keep = [X, Y, I]
    return m[keep], C[np.ix_(keep, keep)]
