import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fastslow import (CorrectorQuery, CoupledSystem, NotCentered,
                      GridTooCoarse, NonFiniteCoefficient,
                      centering_residual, gradients,
                      outer_product_HPhi, sample_invariant_measure,
                      solve_poisson_fk)
import fastslow.corrector
from fastslow.corrector import (CorrectorField, _grid_at, _interp_axes,
                                _node_derivatives, multilinear)

RT2 = math.sqrt(2.0)


def standard_ou(H=None):
    """Fast equation with stationary law N(0, 1)."""
    return CoupledSystem(
        d1=1, d2=1,
        b=lambda x, y: -x,
        sigma=lambda x, y: np.array([[RT2]]),
        c=lambda x, y: np.zeros_like(x),
        F=lambda t, x, y: np.zeros_like(x),
        H=H or (lambda t, x, y: x),
        G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True,
    )


F_LIN = lambda t, x, y: x[..., 0]
F_QUAD = lambda t, x, y: x[..., 0] ** 2 - 1.0


def grid_query(lo=-3.0, hi=3.0, n=25, **kw):
    kw.setdefault("t", 0.0)
    kw.setdefault("y", [0.0])
    return CorrectorQuery(grid_axes=(np.linspace(lo, hi, n),), **kw)


@pytest.fixture(scope="module")
def mu():
    return sample_invariant_measure(standard_ou(), [0.0], n_samples=50000,
                                    thinning=10, seed=55)


@pytest.fixture(scope="module")
def mu_long():
    # heavy-tailed integrands (fourth moments) need a long stationary stretch
    return sample_invariant_measure(standard_ou(), [0.0], n_samples=40000,
                                    thinning=50, dt=2e-3, seed=56)


@pytest.fixture(scope="module")
def field_lin(mu):
    z = centering_residual(F_LIN, mu)
    return solve_poisson_fk(standard_ou(), F_LIN, grid_query(), centering_z=z)


@pytest.fixture(scope="module")
def field_quad(mu):
    z = centering_residual(F_QUAD, mu)
    return solve_poisson_fk(standard_ou(), F_QUAD, grid_query(), centering_z=z)


class TestSolve:
    def test_linear_oracle(self, field_lin):
        # the corrector of the linear integrand is the identity
        pts = field_lin.query.points[:, 0]
        for target in (-1.0, 0.0, 1.0):
            q = int(np.argmin(np.abs(pts - target)))
            assert abs(field_lin.values[q, 0] - pts[q]) <= 0.05

    def test_quadratic_oracle(self, field_quad):
        # Phi = (x^2 - 1)/2 is the zero-mean corrector
        pts = field_quad.query.points[:, 0]
        for target, expect in ((0.0, -0.5), (1.0, 0.0)):
            q = int(np.argmin(np.abs(pts - target)))
            assert abs(field_quad.values[q, 0] - expect) <= 0.05

    def test_zero_integrand_exact(self):
        f0 = lambda t, x, y: np.zeros(x.shape[:-1])
        field = solve_poisson_fk(standard_ou(), f0, grid_query(n=3), centering_z=0.0)
        assert np.all(field.values == 0.0)
        assert np.all(field.se == 0.0)

    def test_refuses_without_evidence(self):
        with pytest.raises(NotCentered):
            solve_poisson_fk(standard_ou(), F_LIN, grid_query(n=3))

    def test_refuses_large_z(self):
        with pytest.raises(NotCentered):
            solve_poisson_fk(standard_ou(), F_LIN, grid_query(n=3), centering_z=5.0)

    def test_refuses_nan_z(self):
        # NaN compares false with 3: the gate must require z <= 3, not
        # refuse z > 3
        with pytest.raises(NotCentered):
            solve_poisson_fk(standard_ou(), F_LIN, grid_query(n=3),
                             centering_z=math.nan)

    @pytest.mark.parametrize("b, error", [
        (lambda x, y: np.where(x > 0.0, np.inf, -x), NonFiniteCoefficient),
    ], ids=["non-finite"])
    def test_refuses_a_bad_state(self, b, error):
        # a drift that is infinite at some nodes gives no generator
        with np.errstate(all="ignore"), pytest.raises(error, match="'b'"):
            solve_poisson_fk(replace(standard_ou(), b=b), F_LIN, grid_query(n=5),
                             centering_z=0.0)

    def test_refuses_auto_center(self, mu):
        # the caller centers the integrand; the solver takes only its z
        with pytest.raises(TypeError, match="auto_center"):
            solve_poisson_fk(standard_ou(), F_LIN, grid_query(n=3),
                             auto_center=True, mu=mu)

    def test_scaling_by_power_of_two_bit_exact(self, mu):
        query = grid_query(n=5)
        z = centering_residual(F_LIN, mu)
        f2 = lambda t, x, y: 2.0 * F_LIN(t, x, y)
        a = solve_poisson_fk(standard_ou(), F_LIN, query, centering_z=z)
        b = solve_poisson_fk(standard_ou(), f2, query, centering_z=z)
        assert np.array_equal(b.values, 2.0 * a.values)

    def test_general_linearity_near_exact(self, mu):
        query = grid_query(n=5)
        comb = lambda t, x, y: 0.3 * F_LIN(t, x, y) + 1.7 * F_QUAD(t, x, y)
        za = centering_residual(F_LIN, mu)
        zb = centering_residual(F_QUAD, mu)
        zc = centering_residual(comb, mu)
        a = solve_poisson_fk(standard_ou(), F_LIN, query, centering_z=za)
        b = solve_poisson_fk(standard_ou(), F_QUAD, query, centering_z=zb)
        c = solve_poisson_fk(standard_ou(), comb, query, centering_z=zc)
        np.testing.assert_allclose(c.values, 0.3 * a.values + 1.7 * b.values,
                                   rtol=1e-12, atol=1e-12)

    def test_centered_representative(self, field_lin, mu):
        # the grid solution is centered against the chain's law pi_h, which
        # is near the cloud's, so it carries no additive constant
        vals = _grid_at(field_lin, field_lin.values, mu.samples)
        m = vals.mean()
        se_mu = vals.std(ddof=1) / math.sqrt(vals.shape[0])
        se_f = float(field_lin.se.mean())
        assert abs(m) <= 3 * math.hypot(se_mu, se_f)

    def test_discrete_generator_residual(self, field_lin):
        # a * second difference + b * first difference reproduces -f inside
        pts = field_lin.query.points[:, 0]
        h = pts[1] - pts[0]
        v = field_lin.values[:, 0]
        lap = (v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
        grd = (v[2:] - v[:-2]) / (2 * h)
        resid = 1.0 * lap + (-pts[1:-1]) * grd - (-pts[1:-1])
        inner = slice(4, -4)  # skip near-edge nodes where samples are scarce
        tol = max(0.1, 5 * float(field_lin.se.max()))
        assert np.max(np.abs(resid[inner])) <= tol

    @pytest.mark.parametrize("f, exact", [
        (F_LIN, lambda x: x), (F_QUAD, lambda x: 0.5 * (x ** 2 - 1.0))],
        ids=["linear", "quadratic"])
    def test_grid_bias_bounds_the_refined_error(self, f, exact):
        # on a grid that spans the law, the refined solution's error falls
        # fourfold per halving of the spacing, so the gap to the query
        # grid's solution is about three times that error
        query = grid_query(lo=-6.0, hi=6.0, n=25)
        fld = solve_poisson_fk(standard_ou(), f, query, centering_z=0.0)
        err = np.abs(fld.values[:, 0] - exact(query.points[:, 0]))
        assert np.all(err <= fld.se[:, 0] + 1e-12)
        assert np.max(err) <= 0.5 * np.max(fld.se)

    def test_refuses_three_fast_coordinates(self):
        # the cells' d1 = 3 grid, 10 nodes per axis, refines to 19^3 nodes,
        # whose dense solve does not fit; the refusal comes before any
        # coefficient is read
        ax = np.linspace(-1.0, 1.0, 10)
        query = CorrectorQuery(t=0.0, y=[0.0], grid_axes=(ax, ax, ax))
        with pytest.raises(NotImplementedError,
                           match=r"refined grid has 6859 nodes \(d1 = 3\), above"):
            solve_poisson_fk(None, F_LIN, query, centering_z=0.0)

    def test_refuses_an_oversized_grid(self):
        # 1251 nodes refine to 2501: one past the limit, whose dense
        # matrices would take about 50 MB each
        query = grid_query(n=fastslow.corrector._MAX_NODES // 2 + 1)
        with pytest.raises(NotImplementedError,
                           match=r"refined grid has 2501 nodes \(d1 = 1\), above"):
            solve_poisson_fk(None, F_LIN, query, centering_z=0.0)

    def test_refuses_a_non_monotone_diffusion(self):
        # a = [[0.5, 0.9], [0.9, 4]] is positive definite, but a_11 < |a_12|
        # on a square grid: no non-negative rates carry the correlation
        a = np.array([[0.5, 0.9], [0.9, 4.0]])
        system, f, y = correlated_ou_2()
        system = replace(system, sigma=lambda x, yy: np.linalg.cholesky(2.0 * a))
        query = CorrectorQuery(t=0.0, y=y, grid_axes=fused_axes(2))
        with pytest.raises(NotImplementedError,
                           match=r"no monotone stencil: a_ii h_j < sum_j \|a_ij\| h_i"):
            solve_poisson_fk(system, f, query, centering_z=0.0)


def coupled_ou():
    """d2 = 1: frozen law N(y, 1) with the centered integrand x - y."""
    system = CoupledSystem(
        d1=1, d2=1,
        b=lambda x, y: y - x,
        sigma=lambda x, y: np.array([[RT2]]),
        c=lambda x, y: np.zeros_like(x),
        F=lambda t, x, y: np.zeros_like(x),
        H=lambda t, x, y: x - y,
        G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True,
    )
    return system, system.H, [0.4]


def coupled_ou_x_noise():
    """d2 = 1 with a noise coefficient that depends on the fast state."""
    system, H, y = coupled_ou()
    sigma = lambda x, y: RT2 * (1.0 + 0.2 * np.tanh(x))[..., None]
    return replace(system, sigma=sigma), H, y


def coupled_ou_2():
    """d2 = 2: the first slow coordinate moves the mean, the second the
    relaxation rate, the noise and the second integrand component."""
    def b(x, y):
        y = np.asarray(y)
        return y[..., :1] - x * (1.0 + 0.3 * y[..., 1:] ** 2)

    def H(t, x, y):
        y = np.asarray(y)
        dev = x - y[..., :1]
        return np.concatenate([dev, dev * y[..., 1:]], axis=-1)

    system = CoupledSystem(
        d1=1, d2=2, b=b,
        sigma=lambda x, y: np.array([[RT2 * (1.0 + 0.1 * y[1] ** 2)]]),
        c=lambda x, y: np.zeros_like(x),
        F=lambda t, x, y: np.zeros(np.shape(x)[:-1] + (2,)),
        H=H,
        G=lambda t, x, y: np.eye(2),
        autonomous=True,
    )
    return system, H, [0.3, -0.8]


def correlated_ou_2():
    """d1 = 2: the slow state moves the mean of a diagonal relaxation driven
    by a constant non-diagonal sigma; the integrand x - y has two
    components."""
    rates = np.array([1.0, 1.5])
    sigma = np.array([[1.3, 0.4], [-0.2, 0.9]])
    system = CoupledSystem(
        d1=2, d2=1,
        b=lambda x, y: y - x * rates,
        sigma=lambda x, y: sigma,
        c=lambda x, y: np.zeros(np.shape(x)[:-1] + (1,)),
        F=lambda t, x, y: np.zeros(np.shape(x)[:-1] + (1,)),
        H=lambda t, x, y: x - y,
        G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True,
    )
    return system, system.H, [0.4]


def correlated_ou_2_x_noise():
    """d1 = 2 with a non-diagonal noise coefficient that depends on the fast
    state: row i of the constant sigma scaled by 1 + 0.2 tanh(x_i)."""
    system, H, y = correlated_ou_2()
    const = system.sigma(None, None)
    sigma = lambda x, y: const * (1.0 + 0.2 * np.tanh(x))[..., None]
    return replace(system, sigma=sigma), H, y


# the noise is shared by all states, by none, and by some; at d1 = 2 a
# constant and a batched non-diagonal sigma
FUSED_SYSTEMS = {"d2=1": coupled_ou, "d2=1 x-noise": coupled_ou_x_noise,
                 "d2=2": coupled_ou_2, "d1=2": correlated_ou_2,
                 "d1=2 x-noise": correlated_ou_2_x_noise}


def fused_axes(d1, n=7):
    """Grid axes of the fused-state tests: n nodes on [-3, 3] at d1 = 1, a
    5 x 4 grid at d1 = 2."""
    if d1 == 1:
        return (np.linspace(-3.0, 3.0, n),)
    return (np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 1.5, 4))


def shifted_ys(y, delta):
    """The slow states y + delta e_j and y - delta e_j, j = 0, 1, ..."""
    ys = []
    for j in range(y.size):
        shift = np.zeros(y.size)
        shift[j] = delta
        ys += [y + shift, y - shift]
    return ys


def shifted_solves(system, f, query, delta):
    """Single-state solves at each of :func:`shifted_ys`."""
    return [solve_poisson_fk(system, f, replace(query, y=y_s), centering_z=0.0)
            for y_s in shifted_ys(query.y, delta)]


def pair_field(query, solves):
    """The mean of single-state solves: their refined and query-grid values."""
    return CorrectorField(
        query=query, values=np.mean([s.values for s in solves], axis=0),
        coarse=np.mean([s.coarse for s in solves], axis=0))


class TestFusedYStates:
    """The y +/- delta states of the y-gradient share one solve call, and no
    centre state is solved."""

    def query(self, system, y):
        return CorrectorQuery(t=0.0, y=y, grid_axes=fused_axes(system.d1))

    @pytest.mark.parametrize("system", list(FUSED_SYSTEMS))
    def test_equals_separate_single_state_solves(self, system):
        sys_, f, y = FUSED_SYSTEMS[system]()
        q = self.query(sys_, y)
        delta = 0.05
        fused = solve_poisson_fk(sys_, f, q, centering_z=0.0,
                                 want_grad_y=True, delta_y=delta)
        singles = shifted_solves(sys_, f, q, delta)
        pair = pair_field(q, singles)
        for name in ("values", "coarse", "se"):
            assert np.array_equal(getattr(fused, name), getattr(pair, name)), name
        d2 = len(y)
        assert fused.grad_y.shape == (q.points.shape[0], fused.k, d2)
        for j in range(d2):
            fp, fm = singles[2 * j], singles[2 * j + 1]
            assert np.array_equal(fused.grad_y[:, :, j],
                                  (fp.values - fm.values) / (2 * delta))
            assert np.array_equal(fused.coarse_grad_y[..., j],
                                  (fp.coarse - fm.coarse) / (2 * delta))
        assert np.any(fused.grad_y != 0.0)

    @pytest.mark.parametrize("delta_y", [None, 0.05])
    @pytest.mark.parametrize("system", list(FUSED_SYSTEMS))
    def test_gradients_on_centre_only_field(self, system, delta_y):
        # gradients() attaches the x-gradient only: the fused field keeps the
        # y-gradients of its own solve and gets the x-gradient of the field
        # built from the pair's single-state solves; a centre-only field
        # gets no y-gradients
        sys_, f, y = FUSED_SYSTEMS[system]()
        q = self.query(sys_, y)
        solved = solve_poisson_fk(sys_, f, q, centering_z=0.0,
                                  want_grad_y=True, delta_y=delta_y)
        fused = gradients(solved)
        delta = fastslow.corrector._y_step(q.y, delta_y)
        pair = gradients(pair_field(q, shifted_solves(sys_, f, q, delta)))
        for name in ("values", "coarse", "grad_x"):
            assert np.array_equal(getattr(fused, name), getattr(pair, name),
                                  equal_nan=True), name
        assert fused.grad_y is solved.grad_y
        assert fused.coarse_grad_y is solved.coarse_grad_y
        centre = gradients(solve_poisson_fk(sys_, f, q, centering_z=0.0))
        assert centre.grad_y is None and centre.coarse_grad_y is None

    def test_pair_mean_gap_is_second_order_in_delta(self):
        # on a system nonlinear in y the pair's mean misses the centre by
        # delta^2 / 2 times the mean second y-derivative, so the gap falls
        # fourfold per halving of delta; at the default step it is far
        # below the grid bias
        sys_, f, y = coupled_ou_2()
        q = self.query(sys_, y)
        centre = solve_poisson_fk(sys_, f, q, centering_z=0.0)

        def gap(delta_y):
            fused = solve_poisson_fk(sys_, f, q, centering_z=0.0,
                                     want_grad_y=True, delta_y=delta_y)
            return np.abs(fused.values - centre.values)

        gaps = [float(gap(d).max()) for d in (0.1, 0.05, 0.025)]
        for wide, narrow in zip(gaps, gaps[1:]):
            assert narrow > 0.0 and abs(wide / narrow - 4.0) <= 0.2
        assert np.max(gap(None) / centre.se) < 1e-3

    @pytest.mark.parametrize("delta_y", [0.0, -1e-3, float("nan"), float("inf")])
    def test_rejects_bad_delta_y(self, delta_y):
        sys_, f, y = coupled_ou()
        q = grid_query(n=5, y=y)
        with pytest.raises(ValueError, match="delta_y"):
            solve_poisson_fk(sys_, f, q, centering_z=0.0, want_grad_y=True,
                             delta_y=delta_y)


def _bernoulli(z):
    return 1.0 if z == 0.0 else z / math.expm1(z)


def plain_loop_solve(system, f, t, y, axes):
    """Phi_h (N, k) of the grid solve, built node by node: the rates to
    the grid neighbours written out one at a time, pi_h the least-squares
    solution of pi Q = 0 with sum(pi) = 1, and Phi_h that of
    Q Phi = -(f - pi f) with pi Phi = 0."""
    d = len(axes)
    h = [ax[1] - ax[0] for ax in axes]
    nodes = list(itertools.product(*(range(len(ax)) for ax in axes)))
    where = {node: i for i, node in enumerate(nodes)}

    def at(node):
        return np.array([[axes[p][node[p]] for p in range(d)]])

    def coefficients(node):
        sig = np.asarray(system.sigma(at(node), y), dtype=np.float64).reshape(d, d)
        a = 0.5 * sig @ sig.T
        a_axis = [a[i, i] - sum(abs(a[i, j]) * h[i] / h[j] for j in range(d) if j != i)
                  for i in range(d)]
        return np.asarray(system.b(at(node), y), dtype=np.float64).reshape(d), a, a_axis

    N = len(nodes)
    Q = np.zeros((N, N))
    for n, node in enumerate(nodes):
        b, a, a_axis = coefficients(node)
        for i in range(d):
            for o in (1, -1):
                nb = list(node)
                nb[i] += o
                if tuple(nb) not in where:
                    continue
                b2, _, a2 = coefficients(tuple(nb))
                drift, diff = (b[i] + b2[i]) / 2, (a_axis[i] + a2[i]) / 2
                rate = diff / h[i] ** 2 * _bernoulli(-o * drift * h[i] / diff)
                Q[n, where[tuple(nb)]] = rate
        for i, j in itertools.combinations(range(d), 2):
            for oi, oj in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                nb = list(node)
                nb[i] += oi
                nb[j] += oj
                if tuple(nb) in where and a[i, j] * oi * oj > 0:
                    Q[n, where[tuple(nb)]] += abs(a[i, j]) / (h[i] * h[j])
        Q[n, n] = -Q[n].sum()
    fv = np.stack([np.asarray(f(t, at(node), y), dtype=np.float64).reshape(-1)
                   for node in nodes])
    pi = np.linalg.lstsq(np.vstack([Q.T, np.ones((1, N))]),
                         np.r_[np.zeros(N), 1.0], rcond=None)[0]
    fc = fv - pi @ fv
    return np.linalg.lstsq(np.vstack([Q, pi[None]]),
                           np.vstack([-fc, np.zeros((1, fc.shape[1]))]), rcond=None)[0]


class TestPlainLoopReference:
    """The solve is the documented chain, built and solved plainly."""

    @pytest.mark.parametrize("system", ["d2=1 x-noise", "d2=2", "d1=2", "d1=2 x-noise"])
    def test_solve_equals_plain_loop(self, system):
        sys_, f, y = FUSED_SYSTEMS[system]()
        axes = fused_axes(sys_.d1)
        q = CorrectorQuery(t=0.0, y=y, grid_axes=axes)
        delta = 0.05
        field = solve_poisson_fk(sys_, f, q, centering_z=0.0, want_grad_y=True,
                                 delta_y=delta)
        fine_axes = tuple(np.linspace(ax[0], ax[-1], 2 * len(ax) - 1) for ax in axes)
        fine_shape = tuple(len(ax) for ax in fine_axes)
        ys = shifted_ys(q.y, delta)
        coarse = np.stack([plain_loop_solve(sys_, f, 0.0, y_s, axes) for y_s in ys])
        fine = np.stack([
            plain_loop_solve(sys_, f, 0.0, y_s, fine_axes)
            .reshape(fine_shape + (-1,))[(slice(None, None, 2),) * sys_.d1]
            .reshape(coarse.shape[1:])
            for y_s in ys])
        tol = dict(rtol=0, atol=1e-10)
        np.testing.assert_allclose(field.values, fine.mean(axis=0), **tol)
        np.testing.assert_allclose(field.coarse, coarse.mean(axis=0), **tol)
        np.testing.assert_allclose(
            field.grad_y,
            np.moveaxis((fine[0::2] - fine[1::2]) / (2 * delta), 0, -1), **tol)
        np.testing.assert_allclose(
            field.coarse_grad_y,
            np.moveaxis((coarse[0::2] - coarse[1::2]) / (2 * delta), 0, -1), **tol)


def independent_ou_3():
    """d1 = 3: three uncoupled relaxations to y at different rates, with a
    fast-state dependent noise on the first coordinate."""
    rates = np.array([1.0, 1.5, 0.8])
    system = CoupledSystem(
        d1=3, d2=1,
        b=lambda x, y: y - x * rates,
        sigma=lambda x, y: np.eye(3) * np.stack(
            [1.2 + 0.2 * np.tanh(x[..., 0]), np.ones(np.shape(x)[:-1]),
             0.9 * np.ones(np.shape(x)[:-1])], axis=-1)[..., None],
        c=lambda x, y: np.zeros(np.shape(x)[:-1] + (1,)),
        F=lambda t, x, y: np.zeros(np.shape(x)[:-1] + (1,)),
        H=lambda t, x, y: x[..., :1] - y,
        G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True,
    )
    return system, system.H, [0.4]


class TestThreeFastCoordinates:
    def test_small_grid_equals_plain_loop(self):
        # a grid whose refinement fits the node limit solves at d1 = 3
        sys_, f, y = independent_ou_3()
        axes = (np.linspace(-2.0, 2.0, 4), np.linspace(-1.5, 1.5, 3),
                np.linspace(-1.0, 1.0, 3))
        q = CorrectorQuery(t=0.0, y=y, grid_axes=axes)
        field = solve_poisson_fk(sys_, f, q, centering_z=0.0)
        fine_axes = tuple(np.linspace(ax[0], ax[-1], 2 * len(ax) - 1) for ax in axes)
        fine = (plain_loop_solve(sys_, f, 0.0, q.y, fine_axes)
                .reshape((7, 5, 5, -1))[::2, ::2, ::2].reshape(field.values.shape))
        tol = dict(rtol=0, atol=1e-10)
        np.testing.assert_allclose(field.values, fine, **tol)
        np.testing.assert_allclose(field.coarse, plain_loop_solve(sys_, f, 0.0, q.y, axes),
                                   **tol)


class TestQuery:
    @pytest.mark.parametrize("name", ["n_paths"])
    @pytest.mark.parametrize("value", [100.5, True])
    def test_fractional_count_is_refused(self, name, value):
        # 100.5 paths were accepted and failed later, inside range()
        with pytest.raises(ValueError, match=f"{name} must be an integer, "
                                             f"got {value!r}"):
            CorrectorQuery(t=0.0, y=[0.0], grid_axes=([0.0],), **{name: value})

    @pytest.mark.parametrize("name", ["T_max", "dt"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_and_step_must_be_finite_and_positive(self, name, value):
        # an infinite horizon ended in an OverflowError when the solve
        # counted its steps
        with pytest.raises(ValueError, match="T_max and dt must be finite and > 0"):
            CorrectorQuery(t=0.0, y=[0.0], grid_axes=([0.0],), **{name: value})

    @pytest.mark.parametrize("axis", [[-1.0, 0.0, 2.0], [1.0, 0.0, -1.0], [0.5, 0.5]],
                             ids=["uneven", "decreasing", "repeated"])
    def test_refuses_an_axis_of_other_spacing(self, axis):
        # the rates and the refinement read one spacing per axis, so these
        # gave wrong rates, or negative ones, and no error
        with pytest.raises(ValueError, match="grid axis 1 must be evenly spaced "
                                             "and increasing"):
            CorrectorQuery(t=0.0, y=[0.0], grid_axes=([0.0, 1.0], axis))

    def test_points_come_from_the_grid(self):
        ax = ([-1.0, 0.0, 1.0], [0.5, 1.5])
        q = CorrectorQuery(t=0.0, y=[0.0], grid_axes=ax)
        mesh = np.meshgrid(*ax, indexing="ij")
        assert q.points.tolist() == np.stack([m.ravel() for m in mesh], -1).tolist()
        # a query of free points is not a form the solver takes
        with pytest.raises(TypeError, match="points"):
            CorrectorQuery(t=0.0, y=[0.0], grid_axes=ax, points=q.points)
        with pytest.raises(ValueError, match="grid_axes"):
            CorrectorQuery(t=0.0, y=[0.0], grid_axes=())


class TestGradients:
    def test_linear_gradient(self, field_lin):
        fld = gradients(field_lin)
        gx = _grid_at(fld, fld.values, np.array([[-1.0], [0.0], [1.0]]),
                      derivative=1)
        assert np.all(np.abs(gx[:, 0, 0] - 1.0) <= 0.05)
        # the attached gradient is the read-out's, NaN edges included
        assert fld.grad_x.tobytes() == _node_derivatives(fld, fld.values, 1)[0].tobytes()

    def test_quadratic_gradient(self, field_quad):
        fld = gradients(field_quad)
        gx = _grid_at(fld, fld.values, np.array([[1.0]]), derivative=1)
        assert abs(gx[0, 0, 0] - 1.0) <= 0.05
        assert fld.grad_x.tobytes() == _node_derivatives(fld, fld.values, 1)[0].tobytes()

    def test_y_gradient_vanishes_without_dependence(self, mu):
        # dynamics and integrand ignore y, and the y +/- delta states share
        # their increments
        fld = solve_poisson_fk(standard_ou(), F_LIN,
                               grid_query(n=9),
                               centering_z=centering_residual(F_LIN, mu),
                               want_grad_y=True)
        assert fld.grad_y.shape == (9, 1, 1)
        assert np.all(fld.grad_y == 0.0) and np.all(fld.coarse_grad_y == 0.0)

    def test_stencil_exact_on_quadratic_d1_2(self):
        # central differences are exact on quadratics, so the gradient and
        # the Hessian, mixed partial included, match the analytic ones to
        # rounding wherever their stencil reaches; elsewhere they are NaN
        ax = (np.linspace(-1.0, 2.0, 7), np.linspace(-2.0, 1.0, 6))
        X, Y = np.meshgrid(*ax, indexing="ij")
        u = X ** 2 + 3 * X * Y - 2 * Y ** 2
        query = CorrectorQuery(t=0.0, y=[0.0], grid_axes=ax)
        vals = u.reshape(-1, 1)
        fake = CorrectorField(query=query, values=vals, coarse=vals)
        grad, hess = _node_derivatives(fake, vals, 2)
        assert grad.shape == (42, 1, 2) and hess.shape == (42, 1, 2, 2)
        g = grad.reshape(7, 6, 2)
        exact = np.stack([2 * X + 3 * Y, 3 * X - 4 * Y], axis=-1)
        np.testing.assert_allclose(g[1:-1, :, 0], exact[1:-1, :, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(g[:, 1:-1, 1], exact[:, 1:-1, 1], rtol=0, atol=1e-12)
        assert np.isnan(g[[0, -1], :, 0]).all() and np.isnan(g[:, [0, -1], 1]).all()

        hs = hess.reshape(7, 6, 2, 2)
        np.testing.assert_allclose(g[1:-1, 1:-1], exact[1:-1, 1:-1], rtol=0, atol=1e-12)
        inner = hs[1:-1, 1:-1]
        np.testing.assert_allclose(
            inner, np.broadcast_to([[2.0, 3.0], [3.0, -4.0]], inner.shape),
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(hs[1:-1, :, 0, 0], 2.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(hs[:, 1:-1, 1, 1], -4.0, rtol=0, atol=1e-12)
        assert np.isnan(hs[[0, -1], :, 0, 0]).all() and np.isnan(hs[:, [0, -1], 1, 1]).all()
        for p, q in ((0, 1), (1, 0)):
            assert np.isnan(hs[[0, -1], :, p, q]).all() and np.isnan(hs[:, [0, -1], p, q]).all()

        # the interior route reads the gradient and Hessian at a node as
        # they are there
        pts = np.array([[ax[0][2], ax[1][3]]])
        np.testing.assert_allclose(_grid_at(fake, vals, pts, derivative=1)[0, 0],
                                   exact[2, 3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(_grid_at(fake, vals, pts, derivative=2)[0, 0],
                                   [[2.0, 3.0], [3.0, -4.0]], rtol=0, atol=1e-12)

    def test_grid_too_coarse(self, field_lin):
        x = np.linspace(-3, 3, 7)
        bumpy = np.exp(-x ** 2 / 0.08)[:, None]
        query = CorrectorQuery(t=0.0, y=[0.0], grid_axes=(x,))
        fake = CorrectorField(query=query, values=bumpy, coarse=bumpy - 1e-6)
        with pytest.raises(GridTooCoarse):
            gradients(fake)


class TestOuterProduct:
    def test_zero_H(self, mu):
        sys0 = standard_ou(H=lambda t, x, y: np.zeros(x.shape[:-1] + (1,)))
        z = 0.0
        field = solve_poisson_fk(sys0, sys0.H, grid_query(n=5), centering_z=z)
        res = outer_product_HPhi(sys0, field, mu, 0.0)
        assert np.all(res.matrix == 0.0)
        assert res.antisym_norm == 0.0

    def test_linear_H_second_moment(self):
        # its own cloud: 64 chains of 250 time units put the spread of the
        # estimated E[x^2] = 1 near sqrt(2 / 16000) = 0.011, so the
        # tolerance 0.05 is about 4.4 of it
        mu = sample_invariant_measure(standard_ou(), [0.0], n_samples=160000,
                                      thinning=20, dt=5e-3, seed=55)
        sys1 = standard_ou(H=lambda t, x, y: x)
        z = centering_residual(sys1.H, mu)
        field = solve_poisson_fk(sys1, sys1.H, grid_query(),
                                 centering_z=z)
        res = outer_product_HPhi(sys1, field, mu, 0.0)
        assert abs(res.matrix[0, 0] - 1.0) <= 0.05

    def test_quadratic_H_fourth_moment(self, mu_long):
        sys1 = standard_ou(H=lambda t, x, y: x ** 2 - 1.0)
        z = centering_residual(sys1.H, mu_long)
        field = solve_poisson_fk(sys1, sys1.H, grid_query(),
                                 centering_z=z)
        res = outer_product_HPhi(sys1, field, mu_long, 0.0)
        assert abs(res.matrix[0, 0] - 1.0) <= 0.1


def multilinear_fn(x):
    """A multilinear function of the columns of x (degree <= 1 in each),
    two components."""
    prod = np.prod(x, axis=-1)
    first = 0.7 - 1.3 * x[:, 0] + 0.4 * x[:, -1] + 2.1 * x[:, 0] * x[:, 1] - prod
    return np.stack([first, 0.5 * prod + x[:, 1]], axis=-1)


def uneven_axes(d):
    return tuple(np.sort(np.random.default_rng(d).uniform(-2.0, 2.0, 5 + j))
                 for j in range(d))


def grid_of(axes, fn):
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return fn(mesh).reshape(tuple(len(ax) for ax in axes) + (-1,))


class TestMultilinear:
    @pytest.mark.parametrize("d", [2, 3])
    def test_reproduces_a_multilinear_function(self, d):
        # on the nodes, and anywhere inside, the blend of a multilinear
        # function is that function
        axes = uneven_axes(d)
        r = np.random.default_rng(7)
        nodes = np.stack([r.choice(ax, 300) for ax in axes], axis=-1)
        inside = np.stack([r.uniform(ax[0], ax[-1], 300) for ax in axes], axis=-1)
        pts = np.concatenate([nodes, inside])
        got = _interp_axes(axes, grid_of(axes, multilinear_fn), pts)
        assert np.abs(got - multilinear_fn(pts)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_clamps_outside_the_grid(self, d):
        axes = uneven_axes(d)
        pts = np.random.default_rng(8).uniform(-5.0, 5.0, (400, d))
        clamped = np.stack([np.clip(pts[:, j], ax[0], ax[-1])
                            for j, ax in enumerate(axes)], axis=-1)
        assert not np.array_equal(pts, clamped)
        grid = grid_of(axes, multilinear_fn)
        assert np.array_equal(_interp_axes(axes, grid, pts),
                              _interp_axes(axes, grid, clamped))
        assert np.abs(_interp_axes(axes, grid, pts)
                      - multilinear_fn(clamped)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_a_per_point_corner_loop(self, d):
        # the weights multiply in axis order from 1.0 and the weighted
        # corners add in itertools.product order, from the first corner
        r = np.random.default_rng(9)
        table = r.standard_normal((4,) * d + (3,))
        base = r.integers(0, 3, (200, d))
        frac = r.uniform(0.0, 1.0, (200, d))
        frac[:20] = r.integers(0, 2, (20, d))   # on the cell's corners
        got = multilinear(base, frac, lambda keys: table[tuple(keys.T)])
        for n in range(200):
            want = None
            for corner in itertools.product((0, 1), repeat=d):
                w = 1.0
                for j, o in enumerate(corner):
                    w = w * (frac[n, j] if o else 1.0 - frac[n, j])
                term = w * table[tuple(base[n] + corner)]
                want = term if want is None else want + term
            assert got[n].tobytes() == want.tobytes(), n
