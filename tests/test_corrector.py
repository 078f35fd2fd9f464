import math
from dataclasses import replace

import numpy as np
import pytest

from fastslow import (BlowUp, CorrectorQuery, CoupledSystem, NotCentered,
                      GridTooCoarse, NonFiniteCoefficient,
                      centering_residual, gradients,
                      outer_product_HPhi, rng, sample_invariant_measure,
                      solve_poisson_fk)
import fastslow.corrector
from fastslow.corrector import (CorrectorField, _grid_at,
                                _interior_derivatives, grid_grad_x)

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
    kw.setdefault("T_max", 8.0)
    kw.setdefault("n_paths", 30000)
    kw.setdefault("dt", 0.01)
    kw.setdefault("seed", 17)
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
        field = solve_poisson_fk(standard_ou(), f0,
                                 grid_query(n=3, n_paths=1000, T_max=1.0),
                                 centering_z=0.0)
        assert np.all(field.values == 0.0)
        assert np.all(field.tail_bound == 0.0)

    def test_chunking_is_bit_identical(self, monkeypatch):
        # 37 steps: at 7 paths per chunk the increments come in one block
        # per chunk, with all 1000 paths in one chunk in blocks of 32 steps
        # and a short last one; the batch and tail sums add path after path
        query = grid_query(n=5, n_paths=1000, T_max=0.37)

        def solve_at_chunks(system, f, q, **kw):
            fields = []
            for chunk in (7, 4096):
                monkeypatch.setattr(fastslow.corrector, "_CHUNK_PATHS", chunk)
                fields.append(solve_poisson_fk(system, f, q, centering_z=0.0, **kw))
            return fields

        a, b = solve_at_chunks(standard_ou(), F_LIN, query)
        for name in ("values", "se", "batch_means", "tail_bound"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        # the y +/- delta states ride the same blocks of increments
        for make in FUSED_SYSTEMS.values():
            system, f, y = make()
            q = replace(query, y=np.asarray(y, dtype=np.float64))
            a, b = solve_at_chunks(system, f, q, want_grad_y=True)
            for name in ("values", "se", "batch_means", "tail_bound", "grad_y",
                         "grad_y_batches"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_refuses_without_evidence(self):
        with pytest.raises(NotCentered):
            solve_poisson_fk(standard_ou(), F_LIN,
                             grid_query(n=3, n_paths=1000, T_max=1.0))

    def test_refuses_large_z(self):
        with pytest.raises(NotCentered):
            solve_poisson_fk(standard_ou(), F_LIN,
                             grid_query(n=3, n_paths=1000, T_max=1.0),
                             centering_z=5.0)

    def test_refuses_nan_z(self):
        # NaN compares false with 3: the gate must require z <= 3, not
        # refuse z > 3
        with pytest.raises(NotCentered):
            solve_poisson_fk(standard_ou(), F_LIN,
                             grid_query(n=3, n_paths=1000, T_max=1.0),
                             centering_z=math.nan)

    @pytest.mark.parametrize("b, error", [
        (lambda x, y: x, BlowUp),
        (lambda x, y: x ** 3 + 1.0, NonFiniteCoefficient),
    ], ids=["cap", "non-finite"])
    def test_refuses_a_bad_state(self, b, error):
        # x grows like e^t and leaves the norm cap 1e6 before T_max = 16;
        # x^3 + 1 overflows first
        query = grid_query(n=3, n_paths=40, n_batches=2, T_max=16.0)
        with np.errstate(all="ignore"), pytest.raises(error):
            solve_poisson_fk(replace(standard_ou(), b=b), F_LIN, query,
                             centering_z=0.0)

    def test_refuses_auto_center(self, mu):
        # the caller centers the integrand; the solver takes only its z
        with pytest.raises(TypeError, match="auto_center"):
            solve_poisson_fk(standard_ou(), F_LIN, grid_query(n=3, n_paths=100),
                             auto_center=True, mu=mu)

    def test_scaling_by_power_of_two_bit_exact(self, mu):
        query = grid_query(n=5, n_paths=2000, T_max=2.0)
        z = centering_residual(F_LIN, mu)
        f2 = lambda t, x, y: 2.0 * F_LIN(t, x, y)
        a = solve_poisson_fk(standard_ou(), F_LIN, query, centering_z=z)
        b = solve_poisson_fk(standard_ou(), f2, query, centering_z=z)
        assert np.array_equal(b.values, 2.0 * a.values)

    def test_general_linearity_near_exact(self, mu):
        query = grid_query(n=5, n_paths=2000, T_max=2.0)
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
        # the truncated-integral solution carries no additive constant
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

    def test_truncation_tail_bound(self, mu):
        z = centering_residual(F_LIN, mu)
        q5 = grid_query(lo=0.5, hi=1.5, n=3, T_max=5.0, n_paths=40000)
        q10 = replace(q5, T_max=10.0)
        f5 = solve_poisson_fk(standard_ou(), F_LIN, q5, centering_z=z)
        f10 = solve_poisson_fk(standard_ou(), F_LIN, q10, centering_z=z)
        diff = f10.batch_means - f5.batch_means
        se_diff = diff.std(axis=0, ddof=1) / math.sqrt(diff.shape[0])
        delta = np.abs(f10.values - f5.values)
        assert np.all(delta <= f5.tail_bound + 3 * se_diff + 1e-12)


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


# the noise is shared by all states, by none, and by some
FUSED_SYSTEMS = {"d2=1": coupled_ou, "d2=1 x-noise": coupled_ou_x_noise,
                 "d2=2": coupled_ou_2}


class TestFusedYStates:
    """The y +/- delta states of the y-gradient share the centre's pass."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # 600 paths in chunks of 256: the states advance in lockstep
        # across chunk boundaries too
        monkeypatch.setattr(fastslow.corrector, "_CHUNK_PATHS", 256)

    def query(self, y):
        return grid_query(n=7, n_paths=600, T_max=0.8, y=y, seed=23)

    @pytest.mark.parametrize("system", list(FUSED_SYSTEMS))
    def test_equals_separate_single_state_solves(self, system):
        sys_, f, y = FUSED_SYSTEMS[system]()
        q = self.query(y)
        delta = 0.05
        fused = solve_poisson_fk(sys_, f, q, centering_z=0.0,
                                 want_grad_y=True, delta_y=delta)
        centre = solve_poisson_fk(sys_, f, q, centering_z=0.0)
        for name in ("values", "se", "batch_means", "tail_bound"):
            assert np.array_equal(getattr(fused, name), getattr(centre, name)), name
        d2 = len(y)
        assert fused.grad_y.shape == (q.points.shape[0], fused.k, d2)
        for j in range(d2):
            shift = np.zeros(d2)
            shift[j] = delta
            fp = solve_poisson_fk(sys_, f, replace(q, y=q.y + shift),
                                  centering_z=0.0)
            fm = solve_poisson_fk(sys_, f, replace(q, y=q.y - shift),
                                  centering_z=0.0)
            assert np.array_equal(fused.grad_y[:, :, j],
                                  (fp.values - fm.values) / (2 * delta))
            assert np.array_equal(fused.grad_y_batches[..., j],
                                  (fp.batch_means - fm.batch_means) / (2 * delta))
        assert np.any(fused.grad_y != 0.0)

    @pytest.mark.parametrize("delta_y", [None, 0.05])
    @pytest.mark.parametrize("system", list(FUSED_SYSTEMS))
    def test_gradients_on_centre_only_field(self, system, delta_y):
        # gradients() attaches the x-gradient only: the fused field keeps the
        # y-gradients of its own solve, a centre-only field gets none
        sys_, f, y = FUSED_SYSTEMS[system]()
        q = self.query(y)
        solved = solve_poisson_fk(sys_, f, q, centering_z=0.0,
                                  want_grad_y=True, delta_y=delta_y)
        fused = gradients(solved)
        centre = gradients(solve_poisson_fk(sys_, f, q, centering_z=0.0))
        for name in ("values", "se", "batch_means", "tail_bound", "grad_x"):
            assert np.array_equal(getattr(fused, name), getattr(centre, name),
                                  equal_nan=True), name
        assert fused.grad_y is solved.grad_y
        assert fused.grad_y_batches is solved.grad_y_batches
        assert centre.grad_y is None and centre.grad_y_batches is None

    @pytest.mark.parametrize("system, per_step", [
        ("d2=1", False), ("d2=1 x-noise", True), ("d2=2", False)])
    def test_sigma_calls(self, system, per_step):
        # a sigma without batch axes is state-independent at each slow
        # state, so it is called once per block of draws and state; a
        # batched one once per step and state
        sys_, f, y = FUSED_SYSTEMS[system]()
        calls = []

        def sigma(x, yy):
            calls.append(1)
            return sys_.sigma(x, yy)

        q = self.query(y)
        solve_poisson_fk(replace(sys_, sigma=sigma), f, q, centering_z=0.0,
                         want_grad_y=True, delta_y=0.05)
        K = round(q.T_max / q.dt)
        chunks = (256, 256, 88)
        assert K > 2 * rng.block_steps(256)
        per_state = sum(K if per_step else math.ceil(K / rng.block_steps(m))
                        for m in chunks)
        assert len(calls) == (1 + 2 * len(y)) * per_state

    @pytest.mark.parametrize("system", ["d2=1", "d2=2"])
    def test_block_noise_equals_per_step_noise(self, system):
        # the same sigma given batch axes is evaluated at every step; the
        # noise applied once per block must match it bit for bit
        sys_, f, y = FUSED_SYSTEMS[system]()
        batched = replace(sys_, sigma=lambda x, yy: np.broadcast_to(
            sys_.sigma(x, yy), x.shape[:-1] + (1, 1)))
        q = self.query(y)
        per_block, per_step = (
            solve_poisson_fk(s, f, q, centering_z=0.0, want_grad_y=True,
                             delta_y=0.05) for s in (sys_, batched))
        for name in ("values", "se", "batch_means", "tail_bound", "grad_y",
                     "grad_y_batches"):
            assert np.array_equal(getattr(per_block, name), getattr(per_step, name)), name

    @pytest.mark.parametrize("delta_y", [0.0, -1e-3, float("nan"), float("inf")])
    def test_rejects_bad_delta_y(self, delta_y):
        sys_, f, y = coupled_ou()
        q = grid_query(n=5, n_paths=40, T_max=0.1, y=y)
        with pytest.raises(ValueError, match="delta_y"):
            solve_poisson_fk(sys_, f, q, centering_z=0.0, want_grad_y=True,
                             delta_y=delta_y)


class TestQuery:
    @pytest.mark.parametrize("n_batches", [1, 0])
    def test_rejects_fewer_than_two_batches(self, n_batches):
        # one path batch leaves no spread to estimate the standard error from
        with pytest.raises(ValueError, match="n_batches"):
            CorrectorQuery(t=0.0, y=[0.0], grid_axes=([0.0],), n_batches=n_batches)

    @pytest.mark.parametrize("name", ["n_paths", "n_batches"])
    @pytest.mark.parametrize("value", [100.5, True])
    def test_fractional_count_is_refused(self, name, value):
        # 100.5 paths were accepted and failed later, inside range()
        with pytest.raises(ValueError, match=f"{name} must be an integer, "
                                             f"got {value!r}"):
            CorrectorQuery(t=0.0, y=[0.0], grid_axes=([0.0],), **{name: value})

    def test_points_come_from_the_grid(self):
        ax = ([-1.0, 0.0, 2.0], [0.5, 1.5])
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
        gx = _grid_at(fld, fld.grad_x, np.array([[-1.0], [0.0], [1.0]]),
                      interior=True)
        assert np.all(np.abs(gx[:, 0, 0] - 1.0) <= 0.05)

    def test_quadratic_gradient(self, field_quad):
        fld = gradients(field_quad)
        gx = _grid_at(fld, fld.grad_x, np.array([[1.0]]), interior=True)
        assert abs(gx[0, 0, 0] - 1.0) <= 0.05

    def test_y_gradient_vanishes_without_dependence(self, mu):
        # dynamics and integrand ignore y, and the y +/- delta states share
        # the centre's increments
        fld = solve_poisson_fk(standard_ou(), F_LIN,
                               grid_query(n=9, n_paths=2000, T_max=2.0),
                               centering_z=centering_residual(F_LIN, mu),
                               want_grad_y=True)
        assert fld.grad_y.shape == (9, 1, 1)
        assert np.all(fld.grad_y == 0.0) and np.all(fld.grad_y_batches == 0.0)

    def test_stencil_exact_on_quadratic_d1_2(self):
        # central differences are exact on quadratics, so the interior
        # gradient and the whole Hessian, mixed partial included, match the
        # analytic ones to rounding; edge nodes carry no central stencil
        ax = (np.linspace(-1.0, 2.0, 7), np.linspace(-2.0, 1.0, 6))
        X, Y = np.meshgrid(*ax, indexing="ij")
        u = X ** 2 + 3 * X * Y - 2 * Y ** 2
        query = CorrectorQuery(t=0.0, y=[0.0], grid_axes=ax, T_max=1.0,
                               n_paths=100, seed=0)
        vals = u.reshape(-1, 1)
        fake = CorrectorField(
            query=query, values=vals,
            se=np.zeros_like(vals), batch_means=np.repeat(vals[None], 20, axis=0),
            tail_bound=np.zeros_like(vals))
        g = grid_grad_x(fake, vals).reshape(7, 6, 2)
        exact = np.stack([2 * X + 3 * Y, 3 * X - 4 * Y], axis=-1)
        np.testing.assert_allclose(g[1:-1, :, 0], exact[1:-1, :, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(g[:, 1:-1, 1], exact[:, 1:-1, 1], rtol=0, atol=1e-12)
        assert np.isnan(g[[0, -1], :, 0]).all() and np.isnan(g[:, [0, -1], 1]).all()

        steps = [float(a[1] - a[0]) for a in ax]
        grad, hess = _interior_derivatives(u, steps)
        assert grad.shape == (5, 4, 2) and hess.shape == (5, 4, 2, 2)
        np.testing.assert_allclose(grad, exact[1:-1, 1:-1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            hess, np.broadcast_to([[2.0, 3.0], [3.0, -4.0]], hess.shape),
            rtol=0, atol=1e-12)

    def test_grid_too_coarse(self, field_lin):
        x = np.linspace(-3, 3, 7)
        bumpy = np.exp(-x ** 2 / 0.08)[:, None]
        query = CorrectorQuery(t=0.0, y=[0.0], grid_axes=(x,), T_max=1.0,
                               n_paths=100, seed=0)
        fake = CorrectorField(
            query=query, values=bumpy,
            se=np.full_like(bumpy, 1e-6),
            batch_means=np.repeat(bumpy[None], 20, axis=0),
            tail_bound=np.zeros_like(bumpy))
        with pytest.raises(GridTooCoarse):
            gradients(fake)


class TestOuterProduct:
    def test_zero_H(self, mu):
        sys0 = standard_ou(H=lambda t, x, y: np.zeros(x.shape[:-1] + (1,)))
        z = 0.0
        field = solve_poisson_fk(sys0, sys0.H, grid_query(n=5, n_paths=2000,
                                                          T_max=2.0),
                                 centering_z=z)
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
        field = solve_poisson_fk(sys1, sys1.H, grid_query(n_paths=40000),
                                 centering_z=z)
        res = outer_product_HPhi(sys1, field, mu, 0.0)
        assert abs(res.matrix[0, 0] - 1.0) <= 0.05

    def test_quadratic_H_fourth_moment(self, mu_long):
        sys1 = standard_ou(H=lambda t, x, y: x ** 2 - 1.0)
        z = centering_residual(sys1.H, mu_long)
        field = solve_poisson_fk(sys1, sys1.H, grid_query(n_paths=40000),
                                 centering_z=z)
        res = outer_product_HPhi(sys1, field, mu_long, 0.0)
        assert abs(res.matrix[0, 0] - 1.0) <= 0.1
