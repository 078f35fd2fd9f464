import math
from dataclasses import replace

import numpy as np
import pytest

from fastslow import (BlowUp, CoupledSystem, PathConfig, Regime,
                      ScaleSchedule, integrate_coupled, integrate_limit, rng)
from fastslow.homogenize import (AveragedSDE, Budgets, CachePolicy,
                                 build_limit_sde)
from fastslow.presets import ou_averaging, ou_full

RT2 = math.sqrt(2.0)
S111 = ScaleSchedule(1, 1, 1)


def make_system(b, sigma, c=None, F=None, H=None, G=None):
    zero1 = lambda x, y: np.zeros_like(x)
    return CoupledSystem(
        d1=1, d2=1,
        b=b, sigma=sigma,
        c=c or zero1,
        F=F or (lambda t, x, y: np.zeros_like(x)),
        H=H or (lambda t, x, y: np.zeros_like(x)),
        G=G or (lambda t, x, y: np.array([[0.0]])),
        autonomous=True,
    )


def test_zero_slow_rhs_keeps_y_exact():
    sys1 = make_system(b=lambda x, y: -x, sigma=lambda x, y: np.array([[RT2]]))
    cfg = PathConfig(T=0.5, dt_slow=0.05, micro_substeps_per_alpha2=4,
                     seed=3, n_paths=64)
    res = integrate_coupled(sys1, S111, 0.3, [0.0], [1.7], cfg)
    assert np.all(res.terminal_slow == 1.7)


def test_seed_outside_64_bits_is_refused():
    sys1 = make_system(b=lambda x, y: -x, sigma=lambda x, y: np.array([[RT2]]))
    cfg = PathConfig(T=0.1, dt_slow=0.05, micro_substeps_per_alpha2=4,
                     seed=2 ** 64, n_paths=4)
    with pytest.raises(ValueError, match="seed must lie in"):
        integrate_coupled(sys1, S111, 0.3, [0.0], [1.7], cfg)


def test_fast_ode_oracle_first_order_in_substeps():
    sys1 = make_system(b=lambda x, y: -x, sigma=lambda x, y: np.array([[0.0]]))
    eps = 0.2
    exact = math.exp(-1.0)
    errs = {}
    for nu in (100, 250):
        cfg = PathConfig(T=eps ** 2, dt_slow=eps ** 2,
                         micro_substeps_per_alpha2=nu, seed=0, n_paths=1)
        res = integrate_coupled(sys1, S111, eps, [1.0], [0.0], cfg)
        errs[nu] = abs(res.terminal_fast[0, 0] - exact)
    assert errs[250] <= 1e-3
    # first-order convergence in the substep count
    assert errs[100] / errs[250] == pytest.approx(2.5, rel=0.2)


def test_coupled_ou_reaches_stationary_second_moment():
    sys1 = make_system(b=lambda x, y: -x, sigma=lambda x, y: np.array([[RT2]]),
                       F=lambda t, x, y: -y, G=lambda t, x, y: np.array([[1.0]]))
    cfg = PathConfig(T=0.5, dt_slow=0.01, micro_substeps_per_alpha2=40,
                     seed=11, n_paths=10000)
    res = integrate_coupled(sys1, S111, 0.2, [0.0], [0.5], cfg)
    m2 = (res.terminal_fast[:, 0] ** 2)
    se = m2.std(ddof=1) / math.sqrt(m2.size)
    assert abs(m2.mean() - 1.0) <= 3 * se + 0.02  # 0.02 covers the O(1/nu) bias


class TestLimit:
    def test_brownian_motion(self):
        avg = AveragedSDE.from_callables(
            Regime.R1, 1, lambda t, y: [0.0], lambda t, y: [[1.0]])
        res = integrate_limit(avg, [0.3], T=1.0, dt=0.01, seed=2, n_paths=20000)
        y = res.terminal_slow[:, 0]
        se_m = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - 0.3) <= 3 * se_m
        v = (y - 0.3) ** 2
        se_v = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - 1.0) <= 3 * se_v

    def test_ode_oracle(self):
        avg = AveragedSDE.from_callables(
            Regime.R1, 1, lambda t, y: -np.asarray(y), lambda t, y: [[0.0]])
        res = integrate_limit(avg, [1.0], T=1.0, dt=1e-3, seed=0, n_paths=1)
        assert abs(res.terminal_slow[0, 0] - math.exp(-1.0)) <= 1e-3

    def test_all_zero_fields_exact(self):
        avg = AveragedSDE.from_callables(
            Regime.R1, 1, lambda t, y: [0.0], lambda t, y: [[0.0]])
        res = integrate_limit(avg, [0.7], T=1.0, dt=0.1, seed=0, n_paths=5)
        assert np.all(res.terminal_slow == 0.7)

    def test_weak_euler_error_shrinks_with_dt(self):
        avg = AveragedSDE.from_callables(
            Regime.R1, 1, lambda t, y: -np.asarray(y), lambda t, y: [[1.0]])
        target = 2.0 * math.exp(-1.0)
        errs, ses = [], []
        for dt in (0.1, 0.05, 0.025):
            res = integrate_limit(avg, [2.0], T=1.0, dt=dt, seed=21,
                                  n_paths=40000)
            y = res.terminal_slow[:, 0]
            errs.append(abs(y.mean() - target))
            ses.append(y.std(ddof=1) / math.sqrt(y.size))
        assert errs[2] <= 0.5 * errs[0] + 3 * (ses[0] + ses[2])
        assert errs[1] <= errs[0] + 3 * (ses[0] + ses[1])


def test_determinism_across_chunks_and_workers():
    # 134 micro steps per macro step: chunks of 64, 999 and 4096 paths draw
    # blocks of 128, 8 and 2 micro steps, none of which divides 134
    sys1 = ou_full()
    base = dict(T=0.04, dt_slow=0.02, micro_substeps_per_alpha2=600, seed=42,
                n_paths=4200)
    runs = [integrate_coupled(sys1, S111, 0.3, [0.1], [0.4],
                              PathConfig(**base, chunk_size=chunk))
            for chunk in (64, 999, 4096)]
    a = runs[0]
    for b in runs[1:]:
        assert np.array_equal(a.terminal_slow, b.terminal_slow)
        assert np.array_equal(a.terminal_fast, b.terminal_fast)
        assert np.array_equal(a.max_abs_fast, b.max_abs_fast)


def x_noise_ou_full():
    """ou_full with a noise coefficient that has batch axes and depends on x."""
    return replace(ou_full(),
                   sigma=lambda x, y: RT2 * (1.0 + 0.2 * np.tanh(x))[..., None])


def correlated_d1_2():
    """d1 = 2, d2 = 1: every coupling term on, driven by a constant
    non-diagonal sigma."""
    rates = np.array([1.0, 1.5])
    sigma = np.array([[1.3, 0.4], [-0.2, 0.9]])
    return CoupledSystem(
        d1=2, d2=1,
        b=lambda x, y: y - x * rates,
        sigma=lambda x, y: sigma,
        c=lambda x, y: np.full_like(x, 0.25),
        F=lambda t, x, y: x[..., :1] - 2.0 * y,
        H=lambda t, x, y: x[..., :1] + 0.5 * x[..., 1:] - y,
        G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True,
    )


SIGMA_KINDS = {"constant 1x1": ou_full, "x-noise": x_noise_ou_full,
               "d1=2 non-diagonal": correlated_d1_2}


def per_micro_step_reference(system, eps, x0, y0, cfg, integrand,
                             macro_integrand):
    """integrate_coupled on one chunk, written step by step: one draw call
    per micro step, sigma at every micro step, the stacked noise product
    and fresh arrays for every update."""
    al, be, ga = S111.scales(eps)
    n_macro = max(1, int(round(cfg.T / cfg.dt_slow)))
    dt = cfg.T / n_macro
    n_micro = max(1, int(math.ceil(dt / (al * al / cfg.micro_substeps_per_alpha2)
                                   - 1e-12)))
    h = dt / n_micro
    inv_a2, inv_b, inv_g = 1.0 / (al * al), 1.0 / be, 1.0 / ga
    sq_h, sq_dt = math.sqrt(h) / al, math.sqrt(dt)
    ids = np.arange(cfg.n_paths)
    X = np.tile(np.asarray(x0, dtype=np.float64), (cfg.n_paths, 1))
    Y = np.tile(np.asarray(y0, dtype=np.float64), (cfg.n_paths, 1))
    mx = np.linalg.norm(X, axis=-1)
    acc = macc = None
    for mi in range(n_macro):
        tm = mi * dt
        Fm = system.F(tm, X, Y)
        Gm = system.G(tm, X, Y)
        val = macro_integrand(tm, Y) * dt
        macc = val if macc is None else macc + val
        Hsum = np.zeros_like(Y)
        for j in range(n_micro):
            tj = tm + j * h
            Hsum += system.H(tj, X, Y)
            val = integrand(tj, X, Y) * h
            acc = val if acc is None else acc + val
            z = rng.normals(cfg.seed, rng.LANE_FAST, ids,
                            np.uint64(mi * n_micro + j), system.d1)
            drift = system.b(X, Y) * inv_a2 + system.c(X, Y) * inv_b
            noise = (system.sigma(X, Y) @ z[..., None])[..., 0]
            X = X + drift * h + noise * sq_h
        z2 = rng.normals(cfg.seed, rng.LANE_SLOW, ids, np.uint64(mi), system.d2)
        Y = Y + (Fm + Hsum * (inv_g / n_micro)) * dt \
            + (Gm @ z2[..., None])[..., 0] * sq_dt
        mx = np.maximum(mx, np.linalg.norm(X, axis=-1))
    return X, Y, mx, acc, macc


@pytest.mark.parametrize("name", sorted(SIGMA_KINDS))
def test_coupled_equals_per_micro_step_loop(name):
    # 1000 paths draw blocks of 8 micro steps; a macro step has 10, so
    # every macro step ends on a short block
    system = SIGMA_KINDS[name]()
    assert rng.block_steps(1000) == 8
    cfg = PathConfig(T=0.05, dt_slow=0.01, micro_substeps_per_alpha2=10,
                     seed=17, n_paths=1000)
    integrand = lambda t, x, y: x[..., :1] - y
    macro_integrand = lambda t, y: y ** 2
    x0 = [0.3] * system.d1
    res = integrate_coupled(system, S111, 0.1, x0, [-0.2], cfg,
                            integrand=integrand, macro_integrand=macro_integrand)
    X, Y, mx, acc, macc = per_micro_step_reference(
        system, 0.1, x0, [-0.2], cfg, integrand, macro_integrand)
    # the 10 micro steps end on a short block in every macro step
    assert int(math.ceil(0.01 / (0.01 / 10) - 1e-12)) == 10
    for got, want in ((res.terminal_fast, X), (res.terminal_slow, Y),
                      (res.max_abs_fast, mx), (res.integrals, acc),
                      (res.macro_integrals, macc)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, per_step, n_paths, chunk, blocks", [
    pytest.param(name, per_step, n_paths, chunk, blocks,
                 id=f"{name}-{per_step}" + ("-two blocks" if blocks > 1 else ""))
    for n_paths, chunk, blocks in [(300, 200, 1), (2000, 1000, 2)]
    for name, per_step in [("constant 1x1", False), ("x-noise", True),
                           ("d1=2 non-diagonal", False)]])
def test_coupled_sigma_calls(name, per_step, n_paths, chunk, blocks):
    # a (d1, d1) sigma is state-independent at the macro step's slow
    # state, so it is called once per block of draws: once per macro step
    # when the 10 micro steps fit in one block (chunks of 200 and 100
    # paths draw blocks of 40 and 81 steps), twice when they do not (1000
    # paths draw blocks of 8); a batched one is called once per micro step
    system = SIGMA_KINDS[name]()
    calls = []

    def sigma(x, y):
        calls.append(np.shape(x))
        return system.sigma(x, y)

    cfg = PathConfig(T=0.05, dt_slow=0.01, micro_substeps_per_alpha2=10,
                     seed=17, n_paths=n_paths, chunk_size=chunk)
    integrate_coupled(replace(system, sigma=sigma), S111, 0.1,
                      [0.3] * system.d1, [-0.2], cfg)
    sizes = [min(chunk, n_paths - lo) for lo in range(0, n_paths, chunk)]
    assert blocks == max(math.ceil(10 / rng.block_steps(m)) for m in sizes)
    n_macro, n_micro = 5, 10
    assert len(calls) == len(sizes) * n_macro * (n_micro if per_step else blocks)
    assert set(calls) == {(m, system.d1) for m in sizes}


def per_step_euler(coefficients, x0, T, dt, seed, lane, n_paths,
                   snapshot_times=()):
    """Euler-Maruyama on all paths at once, written step by step: one draw
    call per step, the stacked noise product and every node kept."""
    n = max(1, int(round(T / dt))) if T > 0 else 0
    h = T / n if n else 0.0
    ids = np.arange(n_paths)
    X = np.tile(np.asarray(x0, dtype=np.float64), (n_paths, 1))
    nodes = [X]
    for k in range(n):
        drift, diff = coefficients(k * h, X)
        z = rng.normals(seed, lane, ids, np.uint64(k), X.shape[1])
        X = X + drift * h + (diff @ z[..., None])[..., 0] * math.sqrt(h)
        nodes.append(X)
    snaps = [nodes[int(round(t / h)) if n else 0] for t in snapshot_times]
    return X, snaps


def memoized_limit():
    budgets = Budgets(invariant_samples=500, invariant_burn_in=2.0,
                      invariant_thinning=2, invariant_dt=0.01)
    return build_limit_sde(Regime.R1, ou_averaging(), budgets,
                           CachePolicy(quantum=0.1), seed=5)


def callables_limit():
    return AveragedSDE.from_callables(
        Regime.R1, 1, lambda t, y: -np.asarray(y),
        lambda t, y: (1.0 + 0.1 * np.tanh(y))[..., None])


@pytest.mark.parametrize("make_avg, n_paths, chunk, T", [
    (callables_limit, 250, 64, 0.2), (memoized_limit, 250, 64, 0.2),
    (callables_limit, 1100, 1000, 0.2), (callables_limit, 250, 64, 0.0),
], ids=["callables", "memoized", "short-block", "zero-horizon"])
def test_limit_equals_per_step_loop(make_avg, n_paths, chunk, T):
    # 0.1 is recorded twice.  A chunk of 1000 rows draws blocks of 8 steps,
    # so the 10 steps end in a short block; the last chunk, of 100 rows,
    # draws all 10 in one block.  With T = 0 no step is taken and every
    # path stays at y0
    avg = make_avg()
    times = tuple(t for t in (0.0, 0.1, 0.1, 0.2) if t <= T)
    res = integrate_limit(avg, [0.3], T=T, dt=0.02, seed=8, n_paths=n_paths,
                          snapshot_times=times, chunk_size=chunk)
    Y, snaps = per_step_euler(avg.coefficients_batch, [0.3], T, 0.02, 8,
                              rng.LANE_SLOW, n_paths, times)
    assert res.terminal_slow.tobytes() == Y.tobytes()
    assert res.snapshots_slow.tobytes() == np.stack(snaps).tobytes()
    assert res.snapshot_times.tolist() == list(times)
    assert res.terminal_fast is None and res.max_abs_fast is None


@pytest.mark.parametrize("T, times", [(0.1, (0.015,)), (0.1, (0.0349,)),
                                      (0.0, (0.4,))])
def test_snapshot_times_off_the_grid_are_refused(T, times):
    # a time off the nodes would be reported beside the state of the
    # nearest node
    with pytest.raises(ValueError, match="macro grid"):
        integrate_limit(callables_limit(), [0.3], T=T, dt=0.01, seed=8, n_paths=3,
                        snapshot_times=times)
    cfg = PathConfig(T=T, dt_slow=0.01, n_paths=3, snapshot_times=times)
    with pytest.raises(ValueError, match="macro grid"):
        integrate_coupled(make_system(lambda x, y: -x, lambda x, y: np.array([[RT2]])),
                          S111, 0.3, [0.0], [0.0], cfg)


def test_limit_increments_pair_with_the_coupled_slow_ones():
    # with F = H = 0 and G = 1 the coupled slow state is the limit's
    # Brownian motion: the same seed and step give the same increments
    sys1 = make_system(b=lambda x, y: -x, sigma=lambda x, y: np.array([[RT2]]),
                       G=lambda t, x, y: np.array([[1.0]]))
    times = (0.0, 0.1, 0.2)
    cfg = PathConfig(T=0.2, dt_slow=0.02, seed=9, n_paths=300,
                     snapshot_times=times, chunk_size=128)
    coupled = integrate_coupled(sys1, S111, 0.3, [0.5], [0.2], cfg)
    avg = AveragedSDE.from_callables(Regime.R1, 1, lambda t, y: [0.0],
                                     lambda t, y: [[1.0]])
    limit = integrate_limit(avg, [0.2], T=0.2, dt=0.02, seed=9, n_paths=300,
                            snapshot_times=times, chunk_size=128)
    assert coupled.terminal_slow.tobytes() == limit.terminal_slow.tobytes()
    assert coupled.snapshots_slow.tobytes() == limit.snapshots_slow.tobytes()


def test_limit_determinism_across_chunks_and_workers():
    # a memoized limit field computes its cells in whatever order the chunks
    # visit them; values and the set of cells must not depend on that
    runs = []
    for chunk in (64, 999):
        avg = memoized_limit()
        res = integrate_limit(avg, [0.2], T=0.2, dt=0.02, seed=8, n_paths=600,
                              snapshot_times=(0.0, 0.1, 0.2), chunk_size=chunk)
        runs.append((avg.provenance()["n_cells"], res.snapshots_slow.tobytes()))
    assert runs[0][0] > 1
    assert runs[0] == runs[1]


@pytest.mark.parametrize("chunk", [0, -1])
def test_chunk_below_one_is_refused(chunk):
    # a negative chunk ran no chunk and returned the unwritten buffers
    sys1 = make_system(lambda x, y: y - x, lambda x, y: np.array([[RT2]]))
    avg = AveragedSDE.from_callables(
        Regime.R1, 1, lambda t, y: -np.asarray(y), lambda t, y: [[1.0]])
    cfg = PathConfig(T=0.1, dt_slow=0.05, seed=0, n_paths=4, chunk_size=chunk)
    with pytest.raises(ValueError, match="chunk_size"):
        integrate_coupled(sys1, S111, 0.3, [0.0], [0.0], cfg)
    with pytest.raises(ValueError, match="chunk_size"):
        integrate_limit(avg, [0.0], T=0.1, dt=0.05, seed=0, n_paths=4,
                        chunk_size=chunk)


def test_n_workers_accepts_only_one():
    # paths run in one loop; the argument stays for existing callers
    assert PathConfig(T=0.1, dt_slow=0.05, n_workers=1).n_workers == 1
    with pytest.raises(ValueError, match="n_workers"):
        PathConfig(T=0.1, dt_slow=0.05, n_workers=2)
    avg = AveragedSDE.from_callables(
        Regime.R1, 1, lambda t, y: [0.0], lambda t, y: [[0.0]])
    res = integrate_limit(avg, [0.7], T=0.1, dt=0.05, seed=0, n_paths=3,
                          n_workers=1)
    assert np.all(res.terminal_slow == 0.7)
    with pytest.raises(ValueError, match="n_workers"):
        integrate_limit(avg, [0.7], T=0.1, dt=0.05, seed=0, n_paths=3,
                        n_workers=2)


def test_integrand_accumulation_zero_is_exact():
    sys1 = ou_full()
    cfg = PathConfig(T=0.2, dt_slow=0.02, seed=1, n_paths=16)
    res = integrate_coupled(sys1, S111, 0.3, [0.0], [0.0], cfg,
                            integrand=lambda t, x, y: np.zeros_like(x))
    assert np.all(res.integrals == 0.0)


def test_blowup_raises():
    sys1 = make_system(b=lambda x, y: x ** 3,
                       sigma=lambda x, y: np.array([[RT2]]))
    cfg = PathConfig(T=0.5, dt_slow=0.05, micro_substeps_per_alpha2=4,
                     seed=0, n_paths=4)
    with pytest.raises(BlowUp):
        integrate_coupled(sys1, S111, 0.3, [5.0], [0.0], cfg)


def test_moment_bound_uniform_in_eps():
    sys1 = ou_full()
    means = []
    for eps in (0.4, 0.2, 0.1):
        cfg = PathConfig(T=0.5, dt_slow=0.01, micro_substeps_per_alpha2=10,
                         seed=7, n_paths=4000)
        res = integrate_coupled(sys1, S111, eps, [0.0], [0.5], cfg)
        means.append((res.terminal_fast[:, 0] ** 4).mean())
    assert max(means) / min(means) < 2.0


def test_snapshot_csv():
    sys1 = ou_full()
    cfg = PathConfig(T=0.1, dt_slow=0.05, seed=0, n_paths=3,
                     snapshot_times=(0.0, 0.05, 0.1), record_fast=True)
    res = integrate_coupled(sys1, S111, 0.3, [0.2], [0.4], cfg)
    assert res.snapshot_times.tolist() == [0.0, 0.05, 0.1]
    assert res.snapshots_slow.shape == (3, 3, 1)
    assert res.snapshots_fast.shape == (3, 3, 1)
    # node 0 holds the initial states, the last node the terminal ones
    assert np.all(res.snapshots_slow[0] == 0.4) and np.all(res.snapshots_fast[0] == 0.2)
    assert np.array_equal(res.snapshots_slow[-1], res.terminal_slow)
    assert np.array_equal(res.snapshots_fast[-1], res.terminal_fast)
    # the middle node holds the terminal states of a run that stops there
    half = integrate_coupled(sys1, S111, 0.3, [0.2], [0.4],
                             replace(cfg, T=0.05, snapshot_times=None))
    assert np.array_equal(res.snapshots_slow[1], half.terminal_slow)
    assert np.array_equal(res.snapshots_fast[1], half.terminal_fast)
