import numpy as np
import pytest

from fastslow import rng


def test_normals_shape_and_dtype():
    z = rng.normals(0, rng.LANE_FAST, np.arange(10), 3, 2)
    assert z.shape == (10, 2)
    assert z.dtype == np.float64
    assert np.all(np.isfinite(z))


def test_determinism():
    a = rng.normals(123, rng.LANE_SLOW, np.arange(64), 5, 3)
    b = rng.normals(123, rng.LANE_SLOW, np.arange(64), 5, 3)
    assert np.array_equal(a, b)


def test_path_slices_are_consistent():
    full = rng.normals(9, rng.LANE_FAST, np.arange(1000), 17, 1)
    part = rng.normals(9, rng.LANE_FAST, np.arange(200, 450), 17, 1)
    assert np.array_equal(full[200:450], part)


def test_step_slices_are_consistent():
    full = rng.normals(9, rng.LANE_FAST, 4, np.arange(500), 2)
    part = rng.normals(9, rng.LANE_FAST, 4, np.arange(100, 200), 2)
    assert np.array_equal(full[100:200], part)


def test_lanes_and_seeds_decorrelate():
    z1 = rng.normals(0, rng.LANE_FAST, np.arange(50000), 0, 1).ravel()
    z2 = rng.normals(0, rng.LANE_SLOW, np.arange(50000), 0, 1).ravel()
    z3 = rng.normals(1, rng.LANE_FAST, np.arange(50000), 0, 1).ravel()
    assert abs(np.corrcoef(z1, z2)[0, 1]) < 0.02
    assert abs(np.corrcoef(z1, z3)[0, 1]) < 0.02


def test_moments():
    z = rng.normals(7, rng.LANE_FAST, np.arange(400000), 2, 1).ravel()
    n = z.size
    assert abs(z.mean()) < 4 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4 * np.sqrt(2.0 / n)
    assert abs((z ** 3).mean()) < 4 * np.sqrt(15.0 / n)
    assert abs((z ** 4).mean() - 3.0) < 4 * np.sqrt(96.0 / n)


def test_uniforms_range_and_mean():
    u = rng.uniforms(3, rng.LANE_VALIDATE, 0, np.arange(100000), 2)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_derive_key_is_order_sensitive():
    assert rng.derive_key(1, 2) != rng.derive_key(2, 1)
    assert rng.derive_key(1, 2) == rng.derive_key(1, 2)
    assert 0 <= rng.derive_key(0) < 2 ** 64


# Stream values recorded from the hash kernel; any change to the stream
# fails here.  Uniforms are multiples of 2**-53, pinned exactly as 53-bit
# integers; normals go through numpy's log and tan, whose last bits depend
# on the loops numpy dispatches to, so they get 1e-15.
PIN_PATHS = np.array([0, 1, 7, 4095, 2 ** 40 + 3], dtype=np.uint64)
PIN_STEPS = np.array([0, 3, 11, 999, 2 ** 33], dtype=np.uint64)


def test_uniform_stream_pinned():
    expected = {
        (0, rng.LANE_FAST): [
            [5249126314907834, 1569927513463316],
            [3377973951601621, 6179810335456418],
            [4330071734399998, 2241105046449116],
            [1849161315622031, 8784819607622124],
            [5516551297783571, 7208614234095930]],
        (2 ** 63 + 5, rng.LANE_CELL): [
            [8358732677117428, 7082374479503145],
            [7713397401811055, 8546910852861238],
            [5873905975234371, 6493650355630089],
            [1619353112728134, 7099427619709836],
            [4618632690905267, 6887942087554058]],
    }
    for (seed, lane), words in expected.items():
        u = rng.uniforms(seed, lane, PIN_PATHS, PIN_STEPS, 2)
        assert np.array_equal(u, np.array(words, dtype=np.float64) * 2.0 ** -53)


def test_derive_key_pinned():
    assert [rng.derive_key(*w) for w in [(0,), (1, 2), (2, 1), (2 ** 64 - 1, 5, 7)]] == [
        10597403551382543892, 3997092458711793351, 14489499164576001375,
        3588504024266370431]


def test_normal_stream_pinned():
    z = rng.normals(0, rng.LANE_FAST, PIN_PATHS, PIN_STEPS, 2)
    np.testing.assert_allclose(z, [
        [0.4758698733978032, 2.4331946936192574],
        [-0.5473484676697515, 0.5631846861462957],
        [0.00902939081590039, -1.0824828541915354],
        [1.7581217637980413, 0.5260862530729272],
        [0.3078707461561787, -0.42612541789615194]], rtol=1e-15, atol=0)
    z = rng.normals(2 ** 63 + 5, rng.LANE_CELL, PIN_PATHS, PIN_STEPS, 1)
    np.testing.assert_allclose(z[:, 0], [
        0.08740941430787434, 0.5284330646940284, -0.16789768345710246,
        0.4403324470492089, 0.1067101661045988], rtol=1e-15, atol=0)


# The keying contract, rebuilt one element at a time from the python-int
# splitmix chain: word j of (seed, lane, path, step) absorbs seed, lane,
# path, step and j in that order.  Inputs of every broadcasting layout,
# 0-d ones included, must give the words of their broadcast elements.
KEY_SHAPES = {
    "int x array": (5, np.arange(9)),
    "array x int": (np.arange(9), 5),
    "int x int": (3, 12),
    "(1, K) x (n, 1)": (np.arange(4)[None, :], np.arange(6)[:, None]),
    "(n, 1) x (1, K)": (np.arange(6)[:, None], np.arange(4)[None, :]),
    "2-d x scalar": (np.arange(12).reshape(3, 4), 7),
    "(1,) x int": (np.arange(1), 7),
    "int x (n, 1)": (5, np.arange(6)[:, None]),
}


def _reference_words(seed, lane, path, step, nwords):
    shape = np.broadcast_shapes(np.shape(path), np.shape(step))
    paths = np.broadcast_to(path, shape).ravel().tolist()
    steps = np.broadcast_to(step, shape).ravel().tolist()
    base = rng._absorb_int(rng._absorb_int(rng._mix_int(rng._SEED0), seed), lane)
    rows = []
    for p, s in zip(paths, steps):
        h = rng._absorb_int(rng._absorb_int(base, p), s)
        rows.append([rng._absorb_int(h, j) for j in range(nwords)])
    return rows, shape


@pytest.mark.parametrize("seed, lane", [(0, rng.LANE_FAST), (2 ** 63 + 5, rng.LANE_CELL)],
                         ids=["seed 0 fast", "seed 2^63+5 cell"])
@pytest.mark.parametrize("ncomp", [1, 2, 3])
@pytest.mark.parametrize("layout", list(KEY_SHAPES))
def test_keying_contract_bit_for_bit(layout, ncomp, seed, lane):
    path, step = KEY_SHAPES[layout]
    rows, shape = _reference_words(seed, lane, path, step, 2 * ncomp)
    top = np.array([[w >> 11 for w in r] for r in rows], dtype=np.float64)

    u = rng.uniforms(seed, lane, path, step, ncomp)
    assert u.shape == shape + (ncomp,)
    assert np.array_equal(u, (top[:, :ncomp] * 2.0 ** -53).reshape(u.shape))

    # the reference's Box-Muller runs through the same numpy log and tan:
    # cos(2 pi k 2**-53) from t = tan(v pi 2**-53), v = k - 2**52 exactly
    u1 = (top[:, 0::2] + 1.0) * 2.0 ** -53
    v = np.array([[(w >> 11) - 2 ** 52 for w in r[1::2]] for r in rows],
                 dtype=np.float64)
    t = np.tan(v * (np.pi * 2.0 ** -53))
    expect = np.sqrt(-2.0 * np.log(u1)) * ((t - 1.0) * (t + 1.0) / (t * t + 1.0))
    z = rng.normals(seed, lane, path, step, ncomp)
    assert z.shape == shape + (ncomp,)
    assert np.array_equal(z, expect.reshape(z.shape))


@pytest.mark.parametrize("ncomp", [1, 2, 3])
@pytest.mark.parametrize("layout", list(KEY_SHAPES))
def test_path_index_bit_for_bit(layout, ncomp):
    # the same object serves repeated draws and (seed, lane) keys that
    # share a seed or a lane
    path, step = KEY_SHAPES[layout]
    paths = rng.PathIndex(path)
    for _ in range(2):
        for seed, lane in [(0, rng.LANE_FAST), (0, rng.LANE_CELL),
                           (2 ** 63 + 5, rng.LANE_CELL)]:
            for draw in (rng.normals, rng.uniforms):
                got = draw(seed, lane, paths, step, ncomp)
                assert np.array_equal(got, draw(seed, lane, path, step, ncomp))
                assert got.shape == np.broadcast_shapes(np.shape(path),
                                                        np.shape(step)) + (ncomp,)


def test_path_index_keeps_its_own_ids():
    ids = np.arange(8, dtype=np.uint64)
    paths = rng.PathIndex(ids)
    before = rng.normals(3, rng.LANE_SLOW, paths, 5, 2)
    ids[:] = 100
    fresh = rng.PathIndex(np.arange(8))
    # (4, LANE_FAST) is first hashed after the caller's ids changed
    for p in (paths, fresh):
        assert np.array_equal(rng.normals(3, rng.LANE_SLOW, p, 5, 2), before)
        assert np.array_equal(rng.normals(4, rng.LANE_FAST, p, 6, 1),
                              rng.normals(4, rng.LANE_FAST, np.arange(8), 6, 1))


@pytest.mark.parametrize("seed, lane", [(0, rng.LANE_FAST), (2 ** 63 + 5, rng.LANE_CELL)],
                         ids=["seed 0 fast", "seed 2^63+5 cell"])
@pytest.mark.parametrize("ncomp", [1, 3])
def test_normals_match_the_cosine_branch(seed, lane, ncomp):
    # the direct Box-Muller cosine branch on the same words, which uniforms
    # give exactly as k 2**-53, stays the reference of the tangent form
    rows = 2 ** 18
    worst = 0.0
    for step in range(-(-10 ** 6 // (rows * ncomp))):
        u = rng.uniforms(seed, lane, np.arange(rows), step, 2 * ncomp)
        old = (np.sqrt(-2.0 * np.log(u[:, 0::2] + 2.0 ** -53))
               * np.cos((2.0 * np.pi) * u[:, 1::2]))
        new = rng.normals(seed, lane, np.arange(rows), step, ncomp)
        worst = max(worst, np.abs(new - old).max())
    assert worst <= 1e-14


@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_layout_and_length_keep_the_bits(ncomp):
    # every row count and block layout must reach the same log and tan
    # arithmetic as a one-row draw, tails and strided outputs included
    for n in (1, 7, 8191, 8193):
        ids = np.arange(n) * 3 + 11
        z = rng.normals(5, rng.LANE_SLOW, ids, 2, ncomp)
        rows = [rng.normals(5, rng.LANE_SLOW, i, 2, ncomp) for i in ids]
        assert np.array_equal(z, np.array(rows))
    paths = rng.PathIndex(np.arange(4097)[None, :])
    steps = np.arange(3, dtype=np.uint64)[:, None]
    block = rng.normals(5, rng.LANE_FAST, paths, steps, ncomp)
    assert block.shape == (3, 4097, ncomp)
    for s in range(3):
        assert np.array_equal(block[s], rng.normals(5, rng.LANE_FAST,
                                                    np.arange(4097), s, ncomp))


def test_backend_name_names_the_transform_loops():
    name = rng.backend_name()
    try:
        from numpy.lib.introspect import opt_func_info  # noqa: F401
    except ImportError:
        assert name == f"numpy-{np.__version__}"
    else:
        assert name.startswith(f"numpy-{np.__version__} log:")
        assert " tan:" in name


def test_block_steps():
    # about BLOCK_ROWS rows per draw call, and never less than one step
    assert rng.block_steps(4096) == 2
    assert rng.block_steps(999) == 8
    assert rng.block_steps(1) == rng.BLOCK_ROWS
    assert rng.block_steps(rng.BLOCK_ROWS + 1) == 1
