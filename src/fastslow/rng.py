"""Deterministic counter-based Gaussian and uniform streams.

Every random number in this package is a pure function of
(seed, lane, path index, step index, component), so ensembles can be
chunked or reordered without changing a single bit of output.
Lanes keep independent noise sources (the two driving Brownian motions,
assumption sampling, per-cell sub-seeds) on disjoint streams.

The hash stage maps (seed, lane, path, step, word) to a 64-bit word through
a splitmix-style avalanche chain in wrapping uint64 numpy arithmetic, in the
counter-based design of Salmon et al. (2011), "Parallel random numbers: as
easy as 1, 2, 3".  The (seed, lane, path) part of the chain is computed
once per path and then broadcast against the steps, and all the words of a
call are mixed in one pass over one contiguous buffer.  A
:class:`PathIndex` keeps that part for its paths, so a step loop that
draws for the same paths at every step hashes each path once per run, not
once per call.  Uniforms keep the top 53 bits of one word; normals take
the Box-Muller cosine branch (Box & Muller 1958) of two words.  The
cosine comes from the tangent of the half angle, since numpy's float64
``tan`` costs several times less than its ``cos`` (about 2.5 against 13 ns
an element on an AVX-512 x86-64 machine).  The normals agree with the
direct cosine branch to 1e-14 absolute; their last bits depend on the
loops the numpy build dispatches to, which :func:`backend_name` records.

Since every draw is a pure function of its key, a step loop may draw the
increments of several steps in one call, with every bit unchanged.  The
loops of this package size such blocks by one rule, :func:`block_steps`:
about ``BLOCK_ROWS`` rows per call, which keeps the hash buffers of a call
in cache and the per-call overhead small.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LANE_FAST", "LANE_SLOW", "LANE_VALIDATE", "LANE_CELL", "LANE_AUX",
    "PathIndex", "normals", "uniforms", "derive_key", "check_seed",
    "backend_name", "BLOCK_ROWS", "block_steps",
]

LANE_FAST = 0x01      # increments of the first driving Brownian motion
LANE_SLOW = 0x02      # increments of the second driving Brownian motion
LANE_VALIDATE = 0x03  # assumption-checking sample draws
LANE_CELL = 0x04      # per-cell sub-seed derivation
LANE_AUX = 0x05

# rows (path-steps) per draw call that block_steps aims at; with 4096 paths
# per chunk, blocks of 8192 rows gave the fastest coupled ensembles, against
# 4096 and 16384 rows (4% and 18% slower rounds, BENCH_10.json)
BLOCK_ROWS = 8192

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_SEED0 = 0x6A09E667F3BCC909

_GOLD_U = np.uint64(_GOLD)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)


def backend_name() -> str:
    """The numpy version and the dispatch targets of its float64 ``log`` and
    ``tan`` loops, on which the last bits of a normal depend, e.g.
    ``numpy-2.4.6 log:X86_V4 tan:X86_V4``; recorded in run provenance.
    Without ``numpy.lib.introspect.opt_func_info`` it is the version alone."""
    name = f"numpy-{np.__version__}"
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return name
    info = opt_func_info(func_name="^(log|tan)$", signature="float64")
    # a loop that is not dispatched runs the build's baseline code
    targets = [f"{f}:{info.get(f, {}).get('dd', {}).get('current', 'baseline')}"
               for f in ("log", "tan")]
    return " ".join([name, *targets])


def _mix_int(z: int) -> int:
    """Splitmix64 finalizer on python ints (exact mod 2**64)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _absorb_int(h: int, w: int) -> int:
    return _mix_int(((h + _GOLD) & _MASK) ^ (w & _MASK))


def check_seed(seed) -> int:
    """``seed`` as an int; one outside [0, 2**64) raises ValueError.  The
    hash keeps every word mod 2**64, so such a seed would alias one inside."""
    seed = int(seed)
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def derive_key(*words: int) -> int:
    """Collapse integer words into a 64-bit sub-seed (order sensitive).  The
    first word is a seed (:func:`check_seed`); the others may be any ints."""
    h = _mix_int(_SEED0)
    for i, w in enumerate(words):
        h = _absorb_int(h, check_seed(w) if i == 0 else int(w))
    return h


def block_steps(rows_per_step: int) -> int:
    """Steps whose increments one draw call takes when each step draws
    ``rows_per_step`` rows: ``BLOCK_ROWS // rows_per_step``, at least 1."""
    return max(1, BLOCK_ROWS // rows_per_step)


def _mix(h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # h is a private uint64 array of at least one dimension, mutated in
    # place; tmp is scratch of its shape
    np.right_shift(h, _S30, out=tmp)
    h ^= tmp
    h *= _M1
    np.right_shift(h, _S27, out=tmp)
    h ^= tmp
    h *= _M2
    np.right_shift(h, _S31, out=tmp)
    h ^= tmp
    return h


class PathIndex:
    """Path indices whose (seed, lane, path) hash is computed once.

    Pass it to :func:`normals` or :func:`uniforms` wherever a ``path``
    array goes; the draws are bit-identical to passing the ids themselves.
    The ids are copied when the object is built, and the path part of the
    hash is kept per (seed, lane), so a step loop that draws for the same
    paths at every step hashes each path once per run.
    """

    __slots__ = ("shape", "_ids", "_hashed")

    def __init__(self, ids):
        ids = np.array(ids, dtype=np.uint64)
        self.shape = ids.shape
        # at least 1-d: numpy ufuncs return scalars for 0-d inputs, and the
        # in-place mixing would then act on a copy
        self._ids = np.atleast_1d(ids)
        self._hashed: dict[tuple[int, int], np.ndarray] = {}

    def hashes(self, seed, lane) -> np.ndarray:
        """Hash of (seed, lane, path) plus the golden-ratio increment, for
        every id on the ids' own shape; computed on first use."""
        key = (int(seed), int(lane))
        hp = self._hashed.get(key)
        if hp is None:
            check_seed(seed)
            base = _absorb_int(_absorb_int(_mix_int(_SEED0), key[0]), key[1])
            hp = np.bitwise_xor(np.uint64((base + _GOLD) & _MASK), self._ids)
            hp = _mix(hp, np.empty_like(hp))
            hp += _GOLD_U
            self._hashed[key] = hp
        return hp


def _row_hashes(seed, lane, path, step):
    """Hash of (seed, lane, path, step), plus the golden-ratio increment,
    for ``path`` and ``step`` broadcast together and flattened to n rows;
    also returns the broadcast shape.

    (seed, lane, path) is hashed on the path's own shape, through a
    :class:`PathIndex`, and only then broadcast against ``step``, which is
    made at least 1-d for the same reason as the ids.
    """
    if not isinstance(path, PathIndex):
        path = PathIndex(path)
    step_a = np.asarray(step, dtype=np.uint64)
    h = np.bitwise_xor(path.hashes(seed, lane), np.atleast_1d(step_a))
    # the at-least-1-d operands broadcast to the shape of path and step,
    # except that two 0-d operands give (1,) instead of ()
    shape = h.shape if path.shape or step_a.ndim else ()
    h = h.reshape(-1)
    h = _mix(h, np.empty_like(h))
    h += _GOLD_U
    return h, shape


def _words(h: np.ndarray, js) -> np.ndarray:
    """Top 53 bits of words ``js`` of every row of ``h``, as a contiguous
    ``(len(js), n)`` uint64 buffer: all the words are mixed in one pass."""
    w = np.bitwise_xor(h, np.asarray(js, dtype=np.uint64)[:, None])
    _mix(w, np.empty_like(w))
    w >>= _S11
    return w


def normals(seed: int, lane: int, path, step, ncomp: int) -> np.ndarray:
    """Standard normal block keyed by (seed, lane, path, step, component).

    ``path`` (ids or a :class:`PathIndex`) and ``step`` broadcast against
    each other; the result has their broadcast shape plus a trailing
    ``(ncomp,)`` axis.  Component c is the Box-Muller cosine branch of hash
    words 2c and 2c + 1, with the top 53 bits k0 and k1 of those words:
    the radius is ``sqrt(-2 log((k0 + 1) 2**-53))`` and the cosine
    ``cos(2 pi k1 2**-53)`` is taken from ``t = tan(v pi 2**-53)``, with
    ``v = k1 - 2**52``, as ``(t - 1)(t + 1) / (t**2 + 1)``.  The result
    is within 1e-14 of the direct cosine branch; its last bits depend on
    numpy's float64 ``log`` and ``tan`` loops, which :func:`backend_name`
    names.
    """
    h, shape = _row_hashes(seed, lane, path, step)
    # radius words first, then angle words: each half is one contiguous block
    w = _words(h, [*range(0, 2 * ncomp, 2), *range(1, 2 * ncomp, 2)])
    r = w[:ncomp].astype(np.float64)
    r += 1.0
    r *= 2.0 ** -53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    # v = k1 - 2**52 is exact in int64, so the angle v pi 2**-53 lies in
    # [-pi/2, pi/2) and 2 pi k1 2**-53 is twice it plus pi; at k1 = 0 the
    # tangent is about -1.6e16 and the cosine comes out as exactly 1;
    # scaling by 2**-53 is exact, so it may be folded into pi
    v = w[ncomp:].view(np.int64)
    v -= 1 << 52
    t = v.astype(np.float64)
    t *= np.pi * 2.0 ** -53
    np.tan(t, out=t)
    # (t - 1)(t + 1) rather than t**2 - 1 keeps the relative accuracy near
    # the cosine's zeros
    d = np.multiply(t, t)
    d += 1.0
    s = t + 1.0
    t -= 1.0
    t *= s
    t /= d
    z = np.empty((h.shape[0], ncomp))
    np.multiply(r, t, out=z.T)
    return z.reshape(shape + (ncomp,))


def uniforms(seed: int, lane: int, path, step, ncomp: int) -> np.ndarray:
    """Uniform [0, 1) block with the same keying contract as ``normals``."""
    h, shape = _row_hashes(seed, lane, path, step)
    u = np.empty((h.shape[0], ncomp))
    np.multiply(_words(h, range(ncomp)), 2.0 ** -53, out=u.T)
    return u.reshape(shape + (ncomp,))
