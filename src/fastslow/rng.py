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
once per path and then broadcast against the steps, and each word is mixed
in its own contiguous buffer.  A :class:`PathIndex` keeps that part for
its paths, so a step loop that draws for the same paths at every step
hashes each path once per run, not once per call.  Uniforms keep the top
53 bits of one word; normals take the Box-Muller cosine branch of two
words.

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
    "PathIndex", "normals", "uniforms", "derive_key", "backend_name",
    "BLOCK_ROWS", "block_steps",
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
    """Name of the hash kernel, recorded in run provenance."""
    return "python"


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


def derive_key(*words: int) -> int:
    """Collapse integer words into a 64-bit sub-seed (order sensitive)."""
    h = _mix_int(_SEED0)
    for w in words:
        h = _absorb_int(h, int(w))
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


def _top53(h: np.ndarray, j: int, w: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Top 53 bits, as float64, of word j of every row of ``h``; the word is
    mixed in the contiguous buffer ``w``, with ``tmp`` as scratch."""
    np.bitwise_xor(h, np.uint64(j), out=w)
    _mix(w, tmp)
    w >>= _S11
    return w.astype(np.float64)


def normals(seed: int, lane: int, path, step, ncomp: int) -> np.ndarray:
    """Standard normal block keyed by (seed, lane, path, step, component).

    ``path`` (ids or a :class:`PathIndex`) and ``step`` broadcast against
    each other; the result has their broadcast shape plus a trailing
    ``(ncomp,)`` axis.  Uses the Box-Muller cosine branch on two hash words
    per normal.
    """
    h, shape = _row_hashes(seed, lane, path, step)
    w, tmp = np.empty_like(h), np.empty_like(h)
    z = np.empty((h.shape[0], ncomp))
    for c in range(ncomp):
        # scaling by 2**-53 is exact, so it may be folded into 2 pi
        r = _top53(h, 2 * c, w, tmp)
        r += 1.0
        r *= 2.0 ** -53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        a = _top53(h, 2 * c + 1, w, tmp)
        a *= (2.0 * np.pi) * 2.0 ** -53
        np.cos(a, out=a)
        np.multiply(r, a, out=z[:, c])
    return z.reshape(shape + (ncomp,))


def uniforms(seed: int, lane: int, path, step, ncomp: int) -> np.ndarray:
    """Uniform [0, 1) block with the same keying contract as ``normals``."""
    h, shape = _row_hashes(seed, lane, path, step)
    w, tmp = np.empty_like(h), np.empty_like(h)
    u = np.empty((h.shape[0], ncomp))
    for c in range(ncomp):
        np.multiply(_top53(h, c, w, tmp), 2.0 ** -53, out=u[:, c])
    return u.reshape(shape + (ncomp,))
