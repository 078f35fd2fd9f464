"""Deterministic counter-based Gaussian and uniform streams.

Every random number in this package is a pure function of
(seed, lane, path index, step index, component), so ensembles can be
chunked, threaded or reordered without changing a single bit of output.
Lanes keep independent noise sources (the two driving Brownian motions,
assumption sampling, per-cell sub-seeds) on disjoint streams.

The hash stage maps (seed, lane, path, step, word) to a 64-bit word through
a splitmix-style avalanche chain in wrapping uint64 numpy arithmetic, in the
counter-based design of Salmon et al. (2011), "Parallel random numbers: as
easy as 1, 2, 3".  Uniforms keep the top 53 bits of one word; normals take
the Box-Muller cosine branch of two words.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LANE_FAST", "LANE_SLOW", "LANE_VALIDATE", "LANE_CELL", "LANE_AUX",
    "normals", "uniforms", "derive_key", "backend_name",
]

LANE_FAST = 0x01      # increments of the first driving Brownian motion
LANE_SLOW = 0x02      # increments of the second driving Brownian motion
LANE_VALIDATE = 0x03  # assumption-checking sample draws
LANE_CELL = 0x04      # per-cell sub-seed derivation
LANE_AUX = 0x05

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_SEED0 = 0x6A09E667F3BCC909

_GOLD_U = np.uint64(_GOLD)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


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


def _mix(h: np.ndarray) -> np.ndarray:
    # h is a private uint64 array; mutated in place.
    h ^= h >> _S30
    h *= _M1
    h ^= h >> _S27
    h *= _M2
    h ^= h >> _S31
    return h


def _lattice(seed, lane, path, step, nwords):
    """Hash words, (n, nwords) uint64, for ``path`` and ``step`` broadcast
    together and flattened to n rows; word j of a row is a pure function of
    (seed, lane, path, step, j).  Also returns the broadcast shape."""
    path_a, step_a = np.broadcast_arrays(
        np.asarray(path, dtype=np.uint64), np.asarray(step, dtype=np.uint64))
    shape = path_a.shape
    p = np.ascontiguousarray(path_a).ravel()
    s = np.ascontiguousarray(step_a).ravel()
    base = _absorb_int(_absorb_int(_mix_int(_SEED0), int(seed)), int(lane))
    c0 = np.uint64((base + _GOLD) & _MASK)
    h = _mix(np.bitwise_xor(c0, p))
    h += _GOLD_U
    h = _mix(np.bitwise_xor(h, s))
    words = np.empty((h.shape[0], int(nwords)), dtype=np.uint64)
    hg = h + _GOLD_U
    for j in range(int(nwords)):
        words[:, j] = _mix(np.bitwise_xor(hg, np.uint64(j)))
    return words, shape


def normals(seed: int, lane: int, path, step, ncomp: int) -> np.ndarray:
    """Standard normal block keyed by (seed, lane, path, step, component).

    ``path`` and ``step`` broadcast against each other; the result has their
    broadcast shape plus a trailing ``(ncomp,)`` axis.  Uses the Box-Muller
    cosine branch on two hash words per normal.
    """
    words, shape = _lattice(seed, lane, path, step, 2 * ncomp)
    u1 = ((words[:, 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (words[:, 1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * np.pi) * u2)
    return z.reshape(shape + (ncomp,))


def uniforms(seed: int, lane: int, path, step, ncomp: int) -> np.ndarray:
    """Uniform [0, 1) block with the same keying contract as ``normals``."""
    words, shape = _lattice(seed, lane, path, step, ncomp)
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return u.reshape(shape + (ncomp,))
