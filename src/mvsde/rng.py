"""Deterministic random substreams for Monte Carlo runs.

All randomness in the package flows through counter-based Philox
generators addressed by a key: a root seed plus a tuple of integer
stream ids.  Two consumers with different stream tuples never share
state, so results do not depend on evaluation order, chunking, or
thread scheduling.  The reserved top-level stream ids are the
``*_STREAM`` constants below; per-path substreams append the path index.

A substream's Philox key is numpy's ``SeedSequence(entropy=seed,
spawn_key=stream).generate_state(2, np.uint64)``.  :func:`philox_keys`
derives the keys of many sibling substreams at once: it takes the
parent's mixed pool from numpy's ``SeedSequence`` and absorbs only the
sibling ids, as uint32 array arithmetic bit-equal to ``SeedSequence``.
:func:`fill_standard_normal` draws from those keys through one reused
generator, so per-path noise builds no per-path ``SeedSequence``,
Philox or Generator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

# Top-level stream ids, one per consumer; a new consumer takes an id not
# listed here.  Keep these stable: they are part of the reproducibility
# contract of every recorded run.
NOISE_STREAM = 0
SMOOTHING_STREAM = 1
INITIAL_DATA_STREAM = 2
REFINEMENT_STREAM = 3  # kvariation_stability's grids, children (3, 0) and (3, 1)
FOLD_STREAM = 7  # retired, no consumer: the folded paths now read NOISE_STREAM's steps
TEST_STREAM = 1000

__all__ = [
    "RngKey",
    "philox_keys",
    "fill_standard_normal",
    "NOISE_STREAM",
    "SMOOTHING_STREAM",
    "INITIAL_DATA_STREAM",
    "REFINEMENT_STREAM",
    "FOLD_STREAM",
    "TEST_STREAM",
]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


@dataclass(frozen=True)
class RngKey:
    """Address of one deterministic substream.

    ``seed`` is the user-facing 64-bit seed; ``stream`` is the tuple of
    integer ids that identifies the consumer (for example
    ``(NOISE_STREAM, path_index)``).
    """

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidArgumentError("seed must be an unsigned 64-bit integer")
        if any(int(s) < 0 for s in self.stream):
            raise InvalidArgumentError("stream ids must be non-negative integers")

    def child(self, *ids: int) -> "RngKey":
        """Derive the substream obtained by appending ``ids``."""
        return RngKey(self.seed, self.stream + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this substream; independent of all others."""
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))


def _hashmix(value: np.ndarray, h: int) -> tuple[np.ndarray, int]:
    """SeedSequence ``hashmix``; the hash constant ``h`` evolves
    independently of the data, so it stays a Python int."""
    value = value ^ np.uint32(h)
    h = (h * _MULT_A) & _MASK32
    value = value * np.uint32(h)
    return value ^ (value >> _XSHIFT), h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> _XSHIFT)


def _absorb(pool: list, word: np.ndarray, h: int) -> tuple[list, int]:
    """Mix one entropy word past the pool size into every pool word."""
    pool = list(pool)
    for dst in range(_POOL_SIZE):
        hashed, h = _hashmix(word, h)
        pool[dst] = _mix(pool[dst], hashed)
    return pool, h


def philox_keys(key: RngKey, ids) -> np.ndarray:
    """Philox keys, shape (n, 2) uint64, of the substreams
    ``key.child(i)`` for each ``i`` in the 1-D integer array ``ids``.

    Row j equals the key that ``key.child(ids[j]).generator()`` seeds
    its Philox with.  The seed and ``key.stream`` words are hashed once,
    by numpy's ``SeedSequence`` for ``key``; only the id words (one below
    2**32, two from 2**32 on) are hashed here, as arrays across all ids.
    """
    ids = np.asarray(ids)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise InvalidArgumentError("ids must be a 1-D integer array with values below 2**64")
    if ids.dtype.kind == "i" and np.any(ids < 0):
        raise InvalidArgumentError("stream ids must be non-negative integers")
    ids = ids.astype(np.uint64)
    # numpy's own pool for ``key``; the hash constant has by then made 4
    # fills, 12 cross mixes and 4 mixes per uint32 word of the stream
    pool = list(np.random.SeedSequence(entropy=int(key.seed), spawn_key=key.stream).pool[:, None])
    words = sum((int(s).bit_length() + 31) // 32 or 1 for s in key.stream)
    h = _INIT_A * pow(_MULT_A, 4 * (_POOL_SIZE + words), 2**32) & _MASK32

    pool, h = _absorb(pool, (ids & np.uint64(_MASK32)).astype(np.uint32), h)
    high = (ids >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    if np.any(wide):
        two_word, _ = _absorb(pool, high, h)
        pool = [np.where(wide, b, a) for a, b in zip(pool, two_word)]

    # generate_state(2, np.uint64): four words cycled from the pool,
    # paired little-endian into two uint64
    h = _INIT_B
    state = []
    for word in pool:
        v = word ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        v = v * np.uint32(h)
        state.append((v ^ (v >> _XSHIFT)).astype(np.uint64))
    keys = np.empty((ids.size, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


def fill_standard_normal(key: RngKey, ids, out: np.ndarray) -> None:
    """Fill ``out[j]`` with the standard normals that
    ``key.child(ids[j]).generator()`` draws first, in C order.

    One generator serves every row: the first row's own, from
    :meth:`RngKey.generator`.  Before each row its Philox is reset to
    counter 0 under that row's key with an empty output buffer, the
    state a fresh Philox starts in.  ``out`` must be a C-contiguous
    float64 array with one row per id.  Each call owns its generator, so
    concurrent calls share nothing.
    """
    ids = np.asarray(ids)
    keys = philox_keys(key, ids)
    if (
        out.ndim < 2
        or out.shape[0] != len(keys)
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        raise InvalidArgumentError("out must be C-contiguous float64 with one row per id")
    if len(keys) == 0:
        return
    gen = key.child(int(ids[0])).generator()
    # Python ints: the state setter reads them faster than numpy scalars
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for j, row_key in enumerate(keys.tolist()):
        state["state"]["key"] = row_key
        gen.bit_generator.state = state
        gen.standard_normal(out=out[j])
