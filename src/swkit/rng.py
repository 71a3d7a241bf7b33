"""Counter-based random streams keyed by a seed plus a tuple of sub-keys.

All stochastic routines in the package pull their randomness from Philox
streams derived here. Each unit of work (one projection direction, one block
of trajectories, one experiment cell) owns a stream keyed by its identity, so
work units can execute in any order and on any number of workers without
changing a single output bit.

:func:`substream` is the definition of a stream: a Philox generator seeded by
``SeedSequence(entropy=seed, spawn_key=subkeys)``. Philox is counter-based
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011), so a
stream is a pure function of its 128-bit key and a counter that starts at 0.
:func:`philox_keys` computes the keys of ``substream(seed, l)`` for a range
of indices l directly, bit for bit, so a caller that draws from many such
streams can re-key one generator instead of building a stream per index.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), for
# a pool of 4 32-bit words.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _encode(part) -> int:
    """Map a sub-key (int or short string label) to a non-negative integer."""
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "little")
    value = int(part)
    if value < 0:
        raise ValueError(f"sub-keys must be non-negative, got {part!r}")
    return value


def _seed(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def seed_sequence(seed: int, *subkeys) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=_seed(seed), spawn_key=tuple(_encode(k) for k in subkeys))


def substream(seed: int, *subkeys) -> np.random.Generator:
    """Independent generator for the work unit identified by (seed, subkeys)."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *subkeys)))


def derive_seed(seed: int, *subkeys) -> int:
    """Stable 64-bit integer seed derived from (seed, subkeys)."""
    return int(seed_sequence(seed, *subkeys).generate_state(1, dtype=np.uint64)[0])


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hash: each call uses the next constant of the sequence
    init * mult^k. Takes Python ints or uint32 arrays, which wrap mod 2^32."""
    const = init

    def step(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return step


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def philox_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Philox keys of ``substream(seed, l)`` for l in [start, start + count),
    as a (count, 2) uint64 array.

    Row i equals ``seed_sequence(seed, start + i).generate_state(2, uint64)``.
    SeedSequence hashes the seed's words, padded to 4, into a 4-word pool,
    then mixes in the words of l: one for l < 2^32, two up to 2^64. The seed
    part is the same for every l, so it is hashed once with Python ints; only
    the mixing of l's words runs vectorized over the range, with the second
    word applied where l >= 2^32.
    """
    seed, start, count = _seed(seed), int(start), int(count)
    if start < 0 or count < 0 or start + count > 1 << 64:
        raise ValueError(f"indices must lie in [0, 2^64), got start={start}, count={count}")
    hashmix = _hasher(_INIT_A, _MULT_A)
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        pool = [_mix(p, hashmix(w)) for p in pool]

    index = np.arange(count, dtype=np.uint64) + np.uint64(start)
    pool = [np.full(count, p, dtype=np.uint32) for p in pool]
    low = (index & np.uint64(_MASK32)).astype(np.uint32)
    pool = [_mix(p, hashmix(low)) for p in pool]
    high = (index >> np.uint64(32)).astype(np.uint32)
    wide = index > np.uint64(_MASK32)
    pool = [np.where(wide, _mix(p, hashmix(high)), p) for p in pool]

    out = _hasher(_INIT_B, _MULT_B)
    state = [out(p).astype(np.uint64) for p in pool]
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys
