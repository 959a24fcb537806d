"""numpy SeedSequence's children, a block at a time in wrapping uint32 arrays."""

import numpy as np
from numpy.random.bit_generator import ISeedSequence, SeedSequence

# numpy's SeedSequence hash and mix constants
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _n_words(value) -> int:
    """The uint32 words SeedSequence makes of an entropy or spawn key."""
    if isinstance(value, str):
        value = int(value, 16 if value.startswith("0x") else 10)
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(map(_n_words, value))


def _hash(data, init, mult, k, n):
    """mix_entropy's and generate_state's word hash of data (..., n)."""
    h = np.array([init * pow(mult, k + j, 1 << 32) % (1 << 32) for j in range(n + 1)], np.uint32)
    out = (data ^ h[:-1]) * h[1:]
    return out ^ (out >> 16)


class _ChildSeed(ISeedSequence):
    """Children's pools (..., P), with their answer to PCG64's request."""

    def __init__(self, pool, pcg64_state=None):
        self.pool, self.pcg64_state = pool, pcg64_state

    def generate_state(self, n_words, dtype=np.uint32):
        dtype = np.dtype(dtype)
        if dtype == np.uint64 and n_words == 4 and self.pcg64_state is not None:
            return self.pcg64_state
        if dtype not in (np.uint32, np.uint64):
            raise ValueError("only support uint32 or uint64")
        n = n_words * dtype.itemsize // 4
        words = _hash(self.pool[..., np.arange(n) % self.pool.shape[-1]], INIT_B, MULT_B, 0, n)
        # little-endian words on every host, as numpy reads them
        return words.astype("<u4", order="C").view(dtype.newbyteorder("<")).astype(dtype)


def child_normals(rng, start: int, out: np.ndarray) -> None:
    """Fill out's rows with the standard normals of rng.spawn's children from
    start on, to the bit, without advancing its count; OverflowError at 2**32."""
    bg, ss = rng.bit_generator, rng.bit_generator.seed_seq
    if not isinstance(ss, SeedSequence):
        raise TypeError("The underlying SeedSequence does not implement spawning.")
    start += ss.n_children_spawned
    # child i's pool is the parent's mixed with the word i; the parent's has
    # hashed P·W words: its entropy, padded to P under a spawn key, the key
    k = ss.pool_size * (max(_n_words(ss.entropy), ss.pool_size) + _n_words(ss.spawn_key))
    index = np.arange(start, start + len(out), dtype=np.uint32)[:, None]
    pools = MIX_MULT_L * ss.pool - MIX_MULT_R * _hash(index, INIT_A, MULT_A, k, ss.pool_size)
    pools ^= pools >> 16
    for pool, state, row in zip(pools, _ChildSeed(pools).generate_state(4, np.uint64), out):
        type(rng)(type(bg)(_ChildSeed(pool, state))).standard_normal(out=row)
