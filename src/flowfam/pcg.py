"""numpy's PCG64 stream in the standard library, for a plan's seeded draws.

``PCG64(seed).uniform(low, high, rows)`` returns, bit for bit, the values
of ``numpy.random.Generator(numpy.random.PCG64(seed)).uniform(low, high,
size=(rows, len(low)))`` in C order, so importing it costs nothing:
numpy.random brings in secrets, hashlib and libcrypto, about 6 MB resident
under numpy 2.4.  Seeding follows numpy's SeedSequence: the seed's 32-bit
words are hashed into a pool of four, which yields the 128-bit state and
increment of the O'Neill PCG XSL-RR 128/64 generator.
"""

from __future__ import annotations

__all__ = ["PCG64"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_sequence(seed: int) -> tuple[int, int]:
    """SeedSequence(seed).generate_state(4, uint64) as 128-bit (state, increment) seeds.

    seed lies in [0, 2^64), so its words never outnumber the pool's four.
    """
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_b, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ (value >> 16))
    # the eight words read as four little-endian uint64; each pair is (high, low)
    u64 = [state[2 * j] | state[2 * j + 1] << 32 for j in range(4)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class PCG64:
    """The stream of numpy.random.Generator(numpy.random.PCG64(seed)), uniform draws only."""

    def __init__(self, seed: int):
        init_state, init_seq = _seed_sequence(seed)
        self.inc = (init_seq << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: one step from 0 (which lands on inc), add the seed, step again
        self.state = (self.inc + init_state) * _MULTIPLIER + self.inc & _MASK128

    def next_uint64(self) -> int:
        self.state = self.state * _MULTIPLIER + self.inc & _MASK128
        value, rot = (self.state >> 64 ^ self.state) & _MASK64, self.state >> 122
        return (value >> rot | value << (-rot & 63)) & _MASK64

    def uniform(self, low, high, rows: int) -> list[list[float]]:
        """rows draws of one value per component, low[c] + (high[c] - low[c]) * u."""
        spans = [(lo, hi - lo) for lo, hi in zip(low, high, strict=True)]
        return [[lo + span * ((self.next_uint64() >> 11) * 2.0**-53) for lo, span in spans] for _ in range(rows)]
