"""flowfam.pcg draws numpy.random.Generator(PCG64(seed))'s uniform stream bit for bit."""

import random

import numpy as np
import pytest

from flowfam.pcg import PCG64

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1]
_rng = random.Random(2024)
SEEDS = EDGE_SEEDS + [_rng.getrandbits(_rng.randrange(1, 65)) for _ in range(200)]  # one to four 32-bit words


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_raw_stream_matches_numpy(seed):
    ours = PCG64(seed)
    theirs = np.random.PCG64(seed).random_raw(20).tolist()
    assert [ours.next_uint64() for _ in range(20)] == theirs


def test_uniform_matches_numpy_with_scalar_and_per_component_bounds():
    for seed in SEEDS:
        rng, ours = np.random.default_rng(seed), PCG64(seed)
        # a plan's draws: time columns between two scalars, then states in a per-component box
        times = rng.uniform(-1.0, 1.5, size=(3, 4))
        states = rng.uniform([-1.0, 0.0, 2.5], [1.0, 0.25, 2.5], size=(2, 4, 3))
        assert _bits(ours.uniform([-1.0], [1.5], 12)) == _bits(times.reshape(12, 1)), seed
        assert _bits(ours.uniform([-1.0, 0.0, 2.5], [1.0, 0.25, 2.5], 8)) == _bits(states.reshape(8, 3)), seed

