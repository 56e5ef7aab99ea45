"""flowfam.pcg draws numpy.random.Generator(PCG64(seed))'s uniform stream bit for bit.

Streams read their unit draws from one memo of prefixes per seed, so the
tests below also hold a stream to numpy's while another stream of the same
seed reads the memo, after a shorter prefix, and after its seed fell out.
"""

import random
import sys
import threading

import numpy as np
import pytest

from flowfam import pcg
from flowfam.pcg import PCG64

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1]
_rng = random.Random(2024)
SEEDS = EDGE_SEEDS + [_rng.getrandbits(_rng.randrange(1, 65)) for _ in range(200)]  # one to four 32-bit words


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_raw_stream_matches_numpy(seed):
    ours = pcg._Generator(seed)
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



@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(pcg, "_UNITS", {})


def test_interleaved_streams_of_one_seed_each_match_numpy(empty_memo):
    first, second = PCG64(77), PCG64(77)
    rng_first, rng_second = np.random.default_rng(77), np.random.default_rng(77)
    for rows in (1, 3, 2, 7, 5):  # each request runs past what the other stream left in the memo
        assert _bits(first.uniform([-1.0], [1.5], rows)) == _bits(rng_first.uniform(-1.0, 1.5, size=(rows, 1)))
        assert _bits(second.uniform([0.0, 2.0], [1.0, 3.0], rows)) == _bits(
            rng_second.uniform([0.0, 2.0], [1.0, 3.0], size=(rows, 2)))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_advance_matches_numpy(seed):
    for delta in (0, 1, 2, 37, 2**20 + 3, 2**127 + 5):
        ours = pcg._Generator(seed)
        ours.advance(delta)
        theirs = np.random.PCG64(seed).advance(delta).random_raw(5).tolist()
        assert [ours.next_uint64() for _ in range(5)] == theirs, delta


def test_a_short_prefix_then_a_longer_one_match_numpy(empty_memo, monkeypatch):
    draws, next_uint64 = [], pcg._Generator.next_uint64
    monkeypatch.setattr(pcg._Generator, "next_uint64", lambda stream: draws.append(1) or next_uint64(stream))
    short = np.random.default_rng(5).uniform(0.0, 1.0, size=(4, 1))
    long = np.random.default_rng(5).uniform(0.0, 1.0, size=(40, 1))
    assert _bits(PCG64(5).uniform([0.0], [1.0], 4)) == _bits(short)
    assert (len(pcg._UNITS[5]), len(draws)) == (8 * 4, 4)
    assert _bits(PCG64(5).uniform([0.0], [1.0], 40)) == _bits(long)
    assert (len(pcg._UNITS[5]), len(draws)) == (8 * 40, 40)  # only what the prefix lacked was drawn
    assert _bits(PCG64(5).uniform([0.0], [1.0], 4)) == _bits(short)  # read from the longer prefix
    assert len(draws) == 40


def test_more_seeds_than_the_memo_holds_match_numpy(empty_memo):
    seeds = list(range(1000, 1000 + 2 * pcg._UNITS_SIZE + 3))
    for _ in range(2):  # the second round finds its early seeds gone and draws them afresh
        for seed in seeds:
            theirs = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(6, 1))
            assert _bits(PCG64(seed).uniform([-2.0], [2.0], 6)) == _bits(theirs), seed
        assert list(pcg._UNITS) == seeds[-pcg._UNITS_SIZE:]


def test_a_prefix_longer_than_the_memo_keeps_is_drawn_and_not_kept(empty_memo):
    count = pcg._UNITS_KEPT + 1
    theirs = np.random.default_rng(9).uniform(0.0, 1.0, size=(count, 1))
    assert _bits(PCG64(9).uniform([0.0], [1.0], count)) == _bits(theirs)
    assert 9 not in pcg._UNITS


def test_threads_sharing_the_memo_each_draw_numpys_stream(empty_memo):
    seeds = list(range(40, 40 + 2 * pcg._UNITS_SIZE))
    lengths = (1, 5, 17, 40)
    expected = {(seed, rows): _bits(np.random.default_rng(seed).uniform(0.0, 1.0, size=(rows, 1)))
                for seed in seeds for rows in lengths}
    wrong = []

    def work(offset):
        for j in range(300):
            seed, rows = seeds[(offset + 7 * j) % len(seeds)], lengths[(offset + j) % len(lengths)]
            try:
                if _bits(PCG64(seed).uniform([0.0], [1.0], rows)) != expected[seed, rows]:
                    wrong.append((seed, rows))
            except Exception as err:  # a raise in a thread would end it unseen
                wrong.append((seed, rows, repr(err)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == [] and len(pcg._UNITS) <= pcg._UNITS_SIZE
