"""Both kernels' streams against numpy's own seeding and draws, bit for bit.

_core seeds all of a batch's PCG64 streams, for the matrix and the
stochastic kernel alike, from one vectorized pass of SeedSequence's hash.
Stream i*B + b must draw what
default_rng(SeedSequence(seeds[b]).spawn(n)[i]) draws, through _uniforms and
through the compiled step loop, which draws from the streams itself. numpy
< 2 promotes mixed integer operands by other rules, which is where a hashed
word could change, so CI also runs this file on the oldest numpy that
pyproject.toml allows.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zsdyn
from zsdyn.harness import splitmix64
from zsdyn import _core
from zsdyn._core import _state_words, _stream_words, _streams, _uniforms

PINNED = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)
SEEDS = [*PINNED, *(splitmix64(j) for j in range(129 - len(PINNED)))]  # up to B = 129
DRAWS = 200


def _numpy_generator(seed, n, i):
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(n)[i])


def _check_streams(seeds, n):
    # seeded with every numpy floating-point error and every warning raised
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        streams = _streams(seeds, n)
    assert streams.dtype == np.uint64 and streams.shape == (n * len(seeds), 4)
    got = _uniforms(streams, DRAWS)
    for i in range(n):
        for b, seed in enumerate(seeds):
            want = _numpy_generator(seed, n, i).random(DRAWS)
            assert got[i * len(seeds) + b].tobytes() == want.tobytes(), (seed, n, i)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("B", [1, 2, 129])
def test_streams_match_numpy_seeding(B, n):
    # every pinned seed at every batch width: the low and high word ends of
    # the range, and a seed on each side of 2^32, where the entropy grows
    # from one word to two; B=129 fills up with splitmix64 values
    for first in range(0, max(B, len(PINNED)), B):
        _check_streams(SEEDS[first:first + B], n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=6), st.integers(1, 3))
def test_drawn_seeds_match_numpy_seeding(seeds, n):
    _check_streams(seeds, n)


def _check_loop_streams(seeds, n):
    # the compiled loop's own draws for B = len(seeds) trajectories, over
    # steps() calls of 5, 65, 1 and 129 steps: each trajectory's streams,
    # player streams and at n = 3 the environment's of a two-state game,
    # stand after K_b steps where numpy's Generator stands after K_b draws,
    # so each call takes up the state the last one saved, and draw on as
    # numpy's do. The iterates equal the list loop's, whose uniforms are
    # numpy's. Trajectories end at K = 200, 140 and 80, mid-call, on a
    # diminishing schedule
    B, S, rng = len(seeds), n - 1, np.random.default_rng(3)
    R1 = rng.uniform(-1.0, 1.0, (S, 2, 3))
    P = rng.random((S, 2, 3, S)) + 0.1
    P /= P.sum(axis=-1, keepdims=True)
    tables = (R1, -R1.transpose(0, 2, 1).copy(), np.cumsum(P[..., :-1], axis=-1))
    schedule = zsdyn.StepsizeSchedule(kind="diminishing", alpha=1.0, beta=0.5, h=2.0)
    ends = np.array([200 - 60 * (b % 3) for b in range(B)], dtype=np.int64)
    taus, epss = np.linspace(0.2, 0.9, B), np.linspace(0.0, 0.3, B)
    runs = []
    for loop in (_core._visbr_loop(), _core._visbr_steps):
        arrays = (*_core._start(B, S, 2, 3, taus, epss, False), np.zeros(B, np.int64))
        streams = _streams(seeds, n)
        steps = loop(*arrays, *tables, taus, epss, ends, False, False, 0.9, streams, schedule)
        for k0, k1 in ((0, 5), (5, 70), (70, 71), (71, 200)):
            steps(k0, k1)
        runs.append((arrays, streams))
    (compiled, streams), (listed, _) = runs
    assert all(c.tobytes() == li.tobytes() for c, li in zip(compiled, listed, strict=True))
    saved = streams.copy()
    after = _uniforms(streams, 3)
    for i in range(n):
        for b, seed in enumerate(seeds):
            g = _numpy_generator(seed, n, i)
            g.random(int(ends[b]))
            st = g.bit_generator.state["state"]
            hi, lo, inc_hi, inc_lo = map(int, saved[i * B + b])
            assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (st["state"], st["inc"]), (seed, i)
            assert after[i * B + b].tobytes() == g.random(3).tobytes(), (seed, i)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("B", [1, 2, 129])
def test_compiled_loop_draws_numpy_streams(B, n):
    if _core._library() is None:
        pytest.skip("no cc on PATH: the list loop draws through numpy Generators")
    for first in range(0, max(B, len(PINNED)), B):
        _check_loop_streams(SEEDS[first:first + B], n)


def test_state_words_equal_generate_state():
    # the words themselves, not only the draws they lead to
    words = _stream_words(PINNED, 3)
    assert words.dtype == np.uint64 and words.shape == (3, len(PINNED), 4)
    for i in range(3):
        for b, seed in enumerate(PINNED):
            want = np.random.SeedSequence(seed).spawn(3)[i].generate_state(4, np.uint64)
            assert words[i, b].tobytes() == want.tobytes()


def test_state_words_refuse_other_requests():
    words = _state_words()(_stream_words([5], 1)[0, 0])
    assert words.generate_state(4, np.uint64) is words.words
    assert words.generate_state(4, "uint64") is words.words
    for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64),
                           (4, np.int64), (4, np.float64)):
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        words.generate_state(4)  # numpy's default dtype is uint32


SETUP = """
import sys
import numpy
before = "numpy.random" in sys.modules
import zsdyn
from zsdyn import ExperimentConfig, load_game
config = ExperimentConfig.from_dict({
    "kind": "matrix", "game": "builtin:rps", "n_trajectories": 2, "base_seed": 1,
    "run": {"variant": "plain", "tau": 0.3, "K": 20,
            "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.05}},
    "sweep": {"tau": [0.2, 0.3]}})
load_game(config.game)
print(before, "numpy.random" in sys.modules)
"""


def test_setup_does_not_load_numpy_random():
    # loading numpy.random costs about 10 ms, so the import, config
    # validation and game loading leave it to the first run
    src = os.path.dirname(os.path.dirname(zsdyn.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", SETUP], capture_output=True, text=True,
                         check=True, env=env).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert out == ["False", "False"]
