"""The matrix kernel's generators against numpy's own seeding, bit for bit.

matrix_dyn seeds all of a batch's PCG64 streams from one vectorized pass of
SeedSequence's hash. Stream i*B + b must draw what
default_rng(SeedSequence(seeds[b]).spawn(n)[i]) draws. numpy < 2 promotes
mixed integer operands by other rules, which is where a hashed word could
change, so CI also runs this file on the oldest numpy that pyproject.toml
allows.
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
from zsdyn.matrix_dyn import _generators, _state_words, _stream_words

PINNED = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)
DRAWS = 200


def _check_streams(seeds, n):
    # seeded with every numpy floating-point error and every warning raised
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        gens = _generators(seeds, n)
    assert len(gens) == n * len(seeds)
    for i in range(n):
        for b, seed in enumerate(seeds):
            child = np.random.SeedSequence(seed).spawn(n)[i]
            want = np.random.default_rng(child).random(DRAWS)
            got = gens[i * len(seeds) + b].random(DRAWS)
            assert got.tobytes() == want.tobytes(), (seed, n, i)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("B", [1, 2, 129])
def test_streams_match_numpy_seeding(B, n):
    # every pinned seed at every batch width: the low and high word ends of
    # the range, and a seed on each side of 2^32, where the entropy grows
    # from one word to two; B=129 fills up with splitmix64 values
    seeds = [*PINNED, *(splitmix64(j) for j in range(129 - len(PINNED)))]
    for first in range(0, max(B, len(PINNED)), B):
        _check_streams(seeds[first:first + B], n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=6), st.integers(1, 3))
def test_drawn_seeds_match_numpy_seeding(seeds, n):
    _check_streams(seeds, n)


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
