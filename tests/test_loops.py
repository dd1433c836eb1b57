"""Building and loading the compiled step loop, the compiled matrix-game
simplex and the compiled matrix-gap scorer, and their fallbacks."""

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import zsdyn as z
from zsdyn import _core
from zsdyn.harness import ExperimentConfig, run_experiment

from test_golden import GOLDEN, MATRIX_SWEEP, SCHED, SG3, STOCHASTIC_SWEEP

SRC = os.path.dirname(_core.__file__)

# a cc that leaves a mark and fails
FAKE_CC = "#!/bin/sh\n: > \"$0.ran\"\nexit 1\n"


def _fake_cc(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text(FAKE_CC)
    (bin_dir / "cc").chmod(0o755)
    return bin_dir


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """_core's loader against a copy of _loops.c whose __pycache__ starts
    empty; the library it loads is not kept past the test."""
    shutil.copy(os.path.join(SRC, "_loops.c"), tmp_path)
    monkeypatch.setattr(_core, "__file__", str(tmp_path / "_core.py"))
    _core._library.cache_clear()
    yield tmp_path
    _core._library.cache_clear()


def _compiled():
    # whether the kernels bind the compiled step loop, the LP its simplex
    # and matrix_gaps its scorer
    return (_core._visbr_loop() is not _core._visbr_steps and _core._lp_loop() is not None
            and _core._gaps_loop() is not None)


def test_compiled_loop_loads_where_cc_exists():
    # without this, a platform where the build fails would pass every
    # other test on the list loop alone
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH: the list loop runs")
    assert _compiled()


def test_no_compiler_falls_back_to_the_list_loop(fresh_loader, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "nowhere"))
    monkeypatch.chdir(tmp_path)
    assert _core._visbr_loop() is _core._visbr_steps
    assert _core._lp_loop() is None and _core._gaps_loop() is None
    assert os.listdir(tmp_path / "__pycache__") == []  # the failed build left nothing
    for fixture, sweep in (("matrix", MATRIX_SWEEP), ("stochastic", STOCHASTIC_SWEEP)):
        run_experiment(ExperimentConfig(**sweep), force=True)
        got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(tmp_path / "out"))}
        assert got == GOLDEN[fixture]


def test_a_cached_object_loads_without_the_compiler(fresh_loader, tmp_path, monkeypatch):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    assert _compiled()
    [built] = os.listdir(tmp_path / "__pycache__")
    _core._library.cache_clear()
    bin_dir = _fake_cc(tmp_path)
    monkeypatch.setenv("PATH", str(bin_dir))
    assert _compiled()
    assert not (bin_dir / "cc.ran").exists()
    assert os.listdir(tmp_path / "__pycache__") == [built]


def test_a_new_build_removes_the_objects_of_older_sources(fresh_loader, tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    cache = tmp_path / "__pycache__"
    older = _core._build()
    with open(tmp_path / "_loops.c", "a") as f:
        f.write("/* an edit */\n")
    newer = _core._build()
    assert newer != older and os.listdir(cache) == [os.path.basename(newer)]


# run in a fresh interpreter on a copy of the package, with a cc that marks
# each call: imports zsdyn, solves rock-paper-scissors, scores a policy on
# it or runs the sweep given, if any, and prints whether the loader ran.
# numpy imports ctypes itself, so whether ctypes is in sys.modules tells nothing
PROBE = """
import json, sys
import zsdyn
from zsdyn import _core
from zsdyn.harness import ExperimentConfig, run_experiment
rps = zsdyn.rock_paper_scissors()
if sys.argv[1:] == ["lp"]:
    zsdyn.matrix_game_value(rps.R1)
elif sys.argv[1:] == ["gap"]:
    zsdyn.nash_gap_matrix(rps, zsdyn.JointPolicy([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
elif sys.argv[1:]:
    run_experiment(ExperimentConfig(**json.loads(sys.argv[1])))
print(_core._library.cache_info().currsize)
"""


@pytest.mark.parametrize("kind", ["import", "stochastic", "matrix", "lp", "gap"])
def test_only_a_kernel_call_starts_the_build(tmp_path, kind):
    # importing zsdyn leaves the compiled loops unbuilt and starts no
    # compiler; the first call of either kernel, the first matrix-game LP
    # or the first matrix-game gap starts the build
    shutil.copytree(SRC, tmp_path / "pkg" / "zsdyn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bin_dir = _fake_cc(tmp_path)
    argv = [kind] if kind in ("lp", "gap") else []
    if kind in ("stochastic", "matrix"):
        game, run = ((SG3, {"T": 2}) if kind == "stochastic" else ("builtin:rps", {}))
        argv.append(json.dumps({"kind": kind, "game": game, "n_trajectories": 2, "base_seed": 5,
                                "run": {"tau": 0.2, "schedule": dict(SCHED), "K": 10, **run}}))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "pkg"), PATH=str(bin_dir))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True).stdout
    loaded = kind != "import"
    assert out.split() == [str(int(loaded))]
    assert (bin_dir / "cc.ran").exists() == loaded


def test_integer_config_values_give_the_bytes_of_floats(loops):
    # configs built in Python keep int tau, eps_bar and rates; both kernels
    # hand their loops float64 rows, so the records equal those of the
    # same float values, series and final iterates alike
    cases = (("matrix", z.load_game("builtin:rps"), z.MatrixRunConfig, z.run_matrix_dynamics),
             ("stochastic", z.load_game(SG3), functools.partial(z.VisbrConfig, T=2), z.run_visbr))
    for _ in loops:
        for kind, game, make, run in cases:
            got, want = (run(game, [make(
                tau=tau, schedule=z.StepsizeSchedule(kind="constant", alpha=rate, beta=rate),
                K=20, seed=3, variant="explore", eps_bar=eps, record_stride=5)])[0]
                for tau, rate, eps in ((1, 1, 0), (1.0, 1.0, 0.0)))
            iterates = zip((got.index, *got.series.values(), got.final_policy.pi1,
                            got.final_policy.pi2, *got.final_q),
                           (want.index, *want.series.values(), want.final_policy.pi1,
                            want.final_policy.pi2, *want.final_q), strict=True)
            assert all(g.tobytes() == w.tobytes() for g, w in iterates), kind
