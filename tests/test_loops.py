"""Loading the matrix kernel's compiled step loop, and its fallback."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from zsdyn import _core
from zsdyn.harness import ExperimentConfig, run_experiment

from test_golden import GOLDEN, MATRIX_SWEEP, SCHED, SG3

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
    empty; the loop it returns is not kept past the test."""
    shutil.copy(os.path.join(SRC, "_loops.c"), tmp_path)
    monkeypatch.setattr(_core, "__file__", str(tmp_path / "_core.py"))
    _core._matrix_loop.cache_clear()
    yield tmp_path
    _core._matrix_loop.cache_clear()


def test_compiled_loop_loads_where_cc_exists():
    # without this, a platform where the build fails would pass every
    # other test on the list loop alone
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH: the list loop runs")
    assert _core._matrix_loop() is not _core._matrix_steps


def test_no_compiler_falls_back_to_the_list_loop(fresh_loader, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "nowhere"))
    monkeypatch.chdir(tmp_path)
    assert _core._matrix_loop() is _core._matrix_steps
    assert os.listdir(tmp_path / "__pycache__") == []  # the failed build left nothing
    run_experiment(ExperimentConfig(**MATRIX_SWEEP))
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
           for name in sorted(os.listdir(tmp_path / "out"))}
    assert got == GOLDEN["matrix"]


def test_a_cached_object_loads_without_the_compiler(fresh_loader, tmp_path, monkeypatch):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    assert _core._matrix_loop() is not _core._matrix_steps
    [built] = os.listdir(tmp_path / "__pycache__")
    _core._matrix_loop.cache_clear()
    bin_dir = _fake_cc(tmp_path)
    monkeypatch.setenv("PATH", str(bin_dir))
    assert _core._matrix_loop() is not _core._matrix_steps
    assert not (bin_dir / "cc.ran").exists()
    assert os.listdir(tmp_path / "__pycache__") == [built]


# run in a fresh interpreter on a copy of the package, with a cc that marks
# each call: prints whether the loader ran. numpy imports ctypes itself, so
# whether ctypes is in sys.modules tells nothing
PROBE = """
import json, sys
import zsdyn
from zsdyn import _core
from zsdyn.harness import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig(**json.loads(sys.argv[1])))
print(_core._matrix_loop.cache_info().currsize)
"""


@pytest.mark.parametrize("kind", ["stochastic", "matrix"])
def test_only_the_matrix_kernel_starts_the_build(tmp_path, kind):
    # importing zsdyn and a stochastic sweep leave the compiled loop
    # unbuilt and start no compiler; the matrix sweep shows that the
    # probe sees both
    shutil.copytree(SRC, tmp_path / "pkg" / "zsdyn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bin_dir = _fake_cc(tmp_path)
    game, run = ((SG3, {"T": 2}) if kind == "stochastic" else ("builtin:rps", {}))
    sweep = {"kind": kind, "game": game, "n_trajectories": 2, "base_seed": 5,
             "run": {"tau": 0.2, "schedule": dict(SCHED), "K": 10, **run}}
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "pkg"), PATH=str(bin_dir))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(sweep)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True).stdout
    loaded = kind == "matrix"
    assert out.split() == [str(int(loaded))]
    assert (bin_dir / "cc.ran").exists() == loaded
