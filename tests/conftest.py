"""Shared fixtures."""

import pytest

import zsdyn.matrix_dyn
import zsdyn.metrics
import zsdyn.ops
import zsdyn.visbr
from zsdyn import _core

# each kernel's module, the name it loads the step loop by, and the list
# loop; the matrix-game LP's loader returns None for ops._simplex_max, and
# the gap scorer's None for the numpy body of metrics.matrix_gaps
KERNELS = ((zsdyn.matrix_dyn, "_visbr_loop", _core._visbr_steps),
           (zsdyn.visbr, "_visbr_loop", _core._visbr_steps),
           (zsdyn.ops, "_lp_loop", None),
           (zsdyn.metrics, "_gaps_loop", None))


@pytest.fixture
def loops(monkeypatch):
    """Iterating it runs its body on each kind of loop: the compiled step
    loop, simplex and gap scorer, where they loaded, then the list step
    loop, the numpy simplex and the numpy matrix_gaps, with both kernels,
    the LP and the scorer monkeypatched to them."""
    def each():
        for kind in dict.fromkeys(("compiled" if _core._library() else "list", "list")):
            for module, name, listed in KERNELS:
                loop = getattr(_core, name)() if kind == "compiled" else listed
                monkeypatch.setattr(module, name, lambda loop=loop: loop)
            yield kind
    return each()
