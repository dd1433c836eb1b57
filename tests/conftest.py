"""Shared fixtures."""

import pytest

import zsdyn.metrics
import zsdyn.ops
from zsdyn import _core

# each loop's calling module, the name it loads the loop by, and the list
# loop: both kinds of run step in _core's one driver; the matrix-game LP's
# loader returns None for ops._simplex_max, and the gap scorer's None for
# the numpy body of metrics.matrix_gaps
KERNELS = ((_core, "_visbr_loop", _core._visbr_steps),
           (zsdyn.ops, "_lp_loop", None),
           (zsdyn.metrics, "_gaps_loop", None))


@pytest.fixture
def loops(monkeypatch):
    """Iterating it runs its body on each kind of loop: the compiled step
    loop, simplex and gap scorer, where they loaded, then the list step
    loop, the numpy simplex and the numpy matrix_gaps, with the step loop,
    the LP and the scorer monkeypatched to them."""
    def each():
        for kind in dict.fromkeys(("compiled" if _core._library() else "list", "list")):
            for module, name, listed in KERNELS:
                loop = getattr(_core, name)() if kind == "compiled" else listed
                monkeypatch.setattr(module, name, lambda loop=loop: loop)
            yield kind
    return each()
