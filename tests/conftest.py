"""Shared fixtures."""

import pytest

import zsdyn.matrix_dyn
import zsdyn.visbr
from zsdyn import _core

# each kernel's module, the name it loads its step loop by, and its list loop
KERNELS = ((zsdyn.matrix_dyn, "_matrix_loop", _core._matrix_steps),
           (zsdyn.visbr, "_visbr_loop", _core._visbr_steps))


@pytest.fixture
def loops(monkeypatch):
    """Iterating it runs its body on each kind of step loop: the compiled
    loops, where they loaded, then the list loops, with both kernels
    monkeypatched to them."""
    def each():
        for kind in dict.fromkeys(("compiled" if _core._library() else "list", "list")):
            for module, name, listed in KERNELS:
                loop = getattr(_core, name)() if kind == "compiled" else listed
                monkeypatch.setattr(module, name, lambda loop=loop: loop)
            yield kind
    return each()
