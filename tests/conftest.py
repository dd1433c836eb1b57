"""Shared fixtures."""

import pytest

import zsdyn.matrix_dyn
from zsdyn import _core


@pytest.fixture
def matrix_loops(monkeypatch):
    """Iterating it runs its body on each matrix step loop: the compiled loop,
    where it loaded, then the list loop, with the kernel monkeypatched to it."""
    def each():
        for loop in dict.fromkeys((_core._matrix_loop(), _core._matrix_steps)):
            monkeypatch.setattr(zsdyn.matrix_dyn, "_matrix_loop", lambda loop=loop: loop)
            yield loop
    return each()
