"""Per-layer spans recorded from outside the program.

The tracer replaces public names in the modules that call them (the name
as the caller looks it up, e.g. `zsdyn.visbr.minimax_fixed_point`) with a
wrapper that records a span: layer, start, end and the index of the span
that was open when it started. Spans stay in memory; self time is a span's
duration minus the durations of its direct children. Nothing inside
`src/` is edited, and every wrapper is removed when the traced call ends.

A name that no longer exists (renamed or removed by a refactor) does not
crash the run: its layer is reported as absent, and its time then shows
up in the self time of whichever span, or the uncovered harness time,
encloses it.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (calling module, public name, layer)
WRAPPED = (
    ("zsdyn.harness", "run_matrix_dynamics", "matrix_dyn"),
    ("zsdyn.harness", "run_visbr", "visbr"),
    ("zsdyn.harness", "aggregate", "harness.aggregate"),
    ("zsdyn.matrix_dyn", "ng_matrix_lists", "metrics.matrix_gap"),
    ("zsdyn.matrix_dyn", "ngtau_matrix_lists", "metrics.matrix_gap"),
    ("zsdyn.visbr", "nash_gap_stochastic", "metrics.ng_stochastic"),
    ("zsdyn.visbr", "minimax_fixed_point", "ops.minimax_fp"),
    ("zsdyn.visbr", "stationary_distribution", "ops.ergodicity"),
    ("zsdyn.metrics", "best_response_value", "ops.best_response"),
    ("zsdyn.metrics", "policy_value", "ops.policy_value"),
    ("zsdyn.ops", "matrix_game_value", "ops.lp"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _steps(layer: str, config) -> int | None:
    # dynamics steps a runner call performs, read from its config argument
    try:
        return config.K * (config.T if layer == "visbr" else 1)
    except AttributeError:
        return None


class Tracer:
    """Span store for one traced call; use `installed()` around the call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.steps = {"matrix_dyn": 0, "visbr": 0}
        self.minimax_keys: set = set()
        self.absent: list[str] = []
        self.unknown: set[str] = set()  # counts a changed signature hid
        self._open = -1

    def _wrap(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            if layer in self.steps:
                steps = _steps(layer, _arg(args, kwargs, 1, "config"))
                if steps is None:
                    self.unknown.add(f"{layer}.steps")
                else:
                    self.steps[layer] += steps
            elif layer == "ops.minimax_fp":
                self.minimax_keys.add((id(_arg(args, kwargs, 0, "game")),
                                       _arg(args, kwargs, 1, "player")))
            span = [layer, 0.0, 0.0, self._open]
            self.spans.append(span)
            self._open = len(self.spans) - 1
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open = span[3]
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED that exists; restore them on exit."""
        saved = []
        self.absent = []
        try:
            for module_name, attr, layer in WRAPPED:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(f"{layer} ({module_name}.{attr})")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self, wall_s: float) -> dict:
        """Per-layer self time and calls; `uncovered_s` is the part of
        wall_s that no span covers."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for i, (layer, start, end, _) in enumerate(self.spans):
            row = out[layer]
            row["self_s"] += (end - start) - child[i]
            row["calls"] += 1
        return {"layers": out, "steps": dict(self.steps),
                "minimax_distinct": len(self.minimax_keys),
                "uncovered_s": wall_s - top,
                "absent": list(self.absent) + sorted(self.unknown)}
