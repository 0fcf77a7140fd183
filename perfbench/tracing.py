"""Outside-in per-layer tracing of the nashsplit package.

Spans are recorded from the benchmark's side: module attributes, class
methods and game callables are replaced by timing wrappers for the length
of one traced pass and restored afterwards, so no library source changes.
A span's self time is its duration minus the time of the spans it
directly encloses, which makes the self times of all spans under one root
add up to the root's duration. Totals are kept per layer name in memory;
individual spans are not stored, because a run makes millions of them.

The wrappers share one span stack, so a traced pass must run on a single
thread (thread-mode solves are always untraced).
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

from nashsplit import linops, model, oracle, schedules, solver


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []    # per open span: time covered by its child spans

    def wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                total_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attribute, layer name)`` targets for the block's duration."""
        originals = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def traced_game(self, game: model.Game) -> model.Game:
        """A copy of ``game`` whose interaction gradient and smooth gradients are wrapped."""

        def smooth(term):
            return dataclasses.replace(term, grad=self.wrap("model.smooth_grad", term.grad))

        interaction = dataclasses.replace(
            game.interaction, eval=self.wrap("problems.interaction_eval", game.interaction.eval)
        )
        players = [dataclasses.replace(p, smooth=smooth(p.smooth)) for p in game.players]
        couplings = [dataclasses.replace(c, smooth=smooth(c.smooth)) for c in game.couplings]
        return model.Game(players, interaction, couplings)


def _linop_targets():
    classes = [linops.LinOp] + [
        obj for obj in vars(linops).values()
        if isinstance(obj, type) and issubclass(obj, linops.LinOp) and obj is not linops.LinOp
    ]
    return [
        (cls, method, f"linops.{method}")
        for cls in classes
        for method in ("apply", "adjoint_apply")
        if method in vars(cls)
    ]


# The solve path, one entry per layer boundary. ``solver.solve`` is the
# root span; its self time is the bookkeeping in ``solve`` and ``tick``.
SOLVE_TARGETS = [
    (solver, "solve", "solver.solve_other"),
    (schedules.Schedule, "next_tick", "schedules.next_tick"),
    (solver, "player_local_step", "solver.player_local_step"),
    (solver, "coupling_local_step", "solver.coupling_local_step"),
    (solver, "refresh_e", "solver.refresh_e"),
    (solver, "assemble_duals", "solver.assemble_duals"),
    (solver, "compute_pi", "solver.compute_pi"),
    (solver, "apply_update", "solver.apply_update"),
    (solver.IterState, "_push_history", "solver.push_history"),
    (oracle, "check_equilibrium", "oracle.check_equilibrium"),
    (solver, "prox", "proximal.prox.step"),
    (oracle, "prox", "proximal.prox.cert"),
] + _linop_targets()

# The validation gate that ``solve`` runs by default, timed during set-up.
SETUP_TARGETS = [
    (solver, "validate_problem", "model.validate_problem"),
    (solver, "validate_params", "model.validate_params"),
]
