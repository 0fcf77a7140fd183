"""Benchmark workloads: seeded instance builders and their reference solutions.

Each workload turns one workload seed into a game, its solver parameters
and its activation schedules, and knows how to compute an independent
reference solution once, outside the timed region. Randomized workloads
draw ``SCHEDULES_PER_RUN`` schedule seeds, and a run cycles through them:
ticks to tolerance vary by ±5 % between schedule seeds, and averaging
over several keeps that variation out of the comparison between runs. ``setup`` is exactly
the work that ``setup_s`` times: building the instance from the drawn
data, ``SolverParams.for_game`` and the validation gate that ``solve``
runs by default. Drawing the data from the seed is input generation and
is not timed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nashsplit import oracle, problems, schedules, solver
from nashsplit.model import SolverParams

# Agreement between a certified run (residual <= 1e-8) and the reference.
# Observed errors are about 1e-8 on every workload; the slack covers the
# conditioning of the equilibrium map, not solver error.
AGREE_TOL = 1e-6
SCHEDULES_PER_RUN = 8


@dataclass
class Instance:
    game: object
    params: SolverParams
    schedules: list


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[int], dict]          # seed -> instance data (untimed)
    build: Callable[[dict], tuple]       # data -> (game, list of schedules)
    reference: Callable[[Instance, dict], tuple]  # -> (x blocks, v* blocks or None)

    def setup(self, data: dict) -> Instance:
        """Build the instance, derive its parameters, and run the solve gate."""
        game, scheds = self.build(data)
        params = SolverParams.for_game(game, max_lag=scheds[0].max_lag, window=scheds[0].window)
        issues = solver.validate_game_and_params(game, params)
        if issues:
            raise ValueError("validation failed:\n" + "\n".join(issues))
        return Instance(game, params, scheds)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), tag)))


def _schedule_seeds(seed: int, tag: int) -> list:
    return [int(v) for v in _rng(seed, 10 + tag).integers(0, 2**31 - 1, SCHEDULES_PER_RUN)]


# consensus-sync: m scalar players on the complete neighbour graph, unit
# boxes whose centres are evenly spread, jittered and shuffled by the seed.
# The spread leaves the boxes without a common point, so the equilibrium
# is unique; the even spread keeps every seed equally hard.
CONSENSUS_PLAYERS = 10


def _draw_consensus(seed: int) -> dict:
    rng = _rng(seed, 1)
    m = CONSENSUS_PLAYERS
    centres = np.linspace(-1.5, 1.5, m) + rng.uniform(-0.1, 0.1, m)
    return {"centres": rng.permutation(centres)}


def _build_consensus(data: dict):
    bounds = [(c - 0.5, c + 0.5) for c in data["centres"]]
    game, _ = problems.consensus_instance(bounds)
    return game, [schedules.synchronous()]


def _reference_consensus(inst: Instance, data: dict):
    ref = oracle.best_response_fixed_point(inst.game, rounds=2000)
    if not ref.converged:
        raise RuntimeError("best-response reference did not converge")
    return ref.x, None


# lasso-sparse: l1 least squares with one scalar block per coordinate and
# about one block in ten drawn active per tick. The design is one fixed
# Gaussian draw scaled by 1/sqrt(rows); the seed draws a signed permutation
# of its columns, a permutation of its rows and the schedule seeds. Lasso is
# invariant under both, so every seed poses an equally hard problem while
# the activation pattern and block order change. On this draw the schedule
# certifies in about 5.7k ticks; some other 4x8 draws need over 100k ticks
# at p=0.1 (see perfbench/README.md).
LASSO_ROWS, LASSO_COLS, LASSO_WEIGHT = 4, 8, 0.5
_LASSO_BASE = np.random.default_rng(2)
_LASSO_DESIGN = _LASSO_BASE.standard_normal((LASSO_ROWS, LASSO_COLS)) / np.sqrt(LASSO_ROWS)
_LASSO_RHS = _LASSO_BASE.standard_normal(LASSO_ROWS)


def _draw_lasso(seed: int) -> dict:
    rng = _rng(seed, 2)
    cols = rng.permutation(LASSO_COLS)
    signs = rng.choice([-1.0, 1.0], LASSO_COLS)
    rows = rng.permutation(LASSO_ROWS)
    return {
        "design": _LASSO_DESIGN[rows][:, cols] * signs,
        "rhs": _LASSO_RHS[rows],
        "schedule_seeds": _schedule_seeds(seed, 2),
    }


def _build_lasso(data: dict):
    game, _ = problems.lasso_instance(data["design"], data["rhs"], LASSO_WEIGHT)
    return game, [schedules.randomized(s, 0.1, max_lag=3, window=20) for s in data["schedule_seeds"]]


def _reference_lasso(inst: Instance, data: dict):
    """Accelerated proximal gradient in plain numpy, run to a tight fixed point."""
    a, b, w = data["design"], data["rhs"], LASSO_WEIGHT
    step = 1.0 / float(np.linalg.norm(a, 2) ** 2)
    x = np.zeros(a.shape[1])
    y, t = x.copy(), 1.0
    for _ in range(200_000):
        g = y - step * (a.T @ (a @ y - b))
        nxt = np.sign(g) * np.maximum(np.abs(g) - step * w, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = nxt + ((t - 1.0) / t_next) * (nxt - x)
        done = float(np.max(np.abs(nxt - x))) <= 1e-15
        x, t = nxt, t_next
        if done:
            break
    else:
        raise RuntimeError("proximal-gradient reference did not converge")
    return tuple(np.array([v]) for v in x), None


# shared-async: m scalar players tracking seeded targets in boxes, with one
# shared constraint sum_i x_i >= sum_i t_i + m/2 that binds with
# multiplier 0.5. Random activation with the deepest lag of the three.
SHARED_PLAYERS = 2


def _draw_shared(seed: int) -> dict:
    rng = _rng(seed, 3)
    targets = rng.uniform(1.0, 8.0, SHARED_PLAYERS)
    return {"targets": targets, "schedule_seeds": _schedule_seeds(seed, 3)}


def _build_shared(data: dict):
    t = data["targets"]
    game, _ = problems.shared_constraint_instance(tuple(t), float(np.sum(t) + 0.5 * len(t)))
    return game, [schedules.randomized(s, 0.5, max_lag=5, window=8) for s in data["schedule_seeds"]]


def _reference_shared(inst: Instance, data: dict):
    exact = oracle.quadratic_game_exact(inst.game)
    return exact.x, exact.v_star


WORKLOADS = {
    w.name: w
    for w in (
        Workload("consensus-sync", _draw_consensus, _build_consensus, _reference_consensus),
        Workload("lasso-sparse", _draw_lasso, _build_lasso, _reference_lasso),
        Workload("shared-async", _draw_shared, _build_shared, _reference_shared),
    )
}


def digest(result) -> str:
    """Hash of the tick count and the exact bytes of the final ``(x, y, z, u*, v*)``."""
    h = hashlib.sha256(str(result.ticks).encode())
    for group in (result.x, result.y, result.z, result.u_star, result.v_star):
        for block in group:
            h.update(np.ascontiguousarray(block, dtype=np.float64).tobytes())
    return h.hexdigest()


def agreement_error(result, reference) -> float:
    """Largest entrywise gap between a solve result and the reference."""
    ref_x, ref_v = reference
    err = max(float(np.max(np.abs(a - r))) for a, r in zip(result.x, ref_x))
    if ref_v is not None:
        err = max(err, max(float(np.max(np.abs(a - r))) for a, r in zip(result.v_star, ref_v)))
    return err
