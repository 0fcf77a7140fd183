"""One game exercising every feature at once.

Two players with different dimensions, an l1 term next to a box, a
strongly convex individual smooth term, non-identity mixes into the
interaction space, and two couplings (one orthant indicator, one smooth
quadratic penalty). Strong convexity of each player's individual problem
makes the equilibrium unique, so independent starts and schedules must
meet at one point that the certificate confirms.
"""

import numpy as np

import nashsplit as ns
from nashsplit import solver
from nashsplit.model import SolverParams, validate_problem
from nashsplit.solver import IterState, tick


def kitchen_sink_game(ns=ns):
    """The game, built from the classes of ``ns``, a ``nashsplit`` package."""
    targets = np.array([0.5, -0.3])
    players = [
        ns.PlayerBlock(
            dim_strategy=2,
            dim_interaction=1,
            nonsmooth=ns.proximal.l1(0.5),
            smooth=ns.quadratic_smooth(0.5, [0.1, -0.2]),
            smooth_lipschitz=0.5,
            mix=ns.Dense([[1.0, 0.5]]),
            interaction_bound=1.0,
        ),
        ns.PlayerBlock(
            dim_strategy=1,
            dim_interaction=1,
            nonsmooth=ns.proximal.box([-1.0], [1.0]),
            smooth=ns.zero_smooth(),
            smooth_lipschitz=0.0,
            mix=ns.ScaledIdentity(1, 2.0),
            interaction_bound=1.0,
        ),
    ]
    couplings = [
        ns.CouplingBlock(
            1, ns.proximal.shifted_orthant([-0.5]), ns.zero_smooth(), 0.0,
            {0: ns.Dense([[0.3, -0.2]]), 1: ns.Dense([[1.0]])},
        ),
        ns.CouplingBlock(
            1, ns.proximal.zero(),
            ns.SmoothTerm(lambda z: 0.5 * float(z @ z), lambda z: np.array(z)),
            1.0,
            {0: ns.Dense([[1.0, 1.0]])},
        ),
    ]
    return ns.Game(players, ns.InteractionGradient(lambda y: y - targets, 1.0), couplings)


def test_kitchen_sink_unique_equilibrium_across_starts_and_schedules():
    game = kitchen_sink_game()
    assert validate_problem(game, samples=40, seed=0) == []

    params = SolverParams.for_game(game)
    base = ns.solve(game, params, ns.synchronous())
    assert base.status == "converged"
    assert base.certificate.max_residual <= params.tol
    x_base = np.concatenate(base.x)

    shifted = ns.solve(game, params, ns.synchronous(), x0=[[2.0, -1.5], [0.7]])
    assert shifted.status == "converged"
    assert np.linalg.norm(np.concatenate(shifted.x) - x_base) <= 1e-5

    async_params = SolverParams.for_game(game, max_lag=4, window=3)
    for seed in (0, 1, 2):
        sched = ns.randomized(seed=seed, activation_prob=0.5, max_lag=4, window=3)
        run = ns.solve(game, async_params, sched)
        assert run.status == "converged"
        assert np.linalg.norm(np.concatenate(run.x) - x_base) <= 1e-4

    # the orthant coupling dual must close on the nonpositive side
    assert base.v_star[0][0] <= 1e-9


def test_kitchen_sink_run_invariants():
    game = kitchen_sink_game()
    params = SolverParams.for_game(game)
    reference = ns.solve(game, params, ns.synchronous())
    ref_tuple = ns.equilibrium_tuple(game, reference.x, reference.v_star)

    state = IterState(game)
    prev = solver.tuple_distance(state.current_tuple(), ref_tuple)
    for _ in range(500):
        rep = tick(game, params, ns.synchronous(), state)
        # candidate feasibility for the box player, every tick
        assert -1.0 <= float(state.cand_a[1][0]) <= 1.0
        if rep.theta is not None:
            # separation w.r.t. the converged tuple (an equilibrium up to
            # the stopping tolerance)
            assert solver.candidate_gap(game, state, ref_tuple) <= 1e-6
        dist = solver.tuple_distance(state.current_tuple(), ref_tuple)
        assert dist <= prev + 1e-6
        prev = dist
