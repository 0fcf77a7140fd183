"""Solver mechanics: local steps, scalar test, projection update, runs."""

import dataclasses
import hashlib
import pickle
import re
from collections import Counter

import numpy as np
import pytest

import nashsplit as ns
from nashsplit import proximal, solver
from nashsplit.linops import Dense, Identity, LinOp
from nashsplit.model import (
    CouplingBlock,
    Game,
    InteractionGradient,
    PlayerBlock,
    SmoothTerm,
    SolverParams,
    quadratic_smooth,
    zero_smooth,
)
from nashsplit.problems import (
    build_quadratic_coupling,
    consensus_instance,
    lasso_instance,
    matching_pennies_instance,
    shared_constraint_instance,
)
from nashsplit.solver import (
    IterState,
    MissingHistoryError,
    NumericalAbortError,
    apply_update,
    assemble_duals,
    compute_pi,
    coupling_local_step,
    player_local_step,
    refresh_e,
    tick,
)

from _oracles import (consensus_reference_pieces, reference_run, reference_run_scheduled,
                      reference_tick)


def free_scalar_game(num_players=1):
    """Players with every function zero and an identity mix."""
    players = [
        PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0)
        for _ in range(num_players)
    ]
    return Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0))


def unit_params(**overrides):
    fields = dict(
        epsilon=0.01,
        eta=0.1,
        relaxation=1.0,
        strategy_steps=1.0,
        interaction_steps=1.0,
        player_dual_steps=1.0,
        coupling_steps=1.0,
        coupling_dual_steps=1.0,
    )
    fields.update(overrides)
    return SolverParams(**fields)


class TestPlayerLocalStep:
    def test_zero_functions_direct_substitution(self):
        game = free_scalar_game()
        state = IterState(game, x=[[1.0]], y=[[2.0]], u_star=[[3.0]])
        player_local_step(game, unit_params(), state, [0], {0: 0})
        assert state.cand_q[0] == np.array([5.0])
        assert state.cand_c_star[0] == np.array([2.0])
        assert state.cand_a[0] == np.array([-2.0])
        assert state.cand_s_star[0] == np.array([2.0])
        assert state.cand_c[0] == np.array([7.0])

    def test_equilibrium_is_fixed_point(self):
        game, _ = shared_constraint_instance()
        x_bar = [np.array([2.0]), np.array([3.0])]
        state = IterState(
            game,
            x=x_bar,
            y=x_bar,
            z=[[5.0]],
            u_star=[[1.0], [1.0]],
            v_star=[[-1.0]],
        )
        params = SolverParams.for_game(game)
        for i in range(2):
            player_local_step(game, params, state, [i], {i: 0})
            assert np.array_equal(state.cand_a[i], x_bar[i])
            assert np.array_equal(state.cand_c[i], np.zeros(1))

    def test_one_step_matches_reference_exactly(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        params = SolverParams.for_game(game)
        ref_players, qgrad = consensus_reference_pieces()
        for i, rp in enumerate(ref_players):
            rp.update(
                gamma=params.strategy_step(i, 0),
                mu=params.interaction_step(i, 0),
                sigma=params.player_dual_step(i, 0),
            )
        recs = reference_run(
            dict(x=[[0.0], [0.0]], y=[[0.0], [0.0]], z=[], u=[[0.0], [0.0]], v=[]),
            ref_players, [], qgrad, 1.8, 1,
        )
        state = IterState(game)
        rep = tick(game, params, ns.synchronous(), state)
        assert rep.pi == recs[0]["pi"]
        for i in range(2):
            assert np.array_equal(state.x[i], recs[0]["x"][i])

    def test_missing_history_raises(self):
        game = free_scalar_game()
        state = IterState(game, max_lag=0)
        params = unit_params()
        tick(game, params, ns.synchronous(), state)
        tick(game, params, ns.synchronous(), state)
        with pytest.raises(MissingHistoryError):
            player_local_step(game, params, state, [0], {0: 0})

    def test_steps_indexed_at_lag_time(self):
        game = free_scalar_game()

        def tick_dependent(i, n):
            return 0.5 if n == 0 else 0.25

        params = unit_params(strategy_steps=tick_dependent, max_lag=2)
        state = IterState(game, x=[[1.0]], y=[[2.0]], u_star=[[3.0]], max_lag=2)
        tick(game, params, ns.synchronous(), state)
        tick(game, params, ns.synchronous(), state)
        snap = state.snapshot_at(1)
        # reading tick 1 must use the schedule at tick 1, not the current tick
        player_local_step(game, params, state, [0], {0: 1})
        expected = snap.x[0] - 0.25 * snap.u_star[0]
        assert np.array_equal(state.cand_a[0], expected)
        player_local_step(game, params, state, [0], {0: 0})
        snap0 = state.snapshot_at(0)
        assert np.array_equal(state.cand_a[0], snap0.x[0] - 0.5 * snap0.u_star[0])


class TestCouplingLocalStep:
    def coupled_game(self, maps, num_couplings=1):
        players = [PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0)]
        coups = [CouplingBlock(1, proximal.zero(), zero_smooth(), 0.0, maps)] * num_couplings
        return Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), coups)

    def test_zero_functions_direct_substitution(self):
        game = self.coupled_game({})
        state = IterState(game, z=[[1.0]], v_star=[[2.0]])
        coupling_local_step(game, unit_params(), state, [0], {0: 0})
        assert state.cand_b[0] == np.array([3.0])      # b = d* under the zero term
        assert state.cand_e_star[0] == np.array([1.0])
        assert state.cand_b_star[0] == np.array([-1.0])

    def test_equilibrium_is_fixed_point(self):
        game, _ = shared_constraint_instance()
        state = IterState(
            game,
            x=[[2.0], [3.0]],
            y=[[2.0], [3.0]],
            z=[[5.0]],
            u_star=[[1.0], [1.0]],
            v_star=[[-1.0]],
        )
        params = SolverParams.for_game(game)
        coupling_local_step(game, params, state, [0], {0: 0})
        assert np.array_equal(state.cand_b[0], np.array([5.0]))
        assert np.array_equal(state.cand_b_star[0], np.zeros(1))
        assert np.array_equal(state.cand_e_star[0], np.array([-1.0]))

    def test_orthant_projection_in_step(self):
        players = [PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0)]
        coup = CouplingBlock(1, proximal.shifted_orthant([5.0]), zero_smooth(), 0.0, {})
        game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])
        state = IterState(game, z=[[4.2]], v_star=[[0.0]])
        coupling_local_step(game, unit_params(), state, [0], {0: 0})
        assert state.cand_b[0] == np.array([5.0])

    def test_two_couplings_at_different_lags_read_their_own_rows(self):
        # both couplings read player 0: at tick 0 x = 1, z = (1, 4), v* = (2, -1);
        # at tick 1 x = 3, z = (10, 5), v* = (20, 6)
        game = self.coupled_game({0: Identity(1)}, num_couplings=2)
        state = IterState(game, x=[[1.0]], z=[[1.0], [4.0]], v_star=[[2.0], [-1.0]], max_lag=1)
        state.x[0][:], state.z[0][:], state.z[1][:] = 3.0, 10.0, 5.0
        state.v_star[0][:], state.v_star[1][:] = 20.0, 6.0
        state._push_history(1)
        params = unit_params(coupling_steps=[0.5, 0.25], coupling_dual_steps=[1.0, 2.0])
        coupling_local_step(game, params, state, [0, 1], {0: 1, 1: 0})
        # coupling 0 at tick 1: b = 10 + 0.5 * 20, e* = 20 + (3 - 10), b* = -e*
        # coupling 1 at tick 0: b = 4 + 0.25 * -1, e* = -1 + 2 * (1 - 4), b* = -e*
        assert [b[0] for b in state.cand_b] == [20.0, 3.75]
        assert [e[0] for e in state.cand_e_star] == [13.0, -7.0]
        assert [b[0] for b in state.cand_b_star] == [-13.0, 7.0]


class TestRefreshAndDuals:
    def test_refresh_with_zero_candidates(self):
        game, _ = shared_constraint_instance()
        state = IterState(game)
        state.cand_b[0][:] = 7.5
        assert np.array_equal(refresh_e(game, state)[0], np.array([7.5]))

    def test_refresh_exact_cancellation(self):
        game, _ = shared_constraint_instance()
        state = IterState(game)
        state.cand_a[0][:] = 2.0
        state.cand_a[1][:] = 3.0
        state.cand_b[0][:] = 5.0
        assert np.array_equal(refresh_e(game, state)[0], np.zeros(1))

    def test_duals_without_couplings(self):
        game = free_scalar_game()
        state = IterState(game)
        state.cand_q[0][:] = 0.5
        state.cand_s_star[0][:] = 4.0
        state.cand_c_star[0][:] = 1.5
        a_star, q_star = assemble_duals(game, state)
        assert np.array_equal(a_star[0], np.array([4.0]))       # a* = s*
        assert np.array_equal(q_star[0], np.array([-1.5]))      # q* = -c*

    def test_duals_add_coupling_pullback(self):
        from nashsplit.model import CouplingBlock

        players = [PlayerBlock(2, 2, proximal.zero(), zero_smooth(), 0.0, Identity(2), 1.0)]
        coup = CouplingBlock(2, proximal.zero(), zero_smooth(), 0.0, {0: Identity(2)})
        game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])
        state = IterState(game)
        state.cand_s_star[0][:] = [1.0, 1.0]
        state.cand_e_star[0][:] = [1.0, 0.0]
        a_star, _ = assemble_duals(game, state)
        assert np.array_equal(a_star[0], np.array([2.0, 1.0]))

    def test_duals_vanish_at_equilibrium(self):
        game, _ = shared_constraint_instance()
        state = IterState(
            game, x=[[2.0], [3.0]], y=[[2.0], [3.0]], z=[[5.0]],
            u_star=[[1.0], [1.0]], v_star=[[-1.0]],
        )
        tick(game, SolverParams.for_game(game), ns.synchronous(), state)
        for i in range(2):
            assert np.array_equal(state.dual_a_star[i], np.zeros(1))
            assert np.array_equal(state.dual_q_star[i], np.zeros(1))


class TestScalarTestAndUpdate:
    def stage_scalar_toy(self):
        game = free_scalar_game()
        state = IterState(game)
        state.cand_a[0][:] = 1.0
        state.cand_s_star[0][:] = -2.0
        state.dual_a_star[0][:] = -2.0
        return game, state

    def test_pi_zero_for_coincident_caches(self):
        game = free_scalar_game(2)
        state = IterState(game, x=[[1.0], [2.0]], y=[[3.0], [4.0]])
        for cand, live in zip(state.cand_a + state.cand_q, state.x + state.y):
            cand[:] = live
        assert compute_pi(game, state) == 0.0

    def test_pi_single_inner_product(self):
        game, state = self.stage_scalar_toy()
        assert compute_pi(game, state) == -2.0

    def test_update_is_half_space_projection(self):
        game, state = self.stage_scalar_toy()
        compute_pi(game, state)
        pi, theta, step_norm = apply_update(game, state, unit_params())
        assert pi == -2.0
        assert theta == -0.5
        assert state.x[0] == np.array([1.0])   # projection of 0 onto [1, inf)
        assert step_norm == 1.0

    def test_nonnegative_pi_freezes_state(self):
        game = free_scalar_game()
        state = IterState(game, x=[[0.7]])
        state.cand_a[0][:] = 0.7
        compute_pi(game, state)
        pi, theta, step_norm = apply_update(game, state, unit_params())
        assert pi == 0.0 and theta is None and step_norm == 0.0
        assert state.x[0] == np.array([0.7])

    def test_nonfinite_pi_aborts(self):
        game, state = self.stage_scalar_toy()
        state.pi = float("nan")
        with pytest.raises(NumericalAbortError):
            apply_update(game, state, unit_params())

    def test_nan_gradient_abort_names_block(self):
        nan_grad = SmoothTerm(lambda x: 0.0, lambda x: np.full_like(x, np.nan))
        players = [
            PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0),
            PlayerBlock(1, 1, proximal.zero(), nan_grad, 0.0, Identity(1), 1.0),
        ]
        game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0))
        with pytest.raises(NumericalAbortError,
                           match=r"at tick 0: nan; first non-finite value: player 1, field a$"):
            tick(game, unit_params(), ns.synchronous(), IterState(game))

    def test_nan_coupling_gradient_abort_names_block(self):
        from nashsplit.model import CouplingBlock

        nan_grad = SmoothTerm(lambda z: 0.0, lambda z: np.full_like(z, np.nan))
        players = [PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0)]
        coup = CouplingBlock(1, proximal.zero(), nan_grad, 0.0, {0: Identity(1)})
        game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])
        with pytest.raises(NumericalAbortError,
                           match=r"at tick 0: nan; first non-finite value: coupling 0, field b$"):
            tick(game, unit_params(), ns.synchronous(), IterState(game))

    def test_update_requires_pi(self):
        game, state = self.stage_scalar_toy()
        with pytest.raises(RuntimeError):
            apply_update(game, state, unit_params())


class TestHistoryRing:
    @pytest.mark.parametrize("max_lag", [0, 3])
    def test_retains_exactly_the_last_max_lag_plus_one_ticks(self, max_lag):
        game, _ = shared_constraint_instance()
        params = SolverParams.for_game(game, max_lag=max_lag)
        state = IterState(game, max_lag=max_lag)
        seen = [state.current_tuple()]
        n = 9
        for _ in range(n):
            tick(game, params, ns.synchronous(), state)
            seen.append(state.current_tuple())
        for j in range(n - max_lag, n + 1):
            snap = state.snapshot_at(j)
            assert np.array_equal(snap.x[1], seen[j].x[1])
            assert np.array_equal(snap.v_star[0], seen[j].v_star[0])
        assert not np.array_equal(seen[n - 1].x[1], seen[n].x[1])
        for missing in (n - max_lag - 1, n + 1):
            with pytest.raises(MissingHistoryError):
                state.snapshot_at(missing)

    def test_snapshot_blocks_are_read_only(self):
        game, _ = shared_constraint_instance()
        snap = IterState(game).snapshot_at(0)
        with pytest.raises(ValueError):
            snap.x[0][0] = 1.0
        with pytest.raises(ValueError):
            snap.v_star[0][0] = 1.0

    def test_initial_blocks_are_copied_in(self):
        game, _ = shared_constraint_instance()
        x0 = [np.array([4.0]), np.array([1.0])]
        y0 = [np.array([0.5]), np.array([2.5])]
        kept = [b.copy() for b in x0 + y0]
        state = IterState(game, x=x0, y=y0)
        for _ in range(5):
            tick(game, SolverParams.for_game(game), ns.synchronous(), state)
        assert not np.array_equal(state.x[0], kept[0])
        for given, before in zip(x0 + y0, kept):
            assert np.array_equal(given, before)

    @staticmethod
    def _counting_lasso(reads):
        """A lasso game whose interaction gradient keeps each ``y`` of a history row it is
        evaluated at: the read-only ones, which only the player step passes."""
        rng = np.random.default_rng(5)
        game, _ = lasso_instance(rng.standard_normal((3, 5)), rng.standard_normal(3), 0.5)
        evaluate = game.interaction.eval

        def counting(y):
            if not y.flags.writeable:
                reads.append(y.copy())
            return evaluate(y)

        return dataclasses.replace(game, interaction=dataclasses.replace(game.interaction,
                                                                         eval=counting))

    def test_interaction_gradient_is_evaluated_once_per_history_row(self):
        reads = []
        game = self._counting_lasso(reads)
        params = SolverParams.for_game(game, max_lag=3, window=10)
        schedule = ns.randomized(seed=2, activation_prob=0.3, max_lag=3, window=10)
        state = IterState(game, max_lag=3)
        seen, again = set(), 0
        for _ in range(300):
            before = len(reads)
            rep = tick(game, params, schedule, state)
            lags = {rep.player_lags[i] for i in rep.active_players}
            assert len(reads) - before == len(lags - seen)     # the rows first read this tick
            again += len(lags & seen)
            seen |= lags
        assert again > 100      # rows read again, from their memo

    def test_write_into_y_between_ticks_reaches_the_lag_zero_gradient(self):
        # the gradient of the row of the next tick is already held when y
        # is written; the tick's own push must drop it
        reads = []
        game = self._counting_lasso(reads)
        params = SolverParams.for_game(game, max_lag=3)
        states = [IterState(game, max_lag=3) for _ in range(2)]
        for state in states:
            tick(game, params, ns.synchronous(), state)
        states[0].lagged_interaction_grad(states[0].n)
        for state in states:
            state.y[1][:] += 1.0
            written = state.flat[game.y_span].copy()
            tick(game, params, ns.synchronous(), state)
            assert np.array_equal(reads[-1], written)
        assert states[0].point.tobytes() == states[1].point.tobytes()
        assert states[0].flat.tobytes() == states[1].flat.tobytes()

    @pytest.mark.parametrize("max_lag", [-1, 1.5, True, "2", None])
    def test_max_lag_must_be_a_nonnegative_integer(self, max_lag):
        game, _ = shared_constraint_instance()
        with pytest.raises(ValueError, match=r"max_lag must be a nonnegative integer"):
            IterState(game, max_lag=max_lag)

    def test_numpy_integer_max_lag_is_accepted(self):
        game, _ = shared_constraint_instance()
        state = IterState(game, max_lag=np.int64(2))
        assert len(state._ring) == 3

    def test_the_ring_grows_with_the_run_not_with_its_lag_bound(self):
        # rows are reserved as ticks reach them, doubling, and tick t stays at row t
        game, _ = shared_constraint_instance()
        params = SolverParams.for_game(game, max_iters=300)
        state = IterState(game, max_lag=2**40)
        assert len(state._ring) == 256
        sched = ns.randomized(3, 0.5, max_lag=2**40, window=8)
        result = ns.solve(game, params, sched, state=state, stall_window=0)
        assert result.ticks == 300 and len(state._ring) == 512
        assert state._ring_stamps[:301] == list(range(301))
        assert len(IterState(game, max_lag=299)._ring) == 256
        grown = IterState(game, max_lag=299)
        for _ in range(299):
            tick(game, params, ns.synchronous(), grown)
        assert len(grown._ring) == 300      # doubled up to the lag bound, not past it


class TestIterStateLayout:
    def test_rebinding_a_view_raises(self):
        game, _ = shared_constraint_instance()
        state = IterState(game)
        for name in ("x", "v_star", "cand_a", "dual_q_star", "cand_s_star", "flat"):
            with pytest.raises(AttributeError, match=rf"IterState\.{name}\b.*write into it"):
                setattr(state, name, [np.zeros(1), np.zeros(1)])
        with pytest.raises(AttributeError, match=r"state\.cand_e\[i\]\[:\] = "):
            state.cand_e = (np.zeros(1),)
        state.cand_a[0][:] = 1.0
        state.dual_a_star[0][:] = -1.0
        assert compute_pi(game, state) == -1.0   # writes into the views are seen
        state.n = 3                              # plain attributes stay assignable
        assert state.n == 3


class TestTick:
    def test_a_state_for_another_game_is_refused(self):
        # the same layout (the interaction gradient tripled), whose lagged
        # gradients the state would take from its own game, and another layout
        game, _ = consensus_instance([(2, 3), (0, 1)])
        tripled = Game(game.players, InteractionGradient(
            lambda y: 3.0 * game.interaction.eval(y), 3.0 * game.interaction.lipschitz))
        wider, _ = consensus_instance([(2, 3), (0, 1), (-1, 1)])
        params = SolverParams.for_game(game)
        for other in (tripled, wider):
            state = IterState(other)
            with pytest.raises(ValueError, match=r"state was built for another game"):
                tick(game, params, ns.synchronous(), state)
            with pytest.raises(ValueError, match=r"state was built for another game"):
                ns.solve(game, params, ns.synchronous(), state=state, validate=False)
            assert state.n == 0

    def test_synchronous_matches_reference_bitwise(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        params = SolverParams.for_game(game)
        ref_players, qgrad = consensus_reference_pieces()
        for i, rp in enumerate(ref_players):
            rp.update(
                gamma=params.strategy_step(i, 0),
                mu=params.interaction_step(i, 0),
                sigma=params.player_dual_step(i, 0),
            )
        recs = reference_run(
            dict(x=[[0.0], [0.0]], y=[[0.0], [0.0]], z=[], u=[[0.0], [0.0]], v=[]),
            ref_players, [], qgrad, 1.8, 50,
        )
        state = IterState(game)
        for n in range(50):
            rep = tick(game, params, ns.synchronous(), state)
            r = recs[n]
            assert rep.pi == r["pi"] and rep.theta == r["theta"]
            for i in range(2):
                assert np.array_equal(state.x[i], r["x"][i])
                assert np.array_equal(state.y[i], r["y"][i])
                assert np.array_equal(state.u_star[i], r["u"][i])

    def test_shared_constraint_run_matches_reference_exactly(self):
        game, _ = shared_constraint_instance()
        params = SolverParams.for_game(game)

        def clamp_box(g, v):
            return np.minimum(np.maximum(v, 0.0), 10.0)

        def orthant(g, v):
            return np.maximum(v, 5.0)

        def zero_grad(v):
            return np.zeros_like(v)

        targets = np.array([1.0, 2.0])
        ref_players = [
            {"prox": clamp_box, "grad": zero_grad, "mix": None,
             "gamma": params.strategy_step(i, 0),
             "mu": params.interaction_step(i, 0),
             "sigma": params.player_dual_step(i, 0)}
            for i in range(2)
        ]
        ref_coups = [{
            "prox": orthant, "grad": zero_grad,
            "maps": {0: np.array([[1.0]]), 1: np.array([[1.0]])},
            "nu": params.coupling_step(0, 0),
            "rho": params.coupling_dual_step(0, 0),
        }]
        recs = reference_run(
            dict(x=[[0.0], [0.0]], y=[[0.0], [0.0]], z=[[0.0]],
                 u=[[0.0], [0.0]], v=[[0.0]]),
            ref_players, ref_coups, lambda y: y - targets, 1.8, 60,
        )
        state = IterState(game)
        for n in range(60):
            rep = tick(game, params, ns.synchronous(), state)
            r = recs[n]
            assert rep.pi == r["pi"] and rep.theta == r["theta"]
            for i in range(2):
                assert np.array_equal(state.x[i], r["x"][i])
                assert np.array_equal(state.cand_a[i], r["a"][i])
            assert np.array_equal(state.z[0], r["z"][0])
            assert np.array_equal(state.v_star[0], r["v"][0])
            assert np.array_equal(state.cand_b[0], r["b"][0])
            assert np.array_equal(state.cand_e[0], r["e"][0])
            assert np.array_equal(state.cand_e_star[0], r["e_star"][0])
            assert np.array_equal(state.cand_b_star[0], r["b_star"][0])

    def test_async_lagged_run_matches_scheduled_reference_exactly(self):
        # tick-varying steps make any lag-indexing or carry-forward slip
        # visible; the recorded schedule is replayed through a second,
        # independently written lagged transcription
        game, _ = shared_constraint_instance()

        def gamma(i, n):
            return (1.0 / 0.1) * (0.8 + 0.2 * ((n + i) % 2))

        def mu(i, n):
            return (1.0 / 1.1) * (0.7 + 0.3 * (n % 3) / 2.0)

        def sigma(i, n):
            return 0.9 + 0.1 * ((n + i) % 2)

        def nu(k, n):
            return (1.0 / 0.1) * (0.75 + 0.25 * (n % 2))

        def rho(k, n):
            return 1.0 - 0.05 * (n % 4)

        def lam(n):
            return 1.8 - 0.2 * (n % 2)

        params = SolverParams(
            epsilon=0.01, eta=0.1, max_lag=3, window=2, relaxation=lam,
            strategy_steps=gamma, interaction_steps=mu, player_dual_steps=sigma,
            coupling_steps=nu, coupling_dual_steps=rho,
        )
        schedule = ns.randomized(seed=13, activation_prob=0.4, max_lag=3, window=2)
        state = IterState(game, max_lag=3)
        reports = [tick(game, params, schedule, state) for _ in range(40)]

        def clamp_box(g, v):
            return np.minimum(np.maximum(v, 0.0), 10.0)

        def orthant(g, v):
            return np.maximum(v, 5.0)

        def zero_grad(v):
            return np.zeros_like(v)

        targets = np.array([1.0, 2.0])
        ref_players = [
            {"prox": clamp_box, "grad": zero_grad, "mix": None,
             "gamma": gamma, "mu": mu, "sigma": sigma}
            for _ in range(2)
        ]
        ref_coups = [{
            "prox": orthant, "grad": zero_grad,
            "maps": {0: np.array([[1.0]]), 1: np.array([[1.0]])},
            "nu": nu, "rho": rho,
        }]
        ticks_info = [
            {"active_players": rep.active_players,
             "active_couplings": rep.active_couplings,
             "player_lags": rep.player_lags,
             "coupling_lags": rep.coupling_lags}
            for rep in reports
        ]
        recs = reference_run_scheduled(
            dict(x=[[0.0], [0.0]], y=[[0.0], [0.0]], z=[[0.0]],
                 u=[[0.0], [0.0]], v=[[0.0]]),
            ref_players, ref_coups, lambda y: y - targets, lam, ticks_info, max_lag=3,
        )
        for rep, r in zip(reports, recs):
            assert rep.pi == r["pi"] and rep.theta == r["theta"], rep.n
        final = recs[-1]
        for i in range(2):
            assert np.array_equal(state.x[i], final["x"][i])
            assert np.array_equal(state.y[i], final["y"][i])
            assert np.array_equal(state.u_star[i], final["u"][i])
        assert np.array_equal(state.z[0], final["z"][0])
        assert np.array_equal(state.v_star[0], final["v"][0])

    def test_exact_equilibrium_freezes_forever(self):
        game, _ = shared_constraint_instance()
        state = IterState(
            game, x=[[2.0], [3.0]], y=[[2.0], [3.0]], z=[[5.0]],
            u_star=[[1.0], [1.0]], v_star=[[-1.0]],
        )
        params = SolverParams.for_game(game)
        for _ in range(10):
            rep = tick(game, params, ns.synchronous(), state)
            assert rep.pi == 0.0 and rep.theta is None
        assert np.array_equal(state.x[0], np.array([2.0]))
        assert np.array_equal(state.x[1], np.array([3.0]))
        assert np.array_equal(state.v_star[0], np.array([-1.0]))
        assert rep.kkt_residual == 0.0

    def test_empty_couplings_pi_reduces_to_player_sums(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        state = IterState(game)
        before = state.current_tuple()
        rep = tick(game, SolverParams.for_game(game), ns.synchronous(), state)
        manual = 0.0
        for i in range(2):
            manual += (
                float(np.dot(state.cand_a[i] - before[0][i], state.dual_a_star[i]))
                + float(np.dot(state.cand_q[i] - before[1][i], state.dual_q_star[i]))
                + float(np.dot(state.cand_c[i], state.cand_c_star[i] - before[3][i]))
            )
        assert rep.pi == manual

    def test_step_direction_identity(self):
        # <x_{n+1} - x_n, dual candidate> = relaxation * pi for every updating tick
        game, _ = consensus_instance([(2, 3), (0, 1)])
        params = SolverParams.for_game(game)
        state = IterState(game)
        for n in range(40):
            before = state.current_tuple()
            rep = tick(game, params, ns.synchronous(), state)
            if rep.theta is None:
                continue
            after = state.current_tuple()
            moved = 0.0
            duals = (state.dual_a_star, state.dual_q_star, None, state.cand_c, None)
            for i in range(2):
                moved += float(np.dot(after[0][i] - before[0][i], state.dual_a_star[i]))
                moved += float(np.dot(after[1][i] - before[1][i], state.dual_q_star[i]))
                moved += float(np.dot(after[3][i] - before[3][i], state.cand_c[i]))
            assert abs(moved - params.relaxation_at(n) * rep.pi) <= 1e-12 * (1 + abs(rep.pi))
            assert rep.theta < 0.0 and rep.pi < 0.0


class TestSolve:
    def test_consensus_reaches_oracle_equilibrium(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        result = ns.solve(game, SolverParams.for_game(game), ns.synchronous())
        assert result.status == "converged"
        x = np.concatenate(result.x)
        assert np.linalg.norm(x - np.array([2.0, 1.0])) <= 1e-5

    def test_shared_constraint_equilibrium_and_dual(self):
        game, _ = shared_constraint_instance()
        result = ns.solve(game, SolverParams.for_game(game), ns.synchronous())
        assert result.status == "converged"
        x = np.concatenate(result.x)
        assert np.linalg.norm(x - np.array([2.0, 3.0])) <= 1e-5
        # the orthant multiplier is the negated coupling dual
        assert abs(-result.v_star[0][0] - 1.0) <= 1e-4

    def test_matching_pennies_mixed_equilibrium(self):
        game, meta = matching_pennies_instance()
        result = ns.solve(game, SolverParams.for_game(game), ns.synchronous())
        assert result.status == "converged"
        for block, target in zip(result.x, meta.equilibrium):
            assert np.linalg.norm(block - target) <= 1e-4

    def test_async_schedules_agree_with_synchronous(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        params = ns.SolverParams.for_game(game, max_lag=5, window=4)
        sync_x = np.concatenate(ns.solve(game, params, ns.synchronous()).x)
        for seed in (0, 1):
            sched = ns.randomized(seed=seed, activation_prob=0.5, max_lag=5, window=4)
            async_x = np.concatenate(ns.solve(game, params, sched).x)
            assert np.linalg.norm(async_x - sync_x) <= 1e-4
        cyc = ns.cyclic(block_size=1, window=1)
        cyc_x = np.concatenate(ns.solve(game, params, cyc).x)
        assert np.linalg.norm(cyc_x - sync_x) <= 1e-4

    def test_warm_start_from_near_equilibrium(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        params = SolverParams.for_game(game)
        cold = ns.solve(game, params, ns.synchronous())
        warm = ns.solve(game, params, ns.synchronous(), x0=[[1.999], [1.001]])
        assert warm.status == "converged"
        assert warm.ticks < cold.ticks
        assert np.linalg.norm(np.concatenate(warm.x) - [2.0, 1.0]) <= 1e-5

    def test_custom_resolvent_terms_solve_identically(self):
        # set-valued interface: the l1 term supplied as a bare resolvent
        rng = np.random.default_rng(17)
        a_mat = rng.standard_normal((3, 3))
        b_vec = rng.standard_normal(3)
        from nashsplit.problems import build_minimization, lasso_instance

        reference_game, meta = lasso_instance(a_mat, b_vec, 1.0)

        def soft(gamma, v):
            return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)

        custom_game, _ = build_minimization(
            [proximal.custom_resolvent(soft, value=lambda v: float(np.sum(np.abs(v))))
             for _ in range(3)],
            joint_grad=lambda y: a_mat.T @ (a_mat @ y - b_vec),
            joint_lipschitz=float(np.linalg.norm(a_mat, 2) ** 2),
        )
        params = SolverParams.for_game(reference_game)
        ref = ns.solve(reference_game, params, ns.synchronous())
        got = ns.solve(custom_game, params, ns.synchronous())
        assert got.status == "converged"
        assert np.array_equal(np.concatenate(got.x), np.concatenate(ref.x))

    def test_validation_gate(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        bad = SolverParams.for_game(game, epsilon=0.9)
        with pytest.raises(ValueError, match="validation failed"):
            ns.solve(game, bad, ns.synchronous())

    def test_the_schedule_alone_sets_the_history_depth(self):
        # params.max_lag and window are read by nothing: the schedule sizes the ring
        game, _ = consensus_instance([(2, 3), (0, 1)])
        sched = ns.randomized(seed=0, activation_prob=0.5, max_lag=3, window=2)
        bare = ns.solve(game, SolverParams.for_game(game), sched)
        lagged = ns.solve(game, SolverParams.for_game(game, max_lag=3, window=2), sched)
        assert bare.status == "converged"
        assert pickle.dumps(bare) == pickle.dumps(lagged)

    def test_a_huge_lag_bound_runs_on_a_history_of_max_iters(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        sched = ns.randomized(seed=0, activation_prob=0.5, max_lag=2**40, window=2)
        result = ns.solve(game, SolverParams.for_game(game, max_iters=50), sched)
        assert result.status == "max_iters" and result.ticks == 50
        # lags are drawn from all of the run's past, so reads reach far back
        assert max(rep.n - t for rep in result.reports for t in rep.player_lags.values()) > 25

    def test_lags_past_the_first_ring_rows_keep_their_bits(self):
        # pinned on the ring that held all max_lag + 1 rows from the start: a
        # run whose ring grows while its lags read back past row 256
        game, _ = shared_constraint_instance((1.0, 2.0, 4.0), 9.0)
        params = SolverParams.for_game(game, max_iters=600, tol=1e-300)
        sched = ns.randomized(11, 0.5, max_lag=400, window=8)
        result = ns.solve(game, params, sched, stall_window=0)
        digest, lags = hashlib.sha256(str(result.ticks).encode()), []
        for rep in result.reports:
            digest.update(f"{rep.pi.hex()} {rep.kkt_residual.hex()}".encode())
            lags += [rep.n - t for t in rep.player_lags.values()]
        for group in (result.x, result.y, result.z, result.u_star, result.v_star):
            for block in group:
                digest.update(block.tobytes())
        assert result.ticks == 600 and max(lags) > 256
        assert digest.hexdigest() == "684da3115e192dce5df17bc3a83bc9055fe8e97c09f28df110434e8c0597f2f2"

    def test_warm_start_state_must_hold_the_schedule_lags(self):
        # the run reads the history ring of the state it is given, so that
        # ring, not params.max_lag, must be as deep as the schedule's lags
        game, _ = shared_constraint_instance()
        params = SolverParams.for_game(game, max_lag=5, window=4, max_iters=300)
        sched = ns.randomized(7, 0.5, max_lag=5, window=4)
        with pytest.raises(ValueError, match="exceed the retained history"):
            ns.solve(game, params, sched, state=IterState(game, x=[[1.0], [2.0]]))
        warm = ns.solve(game, params, sched, state=IterState(game, x=[[1.0], [2.0]], max_lag=5))
        cold = ns.solve(game, params, sched, x0=[[1.0], [2.0]])
        assert warm.ticks == cold.ticks == 300
        assert np.array_equal(np.concatenate(warm.x), np.concatenate(cold.x))

    def test_stagnation_reported(self):
        # With a well-posed game a frozen state is provably a certified
        # solution, so persistent stagnation can only come from a breach of
        # the hypotheses; an inconsistent user resolvent is the honest way
        # to trigger the report.
        def shifty(gamma, v):
            return v if gamma > 1.0 else v + 1.0

        players = [
            PlayerBlock(1, 1, proximal.custom_resolvent(shifty), zero_smooth(), 0.0,
                        Identity(1), 1.0)
        ]
        game = Game(players, InteractionGradient(lambda y: np.array(y), 1.0))
        params = ns.SolverParams(
            epsilon=0.01, eta=0.1, strategy_steps=5.0, interaction_steps=0.5,
            player_dual_steps=1.0, relaxation=1.8, tol=1e-8,
        )
        # from zeros: the solver's candidates coincide with the iterate (the
        # gamma > 1 branch acts as the identity) while the unit-step
        # certificate sees the shifted branch, so the run is frozen yet
        # uncertified
        result = ns.solve(game, params, ns.synchronous(),
                          stall_window=25, validate=False)
        assert result.status == "stagnated"
        assert result.ticks <= 30
        assert result.certificate.max_residual > params.tol


class TestSummability:
    def test_squared_steps_die_out_on_every_shipped_instance(self):
        import nashsplit.problems as problems

        rng = np.random.default_rng(21)
        instances = [
            consensus_instance([(2, 3), (0, 1)])[0],
            matching_pennies_instance()[0],
            shared_constraint_instance()[0],
            problems.lasso_instance(rng.standard_normal((3, 3)), rng.standard_normal(3), 1.0)[0],
        ]
        for game in instances:
            params = SolverParams.for_game(game)
            state = IterState(game)
            steps = []
            for _ in range(5000):
                steps.append(tick(game, params, ns.synchronous(), state).step_norm)
            head = sum(s * s for s in steps[:500])
            tail = sum(s * s for s in steps[-500:])
            assert head > 0.0
            assert tail <= 0.01 * head


class TestRunInvariants:
    def run_with_invariants(self, game, reference, schedule, params, n_ticks=400):
        state = IterState(game, max_lag=params.max_lag)
        prev = solver.tuple_distance(state.current_tuple(), reference)
        worst_gap, worst_rise = -np.inf, -np.inf
        for _ in range(n_ticks):
            rep = tick(game, params, schedule, state)
            if rep.theta is not None:
                worst_gap = max(worst_gap, solver.candidate_gap(game, state, reference))
            dist = solver.tuple_distance(state.current_tuple(), reference)
            worst_rise = max(worst_rise, dist - prev)
            prev = dist
            for i, p in enumerate(game.players):
                if proximal.is_indicator(p.nonsmooth):
                    proj = proximal.prox(p.nonsmooth, 1.0, state.cand_a[i])
                    assert np.linalg.norm(state.cand_a[i] - proj) <= 1e-12
        return worst_gap, worst_rise

    @pytest.mark.parametrize("seed", [None, 3])
    def test_separation_fejer_feasibility(self, seed):
        game, _ = shared_constraint_instance()
        exact = ns.quadratic_game_exact(game)
        reference = ns.equilibrium_tuple(game, exact.x, exact.v_star)
        if seed is None:
            schedule = ns.synchronous()
            params = SolverParams.for_game(game)
        else:
            schedule = ns.randomized(seed=seed, activation_prob=0.5, max_lag=5, window=4)
            params = SolverParams.for_game(game, max_lag=5, window=4)
        worst_gap, worst_rise = self.run_with_invariants(game, reference, schedule, params)
        assert worst_gap <= 1e-8
        assert worst_rise <= 1e-10


@pytest.mark.parametrize("t1, t2, message", [
    ((([1.0], [2.0]),), (([1.0],),), "group 0: block shapes [(1,), (1,)] and [(1,)] differ"),
    ((([1.0],), ([2.0],)), (([1.0],),), "tuples of 2 and 1 groups"),
    ((([1.0],), ([2.0],)), (([1.0],), ([2.0, 0.0],)), "group 1: block shapes [(1,)] and [(2,)]"),
], ids=["blocks", "groups", "shapes"])
def test_tuple_distance_refuses_tuples_of_other_layouts(t1, t2, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        solver.tuple_distance(t1, t2)


def test_candidate_gap_refuses_a_reference_of_another_size():
    game, _ = shared_constraint_instance()
    state = IterState(game)
    with pytest.raises(ValueError, match=re.escape("reference: expected 8 entries, got shape (1,)")):
        solver.candidate_gap(game, state, (([1.0],),))


class TestCertificateReuse:
    """The per-tick certificate is re-evaluated only when the iterate changed."""

    def test_certificate_evaluated_once_per_moved_iterate(self, monkeypatch):
        from nashsplit.problems import lasso_instance

        rng = np.random.default_rng(5)
        game, _ = lasso_instance(rng.standard_normal((3, 5)), rng.standard_normal(3), 0.5)
        params = SolverParams.for_game(game, max_lag=3, window=10)
        schedule = ns.randomized(seed=2, activation_prob=0.2, max_lag=3, window=10)
        fresh = solver.oracle.check_equilibrium
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return fresh(*args, **kwargs)

        monkeypatch.setattr(solver.oracle, "check_equilibrium", counting)
        result = ns.solve(game, params, schedule)
        assert result.status == "converged"
        moved = sum(r.theta is not None for r in result.reports[1:])
        assert moved < len(result.reports) - 1      # some ticks left the iterate in place
        assert len(calls) == 1 + moved + 1           # tick 0, moved ticks, closing certificate

    def test_reported_residual_equals_fresh_certificate(self):
        game, _ = shared_constraint_instance()
        params = SolverParams.for_game(game, max_lag=5, window=4)
        schedule = ns.randomized(seed=3, activation_prob=0.5, max_lag=5, window=4)
        state = IterState(game, max_lag=5)
        frozen = 0
        for _ in range(400):
            rep = tick(game, params, schedule, state)
            frozen += rep.theta is None
            fresh = ns.check_equilibrium(game, state.x, state.u_star, state.v_star)
            assert rep.kkt_residual == fresh.max_residual
        assert frozen > 0

    def test_write_into_iterate_is_certified_afresh(self):
        # the write lands in player 0, which the next cyclic tick leaves
        # inactive; player 1 sits at its best response, so p* vanishes, the
        # scalar test is 0 and the written value stays in place, yet the
        # certificate, keyed on the iterate's bytes, must be evaluated anew
        game, _ = consensus_instance([(2, 3), (0, 1)])
        state = IterState(game, x=[[2.0], [1.0]], y=[[2.0], [1.0]], u_star=[[1.0], [-1.0]])
        params = SolverParams.for_game(game, window=1)
        schedule = ns.cyclic(block_size=1, window=1)
        assert tick(game, params, schedule, state).kkt_residual == 0.0
        state.x[0][:] = 2.5
        rep = tick(game, params, schedule, state)
        assert rep.active_players == (1,)
        assert rep.pi == 0.0 and rep.theta is None
        assert np.array_equal(state.x[0], np.array([2.5]))
        fresh = ns.check_equilibrium(game, state.x, state.u_star, state.v_star).max_residual
        assert fresh == 0.5
        assert rep.kkt_residual == fresh

    def test_write_into_iterate_reaches_next_local_steps(self):
        # the tick pushes its own history row, so the local steps read the
        # written value and the projection moves the iterate off it
        game, _ = shared_constraint_instance()
        state = IterState(
            game, x=[[2.0], [3.0]], y=[[2.0], [3.0]], z=[[5.0]],
            u_star=[[1.0], [1.0]], v_star=[[-1.0]],
        )
        params = SolverParams.for_game(game)
        assert tick(game, params, ns.synchronous(), state).kkt_residual == 0.0
        state.x[0][:] = 2.5
        rep = tick(game, params, ns.synchronous(), state)
        assert rep.pi < 0.0 and rep.theta is not None
        assert not np.array_equal(state.x[0], np.array([2.5]))


def _lasso_4x8():
    rng = np.random.default_rng(2)
    return lasso_instance(rng.standard_normal((4, 8)) / 2.0, rng.standard_normal(4), 0.5)[0]


def _consensus_10():
    centres = np.linspace(-1.5, 1.5, 10)
    return consensus_instance([(c - 0.5, c + 0.5) for c in centres])[0]


def _quadratic_width_2():
    # mismatch terms with several neighbours, on an interaction width of 2
    return build_quadratic_coupling(
        [2, 2, 2],
        [proximal.box([-1, -1], [1, 1]), None, proximal.box([0, 0], [2, 2])],
        [[(1.0, {1: 0.5, 2: 0.25})], [(2.0, {0: 1.0})], [(1.5, {0: 0.5}), (0.5, {1: 1.0})]],
        interaction_dim=2,
    )[0]


@pytest.mark.parametrize("build, schedule, expected", [
    (_lasso_4x8, ns.randomized(0, 0.1, max_lag=3, window=20),
     "a4ef6b2930772a823744bc383ba7cdab229ca4d7b306d4306f0e8189506d92fa"),
    (lambda: shared_constraint_instance()[0], ns.randomized(0, 0.5, max_lag=5, window=8),
     "4d38a265c507c267838bb89372b6d50000ee0e067bc06d7841c9843f7ef7fe07"),
    (_consensus_10, ns.synchronous(),
     "aea4a7806ff25e766f46674a2d052c2c36fcb560727581de47f6618c81df2c57"),
    (lambda: matching_pennies_instance(((2.0, -1.0), (-1.0, 1.0)))[0],
     ns.randomized(3, 0.5, max_lag=2, window=6),
     "90c52b61ea8b62f50408f45c43507b627ccf52d9a5e7e8b313e582e5ce2e7450"),
    (_quadratic_width_2, ns.randomized(4, 0.5, max_lag=2, window=6),
     "376995280c81cb6ba231a8146ffa58578730f8d69f03d455b58a1ee9e3971b69"),
], ids=["lasso-4x8-p0.1", "shared-p0.5", "consensus-10-sync", "pennies-p0.5",
        "quadratic-width-2-p0.5"])
def test_trajectories_are_stable_across_versions(build, schedule, expected):
    # pinned hashes of the first 300 ticks on one-entry blocks, where every
    # rewrite of the tick's bookkeeping must reproduce each float exactly
    game = build()
    params = SolverParams.for_game(game, max_lag=schedule.max_lag, window=schedule.window)
    state = IterState(game, max_lag=schedule.max_lag)
    digest = hashlib.sha256()
    for _ in range(300):
        r = tick(game, params, schedule, state)
        digest.update(repr((r.n, r.pi, r.theta, r.step_norm, r.kkt_residual)).encode())
    assert digest.hexdigest() == expected


class _Meter:
    """Operator-call counts by key, paused while ``on`` is false."""

    def __init__(self):
        self.counts, self.on = Counter(), True

    def hit(self, key):
        self.counts[key] += self.on

    def counted(self, fn, key):
        def wrapper(*args, **kwargs):
            self.hit(key)
            return fn(*args, **kwargs)
        return wrapper


class _CountingOp(LinOp):
    """Delegates to ``inner`` and counts its calls under ``(method, owner)``."""

    def __init__(self, inner, owner, meter):
        self.inner, self.owner, self.meter = inner, owner, meter
        self.in_dim, self.out_dim = inner.in_dim, inner.out_dim

    def apply(self, x):
        self.meter.hit(("apply", self.owner))
        return self.inner.apply(x)

    def adjoint_apply(self, y):
        self.meter.hit(("adjoint_apply", self.owner))
        return self.inner.adjoint_apply(y)


def _metered_players(meter, declared: bool):
    """Three boxed one-entry players whose gradients count their calls: with
    ``declared``, ``Identity`` mixes and declared zero smooth terms, otherwise
    counting mixes (not an ``Identity``) and hand-made smooth terms."""
    if declared:
        return [PlayerBlock(1, 1, proximal.box([-5.0], [5.0]),
                            dataclasses.replace(zero_smooth(),
                                                grad=meter.counted(zero_smooth().grad, ("grad", i))),
                            0.0, Identity(1), 1.0)
                for i in range(3)]
    return [PlayerBlock(1, 1, proximal.box([-5.0], [5.0]),
                        SmoothTerm(lambda x: 0.5 * float(x @ x), meter.counted(lambda x: x, ("grad", i))),
                        1.0, _CountingOp(Identity(1), ("mix", i), meter), 1.0)
            for i in range(3)]


def test_inactive_blocks_do_no_operator_work(monkeypatch):
    # players 0 and 1 share a constraint, player 1 has one of its own and
    # player 2 is uncoupled; every operator counts its calls, except inside
    # the per-tick certificate, which evaluates every block by design. The
    # player step makes one prox call per active player, calls the smooth
    # gradients and mixes of the active players only, pulls back for the
    # active coupled players only, and leaves the entries of the inactive
    # players as they were
    _check_inactive_blocks_idle(monkeypatch, declared=False)


def test_inactive_stacked_players_do_no_operator_work(monkeypatch):
    # the game above with Identity mixes and declared zero smooth terms: no
    # smooth gradient and no mix is called (both are known from their
    # declarations), and the rest of the work is as above
    _check_inactive_blocks_idle(monkeypatch, declared=True)


def _check_inactive_blocks_idle(monkeypatch, declared: bool):
    meter = _Meter()
    counts = meter.counts
    targets = np.array([1.0, 2.0, -1.0])
    couplings = [
        CouplingBlock(1, proximal.shifted_orthant([bound]),
                      SmoothTerm(lambda z: 0.0, meter.counted(np.zeros_like, ("coupling grad", k))), 0.0,
                      {i: _CountingOp(Identity(1), ("map", k, i), meter) for i in members})
        for k, (bound, members) in enumerate(((4.0, (0, 1)), (-4.0, (1,))))
    ]
    game = Game(_metered_players(meter, declared), InteractionGradient(lambda y: y - targets, 1.0),
                couplings)
    assert game.mixed_players == game.smooth_players == (() if declared else (0, 1, 2))
    params = SolverParams.for_game(game, max_lag=2, window=4)
    schedule = ns.randomized(3, 0.5, max_lag=2, window=4)
    state = IterState(game, max_lag=2)

    certify = solver.oracle.check_equilibrium

    def uncounted_certificate(*args, **kwargs):
        meter.on = False
        try:
            return certify(*args, **kwargs)
        finally:
            meter.on = True

    monkeypatch.setattr(solver.oracle, "check_equilibrium", uncounted_certificate)
    monkeypatch.setattr(solver, "prox", meter.counted(solver.prox, "prox"))

    # the entries that a player's local step writes: a, q and c* of the
    # point, c of the direction, and s*
    xs, ys, us = game.state_slices.x, game.state_slices.y, game.state_slices.u_star

    def written(i):
        return (state.point[xs[i]].tobytes(), state.point[ys[i]].tobytes(),
                state.point[us[i]].tobytes(), state.direction[us[i]].tobytes(),
                state.s_star[xs[i]].tobytes())

    idle_players, idle_couplings = set(), set()
    for _ in range(30):
        counts.clear()
        before = [written(i) for i in range(3)]
        rep = tick(game, params, schedule, state)
        active = set(rep.active_players)
        idle_players |= set(range(3)) - active
        idle_couplings |= {0, 1} - set(rep.active_couplings)
        assert counts["prox"] == len(active) + len(rep.active_couplings)
        for k in (0, 1):
            assert counts["coupling grad", k] == 2 * (k in rep.active_couplings)
        for i in range(3):
            work = 0 if declared else 2 * (i in active)
            assert counts["grad", i] == counts["apply", ("mix", i)] == work
            assert counts["adjoint_apply", ("mix", i)] == work
            # per coupling map of the player, one adjoint in the local step if
            # active, one in the dual assembly
            for k, members in enumerate(((0, 1), (1,))):
                if i in members:
                    assert counts["adjoint_apply", ("map", k, i)] == (i in active) + 1
            if i not in active:
                assert written(i) == before[i]
    assert game.coupled_players == (0, 1)
    assert idle_players == {0, 1, 2} and idle_couplings == {0, 1}


@pytest.mark.parametrize("mix", [Identity(2), Dense(np.eye(2))], ids=["identity", "dense"])
@pytest.mark.parametrize("output, shape", [(lambda v: 0.0, "()"), (lambda v: v[:1], "(1,)")],
                         ids=["scalar", "one-entry"])
def test_a_wrong_prox_shape_names_the_player_and_the_tick(mix, output, shape):
    players = [
        PlayerBlock(1, 1, proximal.box([-1.0], [1.0]), zero_smooth(), 0.0, Identity(1), 1.0),
        PlayerBlock(2, 2, proximal.custom_resolvent(lambda gamma, v: output(v)), zero_smooth(),
                    0.0, mix, 1.0),
    ]
    game = Game(players, InteractionGradient(lambda y: 0.5 * y, 1.0))
    assert game.mixed_players == (() if type(mix) is Identity else (1,))
    message = f"player 1: prox returned shape {shape}, expected (2,), at tick 0"
    with pytest.raises(ValueError, match=re.escape(message)):
        ns.solve(game, SolverParams.for_game(game), ns.synchronous(), validate=False)


def _two_entry_coupling_game(resolvent=lambda gamma, z: z, grad=None):
    """Two one-entry players and a two-entry coupling of both, with the given
    coupling resolvent and, when ``grad`` is given, a hand-made coupling gradient."""
    players = [PlayerBlock(1, 1, proximal.box([-1.0], [1.0]), zero_smooth(), 0.0, Identity(1), 1.0)
               for _ in range(2)]
    smooth = zero_smooth() if grad is None else SmoothTerm(lambda z: 0.0, grad)
    coupling = CouplingBlock(2, proximal.custom_resolvent(resolvent), smooth, 0.0,
                             {0: Dense([[1.0], [0.0]]), 1: Dense([[0.0], [1.0]])})
    return Game(players, InteractionGradient(lambda y: y - 0.5, 1.0), [coupling])


def test_a_wrong_coupling_prox_shape_names_the_coupling_and_the_tick():
    # the gate cannot see a resolvent's output shape; without the step's own
    # check the one entry was broadcast into both for the whole run
    game = _two_entry_coupling_game(resolvent=lambda gamma, z: z[:1])
    params = SolverParams.for_game(game)
    assert solver.validate_game_and_params(game, params) == []
    message = "coupling 0: prox returned shape (1,), expected (2,), at tick 0"
    with pytest.raises(ValueError, match=re.escape(message)):
        ns.solve(game, params, ns.synchronous())


@pytest.mark.parametrize("text", ["resolvent refused", "sticky resolvent refused"])
def test_a_user_error_gets_its_tick_whatever_its_text(text):
    # a user's message that happens to contain "tick" still gets the tick
    def refuse(gamma, z):
        raise ValueError(text)

    game = _two_entry_coupling_game(resolvent=refuse)
    with pytest.raises(ValueError, match=re.escape(f"{text}, at tick 0") + "$"):
        ns.solve(game, SolverParams.for_game(game), ns.synchronous(), validate=False)


def test_a_wrong_coupling_gradient_shape_names_the_coupling():
    game = _two_entry_coupling_game(grad=lambda z: np.zeros(1))
    message = "coupling 0: smooth gradient returned shape (1,), expected (2,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        ns.solve(game, SolverParams.for_game(game), ns.synchronous(), validate=False)
    with pytest.raises(ValueError, match=re.escape(message)):
        ns.check_equilibrium(game, [[0.0], [0.0]])


def test_declared_zero_coupling_gradients_are_not_called():
    # a counting gradient put into zero_smooth() by dataclasses.replace keeps
    # its declaration, as in the benchmark's tracer, and the declaration is
    # trusted: neither the coupling steps nor the certificate call it
    calls = []

    def grad(z):
        calls.append(z)
        return np.zeros_like(z)

    smooth = dataclasses.replace(zero_smooth(), grad=grad)
    players = [PlayerBlock(1, 1, proximal.box([-5.0], [5.0]), zero_smooth(), 0.0, Identity(1), 1.0)
               for _ in range(3)]
    couplings = [CouplingBlock(1, proximal.shifted_orthant([bound]), smooth, 0.0,
                               {i: Identity(1) for i in members})
                 for bound, members in ((4.0, (0, 1)), (-4.0, (1,)))]
    game = Game(players, InteractionGradient(lambda y: y - np.array([1.0, 2.0, -1.0]), 1.0),
                couplings)
    params = SolverParams.for_game(game, max_lag=2, window=4)
    schedule = ns.randomized(3, 0.5, max_lag=2, window=4)
    state = IterState(game, max_lag=2)
    stepped = 0
    for _ in range(30):
        stepped += len(tick(game, params, schedule, state).active_couplings)
    ns.check_equilibrium(game, state.x, state.u_star, state.v_star)
    assert stepped > 0 and calls == []
    assert game.smooth_couplings == ()


def test_a_step_list_changed_between_ticks_reaches_the_stacked_players():
    # SolverParams is frozen but its list and array schedules are not: a step
    # changed in place between ticks reaches the Identity-mixed players (0
    # and 1) as it reaches the Dense-mixed one (2) and the reference
    targets = np.array([1.0, 2.0, -1.0])
    players = [PlayerBlock(1, 1, proximal.box([-5.0], [5.0]), zero_smooth(), 0.0, mix, 1.0)
               for mix in (Identity(1), Identity(1), Dense(np.eye(1)))]
    game = Game(players, InteractionGradient(lambda y: y - targets, 1.0))
    assert game.mixed_players == (2,)
    params = SolverParams(strategy_steps=[0.5] * 3, interaction_steps=[0.5] * 3,
                          player_dual_steps=np.ones(3))
    state, reference = IterState(game), IterState(game)
    for n in range(6):
        if n == 2:
            params.strategy_steps[0] = 0.25
        if n == 3:
            params.interaction_steps[1] = 0.3
        if n == 4:
            params.player_dual_steps[0] = 0.7
        assert tick(game, params, ns.synchronous(), state) == \
            reference_tick(game, params, ns.synchronous(), reference)
        for name in ("flat", "point", "direction", "s_star"):
            assert getattr(state, name).tobytes() == getattr(reference, name).tobytes(), name


def _twelve_player_game(wide: bool):
    """Twelve box-constrained players, every third with a smooth term, every
    other with a ``Dense`` mix (of other widths too when ``wide``), and a
    coupling on players 0, 5 and 7."""
    rng = np.random.default_rng(12)
    players = []
    for i in range(12):
        d, di = (int(rng.integers(1, 3)), int(rng.integers(1, 3))) if wide else (1, 1)
        mix = Identity(d) if d == di and i % 2 else Dense(rng.standard_normal((di, d)))
        smooth = quadratic_smooth(1.0, rng.standard_normal(d)) if i % 3 == 0 else zero_smooth()
        players.append(PlayerBlock(d, di, proximal.box(-np.ones(d), np.ones(d)), smooth, 1.0,
                                   mix, 1.0))
    coupling = CouplingBlock(1, proximal.shifted_orthant([0.5]), zero_smooth(), 0.0,
                             {i: Dense(rng.standard_normal((1, players[i].dim_strategy)))
                              for i in (0, 5, 7)})
    ny = sum(p.dim_interaction for p in players)
    skew = rng.standard_normal((ny, ny))
    a_mat, b_vec = 0.5 * (skew - skew.T) + 0.2 * np.eye(ny), rng.standard_normal(ny)
    return Game(players, InteractionGradient(lambda y: a_mat @ y + b_vec, 1.0), [coupling])


def _same_state(state, reference):
    for name in ("flat", "point", "direction", "s_star"):
        assert getattr(state, name).tobytes() == getattr(reference, name).tobytes(), name


class TestStepPlans:
    """``player_local_step`` keeps a plan per active set on the state; none of
    them may change a bit of a tick."""

    @pytest.mark.parametrize("wide", [False, True])
    def test_more_active_sets_than_plans_stay_equal_to_the_reference_tick(self, wide, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_PLANS", 16)    # so that 150 ticks pass the cap
        game = _twelve_player_game(wide)
        params = SolverParams.for_game(game, max_lag=2, window=4)
        schedule = ns.randomized(5, 0.5, max_lag=2, window=4)
        state, reference = IterState(game, max_lag=2), IterState(game, max_lag=2)
        seen = set()
        for _ in range(150):
            got = tick(game, params, schedule, state)
            assert got == reference_tick(game, params, schedule, reference)
            _same_state(state, reference)
            seen.add(got.active_players)
        assert len(seen) > solver._MAX_PLANS
        assert len(state._plans) == solver._MAX_PLANS    # later sets stepped without a plan kept

    def test_a_list_of_players_steps_as_the_tuple(self):
        game = _twelve_player_game(wide=True)
        params = SolverParams.for_game(game)
        lags = dict.fromkeys(range(12), 0)
        kept, listed = IterState(game), IterState(game)
        player_local_step(game, params, kept, (7, 2, 5), lags)
        player_local_step(game, params, kept, [7, 2, 5], lags)     # the stored plan of the tuple
        player_local_step(game, params, listed, [7, 2, 5], lags)
        assert list(kept._plans) == [(7, 2, 5)]
        _same_state(kept, listed)

    def test_new_params_and_an_edited_list_schedule_reach_a_stored_plan(self):
        game = _twelve_player_game(wide=True)
        lags = dict.fromkeys(range(12), 0)
        state = IterState(game)
        player_local_step(game, SolverParams.for_game(game), state, (0, 3, 4), lags)
        params = SolverParams(strategy_steps=[0.3] * 12, interaction_steps=0.2)
        for edit in (False, True):
            if edit:
                params.strategy_steps[3] = 0.1      # in place, between two steps
            player_local_step(game, params, state, (0, 3, 4), lags)
            fresh = IterState(game)
            player_local_step(game, params, fresh, (0, 3, 4), lags)
            _same_state(state, fresh)
        assert list(state._plans) == [(0, 3, 4)]

    def test_two_states_on_one_game_keep_their_own_steps(self):
        game = _twelve_player_game(wide=False)
        runs = []
        for steps in (0.2, 0.4):
            params = SolverParams.for_game(game, strategy_steps=steps)
            runs.append((params, IterState(game), IterState(game)))
        for _ in range(5):      # the two states take turns on the same active set
            for params, state, reference in runs:
                assert tick(game, params, ns.synchronous(), state) == \
                    reference_tick(game, params, ns.synchronous(), reference)
                _same_state(state, reference)
        assert runs[0][1].flat.tobytes() != runs[1][1].flat.tobytes()


@pytest.mark.parametrize("stall_window", [-1, 2.5, 3.0, True, False, "10"])
def test_a_bad_stall_window_is_refused(stall_window):
    game, _ = shared_constraint_instance()
    with pytest.raises(ValueError, match=rf"stall_window must be a nonnegative integer, "
                                         rf"not {re.escape(repr(stall_window))}$"):
        ns.solve(game, SolverParams.for_game(game), ns.synchronous(), stall_window=stall_window)


def test_an_integral_stall_window_is_taken():
    game, _ = shared_constraint_instance()
    params = SolverParams.for_game(game, max_iters=5)
    for stall_window in (0, np.int64(3)):
        result = ns.solve(game, params, ns.synchronous(), stall_window=stall_window)
        assert result.status == "max_iters" and result.ticks == 5


def test_a_wrong_interaction_gradient_shape_names_the_tick():
    game = _consensus_10()
    broken = Game(game.players, InteractionGradient(lambda y: y[:-1], 1.0))
    with pytest.raises(ValueError, match=r"interaction gradient returned shape \(9,\), "
                                         r"expected \(10,\), at the y of tick 0$"):
        ns.solve(broken, SolverParams.for_game(broken), ns.synchronous(), validate=False)
