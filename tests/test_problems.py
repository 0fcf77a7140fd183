"""Instance builders: assembled gradients, constants, refusals, metadata."""

import numpy as np
import pytest

import nashsplit as ns
from nashsplit import proximal
from nashsplit.model import validate_problem
from nashsplit.problems import (
    build_minimax,
    build_minimization,
    build_quadratic_coupling,
    build_shared_constraint,
    consensus_instance,
    lasso_instance,
    matching_pennies_instance,
    shared_constraint_instance,
)

from _oracles import ista_lasso, lasso_objective


def all_shipped_instances():
    rng = np.random.default_rng(10)
    a_mat = rng.standard_normal((3, 3))
    b_vec = rng.standard_normal(3)
    return [
        consensus_instance([(2, 3), (0, 1)]),
        consensus_instance([(1, 2), 3.0, None]),
        matching_pennies_instance(),
        shared_constraint_instance(),
        lasso_instance(a_mat, b_vec, 1.0),
    ]


@pytest.mark.parametrize("build", [
    lambda: build_quadratic_coupling([], [], []),
    lambda: consensus_instance([]),
    lambda: build_minimax([], [], [], [], {}),
    lambda: build_shared_constraint([], [], [], [], [1.0]),
    lambda: shared_constraint_instance(()),
    lambda: build_minimization([], lambda y: y, 1.0),
    lambda: lasso_instance(np.zeros((3, 0)), np.zeros(3)),
], ids=["quadratic", "consensus", "minimax", "shared", "shared-instance", "minimization",
        "lasso"])
def test_every_builder_refuses_an_empty_player_list(build):
    with pytest.raises(ValueError, match="^a game needs at least one player$"):
        build()


@pytest.mark.parametrize("lipschitz", [[0.0], [0.0, 0.0, 0.0]], ids=["short", "long"])
def test_per_player_lists_of_another_length_are_refused(lipschitz):
    with pytest.raises(ValueError, match="is (shorter|longer) than"):
        build_minimization([None, None], lambda y: y, 1.0, smooth_lipschitz=lipschitz)


def test_every_built_instance_validates_clean():
    for game, meta in all_shipped_instances():
        assert validate_problem(game, samples=40, seed=0) == [], meta.family


def test_known_equilibria_pass_certificate():
    for game, meta in all_shipped_instances():
        if meta.equilibrium is None:
            continue
        cert = ns.check_equilibrium(game, meta.equilibrium, meta.dual_u, meta.dual_v)
        assert cert.max_residual <= 1e-8, meta.family


class TestQuadraticCoupling:
    def test_consensus_equilibrium_via_best_response(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        br = ns.best_response_fixed_point(game)
        assert br.converged and br.sweeps <= 5
        assert np.allclose(np.concatenate(br.x), [2.0, 1.0], atol=1e-9)

    def test_unconstrained_consensus_diagonal_is_solution(self):
        game, _ = consensus_instance([None, None])
        for c in (-3.0, 0.0, 7.5):
            cert = ns.check_equilibrium(game, [[c], [c]])
            assert cert.max_residual == 0.0

    def test_three_player_ring_matches_best_response(self):
        game, _ = consensus_instance(
            [(1, 2), (0, 10), 4.0],
            neighbors={0: [1, 2], 1: [0, 2], 2: [0, 1]},
        )
        br = ns.best_response_fixed_point(game, rounds=200, inner_tol=1e-12)
        assert br.converged
        cert = ns.check_equilibrium(game, br.x)
        assert cert.max_residual <= 1e-8
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous())
        assert result.status == "converged"
        assert np.linalg.norm(np.concatenate(result.x) - np.concatenate(br.x)) <= 1e-4

    def test_default_curvature_bound_is_weighted_row_sum(self):
        game, _ = build_quadratic_coupling(
            [1, 1],
            [None, None],
            [
                [(2.0, {1: 0.5})],
                [(1.0, {0: 1.0}), (3.0, {0: 0.25})],
            ],
            interaction_dim=1,
        )
        assert game.players[0].interaction_bound == pytest.approx(2.0 * 1.5)
        assert game.players[1].interaction_bound == pytest.approx(1.0 * 2.0 + 3.0 * 1.25)

    def test_gradient_matches_mismatch_sum(self):
        # reference: sum_l kappa_l (y_i - sum_j omega_l[j] y_j), block by block
        weights = [
            [(2.0, {1: 0.25, 2: 0.25})],
            [(1.0, {0: 0.5}), (3.0, {2: 0.25})],
            [(1.5, {0: 0.25, 1: 0.5})],
        ]
        game, meta = build_quadratic_coupling([2, 2, 2], [None] * 3, weights)
        y = np.random.default_rng(4).standard_normal(6)
        blocks = [y[2 * i:2 * i + 2] for i in range(3)]
        expected = np.concatenate([
            sum(kappa * (blocks[i] - sum(w * blocks[j] for j, w in omega.items()))
                for kappa, omega in terms)
            for i, terms in enumerate(weights)
        ])
        got = game.interaction.eval(y)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)
        with pytest.raises(ValueError):
            meta.extras["gradient_matrix"][0, 0] = 1.0

    def test_non_identity_mixes_solve_end_to_end(self):
        # players on R^2 whose coordinate sums chase each other inside boxes
        from nashsplit.linops import Dense

        game, _ = build_quadratic_coupling(
            [2, 2],
            [proximal.box([0.0, 0.0], [1.0, 1.0]), proximal.box([2.0, 2.0], [3.0, 3.0])],
            [[(1.0, {1: 1.0})], [(1.0, {0: 1.0})]],
            mixes=[Dense([[1.0, 1.0]]), Dense([[1.0, 1.0]])],
            interaction_dim=1,
        )
        assert validate_problem(game, samples=40, seed=2) == []
        br = ns.best_response_fixed_point(game, rounds=300, inner_tol=1e-12)
        assert br.converged
        assert ns.check_equilibrium(game, br.x).max_residual <= 1e-8
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous())
        assert result.status == "converged"
        # mixes must meet at the attainable boundary: sums 2 and 4
        sums = [float(np.sum(b)) for b in result.x]
        assert abs(sums[0] - 2.0) <= 1e-5 and abs(sums[1] - 4.0) <= 1e-5

    def test_ball_constrained_consensus(self):
        # disjoint balls in the plane: the players meet at the nearest
        # boundary points along the line of centers
        game, _ = build_quadratic_coupling(
            [2, 2],
            [proximal.ball([0.0, 0.0], 1.0), proximal.ball([3.0, 0.0], 1.0)],
            [[(1.0, {1: 1.0})], [(1.0, {0: 1.0})]],
            interaction_dim=2,
        )
        assert validate_problem(game, samples=30, seed=6) == []
        br = ns.best_response_fixed_point(game, rounds=300, inner_tol=1e-12)
        assert br.converged
        assert np.allclose(np.concatenate(br.x), [1.0, 0.0, 2.0, 0.0], atol=1e-8)
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous(),
                          x0=[[0.3, 0.4], [2.5, -0.7]])
        assert result.status == "converged"
        assert np.linalg.norm(np.concatenate(result.x) - [1.0, 0.0, 2.0, 0.0]) <= 1e-5

    def test_nonzero_individual_smooth_terms(self):
        from nashsplit.model import quadratic_smooth

        game, _ = build_quadratic_coupling(
            [1, 1],
            [None, None],
            [[(1.0, {1: 1.0})], [(1.0, {0: 1.0})]],
            smooths=[quadratic_smooth(1.0, [0.0]), quadratic_smooth(1.0, [0.0])],
            smooth_lipschitz=[1.0, 1.0],
            interaction_dim=1,
        )
        assert validate_problem(game, samples=30, seed=3) == []
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous(),
                          x0=[[4.0], [-3.0]])
        # each player balances its own curvature against tracking the other;
        # the unique equilibrium is the origin
        assert result.status == "converged"
        assert np.linalg.norm(np.concatenate(result.x)) <= 1e-6

    def test_nonmonotone_weights_refused_with_report(self):
        with pytest.raises(ValueError, match="not monotone"):
            build_quadratic_coupling(
                [1, 1],
                [None, None],
                [[(1.0, {1: 2.0})], [(1.0, {0: 2.0})]],
                interaction_dim=1,
            )


class TestMinimax:
    def test_matching_pennies_metadata(self):
        game, meta = matching_pennies_instance()
        assert np.allclose(meta.equilibrium[0], [0.5, 0.5])
        assert np.allclose(meta.equilibrium[1], [0.5, 0.5])
        assert ns.check_equilibrium(game, meta.equilibrium, meta.dual_u).max_residual <= 1e-12

    def test_zero_matrix_every_profile_is_saddle(self):
        game, _ = build_minimax(
            [2], [2], [proximal.simplex()], [proximal.simplex()],
            {(0, 0): np.zeros((2, 2))},
        )
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = rng.dirichlet([1.0, 1.0])
            v = rng.dirichlet([1.0, 1.0])
            assert ns.check_equilibrium(game, [u, v]).max_residual <= 1e-12

    def test_assembled_pairing_is_skew(self):
        rng = np.random.default_rng(12)
        game, meta = build_minimax(
            [2, 3], [2], [None, None], [None],
            {(0, 0): rng.standard_normal((2, 2)), (1, 0): rng.standard_normal((2, 3))},
        )
        skew = meta.extras["skew_matrix"]
        for _ in range(100):
            x = rng.standard_normal(skew.shape[0])
            assert abs(float(x @ (skew @ x))) <= 1e-10 * (1.0 + float(x @ x))

    def test_smooth_saddle_part_enters_with_sign_flip(self):
        # saddle term 0.5 u^2 - 0.5 v^2 has gradient (u, -v); the maximizer
        # block flips so the assembled map is (u, v), which is monotone
        game, _ = build_minimax(
            [1], [1], [None], [None], {},
            saddle_grad=lambda y: np.array([y[0], -y[1]]),
            saddle_lipschitz=1.0,
        )
        assert validate_problem(game, samples=30, seed=1) == []
        got = game.interaction.eval(np.array([2.0, 3.0]))
        assert np.allclose(got, [2.0, 3.0])


class TestSharedConstraint:
    def test_canonical_equilibrium(self):
        game, _ = shared_constraint_instance()
        exact = ns.quadratic_game_exact(game)
        assert np.allclose(np.concatenate(exact.x), [2.0, 3.0], atol=1e-9)
        assert np.allclose(exact.multipliers[0], [1.0], atol=1e-9)

    def test_inactive_constraint_returns_targets(self):
        game, _ = shared_constraint_instance(targets=(1.0, 2.0), rhs=-100.0)
        exact = ns.quadratic_game_exact(game)
        assert np.allclose(np.concatenate(exact.x), [1.0, 2.0], atol=1e-12)
        assert np.allclose(exact.multipliers[0], [0.0])
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous())
        assert np.linalg.norm(np.concatenate(result.x) - [1.0, 2.0]) <= 1e-5

    def test_coupling_dual_converges_to_negated_multiplier(self):
        game, _ = shared_constraint_instance()
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous())
        assert abs(-result.v_star[0][0] - 1.0) <= 1e-4

    def test_multirow_constraints(self):
        game, _ = build_shared_constraint(
            [1, 1],
            [proximal.box([0.0], [10.0]), proximal.box([0.0], [10.0])],
            [[1.0], [2.0]],
            [[[1.0], [0.0]], [[1.0], [1.0]]],
            [2.0, 4.0],
        )
        assert validate_problem(game) == []
        exact = ns.quadratic_game_exact(game)
        cert = ns.check_equilibrium(game, exact.x, exact.u_star, exact.v_star)
        assert cert.max_residual <= 1e-8


class TestSmoothCouplings:
    def test_quadratic_penalty_coupling_matches_hand_kkt(self):
        # soft shared target: minimize sum 0.5 (x_i - t_i)^2 + 0.5 (x_1 + x_2 - s)^2
        from nashsplit.linops import Dense
        from nashsplit.model import CouplingBlock, SmoothTerm

        s_target = 6.0
        penalty = SmoothTerm(
            lambda z: 0.5 * float((z[0] - s_target) ** 2),
            lambda z: z - s_target,
        )
        coupling = CouplingBlock(
            1, proximal.zero(), penalty, 1.0,
            {0: Dense([[1.0]]), 1: Dense([[1.0]])},
        )
        targets = np.array([1.0, 2.0])
        game, _ = build_minimization(
            [proximal.zero(), proximal.zero()],
            joint_grad=lambda y: y - targets,
            joint_lipschitz=1.0,
            couplings=[coupling],
        )
        assert validate_problem(game, samples=30, seed=4) == []
        # stationarity: (x - t) + 1 (x_1 + x_2 - s) = 0 per coordinate;
        # with t = (1, 2), s = 6 the solution is x = (2, 3)
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous())
        assert result.status == "converged"
        assert np.linalg.norm(np.concatenate(result.x) - [2.0, 3.0]) <= 1e-5
        br = ns.best_response_fixed_point(game, rounds=400, inner_tol=1e-12)
        assert br.converged
        assert np.linalg.norm(np.concatenate(br.x) - [2.0, 3.0]) <= 1e-8


class TestSaddleTerm:
    def test_smooth_saddle_minimax_solves_to_origin(self):
        # saddle 0.5 u^2 - 0.5 v^2 + u v: convex-concave with the unique
        # saddle point at the origin
        game, _ = build_minimax(
            [1], [1], [None], [None], {},
            saddle_grad=lambda y: np.array([y[0] + y[1], y[0] - y[1]]),
            saddle_lipschitz=float(np.sqrt(2.0)),
        )
        assert validate_problem(game, samples=30, seed=5) == []
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous(),
                          x0=[[3.0], [-2.0]])
        assert result.status == "converged"
        assert np.linalg.norm(np.concatenate(result.x)) <= 1e-6


class TestMinimization:
    def test_box_constrained_norm_minimization(self):
        game, _ = build_minimization(
            [proximal.box([1.0], [2.0]), proximal.box([1.0], [2.0])],
            joint_grad=lambda y: y,
            joint_lipschitz=1.0,
            joint_value=lambda y: 0.5 * float(y @ y),
        )
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous())
        assert np.linalg.norm(np.concatenate(result.x) - [1.0, 1.0]) <= 1e-6

    def test_lasso_objective_matches_proximal_gradient_reference(self):
        rng = np.random.default_rng(13)
        a_mat = rng.standard_normal((3, 3))
        b_vec = rng.standard_normal(3)
        game, meta = lasso_instance(a_mat, b_vec, 1.0)
        result = ns.solve(game, ns.SolverParams.for_game(game), ns.synchronous())
        assert result.status == "converged"
        ref = ista_lasso(a_mat, b_vec, 1.0)
        ours = meta.extras["objective"](np.concatenate(result.x))
        theirs = lasso_objective(a_mat, b_vec, 1.0, ref)
        assert abs(ours - theirs) <= 1e-6

    def test_zero_objective_certified_at_origin(self):
        game, _ = build_minimization(
            [proximal.zero(), proximal.zero()],
            joint_grad=lambda y: np.zeros_like(y),
            joint_lipschitz=0.0,
        )
        cert = ns.check_equilibrium(game, [[0.0], [0.0]])
        assert cert.max_residual == 0.0
