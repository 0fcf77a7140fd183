"""Problem model validation: structure, sampled analytics, schedules."""

import dataclasses
import re

import numpy as np
import pytest

from nashsplit import proximal, solver
from nashsplit.linops import Dense, Identity, LinOp
from nashsplit.model import (
    CouplingBlock,
    Game,
    InteractionGradient,
    PlayerBlock,
    SolverParams,
    quadratic_smooth,
    validate_params,
    validate_problem,
    zero_smooth,
)
from nashsplit.problems import consensus_instance, shared_constraint_instance
from nashsplit.schedules import synchronous

from _oracles import fd_gradient


def two_player_game(mix0=None, interaction=None, chi=2.0):
    mix0 = mix0 if mix0 is not None else Identity(1)
    if interaction is None:
        interaction = InteractionGradient(lambda y: np.array([y[0] - y[1], y[1] - y[0]]), 2.0)
    players = [
        PlayerBlock(1, 1, proximal.box([2.0], [3.0]), zero_smooth(), 0.0, mix0, chi),
        PlayerBlock(1, 1, proximal.box([0.0], [1.0]), zero_smooth(), 0.0, Identity(1), chi),
    ]
    return Game(players, interaction)


def test_consensus_instance_validates_clean():
    game, _ = consensus_instance([(2, 3), (0, 1)])
    assert validate_problem(game, samples=50, seed=0) == []


def test_dimension_mismatch_reported():
    bad_mix = Dense(np.ones((3, 2)))  # claims 2 -> 3
    players = [
        PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0),
        PlayerBlock(2, 2, proximal.zero(), zero_smooth(), 0.0, Identity(2), 1.0),
    ]
    # swap in an operator whose shape disagrees with the declared dims
    players[1] = PlayerBlock(2, 2, proximal.zero(), zero_smooth(), 0.0, bad_mix, 1.0)
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0))
    report = validate_problem(game)
    assert len(report) == 1
    assert "mix operator" in report[0]


def test_coupling_map_dimension_mismatch_reported():
    from nashsplit.model import CouplingBlock

    players = [
        PlayerBlock(2, 2, proximal.zero(), zero_smooth(), 0.0, Identity(2), 1.0),
    ]
    # the map claims 2 -> 3 inside a coupling of dimension 2
    coup = CouplingBlock(2, proximal.zero(), zero_smooth(), 0.0, {0: Dense(np.ones((3, 2)))})
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])
    report = validate_problem(game)
    assert len(report) == 1 and "coupling 0" in report[0]


@pytest.mark.parametrize("key", [-1, 2, 1.5, True], ids=["negative", "num_players", "float", "bool"])
def test_a_coupling_map_key_that_is_not_a_player_is_refused(key):
    from nashsplit.model import CouplingBlock

    players = [PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0)] * 2
    coup = CouplingBlock(1, proximal.zero(), zero_smooth(), 0.0,
                         {0: Dense([[1.0]]), key: Dense([[1.0]])})
    with pytest.raises(ValueError, match=rf"^coupling 0: map references unknown player {key}$"):
        Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])


def test_a_pad_of_the_adjoint_table_keeps_a_minus_zero_sum():
    # player 1 is in one coupling of two, so its column of the adjoint table
    # is padded in the second row; -0.0 + -0.0 stays -0.0 only if the pad is -0.0
    from nashsplit.model import CouplingBlock

    players = [PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0)] * 2
    couplings = [CouplingBlock(1, proximal.zero(), zero_smooth(), 0.0, maps)
                 for maps in ({0: Identity(1), 1: Identity(1)}, {0: Identity(1)})]
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), couplings)
    pulled = game.coupling_pull(np.full(2, -0.0), np.full(2, -0.0))
    assert pulled.tobytes() == np.full(2, -0.0).tobytes()


class _ShortImage(LinOp):
    """Declared 1 -> 2, but ``apply`` returns one entry."""

    in_dim, out_dim = 1, 2

    def apply(self, x):
        return 0.75 * np.asarray(x, dtype=float)

    def adjoint_apply(self, y):
        return np.asarray(y, dtype=float)[:1]


class _LongAdjoint(_ShortImage):
    """Declared 1 -> 2, but ``adjoint_apply`` returns two entries."""

    def apply(self, x):
        return np.array([x[0], 0.0])

    def adjoint_apply(self, y):
        return np.asarray(y, dtype=float)


@pytest.mark.parametrize("op, call, shapes", [
    (_ShortImage(), "map", r"\(1,\), expected \(2,\)"),
    (_LongAdjoint(), "map adjoint", r"\(2,\), expected \(1,\)"),
], ids=["apply", "adjoint"])
def test_a_coupling_map_of_the_wrong_output_shape_is_named(op, call, shapes):
    # hand-made maps fill their own columns of the incidence tables; a wrong
    # shape would broadcast there, and the gate's np.dot would fail on it
    players = [PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0)] * 2
    coup = CouplingBlock(2, proximal.zero(), zero_smooth(), 0.0, {0: op, 1: Dense([[1.0], [0.0]])})
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])
    message = rf"coupling 0: {call} for player 0 returned shape {shapes}"
    report = validate_problem(game)
    assert len(report) == 1 and re.fullmatch(message, report[0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        if call == "map":
            game.coupling_mix(np.array([1.0, 0.5]))
        else:
            game.coupling_pull(np.zeros(2), np.ones(2))
    # in a tick: the coupling step mixes, and the player step pulls back
    with pytest.raises(ValueError, match=f"^{message}, at tick 0$"):
        solver.tick(game, SolverParams(), synchronous(), solver.IterState(game))


def test_zero_smooth_gradient_is_fresh_float64_zeros():
    x = np.array([1.5, -2.0, 3.0])
    g = zero_smooth().grad(x)
    assert g.dtype == np.float64 and g.shape == x.shape and not g.any()
    assert not np.shares_memory(g, x)
    assert zero_smooth().grad(np.array([7], dtype=np.int64)).dtype == np.float64


def test_as_vector_contract():
    from nashsplit.model import as_vector

    assert np.array_equal(as_vector([1, 2], 2), [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="dimension"):
        as_vector([1.0, 2.0], 3)


def test_negated_identity_interaction_flagged():
    game = two_player_game(
        interaction=InteractionGradient(lambda y: -y, 1.0), chi=1.0
    )
    report = validate_problem(game, samples=20, seed=1)
    assert any("not monotone" in line for line in report)


def test_curvature_bound_violation_flagged():
    # interaction gradient 3*y but claimed per-player bound 1
    game = two_player_game(
        interaction=InteractionGradient(lambda y: 3.0 * y, 3.0), chi=1.0
    )
    report = validate_problem(game, samples=20, seed=2)
    assert any("curvature bound" in line for line in report)


def test_lipschitz_constant_violation_flagged():
    game = two_player_game(
        interaction=InteractionGradient(lambda y: 3.0 * y, 1.0), chi=3.0
    )
    report = validate_problem(game, samples=20, seed=3)
    assert any("Lipschitz constant" in line for line in report)


def test_smooth_gradient_bound_flagged():
    players = [
        PlayerBlock(1, 1, proximal.zero(), quadratic_smooth(4.0, [0.0]), 1.0, Identity(1), 1.0),
    ]
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0))
    report = validate_problem(game, samples=20, seed=4)
    assert any("exceeds Lipschitz bound" in line for line in report)


def test_smooth_gradient_shape_mismatch_names_block():
    from nashsplit.model import CouplingBlock, SmoothTerm

    scalar_grad = SmoothTerm(lambda x: 0.0, lambda x: 0.5 * float(x[0]) + 0.3)
    players = [
        PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0),
        PlayerBlock(2, 2, proximal.zero(), scalar_grad, 0.5, Identity(2), 1.0),
    ]
    coup = CouplingBlock(2, proximal.zero(), scalar_grad, 0.5, {1: Identity(2)})
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])
    assert validate_problem(game) == [
        "player 1: smooth gradient returned shape (), expected (2,)",
        "coupling 0: smooth gradient returned shape (), expected (2,)",
    ]


def test_misdeclared_zero_gradient_is_reported_from_its_value_at_zeros():
    from nashsplit.model import CouplingBlock

    # grads put into zero_smooth() by dataclasses.replace keep its declaration,
    # which the gate trusts instead of sampling: one that is nonzero at the
    # origin is reported, one that is zero there goes unseen
    offset = dataclasses.replace(zero_smooth(), grad=lambda x: x + 1.0)
    players = [
        PlayerBlock(1, 1, proximal.zero(), offset, 5.0, Identity(1), 1.0),
        PlayerBlock(2, 2, proximal.zero(), zero_smooth(), 0.0, Identity(2), 1.0),
    ]
    coup = CouplingBlock(2, proximal.zero(), offset, 5.0, {1: Identity(2)})
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])
    assert validate_problem(game) == [
        "player 0: smooth gradient declared zero returned nonzero values",
        "coupling 0: smooth gradient declared zero returned nonzero values",
    ]
    steep = dataclasses.replace(zero_smooth(), grad=lambda x: 9.0 * x)
    players[0] = PlayerBlock(1, 1, proximal.zero(), steep, 1.0, Identity(1), 1.0)
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0))
    assert validate_problem(game) == []
    undeclared = PlayerBlock(1, 1, proximal.zero(), quadratic_smooth(9.0, [0.0]), 1.0,
                             Identity(1), 1.0)
    game = Game([undeclared, players[1]], InteractionGradient(lambda y: np.zeros_like(y), 1.0))
    assert [line.split(" by ")[0] for line in validate_problem(game)] == [
        "player 0: smooth gradient exceeds Lipschitz bound"]


@pytest.mark.parametrize("samples", [-1, 2.5, 3.0, True, "3", None])
def test_samples_must_be_a_nonnegative_integer(samples):
    game, _ = consensus_instance([(2, 3), (0, 1)])
    with pytest.raises(ValueError, match="samples"):
        validate_problem(game, samples=samples)


def test_zero_samples_run_only_the_exact_checks():
    game = two_player_game(interaction=InteractionGradient(lambda y: -y, 1.0), chi=1.0)
    assert validate_problem(game, samples=0) == []
    assert validate_problem(game, samples=np.int64(20), seed=1) == validate_problem(
        game, samples=20, seed=1)


def test_validate_params_accepts_inequality_example():
    # alpha = beta = chi = 1 across the board with the documented constants
    players = [
        PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 1.0, Identity(1), 1.0)
        for _ in range(2)
    ]
    from nashsplit.model import CouplingBlock

    coup = CouplingBlock(1, proximal.zero(), zero_smooth(), 1.0, {0: Identity(1)})
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0), [coup])
    params = SolverParams(
        epsilon=0.01,
        eta=0.1,
        relaxation=1.8,
        strategy_steps=1.0 / 1.1,
        interaction_steps=1.0 / 1.1,
        coupling_steps=1.0 / 1.1,
        player_dual_steps=1.0,
        coupling_dual_steps=1.0,
    )
    assert validate_params(game, params, horizon=100) == []


def test_validate_params_epsilon_cap():
    players = [PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 2.0, Identity(1), 1.0)]
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0))
    params = SolverParams(epsilon=0.5, eta=0.1, strategy_steps=0.5, interaction_steps=0.5)
    report = validate_params(game, params, horizon=10)
    assert any("1/epsilon" in line for line in report)


def test_validate_params_zero_step_flagged():
    game, _ = consensus_instance([(2, 3), (0, 1)])

    def broken(i, n):
        return 0.0 if (i == 0 and n == 3) else 0.3

    params = SolverParams.for_game(game, strategy_steps=broken)
    report = validate_params(game, params, horizon=10)
    assert any("strategy step" in line and "tick 3" in line for line in report)


def test_malformed_schedule_reported_not_raised():
    game, _ = consensus_instance([(2, 3), (0, 1)])
    params = SolverParams.for_game(game, strategy_steps=(0.5,))  # one entry, two players
    report = validate_params(game, params, horizon=5)
    assert any("schedule evaluation failed" in line for line in report)


@pytest.mark.parametrize("field, value, message", [
    ("max_iters", 1.5, "max_iters must be an integer, got 1.5"),
    ("max_iters", True, "max_iters must be an integer, got True"),
    ("max_iters", 0, "max_iters must be positive"),
    ("max_lag", 2.0, "max_lag must be an integer, got 2.0"),
    ("max_lag", -1, "max_lag and window must be nonnegative"),
    ("window", 2.5, "window must be an integer, got 2.5"),
    ("window", False, "window must be an integer, got False"),
    ("max_iters", np.int64(5), None),
    ("window", np.int32(3), None),
], ids=["max_iters-fraction", "max_iters-bool", "max_iters-zero", "max_lag-float",
        "max_lag-negative", "window-fraction", "window-bool", "max_iters-numpy", "window-numpy"])
def test_run_counts_must_be_integers(field, value, message):
    game, _ = consensus_instance([(2, 3), (0, 1)])
    params = SolverParams.for_game(game, **{field: value})
    assert validate_params(game, params, horizon=5) == ([message] if message else [])


@pytest.mark.parametrize("eta", [0.0, -2.0])  # -2 is minus the players' chi
def test_nonpositive_eta_is_reported_not_raised(eta):
    game, _ = consensus_instance([(2, 3), (0, 1)])
    assert {p.interaction_bound for p in game.players} == {2.0}
    params = SolverParams.for_game(game, eta=eta)
    assert validate_params(game, params, horizon=5) == [f"eta must be positive, got {eta}"]


def test_relaxation_interval_checked():
    game, _ = consensus_instance([(2, 3), (0, 1)])
    params = SolverParams.for_game(game, relaxation=2.5)
    report = validate_params(game, params, horizon=5)
    assert any("relaxation" in line for line in report)


def test_defaults_sit_on_admissible_bounds():
    game, _ = shared_constraint_instance()
    params = SolverParams.for_game(game)
    assert validate_params(game, params, horizon=200) == []
    assert params.strategy_step(0, 0) == 1.0 / 0.1
    assert params.interaction_step(0, 0) == 1.0 / 1.1
    assert params.coupling_step(0, 0) == 1.0 / 0.1


def test_interaction_properties_on_shipped_instances():
    # monotonicity, the per-player curvature cap, and the global Lipschitz
    # constant, sampled directly at 1e-9 relative tolerance
    from nashsplit.problems import (
        lasso_instance,
        matching_pennies_instance,
    )

    rng = np.random.default_rng(14)
    instances = [
        consensus_instance([(2, 3), (0, 1)])[0],
        matching_pennies_instance()[0],
        shared_constraint_instance()[0],
        lasso_instance(rng.standard_normal((3, 3)), rng.standard_normal(3), 1.0)[0],
    ]
    for game in instances:
        dim = game.total_interaction_dim
        offs = game.interaction_offsets()
        bounds = [p.interaction_bound for p in game.players]
        for _ in range(50):
            ya = rng.standard_normal(dim) * 3.0
            yb = ya + rng.standard_normal(dim)
            dy = ya - yb
            dq = np.asarray(game.interaction.eval(ya)) - np.asarray(game.interaction.eval(yb))
            inner = float(dy @ dq)
            scale = 1.0 + abs(inner)
            assert inner >= -1e-9 * scale
            cap = sum(
                bounds[i] * float(dy[offs[i]:offs[i + 1]] @ dy[offs[i]:offs[i + 1]])
                for i in range(game.num_players)
            )
            assert inner <= cap * (1.0 + 1e-9) + 1e-9
            assert float(np.linalg.norm(dq)) <= (
                game.interaction.lipschitz * float(np.linalg.norm(dy)) * (1.0 + 1e-9) + 1e-9
            )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    smooth_terms = [
        quadratic_smooth(2.0, [1.0, -1.0, 0.5]),
        quadratic_smooth(0.0, [3.0, 0.0, -2.0]),
    ]
    for term in smooth_terms:
        for _ in range(20):
            x = rng.standard_normal(3) * 2.0
            approx = fd_gradient(term.value, x)
            exact = term.grad(x)
            scale = 1.0 + float(np.linalg.norm(exact))
            assert np.max(np.abs(approx - exact)) / scale <= 1e-5
