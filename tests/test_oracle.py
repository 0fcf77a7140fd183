"""Certificates and reference solvers."""

import re

import numpy as np
import pytest

from nashsplit import oracle, proximal
from nashsplit.linops import Dense, DimensionError, Identity
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
from nashsplit.oracle import (
    NoConsistentActiveSetError,
    best_response_fixed_point,
    check_equilibrium,
    equilibrium_tuple,
    quadratic_game_exact,
)
from nashsplit.problems import (
    build_minimization,
    consensus_instance,
    matching_pennies_instance,
    shared_constraint_instance,
)
from nashsplit.schedules import synchronous
from nashsplit.solver import IterState, player_local_step, solve


class TestCheckEquilibrium:
    def test_shared_constraint_solution_certifies(self):
        game, _ = shared_constraint_instance()
        # the coupling dual of the >=-constraint carries the negative sign
        # of the conventional multiplier 1.0
        cert = check_equilibrium(game, [[2.0], [3.0]], [[1.0], [1.0]], [[-1.0]])
        assert cert.max_residual <= 1e-10

    def test_infeasible_point_has_positive_gap(self):
        game, _ = shared_constraint_instance()
        cert = check_equilibrium(game, [[-4.0], [20.0]])
        assert max(cert.feasibility_gaps) > 0.0

    def test_zero_problem_certifies_anywhere(self):
        players = [
            PlayerBlock(2, 2, proximal.zero(), zero_smooth(), 0.0, Identity(2), 1.0)
        ]
        game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0))
        cert = check_equilibrium(game, [[3.0, -7.0]], [[0.0, 0.0]])
        assert cert.max_residual == 0.0

    def test_wrong_dual_sign_fails_certificate(self):
        game, _ = shared_constraint_instance()
        cert = check_equilibrium(game, [[2.0], [3.0]], [[1.0], [1.0]], [[1.0]])
        assert cert.max_residual > 0.5


def _grouped_players():
    """Seven players: boxes group by kind, l1 terms by weight, and the simplex stays alone."""
    terms = [proximal.box([-1.0], [1.0]), proximal.box([0.0], [2.0]), proximal.l1(0.5),
             proximal.l1(2.0), proximal.l1(0.5), proximal.simplex(), proximal.zero()]
    widths = [1, 1, 1, 1, 1, 2, 1]
    players = [PlayerBlock(d, d, t, zero_smooth(), 0.0, Identity(d), 1.0)
               for t, d in zip(terms, widths)]
    game = Game(players, InteractionGradient(lambda y: 0.5 * y, 1.0))
    return game, [[0.5], [3.0], [1.0], [-3.0], [0.2], [0.3, 0.3], [4.0]], None


def _grouped_players_and_couplings():
    """Three players and four couplings (entries 4 to 8 of ``[x | Lx]``): each coupling term
    but the orthant joins the group of a player's term that it stacks with."""
    players = [PlayerBlock(d, d, t, zero_smooth(), 0.0, Identity(d), 1.0)
               for t, d in ((proximal.box([-1.0], [1.0]), 1), (proximal.l1(0.5), 1),
                            (proximal.zero(), 2))]
    couplings = [
        CouplingBlock(1, proximal.box([0.0], [2.0]), zero_smooth(), 0.0, {0: Identity(1)}),
        CouplingBlock(2, proximal.l1(0.5), quadratic_smooth(1.0, [0.5, -0.5]), 1.0,
                      {1: Dense([[1.0], [2.0]]), 2: Identity(2)}),
        CouplingBlock(1, proximal.shifted_orthant([0.5]), zero_smooth(), 0.0,
                      {0: Identity(1), 1: Identity(1)}),
        CouplingBlock(1, proximal.zero(), zero_smooth(), 0.0, {2: Dense([[1.0, -1.0]])}),
    ]
    game = Game(players, InteractionGradient(lambda y: 0.5 * y, 1.0), couplings)
    return game, [[0.5], [-2.0], [0.3, 1.5]], [[1.0], [0.2, -0.4], [-1.0], [0.5]]


def test_certificate_calls_prox_once_per_group(monkeypatch):
    # one call per group, and one more for the gaps of each indicator group
    cases = [
        (_grouped_players, [("box", [0, 1]), ("l1", [2, 4]), ("l1", [3]), ("simplex", [5, 6]),
                            ("zero", [7])], 5 + 2, (7, 0, 3)),
        (_grouped_players_and_couplings, [("box", [0, 4]), ("l1", [1, 5, 6]), ("zero", [2, 3, 8]),
                                          ("shifted_orthant", [7])], 4 + 2, (3, 4, 3)),
    ]
    calls = []
    monkeypatch.setattr(oracle, "prox", lambda *args: calls.append(args) or proximal.prox(*args))
    for make, groups, count, lines in cases:
        game, x, v = make()
        assert [(g.term.kind, g.index.tolist()) for g in game.prox_groups] == groups
        calls.clear()
        cert = check_equilibrium(game, x, v_star=v)
        assert len(calls) == count
        assert (len(cert.player_residuals), len(cert.coupling_residuals),
                len(cert.feasibility_gaps)) == lines


class _LongMix(Identity):
    """A one-entry identity that appends a stray entry to the output of ``method``."""

    def __init__(self, method):
        super().__init__(1)
        self.method = method

    def apply(self, x):
        out = super().apply(x)
        return np.append(out, 0.0) if self.method == "apply" else out

    def adjoint_apply(self, y):
        out = super().adjoint_apply(y)
        return np.append(out, 0.0) if self.method == "adjoint_apply" else out


def _two_box_players(bad_grad=None, bad_mix=None,
                     interaction=lambda y: y - np.array([0.5, -0.5])):
    players = [
        PlayerBlock(1, 1, proximal.box([-1.0], [1.0]), zero_smooth(), 0.0, Identity(1), 1.0),
        PlayerBlock(1, 1, proximal.box([-1.0], [1.0]),
                    zero_smooth() if bad_grad is None else SmoothTerm(lambda x: 0.0, bad_grad),
                    0.0, Identity(1) if bad_mix is None else bad_mix, 1.0),
    ]
    return Game(players, InteractionGradient(interaction, 1.0))


@pytest.mark.parametrize("game, message", [
    (_two_box_players(bad_grad=lambda x: np.zeros(2)),
     r"player 1: smooth gradient returned shape \(2,\), expected \(1,\)"),
    (_two_box_players(bad_grad=lambda x: 0.0),
     r"player 1: smooth gradient returned shape \(\), expected \(1,\)"),
    (_two_box_players(bad_grad=lambda x: np.zeros((1, 1))),
     r"player 1: smooth gradient returned shape \(1, 1\), expected \(1,\)"),
    (_two_box_players(bad_mix=_LongMix("apply")),
     r"player 1: mix returned shape \(2,\), expected \(1,\)"),
    (_two_box_players(bad_mix=_LongMix("adjoint_apply")),
     r"player 1: mix adjoint returned shape \(2,\), expected \(1,\)"),
    (_two_box_players(interaction=lambda y: y[:1]),
     r"interaction gradient returned shape \(1,\), expected \(2,\)"),
])
def test_certificate_names_a_wrong_output_shape(game, message):
    with pytest.raises(ValueError, match=message):
        check_equilibrium(game, [[0.0], [0.0]])
    with pytest.raises(ValueError, match=message):
        check_equilibrium(game, [np.zeros(1), np.zeros(1)], coerce=False)


@pytest.mark.parametrize("field", ["x", "u*", "v*"])
@pytest.mark.parametrize("fault", ["long", "nan", "extra-block"])
def test_a_bad_stacked_vector_names_its_field(field, fault):
    game, _ = shared_constraint_instance()     # two scalar players, one scalar coupling
    args = {"x": np.ones(2), "u*": np.ones(2), "v*": np.ones(1)}
    width = args[field].shape[0]
    if fault == "long":
        args[field] = np.ones(width + 1)
        message = f"{field}: expected dimension {width}, got {width + 1}"
    elif fault == "nan":
        args[field][-1] = np.nan
        message = f"{field}: entries must be finite"
    else:   # per-block input with one block more than the layout has
        args[field] = [[1.0]] * (width + 1)
        message = f"{field}: expected {width} blocks, got {width + 1}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_equilibrium(game, *args.values())
    if field != "u*":
        with pytest.raises(ValueError, match=re.escape(message)):
            equilibrium_tuple(game, args["x"], args["v*"])
    args[field] = np.ones(width)
    assert check_equilibrium(game, *args.values()) == check_equilibrium(game, [[1.0], [1.0]],
                                                                         [[1.0], [1.0]], [[1.0]])


@pytest.mark.parametrize("bad, message", [
    (dict(bad_mix=_LongMix("apply")), "player 1: mix returned shape (2,), expected (1,)"),
    (dict(bad_mix=_LongMix("adjoint_apply")),
     "player 1: mix adjoint returned shape (2,), expected (1,)"),
    (dict(bad_grad=lambda x: np.zeros(2)),
     "player 1: smooth gradient returned shape (2,), expected (1,)"),
], ids=["mix", "mix-adjoint", "smooth-gradient"])
def test_the_player_step_names_a_wrong_output_shape(bad, message):
    # the step goes through the certificate's Game.mix and checks each
    # hand-made smooth gradient, before any output is combined
    game = _two_box_players(**bad)
    state = IterState(game)
    with pytest.raises(ValueError, match=re.escape(message)):
        player_local_step(game, SolverParams.for_game(game), state, (0, 1), {0: 0, 1: 0})


def _bad_coupling_gradient_game():
    coupling = CouplingBlock(1, proximal.zero(), SmoothTerm(lambda z: 0.0, lambda z: np.zeros(2)),
                             0.0, {0: Identity(1)})
    base = _two_box_players()
    return Game(base.players, base.interaction, [coupling])


@pytest.mark.parametrize("make, error, message", [
    (lambda: _two_box_players(bad_mix=_LongMix("apply")), ValueError,
     "player 1: mix returned shape (2,), expected (1,)"),
    (lambda: _two_box_players(bad_mix=_LongMix("adjoint_apply")), ValueError,
     "player 1: mix adjoint returned shape (2,), expected (1,)"),
    (lambda: _two_box_players(bad_grad=lambda x: np.zeros(2)), ValueError,
     "player 1: smooth gradient returned shape (2,), expected (1,)"),
    (_bad_coupling_gradient_game, ValueError,
     "coupling 0: smooth gradient returned shape (2,), expected (1,)"),
    (lambda: _two_box_players(bad_mix=Dense([[1.0, 1.0]])), DimensionError,
     "Dense.apply: expected a vector of dimension 2, got shape (1,)"),
], ids=["mix", "mix-adjoint", "smooth-gradient", "coupling-gradient", "mix-matrix"])
def test_solve_names_the_tick_of_a_wrong_local_step_output(make, error, message):
    # the local steps of tick 0 see the wrong shape first; their error keeps
    # its type and ends with the tick, once, where the certificate's names no tick
    game = make()
    with pytest.raises(error, match=re.escape(f"{message}, at tick 0") + "$") as caught:
        solve(game, SolverParams.for_game(game), synchronous(), validate=False)
    assert caught.type is error


def test_solve_names_a_wrong_gradient_shape_in_the_certificate():
    # the gradient of player 1 goes wrong after the two calls of its tick-0
    # step, so the certificate of tick 0 is the first to see a wrong shape
    calls = []

    def grad(x):
        calls.append(None)
        return np.zeros(1 if len(calls) <= 2 else 2)

    game = _two_box_players(bad_grad=grad)
    with pytest.raises(ValueError, match=r"player 1: smooth gradient returned shape \(2,\)"):
        solve(game, SolverParams.for_game(game), synchronous(), validate=False)
    assert len(calls) == 3


def _one_entry_resolvent(block: str) -> Game:
    """A game whose player 1 (a two-entry strategy) or coupling 0 (two entries)
    has a resolvent that returns one entry of two."""
    short = proximal.custom_resolvent(lambda gamma, v: v[:1])
    players = [
        PlayerBlock(1, 1, proximal.box([-1.0], [1.0]), zero_smooth(), 0.0, Identity(1), 1.0),
        PlayerBlock(2, 2, short if block == "player" else proximal.zero(), zero_smooth(), 0.0,
                    Identity(2), 1.0),
    ]
    coupling = CouplingBlock(2, short if block == "coupling" else proximal.zero(), zero_smooth(),
                             0.0, {0: Dense([[1.0], [0.0]]), 1: Dense([[0.0, 0.0], [1.0, 1.0]])})
    return Game(players, InteractionGradient(lambda y: y - 0.5, 1.0), [coupling])


@pytest.mark.parametrize("block, message", [
    ("player", "player 1: prox returned shape (1,), expected (2,)"),
    ("coupling", "coupling 0: prox returned shape (1,), expected (2,)"),
])
def test_certificate_names_a_wrong_prox_shape(block, message):
    # a one-entry output used to broadcast into both entries of the residual
    game = _one_entry_resolvent(block)
    with pytest.raises(ValueError, match=re.escape(message)):
        check_equilibrium(game, [[0.5], [1.0, -1.0]], v_star=[[1.0, 2.0]])


def _nan_coupling_gradient_game():
    coupling = CouplingBlock(1, proximal.zero(),
                             SmoothTerm(lambda z: 0.0, lambda z: np.full(1, np.nan)), 0.0,
                             {0: Identity(1)})
    base = _two_box_players()
    return Game(base.players, base.interaction, [coupling])


@pytest.mark.parametrize("make, field", [
    (lambda: _two_box_players(bad_grad=lambda x: np.full(1, np.nan)), "player_residuals"),
    (_nan_coupling_gradient_game, "coupling_residuals"),
], ids=["player", "coupling"])
def test_a_nan_line_makes_the_maximum_nan(make, field):
    # the finite player 0 line comes first, and Python's max() drops a NaN
    # that is not first; a NaN maximum keeps a run from reading as converged
    cert = check_equilibrium(make(), [[1.0], [1.0]])
    assert np.isnan(getattr(cert, field)[-1]) and cert.player_residuals[0] == 0.5
    assert np.isnan(cert.max_residual)


class TestBestResponse:
    def test_consensus_boxes(self):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        got = best_response_fixed_point(game)
        assert got.converged and got.sweeps <= 5
        assert np.allclose(np.concatenate(got.x), [2.0, 1.0], atol=1e-9)

    def test_singletons_snap_immediately(self):
        game, _ = consensus_instance([4.0, -2.0])
        got = best_response_fixed_point(game)
        assert got.converged and got.sweeps <= 2
        assert np.allclose(np.concatenate(got.x), [4.0, -2.0])

    def test_matching_pennies_cycles(self):
        game, _ = matching_pennies_instance()
        got = best_response_fixed_point(
            game, x0=[[1.0, 0.0], [1.0, 0.0]], rounds=8
        )
        assert not got.converged

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_x0_must_hold_one_block_per_player(self, blocks):
        game, _ = consensus_instance([(2, 3), (0, 1)])
        with pytest.raises(ValueError, match=re.escape(f"x0: expected 2 blocks, got {blocks}")):
            best_response_fixed_point(game, x0=[[0.0]] * blocks)

    def test_rejects_nonsmooth_couplings(self):
        game, _ = shared_constraint_instance()
        with pytest.raises(ValueError, match="smooth couplings"):
            best_response_fixed_point(game)


class TestQuadraticGameExact:
    def test_shared_constraint_canonical(self):
        game, _ = shared_constraint_instance()
        got = quadratic_game_exact(game)
        assert np.allclose(np.concatenate(got.x), [2.0, 3.0], atol=1e-9)
        assert got.multipliers[0][0] == pytest.approx(1.0, abs=1e-9)
        assert got.v_star[0][0] == pytest.approx(-1.0, abs=1e-9)

    def test_unconstrained_consensus_midpoint_symmetry(self):
        game, _ = consensus_instance([None, None])
        got = quadratic_game_exact(game)
        assert abs(got.x[0][0] - got.x[1][0]) <= 1e-12

    def test_separable_boxes_clamp_unconstrained_solution(self):
        game, _ = build_minimization(
            [proximal.box([0.0], [1.0]), proximal.box([0.0], [1.0])],
            joint_grad=lambda y: y - np.array([5.0, -3.0]),
            joint_lipschitz=1.0,
        )
        got = quadratic_game_exact(game)
        assert np.allclose(np.concatenate(got.x), [1.0, 0.0], atol=1e-12)

    def test_outputs_always_certify(self):
        for maker in (
            lambda: shared_constraint_instance(),
            lambda: shared_constraint_instance(targets=(4.0, 4.0), rhs=2.0),
            lambda: consensus_instance([(2, 3), (0, 1)]),
        ):
            game, _ = maker()
            got = quadratic_game_exact(game)
            cert = check_equilibrium(game, got.x, got.u_star, got.v_star)
            assert cert.max_residual <= 1e-8

    def test_infeasible_instance_raises(self):
        game, _ = shared_constraint_instance(targets=(1.0, 2.0), rhs=100.0, box=(0.0, 10.0))
        with pytest.raises(NoConsistentActiveSetError):
            quadratic_game_exact(game)

    def test_nonquadratic_rejected(self):
        players = [
            PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0)
        ]
        game = Game(players, InteractionGradient(lambda y: y ** 3, 1.0))
        with pytest.raises(ValueError, match="not affine"):
            quadratic_game_exact(game)


def test_equilibrium_tuple_assembly():
    game, _ = shared_constraint_instance()
    ref = equilibrium_tuple(game, [[2.0], [3.0]], [[-1.0]])
    xs, ys, zs, us, vs = ref
    assert np.array_equal(np.concatenate(ys), [2.0, 3.0])   # identity mixes
    assert np.array_equal(zs[0], [5.0])                      # constraint mixture
    assert np.array_equal(np.concatenate(us), [1.0, 1.0])    # interaction gradient
    assert np.array_equal(vs[0], [-1.0])


def _mixed_coupling_game():
    """Two players, an orthant coupling (an indicator) and an l1 coupling with a smooth part."""
    players = [
        PlayerBlock(2, 2, proximal.box([-1.0, -1.0], [1.0, 1.0]),
                    quadratic_smooth(1.0, [0.5, -0.5]), 1.0, Identity(2), 1.0),
        PlayerBlock(1, 1, proximal.zero(), zero_smooth(), 0.0, Identity(1), 1.0),
    ]
    shift = np.array([0.1, -0.2, 0.3])
    couplings = [
        CouplingBlock(1, proximal.shifted_orthant([0.5]), zero_smooth(), 0.0,
                      {0: Dense([[1.0, 1.0]]), 1: Identity(1)}),
        CouplingBlock(2, proximal.l1(0.3), quadratic_smooth(2.0, [1.0, 0.0]), 2.0,
                      {0: Identity(2)}),
    ]
    return Game(players, InteractionGradient(lambda y: 0.5 * y + shift, 0.5), couplings)


def _pin_case(name):
    """(game, x, u*, v*), the blocks as lists as a caller would give them."""
    lasso_design = np.random.default_rng(3).standard_normal((3, 5)).round(3)
    return {
        "consensus": lambda: (consensus_instance([(2, 3), (0, 1)])[0],
                              [[2.5], [0.75]], [[0.3], [-0.2]], None),
        "matching_pennies": lambda: (matching_pennies_instance()[0],
                                     [[0.3, 0.7], [0.6, 0.4]], [[0.1, -0.1], [0.2, 0.05]], None),
        "shared_constraint": lambda: (shared_constraint_instance()[0],
                                      [[-4.0], [20.0]], [[1.0], [1.5]], [[-0.75]]),
        "lasso_3x5": lambda: (build_minimization(
            [proximal.l1(0.5) for _ in range(5)],
            lambda y: lasso_design.T @ (lasso_design @ y - np.array([1.0, -0.5, 0.25])),
            10.0, strategy_dims=[1] * 5)[0],
            [[0.2], [-0.1], [0.0], [0.4], [-0.3]], [[0.1], [0.2], [0.3], [0.4], [0.5]], None),
        "mixed_couplings": lambda: (_mixed_coupling_game(),
                                    [[0.4, -1.5], [0.25]], [[0.2, 0.1], [-0.3]], [[-0.5], [0.2, -0.4]]),
    }[name]()


def _hexes(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _cert_hexes(cert) -> str:
    return " | ".join([_hexes(cert.player_residuals), _hexes(cert.interaction_residuals),
                       _hexes(cert.coupling_residuals), _hexes(cert.feasibility_gaps),
                       _hexes([cert.max_residual])])


def _tuple_hexes(parts) -> str:
    return " | ".join(_hexes(np.concatenate(group)) if group else "" for group in parts)


def _pin_fingerprints(game, x, u, v):
    """Certificates (with given and default u*, v*) and solution tuples, as float.hex."""
    arrays = [[np.asarray(b, dtype=float) for b in blocks] if blocks is not None else None
              for blocks in (x, u, v)]
    certs = {}
    for label, args in (("given", (x, u, v)), ("default", (x,))):
        coerced = check_equilibrium(game, *args)
        raw = check_equilibrium(game, *arrays[:len(args)], coerce=False)
        assert _cert_hexes(raw) == _cert_hexes(coerced)
        certs[label] = _cert_hexes(coerced)
    return (certs["given"], certs["default"],
            _tuple_hexes(equilibrium_tuple(game, x, v)), _tuple_hexes(equilibrium_tuple(game, x)))


PINNED_FINGERPRINTS = {
    'consensus': (
        '0x1.3333333333330p-2 0x1.9999999999998p-3 | 0x1.7333333333333p+0 0x1.8cccccccccccdp+0 |  | 0x0.0p+0 0x0.0p+0 | 0x1.8cccccccccccdp+0',
        '0x1.0000000000000p-1 0x1.0000000000000p-2 | 0x0.0p+0 0x0.0p+0 |  | 0x0.0p+0 0x0.0p+0 | 0x1.0000000000000p-1',
        '0x1.4000000000000p+1 0x1.8000000000000p-1 | 0x1.4000000000000p+1 0x1.8000000000000p-1 |  | 0x1.c000000000000p+0 -0x1.c000000000000p+0 | ',
        '0x1.4000000000000p+1 0x1.8000000000000p-1 | 0x1.4000000000000p+1 0x1.8000000000000p-1 |  | 0x1.c000000000000p+0 -0x1.c000000000000p+0 | ',
    ),
    'matching_pennies': (
        '0x1.21a1851ff630bp-3 0x1.b27247aff1493p-4 | 0x1.21a1851ff6307p-3 0x1.f842f2f055703p-2 |  | 0x0.0p+0 0x0.0p+0 | 0x1.f842f2f055703p-2',
        '0x1.21a1851ff6309p-2 0x1.21a1851ff630ap-1 | 0x0.0p+0 0x0.0p+0 |  | 0x0.0p+0 0x0.0p+0 | 0x1.21a1851ff630ap-1',
        '0x1.3333333333333p-2 0x1.6666666666666p-1 0x1.3333333333333p-1 0x1.999999999999ap-2 | 0x1.3333333333333p-2 0x1.6666666666666p-1 0x1.3333333333333p-1 0x1.999999999999ap-2 |  | 0x1.9999999999998p-3 -0x1.9999999999998p-3 0x1.9999999999999p-2 -0x1.9999999999999p-2 | ',
        '0x1.3333333333333p-2 0x1.6666666666666p-1 0x1.3333333333333p-1 0x1.999999999999ap-2 | 0x1.3333333333333p-2 0x1.6666666666666p-1 0x1.3333333333333p-1 0x1.999999999999ap-2 |  | 0x1.9999999999998p-3 -0x1.9999999999998p-3 0x1.9999999999999p-2 -0x1.9999999999999p-2 | ',
    ),
    'shared_constraint': (
        '0x1.0000000000000p+2 0x1.4000000000000p+3 | 0x1.8000000000000p+2 0x1.0800000000000p+4 | 0x1.8000000000000p-1 | 0x1.0000000000000p+2 0x1.4000000000000p+3 0x0.0p+0 | 0x1.0800000000000p+4',
        '0x1.4000000000000p+2 0x1.2000000000000p+4 | 0x0.0p+0 0x0.0p+0 | 0x0.0p+0 | 0x1.0000000000000p+2 0x1.4000000000000p+3 0x0.0p+0 | 0x1.2000000000000p+4',
        '-0x1.0000000000000p+2 0x1.4000000000000p+4 | -0x1.0000000000000p+2 0x1.4000000000000p+4 | 0x1.0000000000000p+4 | -0x1.4000000000000p+2 0x1.2000000000000p+4 | -0x1.8000000000000p-1',
        '-0x1.0000000000000p+2 0x1.4000000000000p+4 | -0x1.0000000000000p+2 0x1.4000000000000p+4 | 0x1.0000000000000p+4 | -0x1.4000000000000p+2 0x1.2000000000000p+4 | 0x0.0p+0',
    ),
    'lasso_3x5': (
        '0x1.999999999999ap-3 0x1.999999999999ap-4 0x0.0p+0 0x1.999999999999ap-2 0x1.0000000000000p-54 | 0x1.b42fc9f226f96p-1 0x1.28938a8bdf9cap+1 0x1.25139ae77772fp-2 0x1.079bbe3707d40p-1 0x1.39f5367862116p+1 |  |  | 0x1.39f5367862116p+1',
        '0x1.01f92d7de78c7p-2 0x1.022d242579364p+1 0x0.0p+0 0x1.a8d11607a941ap-2 0x1.73ea6cf0c422cp+0 | 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 |  |  | 0x1.022d242579364p+1',
        '0x1.999999999999ap-3 -0x1.999999999999ap-4 0x0.0p+0 0x1.999999999999ap-2 -0x1.3333333333333p-2 | 0x1.999999999999ap-3 -0x1.999999999999ap-4 0x0.0p+0 0x1.999999999999ap-2 -0x1.3333333333333p-2 |  | -0x1.80fc96bef3c63p-1 0x1.422d242579364p+1 0x1.c3f309777807ap-7 0x1.d4688b03d4a0dp-1 -0x1.f3ea6cf0c422cp+0 | ',
        '0x1.999999999999ap-3 -0x1.999999999999ap-4 0x0.0p+0 0x1.999999999999ap-2 -0x1.3333333333333p-2 | 0x1.999999999999ap-3 -0x1.999999999999ap-4 0x0.0p+0 0x1.999999999999ap-2 -0x1.3333333333333p-2 |  | -0x1.80fc96bef3c63p-1 0x1.422d242579364p+1 0x1.c3f309777807ap-7 0x1.d4688b03d4a0dp-1 -0x1.f3ea6cf0c422cp+0 | ',
    ),
    'mixed_couplings': (
        '0x1.4ffc1955632b9p+1 0x1.999999999999ap-1 | 0x1.0e042bf63b85dp+0 0x1.7333333333333p-1 | 0x1.599999999999ap+0 0x1.522c09f9f97ccp+1 | 0x1.0000000000000p-1 0x1.599999999999ap+0 | 0x1.522c09f9f97ccp+1',
        '0x1.62f4726276ccap+1 0x1.b333333333333p-2 | 0x0.0p+0 0x0.0p+0 | 0x1.599999999999ap+0 0x1.8b5a299c1670ap+1 | 0x1.0000000000000p-1 0x1.599999999999ap+0 | 0x1.8b5a299c1670ap+1',
        '0x1.999999999999ap-2 -0x1.8000000000000p+0 0x1.0000000000000p-2 | 0x1.999999999999ap-2 -0x1.8000000000000p+0 0x1.0000000000000p-2 | -0x1.b333333333334p-1 0x1.999999999999ap-2 -0x1.8000000000000p+0 | 0x1.3333333333334p-2 -0x1.e666666666666p-1 0x1.b333333333333p-2 | -0x1.0000000000000p-1 0x1.999999999999ap-3 -0x1.999999999999ap-2',
        '0x1.999999999999ap-2 -0x1.8000000000000p+0 0x1.0000000000000p-2 | 0x1.999999999999ap-2 -0x1.8000000000000p+0 0x1.0000000000000p-2 | -0x1.b333333333334p-1 0x1.999999999999ap-2 -0x1.8000000000000p+0 | 0x1.3333333333334p-2 -0x1.e666666666666p-1 0x1.b333333333333p-2 | 0x0.0p+0 0x0.0p+0 0x0.0p+0',
    ),
}


@pytest.mark.parametrize("name", list(PINNED_FINGERPRINTS))
def test_certificate_and_tuple_are_pinned(name):
    # float.hex of every certificate residual and tuple entry, computed before
    # the oracle evaluated the first-order system in one helper; both coerce
    # paths must give the same bits
    assert _pin_fingerprints(*_pin_case(name)) == PINNED_FINGERPRINTS[name]
