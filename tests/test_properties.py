"""Property-based checks over randomly drawn schedules, layouts and games.

The examples are bounded and derandomized by the profile that
``conftest.py`` loads.
"""

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import nashsplit as ns  # noqa: E402
from nashsplit import proximal, schedules, solver  # noqa: E402
from nashsplit.linops import Dense, Identity, ScaledIdentity, Zero  # noqa: E402
from nashsplit.model import (  # noqa: E402
    CouplingBlock, Game, InteractionGradient, PlayerBlock, SmoothTerm, SolverParams,
    quadratic_smooth, validate_problem, zero_smooth,
)
from nashsplit.problems import (  # noqa: E402
    build_quadratic_coupling, lasso_instance, shared_constraint_instance,
)
from nashsplit.solver import IterState, tick  # noqa: E402

from _oracles import _block_inner as loop_block_inner, random_schedule_tick  # noqa: E402
from _oracles import quadratic_coupling_gradient  # noqa: E402
from _oracles import check_equilibrium as per_block_check_equilibrium  # noqa: E402
from _oracles import reference_tick  # noqa: E402
from _oracles import validate_problem as per_sample_validate_problem  # noqa: E402

_RNG = np.random.default_rng(8)
INSTANCES = {
    "shared": shared_constraint_instance()[0],
    "lasso": lasso_instance(_RNG.standard_normal((3, 5)), _RNG.standard_normal(3), 0.5)[0],
}


@given(
    name=st.sampled_from(sorted(INSTANCES)),
    seed=st.integers(0, 2**31 - 1),
    prob=st.floats(0.1, 1.0),
    max_lag=st.integers(0, 5),
)
def test_reported_residual_is_a_fresh_certificate(name, seed, prob, max_lag):
    game = INSTANCES[name]
    window = 8
    params = SolverParams.for_game(game, max_lag=max_lag, window=window)
    schedule = ns.randomized(seed, prob, max_lag=max_lag, window=window)
    state = IterState(game, max_lag=max_lag)
    for _ in range(60):
        rep = tick(game, params, schedule, state)
        fresh = ns.check_equilibrium(game, state.x, state.u_star, state.v_star)
        assert rep.kkt_residual == fresh.max_residual


# seeds at the uint32 word boundaries, where the entropy grows a word
SEEDS = st.one_of(st.sampled_from((0, 2**32 - 1, 2**32, 2**40 + 5)), st.integers(0, 2**64))
PROBS = st.floats(0.0, 1.0, exclude_min=True)


@given(
    seed=SEEDS,
    prob=PROBS,
    window=st.integers(0, 25),
    max_lag=st.integers(0, 6),
    num_players=st.integers(1, 10),
    num_couplings=st.integers(0, 3),
    data=st.data(),
)
def test_random_ticks_equal_the_original_draws(seed, prob, window, max_lag, num_players,
                                               num_couplings, data):
    # ticks from 0, and ticks across 2**32, where the tick's entropy grows a word
    ticks = [*range(40), *range(2**32 - 3, 2**32 + 3)]
    expected = {n: schedules.Tick(*random_schedule_tick(seed, prob, window, max_lag, n,
                                                        num_players, num_couplings))
                for n in ticks}
    sched = ns.randomized(seed, prob, max_lag=max_lag, window=window)

    def replay(order, clear_at=None):
        schedules._raw_active.cache_clear()
        for pos, n in enumerate(order):
            if pos == clear_at:
                schedules._raw_active.cache_clear()
            assert sched.next_tick(n, num_players, num_couplings) == expected[n], n

    replay(ticks)
    replay(data.draw(st.permutations(ticks), label="shuffled"))
    replay(ticks, clear_at=data.draw(st.integers(1, len(ticks) - 1), label="clear_at"))


@given(
    seed=SEEDS,
    prob=PROBS,
    window=st.integers(0, 25),
    max_lag=st.integers(0, 6),
    num_players=st.integers(1, 10),
    num_couplings=st.integers(0, 3),
)
def test_audit_clean_for_random_schedules(seed, prob, window, max_lag, num_players,
                                          num_couplings):
    sched = ns.randomized(seed, prob, max_lag=max_lag, window=window)
    assert ns.audit(sched, 150, num_players, num_couplings) == []


@given(
    block_size=st.integers(1, 5),
    num_players=st.integers(1, 10),
    num_couplings=st.integers(0, 3),
    slack=st.integers(0, 3),
)
def test_audit_clean_for_cyclic_schedules_with_a_full_rotation(block_size, num_players,
                                                              num_couplings, slack):
    # one rotation of the most numerous block kind takes ceil(m / block_size) ticks
    rotation = math.ceil(max(num_players, num_couplings) / block_size)
    sched = ns.cyclic(block_size, window=rotation - 1 + slack)
    assert ns.audit(sched, 60, num_players, num_couplings) == []
    if rotation >= 2:
        short = ns.cyclic(block_size, window=rotation - 2)
        assert any("never activated" in line
                   for line in ns.audit(short, 60, num_players, num_couplings))


def layout_game(player_dims, coupling_dims):
    """A game that fixes only a state layout: ``(strategy, interaction)`` widths per player."""
    players = [PlayerBlock(ds, di, proximal.zero(), zero_smooth(), 0.0,
                           Dense(np.zeros((di, ds))), 1.0)
               for ds, di in player_dims]
    couplings = [CouplingBlock(d, proximal.zero(), zero_smooth(), 0.0, {}) for d in coupling_dims]
    return Game(players, InteractionGradient(lambda y: y, 1.0), couplings)


@given(
    num_players=st.integers(1, 6),
    num_couplings=st.integers(0, 3),
    max_width=st.sampled_from((1, 3)),
    zero_share=st.sampled_from((0.0, 0.3, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_block_inner_equals_the_per_block_loop(num_players, num_couplings, max_width, zero_share,
                                               seed, data):
    width = st.integers(1, max_width)
    player_dims = data.draw(st.lists(st.tuples(width, width), min_size=num_players,
                                     max_size=num_players), label="players")
    coupling_dims = data.draw(st.lists(width, min_size=num_couplings, max_size=num_couplings),
                              label="couplings")
    game = layout_game(player_dims, coupling_dims)
    one_entry = {w for dims in player_dims for w in dims} | set(coupling_dims) == {1}
    _check_block_inner(game, np.random.default_rng(seed), zero_share, one_entry)


@pytest.mark.parametrize("zero_share", (0.0, 0.3, 1.0))
@pytest.mark.parametrize("num_players, num_couplings", [(1, 0), (1, 1), (1, 2), (4, 1), (4, 2)])
def test_block_inner_at_the_edges(num_players, num_couplings, zero_share):
    # one player, and one or two couplings, bit for bit against the loop
    game = layout_game([(1, 1)] * num_players, [1] * num_couplings)
    _check_block_inner(game, np.random.default_rng(10 * num_players + num_couplings), zero_share,
                       one_entry=True)


def _check_block_inner(game, rng, zero_share, one_entry):
    # generic floats, so that another summation order shows in the last bits,
    # with a share of signed zeros in random places, then -0.0 products only
    for draw in range(21):
        left, right = rng.standard_normal((2, game.state_size))
        if draw == 20:
            left, right = np.abs(left), np.full(game.state_size, -0.0)
        else:
            zeros = rng.random((2, game.state_size)) < zero_share
            left[zeros[0]], right[zeros[1]] = 0.0, -0.0
            left[zeros[0] & (rng.random(game.state_size) < 0.5)] = -0.0
        got = solver._block_inner(game, left, right)
        want = loop_block_inner(game, left, right)
        assert type(got) is float
        if one_entry or draw == 20:
            # one-entry blocks: the same products added in the same order
            assert got.hex() == want.hex()
        else:
            # a BLAS dot may fuse or reorder within a block: agree to rounding
            scale = float(np.abs(left) @ np.abs(right))
            assert abs(got - want) <= 4 * game.state_size * np.finfo(float).eps * scale
    assert got.hex() == (0.0).hex()


def test_block_inner_of_negative_zero_products_is_positive_zero():
    game = layout_game([(1, 1), (1, 1)], [1])
    left = np.array([-1.0, 2.0, -0.0, 0.0, -3.0, 1.0, 5.0, -0.0])
    right = np.array([0.0, -0.0, 4.0, -0.0, 0.0, -0.0, -0.0, 7.0])
    assert np.all(np.signbit(left * right))
    assert solver._block_inner(game, left, right).hex() == (0.0).hex()
    assert loop_block_inner(game, left, right).hex() == (0.0).hex()


# Every nonsmooth kind once per weight or curvature, so that each drawn game
# has two l1 weights, two quadratic curvatures and several indicator gaps.
CERT_KINDS = ("zero", "box", "shifted_orthant", "singleton", "l1 0.5", "l1 2.0",
              "quadratic 0.5", "quadratic 3.0", "simplex", "ball", "custom", "imposter")


def _cert_term(kind: str, d: int, rng) -> proximal.NonsmoothTerm:
    name, _, scalar = kind.partition(" ")
    if name == "box":
        lo = rng.uniform(-1.5, 0.0, d)
        return proximal.box(lo, lo + rng.uniform(0.0, 2.0, d))
    if name in ("shifted_orthant", "singleton"):
        return getattr(proximal, name)(rng.standard_normal(d))
    if name == "l1":
        return proximal.l1(float(scalar))
    if name == "quadratic":
        return proximal.quadratic(float(scalar), rng.standard_normal(d))
    if name == "ball":
        return proximal.ball(rng.standard_normal(d), 0.5)
    if name == "custom":
        return proximal.custom_resolvent(lambda g, x: np.tanh(x) / (1.0 + g))
    if name == "imposter":
        # a hand-made term with a box's kind and meta whose prox projects onto
        # the lower half of the box: only its own prox gives its residual
        lo = rng.uniform(-1.5, 0.0, d)
        hi = lo + rng.uniform(0.0, 2.0, d)
        half = proximal.box(lo, 0.5 * (lo + hi))
        return proximal.NonsmoothTerm("box", d, half.prox_fn, half.value_fn,
                                      {"lower": lo, "upper": hi})
    return getattr(proximal, name)()


def _cert_smooth(kind: str, d: int, rng) -> SmoothTerm:
    if kind == "zero":
        return zero_smooth()
    term = quadratic_smooth(float(rng.uniform(0.0, 2.0)), rng.standard_normal(d))
    if kind == "imposter":
        # a hand-made term with a quadratic's value and twice its gradient:
        # only its own gradient gives its residual
        return SmoothTerm(term.value, lambda x: 2.0 * term.grad(x))
    return term


def _cert_mix(kind: str, ds: int, di: int, rng):
    if kind == "identity":
        return Identity(ds)
    if kind == "scaled":
        return ScaledIdentity(ds, float(rng.uniform(0.5, 2.0)))
    return Dense(rng.standard_normal((di, ds)))


@given(
    seed=st.integers(0, 2**32 - 1),
    max_width=st.sampled_from((1, 3)),
    shuffle=st.booleans(),
    num_couplings=st.integers(0, 2),
    given_u=st.booleans(),
    given_v=st.booleans(),
    coerce=st.booleans(),
    stacked=st.booleans(),
    data=st.data(),
)
def test_certificate_equals_the_per_block_certificate(seed, max_width, shuffle, num_couplings,
                                                     given_u, given_v, coerce, stacked, data):
    # each kind twice, so that groups of several players are built, of
    # neighbouring players in kind order and of scattered ones when shuffled
    kinds = list(CERT_KINDS) * 2
    if shuffle:
        kinds = data.draw(st.permutations(kinds), label="kinds")
    mixes = data.draw(st.lists(st.sampled_from(("identity", "scaled", "dense")),
                               min_size=len(kinds), max_size=len(kinds)), label="mixes")
    rng = np.random.default_rng(seed)
    players = []
    for kind, mix in zip(kinds, mixes):
        ds = int(rng.integers(1, max_width + 1))
        di = ds if mix != "dense" else int(rng.integers(1, max_width + 1))
        smooth = _cert_smooth(("zero", "quadratic", "imposter")[int(rng.integers(3))], ds, rng)
        players.append(PlayerBlock(ds, di, _cert_term(kind, ds, rng), smooth, 2.0,
                                   _cert_mix(mix, ds, di, rng), 1.0))
    couplings = []
    for _ in range(num_couplings):
        dc = int(rng.integers(1, 3))
        members = rng.choice(len(players), size=int(rng.integers(1, 4)), replace=False)
        term = (proximal.shifted_orthant(rng.standard_normal(dc)) if rng.random() < 0.5
                else proximal.zero())
        couplings.append(CouplingBlock(
            dc, term, quadratic_smooth(1.0, rng.standard_normal(dc)), 1.0,
            {int(i): Dense(rng.standard_normal((dc, players[i].dim_strategy))) for i in members},
        ))
    ny = sum(p.dim_interaction for p in players)
    a_mat, b_vec = rng.standard_normal((ny, ny)), rng.standard_normal(ny)
    game = Game(players, InteractionGradient(lambda y: a_mat @ y + b_vec, 1.0), couplings)

    x = [2.0 * rng.standard_normal(p.dim_strategy) for p in players]
    u = [rng.standard_normal(p.dim_interaction) for p in players] if given_u else None
    v = [rng.standard_normal(c.dim) for c in couplings] if given_v else None
    got = ns.check_equilibrium(game, x, u, v, coerce=coerce)
    want = per_block_check_equilibrium(game, x, u, v, coerce=coerce)
    fields = ("player_residuals", "interaction_residuals", "coupling_residuals",
              "feasibility_gaps")
    got_all = [*(r for f in fields for r in getattr(got, f)), got.max_residual]
    want_all = [*(r for f in fields for r in getattr(want, f)), want.max_residual]
    if stacked:
        # one 1-D vector per field: the bits of the block input, at every width
        joined = [None if b is None else np.concatenate([np.zeros(0), *b]) for b in (x, u, v)]
        one = ns.check_equilibrium(game, *joined, coerce=coerce)
        one_all = [*(r for f in fields for r in getattr(one, f)), one.max_residual]
        assert [r.hex() for r in one_all] == [r.hex() for r in got_all]
    assert [len(getattr(got, f)) for f in fields] == [len(getattr(want, f)) for f in fields]
    assert all(type(r) is float for r in got_all)
    if max_width == 1:
        # one-entry blocks: the same entrywise arithmetic, one product per norm
        assert [r.hex() for r in got_all] == [r.hex() for r in want_all]
    else:
        # a per-block sum of squares may round otherwise than a BLAS dot
        assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got_all, want_all))


def _signed(rng, d: int) -> np.ndarray:
    """Standard normal entries, a third of them replaced by +0.0 and a third by -0.0."""
    v = rng.standard_normal(d)
    pick = rng.integers(3, size=d)
    v[pick == 1], v[pick == 2] = 0.0, -0.0
    return v


@given(
    seed=st.integers(0, 2**32 - 1),
    num_players=st.integers(2, 6),
    max_width=st.sampled_from((1, 3)),
    num_couplings=st.integers(0, 2),
    steps=st.sampled_from(("constant", "per-block", "callable")),
    coupling_steps=st.sampled_from(("constant", "per-block", "callable")),
    max_lag=st.integers(0, 3),
    prob=st.floats(0.2, 1.0),
)
def test_tick_equals_the_reference_tick(seed, num_players, max_width, num_couplings,
                                       steps, coupling_steps, max_lag, prob):
    # about half the players have an Identity mix and a zero smooth term, the
    # others a drawn mix (a Dense one of other widths too) and smooth term;
    # every nonsmooth kind, and signed zeros in the start, the term data and
    # the steps' inputs, where a missing "+ 0.0" would show
    rng = np.random.default_rng(seed)
    players = []
    for _ in range(num_players):
        d = int(rng.integers(1, max_width + 1))
        if rng.random() < 0.5:
            mix, smooth = "identity", "zero"
        else:
            mix = ("identity", "scaled", "dense")[int(rng.integers(3))]
            smooth = ("zero", "quadratic", "imposter")[int(rng.integers(3))]
        di = d if mix != "dense" else int(rng.integers(1, max_width + 1))
        kind = CERT_KINDS[int(rng.integers(len(CERT_KINDS)))]
        players.append(PlayerBlock(d, di, _cert_term(kind, d, rng), _cert_smooth(smooth, d, rng),
                                   2.0, _cert_mix(mix, d, di, rng), 1.0))
    couplings = []
    for _ in range(num_couplings):
        dc = int(rng.integers(1, 3))
        members = rng.choice(num_players, size=int(rng.integers(1, num_players + 1)), replace=False)
        term = (proximal.shifted_orthant(rng.standard_normal(dc)) if rng.random() < 0.5
                else proximal.zero())
        couplings.append(CouplingBlock(
            dc, term, quadratic_smooth(1.0, rng.standard_normal(dc)), 1.0,
            {int(i): Dense(rng.standard_normal((dc, players[i].dim_strategy))) for i in members},
        ))
    ny = sum(p.dim_interaction for p in players)
    skew = rng.standard_normal((ny, ny))
    a_mat = 0.5 * (skew - skew.T) + 0.2 * np.eye(ny)   # monotone
    b_vec = _signed(rng, ny)
    game = Game(players, InteractionGradient(lambda y: a_mat @ y + b_vec, 1.0), couplings)

    def schedules_of(kind, num_blocks, count):
        per_block = [tuple(rng.uniform(0.2, 0.9, num_blocks)) for _ in range(count)]
        return {
            "constant": [float(v[0]) if num_blocks else 0.5 for v in per_block],
            "per-block": per_block,
            "callable": [lambda j, n, v=v: v[j] * (1.0 - 0.5 * (n % 2)) for v in per_block],
        }[kind]

    strategy, interaction, dual = schedules_of(steps, num_players, 3)
    coupling, coupling_dual = schedules_of(coupling_steps, num_couplings, 2)
    params = SolverParams(strategy_steps=strategy, interaction_steps=interaction,
                          player_dual_steps=dual, coupling_steps=coupling,
                          coupling_dual_steps=coupling_dual, relaxation=1.5)
    schedule = ns.randomized(seed, prob, max_lag=max_lag, window=4)
    start = dict(
        x=[_signed(rng, p.dim_strategy) for p in players],
        y=[_signed(rng, p.dim_interaction) for p in players],
        z=[_signed(rng, c.dim) for c in couplings],
        u_star=[_signed(rng, p.dim_interaction) for p in players],
        v_star=[_signed(rng, c.dim) for c in couplings],
    )
    state = IterState(game, max_lag=max_lag, **start)
    reference = IterState(game, max_lag=max_lag, **start)
    fields = ("flat", "point", "direction", "s_star")
    for _ in range(20):
        got = tick(game, params, schedule, state)
        want = reference_tick(game, params, schedule, reference)
        for name in fields:
            assert getattr(state, name).tobytes() == getattr(reference, name).tobytes(), name
        assert got == want


def test_stacked_step_keeps_the_signed_zeros_of_the_per_block_step():
    # player 0 reads x = u* = -0.0, where u* + 0.0 makes the pull +0.0 and
    # keeps x* = -0.0; player 1 also reads y = +0.0 and projects x* = -0.0
    # onto the point +0.0, where (x* - a) / step = -0.0 and c* = -0.0 meet
    # the "+ 0.0" of a zero smooth gradient
    players = [PlayerBlock(1, 1, term, zero_smooth(), 0.0, Identity(1), 1.0)
               for term in (proximal.zero(), proximal.singleton([0.0]))]
    game = Game(players, InteractionGradient(lambda y: np.zeros_like(y), 1.0))
    assert game.mixed_players == game.smooth_players == ()
    start = dict(x=[[-0.0], [-0.0]], y=[[0.0], [0.0]], u_star=[[-0.0], [-0.0]])
    state, reference = IterState(game, **start), IterState(game, **start)
    params = SolverParams(relaxation=1.0)
    tick(game, params, ns.synchronous(), state)
    reference_tick(game, params, ns.synchronous(), reference)
    assert np.signbit(reference.point[[0, 1]]).tolist() == [True, False]
    assert np.signbit(reference.s_star).tolist() == [False, False]
    for name in ("flat", "point", "direction", "s_star"):
        assert getattr(state, name).tobytes() == getattr(reference, name).tobytes(), name


class _SkewDense(Dense):
    """A ``Dense`` map whose adjoint is 1.5 times the true one."""

    def adjoint_apply(self, y):
        return 1.5 * super().adjoint_apply(y)


class _TwiceIdentity(Identity):
    """An ``Identity`` whose adjoint doubles: only the exact type may go unsampled."""

    def adjoint_apply(self, y):
        return 2.0 * super().adjoint_apply(y)


GATE_MAPS = ("identity", "zero", "scaled", "scaled 1e9", "dense", "dense 1e8", "skew dense",
             "twice identity")
GATE_SMOOTH = ("zero", "wrapped zero", "quadratic", "tanh")


def _gate_map(kind: str, d_in: int, d_out: int, rng):
    """A map of ``kind`` from ``d_in`` to ``d_out`` entries; square kinds become dense ones
    when the widths differ."""
    if kind == "zero":
        return Zero(d_in, d_out)
    if d_in == d_out and kind in ("identity", "twice identity"):
        return Identity(d_in) if kind == "identity" else _TwiceIdentity(d_in)
    if d_in == d_out and kind.startswith("scaled"):
        return ScaledIdentity(d_in, 1e9 if kind.endswith("1e9") else float(rng.uniform(-2.0, 2.0)))
    entries = rng.standard_normal((d_out, d_in)) * (1e8 if kind.endswith("1e8") else 1.0)
    return _SkewDense(entries) if kind == "skew dense" else Dense(entries)


def _gate_smooth(kind: str, d: int, rng):
    """A smooth term of ``kind`` and its Lipschitz bound: for a nonzero gradient, half, once
    or 1.5 times its true constant."""
    if kind in ("zero", "wrapped zero"):
        term = zero_smooth()
        if kind == "wrapped zero":
            term = dataclasses.replace(term, grad=lambda x, grad=term.grad: grad(x))
        return term, float(rng.uniform(0.0, 1.0))
    curvature = float(rng.uniform(0.1, 2.0))
    bound = curvature * float(rng.choice((0.5, 1.0, 1.5)))
    if kind == "quadratic":
        return quadratic_smooth(curvature, rng.standard_normal(d)), bound
    return SmoothTerm(lambda x: 0.0, lambda x: curvature * np.tanh(x)), bound


@given(
    seed=st.integers(0, 2**32 - 1),
    num_players=st.integers(1, 4),
    num_couplings=st.integers(0, 2),
    monotone=st.booleans(),
    gates=st.lists(st.tuples(st.sampled_from((0, 1, 3, 16)), st.integers(0, 2**32 - 1)),
                   min_size=1, max_size=3),
    data=st.data(),
)
def test_gate_equals_the_per_sample_gate(seed, num_players, num_couplings, monotone, gates, data):
    # games valid and invalid: every map kind as a mix and as a coupling map, the
    # exact Identity and Zero and the declared zero gradients (trusted by the gate)
    # ahead of sampled checks whose reported values depend on every earlier draw
    mixes = data.draw(st.lists(st.sampled_from(GATE_MAPS), min_size=num_players,
                               max_size=num_players), label="mixes")
    smooths = data.draw(st.lists(st.sampled_from(GATE_SMOOTH), min_size=num_players + num_couplings,
                                 max_size=num_players + num_couplings), label="smooth")
    rng = np.random.default_rng(seed)
    players = []
    for mix, smooth in zip(mixes, smooths):
        ds = int(rng.integers(1, 4))
        di = ds if rng.random() < 0.7 else int(rng.integers(1, 4))
        term, bound = _gate_smooth(smooth, ds, rng)
        players.append(PlayerBlock(ds, di, proximal.zero(), term, bound,
                                   _gate_map(mix, ds, di, rng), 1.0))
    couplings = []
    for smooth in smooths[num_players:]:
        dc = int(rng.integers(1, 3))
        members = rng.choice(num_players, size=int(rng.integers(1, num_players + 1)), replace=False)
        kinds = data.draw(st.lists(st.sampled_from(GATE_MAPS), min_size=len(members),
                                   max_size=len(members)), label="maps")
        term, bound = _gate_smooth(smooth, dc, rng)
        couplings.append(CouplingBlock(dc, proximal.zero(), term, bound, {
            int(i): _gate_map(kind, players[i].dim_strategy, dc, rng)
            for i, kind in zip(members, kinds)}))
    ny = sum(p.dim_interaction for p in players)
    skew = rng.standard_normal((ny, ny))
    a_mat = 0.5 * (skew - skew.T) + (0.3 if monotone else -0.3) * np.eye(ny)
    b_vec = rng.standard_normal(ny)
    # the curvature and Lipschitz bounds are the true ones times a factor, some below 1
    curvature = max(float(np.linalg.eigvalsh(0.5 * (a_mat + a_mat.T)).max()), 0.1)
    players = [dataclasses.replace(p, interaction_bound=curvature * float(rng.choice((0.5, 1.5))))
               for p in players]
    lipschitz = float(np.linalg.norm(a_mat, 2)) * float(rng.choice((0.7, 1.5)))
    game = Game(players, InteractionGradient(lambda y: a_mat @ y + b_vec, lipschitz), couplings)
    for samples, gate_seed in gates:
        want = per_sample_validate_problem(game, samples=samples, seed=gate_seed)
        assert validate_problem(game, samples=samples, seed=gate_seed) == want


@given(
    seed=st.integers(0, 2**32 - 1),
    num_players=st.integers(1, 6),
    width=st.integers(1, 3),
)
def test_quadratic_gradient_equals_the_per_pair_reference(seed, num_players, width):
    # 1-3 mismatch terms per player; each names a random subset of the others
    # in random order, some weights exactly zero, and may name none
    rng = np.random.default_rng(seed)
    weights = []
    for i in range(num_players):
        others = [j for j in range(num_players) if j != i]
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            named = rng.permutation(others)[:int(rng.integers(0, len(others) + 1))]
            terms.append((float(rng.uniform(0.1, 3.0)), {
                int(j): float(rng.choice((0.0, rng.uniform(0.0, 1.0)))) for j in named}))
        weights.append(terms)
    expected = quadratic_coupling_gradient(weights, width)
    try:
        _, meta = build_quadratic_coupling([width] * num_players, [None] * num_players, weights,
                                           interaction_dim=width)
    except ValueError as exc:
        # a refused build reports the least eigenvalue of the reference's symmetric part
        least = np.linalg.eigvalsh(0.5 * (expected + expected.T))[0]
        assert f"(symmetric part has eigenvalue {least:.6e})" in str(exc)
        return
    assert meta.extras["gradient_matrix"].tobytes() == expected.tobytes()
