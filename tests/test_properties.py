"""Property-based checks over randomly drawn schedules.

The examples are bounded and derandomized by the profile that
``conftest.py`` loads.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import nashsplit as ns  # noqa: E402
from nashsplit import proximal, schedules, solver  # noqa: E402
from nashsplit.linops import Dense  # noqa: E402
from nashsplit.model import (  # noqa: E402
    CouplingBlock, Game, InteractionGradient, PlayerBlock, SolverParams, zero_smooth,
)
from nashsplit.problems import lasso_instance, shared_constraint_instance  # noqa: E402
from nashsplit.solver import IterState, tick  # noqa: E402

from _oracles import _block_inner as loop_block_inner, random_schedule_tick  # noqa: E402

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
    # generic floats, so that another summation order shows in the last bits,
    # with a share of signed zeros in random places
    rng = np.random.default_rng(seed)
    for _ in range(20):
        left, right = rng.standard_normal((2, game.state_size))
        zeros = rng.random((2, game.state_size)) < zero_share
        left[zeros[0]], right[zeros[1]] = 0.0, -0.0
        left[zeros[0] & (rng.random(game.state_size) < 0.5)] = -0.0
        got = solver._block_inner(game, left, right)
        want = loop_block_inner(game, left, right)
        assert type(got) is float
        if one_entry:
            # one-entry blocks: the same products added in the same order
            assert got.hex() == want.hex()
        else:
            # a BLAS dot may fuse or reorder within a block: agree to rounding
            scale = float(np.abs(left) @ np.abs(right))
            assert abs(got - want) <= 4 * game.state_size * np.finfo(float).eps * scale


def test_block_inner_of_negative_zero_products_is_positive_zero():
    game = layout_game([(1, 1), (1, 1)], [1])
    left = np.array([-1.0, 2.0, -0.0, 0.0, -3.0, 1.0, 5.0, -0.0])
    right = np.array([0.0, -0.0, 4.0, -0.0, 0.0, -0.0, -0.0, 7.0])
    assert np.all(np.signbit(left * right))
    assert solver._block_inner(game, left, right).hex() == (0.0).hex()
    assert loop_block_inner(game, left, right).hex() == (0.0).hex()
