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
from nashsplit import schedules  # noqa: E402
from nashsplit.model import SolverParams  # noqa: E402
from nashsplit.problems import lasso_instance, shared_constraint_instance  # noqa: E402
from nashsplit.solver import IterState, tick  # noqa: E402

from _oracles import random_schedule_tick  # noqa: E402

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
