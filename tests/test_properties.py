"""Property-based checks over randomly drawn schedules (bounded examples)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import nashsplit as ns  # noqa: E402
from nashsplit.model import SolverParams  # noqa: E402
from nashsplit.problems import lasso_instance, shared_constraint_instance  # noqa: E402
from nashsplit.solver import IterState, tick  # noqa: E402

_RNG = np.random.default_rng(8)
INSTANCES = {
    "shared": shared_constraint_instance()[0],
    "lasso": lasso_instance(_RNG.standard_normal((3, 5)), _RNG.standard_normal(3), 0.5)[0],
}


@settings(max_examples=25, deadline=None)
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
