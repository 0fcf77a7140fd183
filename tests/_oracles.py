"""Independent reference computations used by the tests.

Everything here but the last three items is deliberately written without
importing the package under test (plain numpy only): a straight-line
synchronous reference run of the half-space projection iteration, a
finite-difference gradient, a grid-search simplex projection, an ISTA
reference for the l1 least squares instance, a closed-form mixed
equilibrium for 2x2 zero-sum games, the quadratic-coupling gradient
matrix as first built (one ``d x d`` block update per mismatch term and
per mixture weight), the random activation schedule as
first written (one ``SeedSequence`` built from a tuple per generator,
frozenset draws), and the solver's blockwise inner product as first
written (a Python loop of per-block dots). The last three items are the
equilibrium certificate as first written (per player: mix, gradient,
adjoint, pullback, prox and one dot per residual), the tick as first
written (a ``player_local_step`` for every activated player and a
``coupling_local_step`` for every activated coupling, each on per-block
snapshots, then a per-block write-back, the gaps ``e`` and the duals
``a*``, ``q*``) and the problem check of the solve gate as first written
(every check sampled, one draw per vector). Their coupling mixtures and
pullbacks are summed block by block from ``CouplingBlock.maps``, not by
the ``Game`` methods they check. They call the package's ``prox``,
``as_vector``, ``Certificate``, sampling tolerance, scalar test, update
and (in the tick) certificate, because what they check is the stacking of
the certificate and of the local steps and the draws of the gate, not those.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from nashsplit import oracle
from nashsplit.model import _SAMPLE_TOL, as_vector
from nashsplit.oracle import Certificate
from nashsplit.proximal import is_indicator, prox
from nashsplit.solver import TickReport, apply_update, compute_pi


def reference_run(init, players, couplings, interaction_grad, relaxation, n_ticks):
    """Straight-line synchronous reference of the projection iteration.

    Every block is recomputed every tick from the current iterate (zero
    lag). ``players`` is a list of dicts with keys ``prox`` (callable
    ``(gamma, v) -> vector``), ``grad`` (smooth gradient), ``mix`` (matrix
    or None for identity), and constant steps ``gamma``, ``mu``,
    ``sigma``. ``couplings`` is a list of dicts with keys ``prox``,
    ``grad``, ``maps`` (dict player index -> matrix), ``nu``, ``rho``.
    ``interaction_grad`` maps the stacked interaction vector to the
    stacked partial gradients. ``init`` is a dict with block lists ``x``,
    ``y``, ``z``, ``u``, ``v``.

    Returns one record per tick with the post-update blocks and the
    scalar test data.
    """
    m = len(players)
    nk = len(couplings)
    x = [np.array(b, dtype=float) for b in init["x"]]
    y = [np.array(b, dtype=float) for b in init["y"]]
    z = [np.array(b, dtype=float) for b in init["z"]]
    u = [np.array(b, dtype=float) for b in init["u"]]
    v = [np.array(b, dtype=float) for b in init["v"]]

    def mixed(mat, vec):
        return vec if mat is None else mat @ vec

    def mixed_t(mat, vec):
        return vec if mat is None else mat.T @ vec

    offsets = np.cumsum([0] + [b.shape[0] for b in y])
    records = []
    for n in range(n_ticks):
        grad_y = interaction_grad(np.concatenate(y))
        q, c_star, a, s_star, c = [], [], [], [], []
        for i, p in enumerate(players):
            gi = grad_y[offsets[i]:offsets[i + 1]]
            q_i = y[i] + p["mu"] * (u[i] - gi)
            c_star_i = u[i] + p["sigma"] * (mixed(p["mix"], x[i]) - y[i])
            pull = p["grad"](x[i]) + mixed_t(p["mix"], u[i])
            for blk in couplings:
                if i in blk["maps"]:
                    pull = pull + blk["maps"][i].T @ v[couplings.index(blk)]
            x_star = x[i] - p["gamma"] * pull
            a_i = p["prox"](p["gamma"], x_star)
            s_star_i = (x_star - a_i) / p["gamma"] + p["grad"](a_i) + mixed_t(p["mix"], c_star_i)
            c_i = q_i - mixed(p["mix"], a_i)
            q.append(q_i)
            c_star.append(c_star_i)
            a.append(a_i)
            s_star.append(s_star_i)
            c.append(c_i)
        b, e_star, b_star, e = [], [], [], []
        for k, blk in enumerate(couplings):
            d_star = z[k] + blk["nu"] * (v[k] - blk["grad"](z[k]))
            b_k = blk["prox"](blk["nu"], d_star)
            mixture = np.zeros(z[k].shape[0])
            for i in sorted(blk["maps"]):
                mixture = mixture + blk["maps"][i] @ x[i]
            e_star_k = v[k] + blk["rho"] * (mixture - z[k])
            b_star_k = (d_star - b_k) / blk["nu"] + blk["grad"](b_k) - e_star_k
            b.append(b_k)
            e_star.append(e_star_k)
            b_star.append(b_star_k)
        for k, blk in enumerate(couplings):
            mixture = np.zeros(z[k].shape[0])
            for i in sorted(blk["maps"]):
                mixture = mixture + blk["maps"][i] @ a[i]
            e.append(b[k] - mixture)
        grad_q = interaction_grad(np.concatenate(q))
        a_star, q_star = [], []
        for i, p in enumerate(players):
            acc = s_star[i]
            for k, blk in enumerate(couplings):
                if i in blk["maps"]:
                    acc = acc + blk["maps"][i].T @ e_star[k]
            a_star.append(acc)
            q_star.append(grad_q[offsets[i]:offsets[i + 1]] - c_star[i])
        pi = 0.0
        for i in range(m):
            pi += (
                float(np.dot(a[i] - x[i], a_star[i]))
                + float(np.dot(q[i] - y[i], q_star[i]))
                + float(np.dot(c[i], c_star[i] - u[i]))
            )
        for k in range(nk):
            pi += (
                float(np.dot(b[k] - z[k], b_star[k]))
                + float(np.dot(e[k], e_star[k] - v[k]))
            )
        theta = None
        if pi < 0.0:
            den = 0.0
            for i in range(m):
                den += (
                    float(np.dot(a_star[i], a_star[i]))
                    + float(np.dot(q_star[i], q_star[i]))
                    + float(np.dot(c[i], c[i]))
                )
            for k in range(nk):
                den += float(np.dot(b_star[k], b_star[k])) + float(np.dot(e[k], e[k]))
            theta = relaxation * pi / den
            x = [x[i] + theta * a_star[i] for i in range(m)]
            y = [y[i] + theta * q_star[i] for i in range(m)]
            u = [u[i] + theta * c[i] for i in range(m)]
            z = [z[k] + theta * b_star[k] for k in range(nk)]
            v = [v[k] + theta * e[k] for k in range(nk)]
        records.append({
            "n": n,
            "pi": pi,
            "theta": theta,
            "x": [np.array(bk) for bk in x],
            "y": [np.array(bk) for bk in y],
            "z": [np.array(bk) for bk in z],
            "u": [np.array(bk) for bk in u],
            "v": [np.array(bk) for bk in v],
            "a": [np.array(bk) for bk in a],
            "q": [np.array(bk) for bk in q],
            "c": [np.array(bk) for bk in c],
            "c_star": [np.array(bk) for bk in c_star],
            "s_star": [np.array(bk) for bk in s_star],
            "b": [np.array(bk) for bk in b],
            "e": [np.array(bk) for bk in e],
            "e_star": [np.array(bk) for bk in e_star],
            "b_star": [np.array(bk) for bk in b_star],
            "a_star": [np.array(bk) for bk in a_star],
            "q_star": [np.array(bk) for bk in q_star],
        })
    return records


def reference_run_scheduled(init, players, couplings, interaction_grad, relaxation,
                            ticks_info, max_lag):
    """Lagged block-iterative reference replaying a recorded schedule.

    ``ticks_info`` holds one dict per tick with ``active_players``,
    ``active_couplings``, ``player_lags``, and ``coupling_lags``. Player
    dicts carry callables ``gamma``, ``mu``, ``sigma`` of the tick index
    (coupling dicts: ``nu``, ``rho``), and ``relaxation`` is a callable of
    the tick. Inactive player candidates are carried verbatim; the
    coupling primal gap is rebuilt from the freshest candidates every
    tick. Returns post-update blocks plus the scalar test per tick.
    """
    m = len(players)
    nk = len(couplings)
    x = [np.array(b, dtype=float) for b in init["x"]]
    y = [np.array(b, dtype=float) for b in init["y"]]
    z = [np.array(b, dtype=float) for b in init["z"]]
    u = [np.array(b, dtype=float) for b in init["u"]]
    v = [np.array(b, dtype=float) for b in init["v"]]

    def mixed(mat, vec):
        return vec if mat is None else mat @ vec

    def mixed_t(mat, vec):
        return vec if mat is None else mat.T @ vec

    offsets = np.cumsum([0] + [b.shape[0] for b in y])
    history = {0: ([b.copy() for b in x], [b.copy() for b in y], [b.copy() for b in z],
                   [b.copy() for b in u], [b.copy() for b in v])}
    q = [None] * m
    c_star = [None] * m
    a = [None] * m
    s_star = [None] * m
    c = [None] * m
    b = [None] * nk
    e_star = [None] * nk
    b_star = [None] * nk
    records = []
    for n, info in enumerate(ticks_info):
        for i in sorted(info["active_players"]):
            tau = info["player_lags"][i]
            hx, hy, hz, hu, hv = history[tau]
            gy = interaction_grad(np.concatenate(hy))[offsets[i]:offsets[i + 1]]
            p = players[i]
            q[i] = hy[i] + p["mu"](i, tau) * (hu[i] - gy)
            c_star[i] = hu[i] + p["sigma"](i, tau) * (mixed(p["mix"], hx[i]) - hy[i])
            pull = p["grad"](hx[i]) + mixed_t(p["mix"], hu[i])
            for k in range(nk):
                if i in couplings[k]["maps"]:
                    pull = pull + couplings[k]["maps"][i].T @ hv[k]
            gamma = p["gamma"](i, tau)
            x_star = hx[i] - gamma * pull
            a[i] = p["prox"](gamma, x_star)
            s_star[i] = (x_star - a[i]) / gamma + p["grad"](a[i]) + mixed_t(p["mix"], c_star[i])
            c[i] = q[i] - mixed(p["mix"], a[i])
        for k in sorted(info["active_couplings"]):
            delta = info["coupling_lags"][k]
            hx, hy, hz, hu, hv = history[delta]
            blk = couplings[k]
            nu = blk["nu"](k, delta)
            d_star = hz[k] + nu * (hv[k] - blk["grad"](hz[k]))
            b[k] = blk["prox"](nu, d_star)
            mixture = np.zeros(z[k].shape[0])
            for i in sorted(blk["maps"]):
                mixture = mixture + blk["maps"][i] @ hx[i]
            e_star[k] = hv[k] + blk["rho"](k, delta) * (mixture - hz[k])
            b_star[k] = (d_star - b[k]) / nu + blk["grad"](b[k]) - e_star[k]
        e = []
        for k in range(nk):
            mixture = np.zeros(z[k].shape[0])
            for i in sorted(couplings[k]["maps"]):
                mixture = mixture + couplings[k]["maps"][i] @ a[i]
            e.append(b[k] - mixture)
        grad_q = interaction_grad(np.concatenate(q))
        a_star, q_star = [], []
        for i in range(m):
            acc = s_star[i]
            for k in range(nk):
                if i in couplings[k]["maps"]:
                    acc = acc + couplings[k]["maps"][i].T @ e_star[k]
            a_star.append(acc)
            q_star.append(grad_q[offsets[i]:offsets[i + 1]] - c_star[i])
        pi = 0.0
        for i in range(m):
            pi += (
                float(np.dot(a[i] - x[i], a_star[i]))
                + float(np.dot(q[i] - y[i], q_star[i]))
                + float(np.dot(c[i], c_star[i] - u[i]))
            )
        for k in range(nk):
            pi += (
                float(np.dot(b[k] - z[k], b_star[k]))
                + float(np.dot(e[k], e_star[k] - v[k]))
            )
        theta = None
        if pi < 0.0:
            den = 0.0
            for i in range(m):
                den += (
                    float(np.dot(a_star[i], a_star[i]))
                    + float(np.dot(q_star[i], q_star[i]))
                    + float(np.dot(c[i], c[i]))
                )
            for k in range(nk):
                den += float(np.dot(b_star[k], b_star[k])) + float(np.dot(e[k], e[k]))
            theta = relaxation(n) * pi / den
            x = [x[i] + theta * a_star[i] for i in range(m)]
            y = [y[i] + theta * q_star[i] for i in range(m)]
            u = [u[i] + theta * c[i] for i in range(m)]
            z = [z[k] + theta * b_star[k] for k in range(nk)]
            v = [v[k] + theta * e[k] for k in range(nk)]
        history[n + 1] = ([bk.copy() for bk in x], [bk.copy() for bk in y],
                          [bk.copy() for bk in z], [bk.copy() for bk in u],
                          [bk.copy() for bk in v])
        for old in [j for j in history if j < n + 1 - max_lag]:
            del history[old]
        records.append({
            "n": n, "pi": pi, "theta": theta,
            "x": [np.array(bk) for bk in x],
            "y": [np.array(bk) for bk in y],
            "z": [np.array(bk) for bk in z],
            "u": [np.array(bk) for bk in u],
            "v": [np.array(bk) for bk in v],
        })
    return records


def consensus_reference_pieces():
    """Plain data for the two-player box consensus game, boxes [2,3] and [0,1]."""

    def clamp(lo, hi):
        return lambda gamma, vec: np.minimum(np.maximum(vec, lo), hi)

    def zero_grad(vec):
        return np.zeros_like(vec)

    players = [
        {"prox": clamp(2.0, 3.0), "grad": zero_grad, "mix": None},
        {"prox": clamp(0.0, 1.0), "grad": zero_grad, "mix": None},
    ]

    def interaction_grad(t):
        return np.array([t[0] - t[1], t[1] - t[0]])

    return players, interaction_grad


def fd_gradient(value_fn, x, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        out[j] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * step)
    return out


def grid_simplex_projection_2d(p, grid: int = 2_000_001) -> np.ndarray:
    """Brute-force projection of a 2-vector onto the simplex by line search."""
    t = np.linspace(0.0, 1.0, grid)
    pts = np.stack([t, 1.0 - t], axis=1)
    d = np.sum((pts - np.asarray(p, dtype=float)) ** 2, axis=1)
    return pts[np.argmin(d)]


def ista_lasso(a_mat, b_vec, weight, iters: int = 50_000) -> np.ndarray:
    """Proximal-gradient reference for 0.5||Ax - b||^2 + weight * ||x||_1."""
    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    step = 1.0 / (np.linalg.norm(a_mat, 2) ** 2)
    x = np.zeros(a_mat.shape[1])
    for _ in range(iters):
        g = a_mat.T @ (a_mat @ x - b_vec)
        w = x - step * g
        x = np.sign(w) * np.maximum(np.abs(w) - step * weight, 0.0)
    return x


def lasso_objective(a_mat, b_vec, weight, x) -> float:
    r = np.asarray(a_mat) @ np.asarray(x) - np.asarray(b_vec)
    return 0.5 * float(np.dot(r, r)) + weight * float(np.sum(np.abs(x)))


def zero_sum_2x2_mixed(a_mat):
    """Interior mixed saddle of min_u max_v u'Av over the simplices."""
    a_mat = np.asarray(a_mat, dtype=float)
    den = a_mat[0, 0] - a_mat[0, 1] - a_mat[1, 0] + a_mat[1, 1]
    v1 = (a_mat[1, 1] - a_mat[0, 1]) / den
    u1 = (a_mat[1, 1] - a_mat[1, 0]) / den
    return np.array([u1, 1.0 - u1]), np.array([v1, 1.0 - v1])


def quadratic_coupling_gradient(weights, d: int) -> np.ndarray:
    """Gradient matrix of ``build_quadratic_coupling(..., weights, interaction_dim=d)``
    as first built: per player and mismatch term, ``kappa I_d`` added on the
    diagonal block, then ``kappa w I_d`` subtracted from each neighbour's
    block, neighbours in increasing order."""
    m = len(weights)
    grad_matrix = np.zeros((m * d, m * d))
    eye = np.eye(d)
    for i in range(m):
        bi = slice(i * d, (i + 1) * d)
        for kappa, omega in weights[i]:
            kappa = float(kappa)
            grad_matrix[bi, bi] += kappa * eye
            for j, w in sorted((int(j), float(w)) for j, w in dict(omega).items()):
                bj = slice(j * d, (j + 1) * d)
                grad_matrix[bi, bj] -= kappa * w * eye
    return grad_matrix


# The random schedule's draws as first written: ``_tick_rng``,
# ``_raw_active`` and ``_random_active`` are the original bodies, and
# ``random_schedule_tick`` holds the lag part of ``Schedule.next_tick``.

def _tick_rng(seed: int, n: int, stream: str) -> np.random.Generator:
    tag = {"activation": 0, "lags": 1}[stream]
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, n, tag)))


@lru_cache(maxsize=65536)
def _raw_active(seed: int, prob: float, n: int, num_players: int, num_couplings: int):
    """Bernoulli draws for tick ``n`` (tick 0 counts as full activation)."""
    if n == 0:
        return frozenset(range(num_players)), frozenset(range(num_couplings))
    rng = _tick_rng(seed, n, "activation")
    draw_p = rng.random(num_players) < prob
    draw_c = rng.random(num_couplings) < prob if num_couplings else np.zeros(0, dtype=bool)
    return frozenset(np.flatnonzero(draw_p).tolist()), frozenset(np.flatnonzero(draw_c).tolist())


def _random_active(seed, prob, window, n, num_players, num_couplings):
    """Bernoulli activation plus constructive coverage and nonemptiness.

    A block missing from every raw draw of the last ``window`` ticks is
    force-activated, which makes every span of ``window + 1`` ticks cover
    all blocks.
    """
    raw_p, raw_c = _raw_active(seed, prob, n, num_players, num_couplings)
    recent_p, recent_c = set(), set()
    for j in range(max(0, n - window), n):
        rp, rc = _raw_active(seed, prob, j, num_players, num_couplings)
        recent_p |= rp
        recent_c |= rc
    players = set(raw_p) | (set(range(num_players)) - recent_p)
    coups = set(raw_c) | (set(range(num_couplings)) - recent_c)
    if not players or (num_couplings and not coups):
        rng = _tick_rng(seed, n, "activation")
        rng.random(num_players)
        if num_couplings:
            rng.random(num_couplings)
        if not players:
            players.add(int(rng.integers(num_players)))
        if num_couplings and not coups:
            coups.add(int(rng.integers(num_couplings)))
    return tuple(sorted(players)), tuple(sorted(coups))


def random_schedule_tick(seed, prob, window, max_lag, n, num_players, num_couplings):
    """``(active_players, active_couplings, player_lags, coupling_lags)`` of tick ``n``."""
    if n == 0:
        players = tuple(range(num_players))
        coups = tuple(range(num_couplings))
    else:
        players, coups = _random_active(seed, prob, window, n, num_players, num_couplings)
    if n > 0:
        lo = max(0, n - max_lag)
        rng = _tick_rng(seed, n, "lags")
        all_p = rng.integers(lo, n + 1, size=num_players)
        # the stream's last draw, so skipping it when empty changes no value
        all_c = rng.integers(lo, n + 1, size=num_couplings) if num_couplings else ()
        player_lags = {i: int(all_p[i]) for i in players}
        coupling_lags = {k: int(all_c[k]) for k in coups}
    else:
        player_lags = {i: n for i in players}
        coupling_lags = {k: n for k in coups}
    return players, coups, player_lags, coupling_lags


# The solver's blockwise inner product as first written: one ``np.dot`` per
# block, accumulated in a Python float over the players, then the couplings.
# ``Game`` stays an unevaluated annotation.

def _block_inner(game: Game, left: np.ndarray, right: np.ndarray) -> float:
    """Inner product of two flat state-layout vectors, accumulated block by block.

    Sums each player's x, y and u* dots, then each coupling's z and v*
    dots, in index order. The scalar test, the projection denominator and
    the separation gap share this order, which the bitwise gates fix.
    """
    xs, ys, zs, us, vs = game.state_slices
    acc = 0.0
    for x, y, u in zip(xs, ys, us):
        acc += (float(np.dot(left[x], right[x])) + float(np.dot(left[y], right[y]))
                + float(np.dot(left[u], right[u])))
    for z, v in zip(zs, vs):
        acc += float(np.dot(left[z], right[z])) + float(np.dot(left[v], right[v]))
    return acc


# The equilibrium certificate as first written: one player at a time, one
# ``np.dot`` per residual.

# The certificate evaluates prox residuals at unit step. Any fixed positive
# step has the same zero set; this one is unrelated to the solver's
# per-block step schedules.
_CERT_STEP = 1.0


def _norm(v) -> float:
    return float(np.sqrt(np.dot(v, v)))


def _blocks(blocks, dims, what: str, coerce: bool = True):
    """Per-block inputs as checked vectors: zeros when absent, as given when not ``coerce``."""
    if blocks is None:
        return [np.zeros(d) for d in dims]
    if not coerce:
        return blocks
    return [as_vector(b, d, f"{what}[{i}]") for i, (b, d) in enumerate(zip(blocks, dims))]


def _mixture(blk, xs) -> np.ndarray:
    """``sum_i L_ki x_i`` of a coupling over per-block strategies: from zeros, in increasing ``i``."""
    acc = np.zeros(blk.dim)
    for i in sorted(blk.maps):
        acc = acc + blk.maps[i].apply(xs[i])
    return acc


def _pullback(game: Game, i: int, acc, vs) -> np.ndarray:
    """``acc + sum_k L_ki^* v_k`` over player ``i``'s couplings and per-block duals, in increasing ``k``."""
    for k, blk in enumerate(game.couplings):
        if i in blk.maps:
            acc = acc + blk.maps[i].adjoint_apply(vs[k])
    return acc


def _first_order(game: Game, xs):
    """The mixes ``M_i x_i``, the coupling mixtures ``L_k x`` and ``Q(Mx)``, per block."""
    ys = [p.mix.apply(xs[i]) for i, p in enumerate(game.players)]
    zs = [_mixture(blk, xs) for blk in game.couplings]
    qs = game.split_interaction(np.asarray(game.interaction.eval(np.concatenate(ys)), dtype=float))
    return ys, zs, qs


def check_equilibrium(game: Game, x, u_star=None, v_star=None, *, coerce: bool = True) -> Certificate:
    """Evaluate the equilibrium residuals at ``(x, u*, v*)``.

    ``u_star`` defaults to the stacked interaction gradient at the mixed
    strategies (making the first line exact); ``v_star`` defaults to
    zeros. For indicator coupling terms the dual-inclusion residual is the
    projection identity distance. ``coerce=False`` skips input coercion
    for callers that already hold validated blocks (the per-tick path).
    """
    xs = _blocks(x, game.strategy_dims, "x", coerce)
    _, zs, qs = _first_order(game, xs)
    us = qs if u_star is None else _blocks(u_star, game.interaction_dims, "u*", coerce)
    vs = _blocks(v_star, game.coupling_dims, "v*", coerce)

    interaction_res = [_norm(us[i] - qs[i]) for i in range(game.num_players)]
    player_res, coupling_res, gaps = [], [], []
    for i, p in enumerate(game.players):
        pull = _pullback(game, i, p.smooth.grad(xs[i]) + p.mix.adjoint_apply(us[i]), vs)
        player_res.append(_norm(xs[i] - prox(p.nonsmooth, _CERT_STEP, xs[i] - _CERT_STEP * pull)))
        if is_indicator(p.nonsmooth):
            gaps.append(_norm(xs[i] - prox(p.nonsmooth, 1.0, xs[i])))
    for k, blk in enumerate(game.couplings):
        inward = vs[k] - blk.smooth.grad(zs[k])
        coupling_res.append(_norm(zs[k] - prox(blk.nonsmooth, _CERT_STEP, zs[k] + _CERT_STEP * inward)))
        if is_indicator(blk.nonsmooth):
            gaps.append(_norm(zs[k] - prox(blk.nonsmooth, 1.0, zs[k])))

    everything = player_res + interaction_res + coupling_res + gaps
    return Certificate(
        tuple(player_res), tuple(interaction_res), tuple(coupling_res), tuple(gaps), max(everything)
    )


# The tick as first written: every activated player through
# ``player_local_step`` (its mix, smooth gradient, pullback and prox) and
# every activated coupling through ``coupling_local_step``, the results
# written back block by block. The annotations stay unevaluated, as
# ``Game``'s above.

def player_local_step(game: Game, params: SolverParams, state: IterState, i: int, tau: int,
                      interaction_grad: Optional[np.ndarray] = None):
    """Candidate computation for player ``i`` reading history tick ``tau``.

    Returns ``(q_i, c*_i, a_i, s*_i, c_i)``. Step sizes are indexed at the
    lag time ``tau``, exactly as the iteration prescribes.
    ``interaction_grad`` is the stacked interaction gradient at tick
    ``tau`` when the caller already holds it; otherwise it is evaluated.
    """
    snap = state.snapshot_at(tau)
    p = game.players[i]
    if interaction_grad is None:
        interaction_grad = state.lagged_interaction_grad(tau)
    offs = game.interaction_offsets()
    grad_y = interaction_grad[offs[i]:offs[i + 1]]
    step_y = params.interaction_step(i, tau)
    step_u = params.player_dual_step(i, tau)
    step_x = params.strategy_step(i, tau)

    q_i = snap.y[i] + step_y * (snap.u_star[i] - grad_y)
    c_star_i = snap.u_star[i] + step_u * (p.mix.apply(snap.x[i]) - snap.y[i])
    pull = _pullback(game, i, p.smooth.grad(snap.x[i]) + p.mix.adjoint_apply(snap.u_star[i]),
                     snap.v_star)
    x_star = snap.x[i] - step_x * pull
    a_i = prox(p.nonsmooth, step_x, x_star)
    s_star_i = (x_star - a_i) / step_x + p.smooth.grad(a_i) + p.mix.adjoint_apply(c_star_i)
    c_i = q_i - p.mix.apply(a_i)
    return q_i, c_star_i, a_i, s_star_i, c_i


def coupling_local_step(game: Game, params: SolverParams, state: IterState, k: int, delta: int):
    """Candidate computation for coupling ``k`` reading history tick ``delta``.

    Returns ``(d*_k, b_k, e*_k, b*_k)``, the steps indexed at ``delta``.
    """
    snap = state.snapshot_at(delta)
    blk = game.couplings[k]
    step_z = params.coupling_step(k, delta)
    step_v = params.coupling_dual_step(k, delta)

    d_star = snap.z[k] + step_z * (snap.v_star[k] - blk.smooth.grad(snap.z[k]))
    b_k = prox(blk.nonsmooth, step_z, d_star)
    e_star_k = snap.v_star[k] + step_v * (_mixture(blk, snap.x) - snap.z[k])
    b_star_k = (d_star - b_k) / step_z + blk.smooth.grad(b_k) - e_star_k
    return d_star, b_k, e_star_k, b_star_k


def reference_tick(game: Game, params: SolverParams, schedule: Schedule, state: IterState) -> TickReport:
    """One iteration with every activated block stepped alone and written back in order."""
    n = state.n
    state._push_history(n)      # so a write into the views since the last tick is read
    info = schedule.next_tick(n, game.num_players, game.num_couplings)
    grads = {tau: state.lagged_interaction_grad(tau)
             for tau in sorted(set(info.player_lags.values()))}

    def step_player(i):
        tau = info.player_lags[i]
        return player_local_step(game, params, state, i, tau, grads[tau])

    def step_coupling(k):
        return coupling_local_step(game, params, state, k, info.coupling_lags[k])

    player_results = map(step_player, info.active_players)
    coupling_results = map(step_coupling, info.active_couplings)
    player_caches = (state.cand_q, state.cand_c_star, state.cand_a, state.cand_s_star, state.cand_c)
    coupling_caches = (state.cand_b, state.cand_e_star, state.cand_b_star)
    for i, results in zip(info.active_players, player_results):
        for cache, value in zip(player_caches, results):
            cache[i][:] = value
    for k, (_, *results) in zip(info.active_couplings, coupling_results):
        for cache, value in zip(coupling_caches, results):
            cache[k][:] = value

    for k, blk in enumerate(game.couplings):
        state.cand_e[k][:] = state.cand_b[k] - _mixture(blk, state.cand_a)
    grads = game.split_interaction(np.asarray(game.interaction.eval(np.concatenate(state.cand_q)),
                                              dtype=float))
    for i in range(game.num_players):
        state.dual_q_star[i][:] = grads[i] - state.cand_c_star[i]
        state.dual_a_star[i][:] = _pullback(game, i, state.cand_s_star[i], state.cand_e_star)
    compute_pi(game, state)
    pi, theta, step_norm = apply_update(game, state, params)
    key = state.flat.tobytes()
    if state._certified[0] != key:
        residual = oracle.check_equilibrium(
            game, state.x, state.u_star, state.v_star, coerce=False
        ).max_residual
        state._certified = (key, residual)
    residual = state._certified[1]
    report = TickReport(
        n=n,
        pi=pi,
        theta=theta,
        step_norm=step_norm,
        kkt_residual=residual,
        active_players=info.active_players,
        active_couplings=info.active_couplings,
        player_lags=info.player_lags,
        coupling_lags=info.coupling_lags,
    )
    state.n = n + 1
    return report


# The solve gate's problem check as first written: every check sampled, one
# ``standard_normal`` call per vector, the norms through ``np.linalg.norm``.
# It shares the package's tolerance, since what it checks is the draws and
# which checks are evaluated, not the slack.

def _sample_vec(rng, dim, scale=1.0):
    return scale * rng.standard_normal(dim)


def validate_problem(game: Game, samples: int = 25, seed: int = 0) -> list:
    """Check everything about a game that is checkable at desk scale.

    Returns a list of violation strings (empty means no violation found).
    Structural dimension mismatches are reported exactly; adjoint
    consistency, gradient Lipschitz bounds, interaction monotonicity, and
    the per-player curvature bound are sampled with ``samples`` draws from
    the given seed. Violations are data, not failures.
    """
    report = []
    rng = np.random.default_rng(seed)

    for i, p in enumerate(game.players):
        if p.mix.in_dim != p.dim_strategy or p.mix.out_dim != p.dim_interaction:
            report.append(
                f"player {i}: mix operator maps {p.mix.in_dim}->{p.mix.out_dim}, "
                f"expected {p.dim_strategy}->{p.dim_interaction}"
            )
        if p.nonsmooth.dim is not None and p.nonsmooth.dim != p.dim_strategy:
            report.append(
                f"player {i}: nonsmooth term has dimension {p.nonsmooth.dim}, "
                f"strategy space has {p.dim_strategy}"
            )
    for k, c in enumerate(game.couplings):
        if c.nonsmooth.dim is not None and c.nonsmooth.dim != c.dim:
            report.append(f"coupling {k}: nonsmooth term dimension {c.nonsmooth.dim} != {c.dim}")
        for i, op in c.maps.items():
            if i < 0 or i >= game.num_players:
                report.append(f"coupling {k}: map references unknown player {i}")
                continue
            if op.out_dim != c.dim or op.in_dim != game.players[i].dim_strategy:
                report.append(
                    f"coupling {k}: map for player {i} is {op.in_dim}->{op.out_dim}, "
                    f"expected {game.players[i].dim_strategy}->{c.dim}"
                )
    if report:
        # Sampled checks would only cascade spurious errors on top of a
        # structurally broken game.
        return report

    dim_y = game.total_interaction_dim
    grads = [("interaction gradient", game.interaction.eval, dim_y)]
    grads += [(f"player {i}: smooth gradient", p.smooth.grad, p.dim_strategy)
              for i, p in enumerate(game.players)]
    grads += [(f"coupling {k}: smooth gradient", c.smooth.grad, c.dim)
              for k, c in enumerate(game.couplings)]
    for name, grad, dim in grads:
        shape = np.shape(grad(np.zeros(dim)))
        if shape != (dim,):
            report.append(f"{name} returned shape {shape}, expected ({dim},)")
    if report:
        # A wrong output shape would broadcast silently in the sampled checks.
        return report

    ops = [(f"player {i} mix", p.mix) for i, p in enumerate(game.players)]
    ops += [
        (f"coupling {k} map for player {i}", op)
        for k, c in enumerate(game.couplings)
        for i, op in sorted(c.maps.items())
    ]
    for name, op in ops:
        worst = 0.0
        for _ in range(samples):
            xs = _sample_vec(rng, op.in_dim)
            ys = _sample_vec(rng, op.out_dim)
            lhs = float(np.dot(op.apply(xs), ys))
            rhs = float(np.dot(xs, op.adjoint_apply(ys)))
            scale = 1.0 + abs(lhs) + abs(rhs)
            worst = max(worst, abs(lhs - rhs) / scale)
        if worst > _SAMPLE_TOL:
            report.append(f"{name}: adjoint inconsistency {worst:.3e}")

    def lipschitz_violation(grad, dim, bound, scale=3.0):
        worst = 0.0
        for _ in range(samples):
            a = _sample_vec(rng, dim, scale)
            b = a + _sample_vec(rng, dim)
            num = float(np.linalg.norm(np.asarray(grad(a)) - np.asarray(grad(b))))
            den = float(np.linalg.norm(a - b))
            if den > 0:
                worst = max(worst, num - bound * den * (1.0 + _SAMPLE_TOL))
        return worst

    for i, p in enumerate(game.players):
        excess = lipschitz_violation(p.smooth.grad, p.dim_strategy, p.smooth_lipschitz)
        if excess > _SAMPLE_TOL:
            report.append(f"player {i}: smooth gradient exceeds Lipschitz bound by {excess:.3e}")
    for k, c in enumerate(game.couplings):
        excess = lipschitz_violation(c.smooth.grad, c.dim, c.smooth_lipschitz)
        if excess > _SAMPLE_TOL:
            report.append(f"coupling {k}: smooth gradient exceeds Lipschitz bound by {excess:.3e}")

    bounds = np.array([p.interaction_bound for p in game.players])
    offs = game.interaction_offsets()
    for _ in range(samples):
        ya = _sample_vec(rng, dim_y, 3.0)
        yb = ya + _sample_vec(rng, dim_y)
        qa = np.asarray(game.interaction.eval(ya), dtype=float)
        qb = np.asarray(game.interaction.eval(yb), dtype=float)
        dy, dq = ya - yb, qa - qb
        inner = float(np.dot(dy, dq))
        sq = float(np.dot(dy, dy))
        scale = 1.0 + abs(inner)
        if inner < -_SAMPLE_TOL * scale:
            report.append(f"interaction gradient not monotone: <dy, dQ> = {inner:.3e}")
            break
        cap = sum(
            bounds[i] * float(np.dot(dy[offs[i]:offs[i + 1]], dy[offs[i]:offs[i + 1]]))
            for i in range(game.num_players)
        )
        if inner > cap * (1.0 + _SAMPLE_TOL) + _SAMPLE_TOL:
            report.append(
                f"interaction curvature bound violated: <dy, dQ> = {inner:.3e} > {cap:.3e}"
            )
            break
        lip = float(np.linalg.norm(dq))
        if lip > game.interaction.lipschitz * np.sqrt(sq) * (1.0 + _SAMPLE_TOL) + _SAMPLE_TOL:
            report.append(
                f"interaction gradient exceeds Lipschitz constant: "
                f"{lip:.3e} > {game.interaction.lipschitz:.3e} * |dy|"
            )
            break
    return report
