"""Builders for the shipped game families.

Four families cover the solver's product surface: quadratic-coupling
games (with consensus as the canonical special case), minimax games
embedded through a skew interaction gradient, shared-constraint games
with a single orthant coupling, and joint minimization instances where
every player shares one smooth objective. Each builder returns a
:class:`~nashsplit.model.Game` plus :class:`InstanceMeta` carrying the
family, its data and, when available in closed form, the known equilibrium.
Builders are pure and their outputs immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from . import proximal
from .linops import Dense, Identity, LinOp
from .model import (
    CouplingBlock,
    Game,
    InteractionGradient,
    PlayerBlock,
    SmoothTerm,
    zero_smooth,
)
from .proximal import NonsmoothTerm

__all__ = [
    "InstanceMeta",
    "build_quadratic_coupling",
    "consensus_instance",
    "build_minimax",
    "matching_pennies_instance",
    "build_shared_constraint",
    "shared_constraint_instance",
    "build_minimization",
    "lasso_instance",
]


@dataclass(frozen=True)
class InstanceMeta:
    """What a builder knows about its instance beyond the game.

    ``family`` names the builder. ``equilibrium`` (and the matching duals)
    are only set when closed-form values exist; they must pass the
    equilibrium certificate. ``extras`` holds the family's own data.
    """

    family: str
    equilibrium: Optional[tuple] = None
    dual_u: Optional[tuple] = None
    dual_v: Optional[tuple] = None
    extras: Mapping[str, Any] = field(default_factory=dict)


def _as_term(term) -> NonsmoothTerm:
    if term is None:
        return proximal.zero()
    if isinstance(term, NonsmoothTerm):
        return term
    raise TypeError(f"expected a NonsmoothTerm or None, got {type(term)!r}")


def _require_players(m: int) -> None:
    # the Game's own refusal, made before a builder's array work fails otherwise
    if m == 0:
        raise ValueError("a game needs at least one player")


def _player_blocks(strategy_dims, terms, bounds, mixes=None, smooths=None, lipschitz=None):
    """One :class:`PlayerBlock` per player, of interaction width its mix's ``out_dim``.
    Unless given, mixes are ``Identity``, smooth terms ``zero_smooth()`` and their
    Lipschitz constants zero. Sequences of different lengths are refused."""
    mixes = mixes if mixes is not None else [Identity(int(d)) for d in strategy_dims]
    smooths = smooths if smooths is not None else [zero_smooth() for _ in strategy_dims]
    lipschitz = lipschitz if lipschitz is not None else [0.0] * len(strategy_dims)
    return [
        PlayerBlock(int(d), mix.out_dim, _as_term(term), smooth, float(alpha), mix, bound)
        for d, term, bound, mix, smooth, alpha
        in zip(strategy_dims, terms, bounds, mixes, smooths, lipschitz, strict=True)
    ]


def build_quadratic_coupling(
    strategy_dims: Sequence[int],
    constraints: Sequence,
    weights: Sequence,
    mixes: Optional[Sequence[LinOp]] = None,
    smooths: Optional[Sequence[SmoothTerm]] = None,
    smooth_lipschitz: Optional[Sequence[float]] = None,
    interaction_dim: Optional[int] = None,
):
    """Game whose joint losses are weighted squared mixture mismatches.

    ``weights[i]`` is a list of ``(kappa, omega)`` pairs, one per mismatch
    term of player ``i``: ``kappa > 0`` scales the term and ``omega`` maps
    other player indices to their nonnegative mixture weights. Player
    ``i``'s joint loss is ``sum_l kappa_l/2 * ||y_i - sum_j omega_l[j] y_j||^2``
    on the shared interaction space.

    The per-player curvature bound defaults to the conservative closed
    form ``sum_l kappa_l (1 + sum_j omega_l[j])``, valid by the
    Cauchy-Schwarz inequality; sharper constants would only enlarge one
    step interval. The assembled gradient map must be monotone: its
    symmetric part is eigenvalue-checked and the build is refused with a
    report when the check fails.
    """
    m = len(strategy_dims)
    _require_players(m)
    if len(constraints) != m or len(weights) != m:
        raise ValueError("constraints and weights must match the number of players")
    if interaction_dim is None:
        interaction_dim = mixes[0].out_dim if mixes is not None else strategy_dims[0]
    d = int(interaction_dim)
    mixes = list(mixes) if mixes is not None else [Identity(d) for _ in range(m)]
    for i, op in enumerate(mixes):
        if op.out_dim != d or op.in_dim != strategy_dims[i]:
            raise ValueError(
                f"mix {i} must map {strategy_dims[i]} -> {d}, got {op.in_dim} -> {op.out_dim}"
            )

    norm_weights = []
    for i in range(m):
        entries = []
        for kappa, omega in weights[i]:
            kappa = float(kappa)
            if kappa <= 0.0:
                raise ValueError(f"player {i}: mismatch weight kappa must be positive")
            omega = {int(j): float(w) for j, w in dict(omega).items()}
            for j, w in omega.items():
                if j == i or j < 0 or j >= m:
                    raise ValueError(f"player {i}: mixture weight references invalid player {j}")
                if w < 0.0:
                    raise ValueError(f"player {i}: mixture weights must be nonnegative")
            entries.append((kappa, dict(sorted(omega.items()))))
        norm_weights.append(entries)

    # W (x) I_d, W written on the d diagonals: np.kron would put -0.0 beside W's negatives
    weight_matrix = np.zeros((m, m))
    for i in range(m):
        for kappa, omega in norm_weights[i]:
            weight_matrix[i, i] += kappa
            for j, w in omega.items():
                weight_matrix[i, j] -= kappa * w
    grad_matrix = np.zeros((m * d, m * d))
    grad_matrix.reshape(m, d, m, d)[:, np.arange(d), :, np.arange(d)] = weight_matrix

    sym_eigs = np.linalg.eigvalsh(0.5 * (grad_matrix + grad_matrix.T))
    floor = -1e-10 * max(1.0, float(np.max(np.abs(sym_eigs))))
    if sym_eigs[0] < floor:
        raise ValueError(
            "quadratic coupling build refused: assembled gradient map is not monotone "
            f"(symmetric part has eigenvalue {sym_eigs[0]:.6e})"
        )

    # The game's interaction gradient is this matrix, which the meta also hands out.
    grad_matrix.flags.writeable = False

    def interaction_eval(y):
        return grad_matrix @ y

    kappa_global = max(float(np.linalg.norm(grad_matrix, 2)), 1e-12)
    chis = [
        max(sum(kappa * (1.0 + sum(omega.values())) for kappa, omega in norm_weights[i]), 1e-12)
        for i in range(m)
    ]
    players = _player_blocks(strategy_dims, constraints, chis, mixes, smooths, smooth_lipschitz)
    game = Game(players, InteractionGradient(interaction_eval, kappa_global))
    return game, InstanceMeta("quadratic_coupling", extras={"gradient_matrix": grad_matrix})


def consensus_instance(bounds: Sequence, neighbors: Optional[Mapping[int, Sequence[int]]] = None):
    """Consensus game: each player tracks its neighbors inside its own set.

    ``bounds[i]`` is a ``(lower, upper)`` scalar pair, a single scalar for
    a singleton set, or None for an unconstrained player. Player ``i``
    pays ``1/2 sum_{j in neighbors[i]} (x_i - x_j)^2``; neighbors default
    to everyone else.
    """
    m = len(bounds)
    terms = []
    for b in bounds:
        if b is None:
            terms.append(proximal.zero())
        elif np.isscalar(b):
            terms.append(proximal.singleton([float(b)]))
        else:
            lo, hi = b
            terms.append(proximal.box([float(lo)], [float(hi)]))
    if neighbors is None:
        neighbors = {i: [j for j in range(m) if j != i] for i in range(m)}
    weights = [[(1.0, {j: 1.0}) for j in neighbors[i]] for i in range(m)]
    game, meta = build_quadratic_coupling([1] * m, terms, weights, interaction_dim=1)
    return game, InstanceMeta(
        family="consensus",
        extras={"bounds": tuple(bounds), "neighbors": {i: tuple(neighbors[i]) for i in neighbors}},
    )


def build_minimax(
    min_dims: Sequence[int],
    max_dims: Sequence[int],
    min_terms: Sequence,
    max_terms: Sequence,
    bilinear: Mapping,
    saddle_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    saddle_lipschitz: float = 0.0,
    min_smooths: Optional[Sequence[SmoothTerm]] = None,
    max_smooths: Optional[Sequence[SmoothTerm]] = None,
    min_lipschitz: Optional[Sequence[float]] = None,
    max_lipschitz: Optional[Sequence[float]] = None,
):
    """Minimax game as a Nash instance over minimizers and maximizers.

    Minimizing players come first, maximizing players after.
    ``bilinear[(a, b)]`` is the matrix of the pairing
    ``<L u_a, v_b>`` between minimizer ``a`` and maximizer ``b``; the
    induced interaction gradient is the skew pairing plus the optional
    smooth saddle part. ``saddle_grad`` maps the stacked profile to the
    stacked saddle gradient ``(grad_u, grad_v)`` of the saddle function
    and the caller vouches for its convex-concave structure; the sign
    flip on the maximizer blocks happens here.
    """
    p, q = len(min_dims), len(max_dims)
    dims = [int(v) for v in min_dims] + [int(v) for v in max_dims]
    m = p + q
    _require_players(m)
    offs = np.cumsum([0] + dims)
    pairs = {}
    for (a, b), mat in bilinear.items():
        mat = np.asarray(mat, dtype=float)
        if not (0 <= a < p and 0 <= b < q):
            raise ValueError(f"bilinear pair ({a}, {b}) out of range")
        if mat.shape != (max_dims[b], min_dims[a]):
            raise ValueError(
                f"bilinear matrix for pair ({a}, {b}) must be "
                f"{max_dims[b]}x{min_dims[a]}, got {mat.shape}"
            )
        pairs[(a, b)] = mat

    total = int(offs[-1])
    skew = np.zeros((total, total))
    for (a, b), mat in pairs.items():
        ra = slice(offs[a], offs[a + 1])
        rb = slice(offs[p + b], offs[p + b + 1])
        skew[ra, rb] += mat.T
        skew[rb, ra] -= mat

    def interaction_eval(y):
        out = skew @ y
        if saddle_grad is not None:
            g = np.asarray(saddle_grad(y), dtype=float)
            g = np.concatenate([g[: offs[p]], -g[offs[p]:]])
            out = out + g
        return out

    kappa = float(saddle_lipschitz) + max(float(np.linalg.norm(skew, 2)), 1e-12)
    chi = max(float(saddle_lipschitz), 1.0)

    smooths = list(min_smooths or [zero_smooth()] * p) + list(max_smooths or [zero_smooth()] * q)
    alphas = list(min_lipschitz or [0.0] * p) + list(max_lipschitz or [0.0] * q)
    players = _player_blocks(dims, [*min_terms, *max_terms], [chi] * m, None, smooths, alphas)
    game = Game(players, InteractionGradient(interaction_eval, kappa))
    return game, InstanceMeta("minimax", extras={"skew_matrix": skew, "num_min": p, "num_max": q})


def matching_pennies_instance(payoff=((1.0, -1.0), (-1.0, 1.0))):
    """Two-player zero-sum matrix game on probability simplices.

    The minimizer picks the row mixture ``u``, the maximizer the column
    mixture ``v``, and the payoff is ``u' A v``. For payoffs with an
    interior mixed saddle point the metadata carries the closed-form
    equilibrium.
    """
    a_mat = np.asarray(payoff, dtype=float)
    if a_mat.shape != (2, 2):
        raise ValueError("matching pennies needs a 2x2 payoff matrix")
    game, meta = build_minimax(
        [2], [2],
        [proximal.simplex()], [proximal.simplex()],
        {(0, 0): a_mat.T},
    )
    den_v = a_mat[0, 0] - a_mat[0, 1] - a_mat[1, 0] + a_mat[1, 1]
    equilibrium = None
    dual_u = None
    if abs(den_v) > 1e-12:
        v1 = (a_mat[1, 1] - a_mat[0, 1]) / den_v
        u1 = (a_mat[1, 1] - a_mat[1, 0]) / den_v
        if 0.0 < u1 < 1.0 and 0.0 < v1 < 1.0:
            u = np.array([u1, 1.0 - u1])
            v = np.array([v1, 1.0 - v1])
            equilibrium = (u, v)
            dual_u = (a_mat @ v, -(a_mat.T @ u))
    return game, InstanceMeta(
        family="matching_pennies",
        equilibrium=equilibrium,
        dual_u=dual_u,
        extras={"payoff": a_mat, "skew_matrix": meta.extras["skew_matrix"]},
    )


def build_shared_constraint(
    strategy_dims: Sequence[int],
    constraints: Sequence,
    targets: Sequence,
    constraint_rows: Sequence,
    rhs,
):
    """Game with one orthant coupling shared by every player.

    Each player pays ``1/2 ||x_i - t_i||^2`` (entering through the
    interaction gradient with an identity mix) inside its own set, and the
    rows stack to the shared constraint ``sum_i R_i x_i >= rhs``
    componentwise. The coupling nonsmooth term is the indicator of the
    shifted orthant; its smooth part is zero.
    """
    m = len(strategy_dims)
    _require_players(m)
    t_blocks = [np.atleast_1d(np.asarray(t, dtype=float)) for t in targets]
    if len(t_blocks) != m:
        raise ValueError("need one target per player")
    for i, (t, d) in enumerate(zip(t_blocks, strategy_dims)):
        if t.shape != (d,):
            raise ValueError(f"target {i} must have dimension {d}")
    t_stacked = np.concatenate(t_blocks)
    rhs_vec = np.atleast_1d(np.asarray(rhs, dtype=float))
    rows = [np.atleast_2d(np.asarray(r, dtype=float)) for r in constraint_rows]
    if len(rows) != m:
        raise ValueError("need one constraint row block per player")
    for i, r in enumerate(rows):
        if r.shape != (rhs_vec.shape[0], strategy_dims[i]):
            raise ValueError(
                f"constraint rows for player {i} must be {rhs_vec.shape[0]}x{strategy_dims[i]}"
            )

    def interaction_eval(y):
        return y - t_stacked

    players = _player_blocks(strategy_dims, constraints, [1.0] * m)
    coupling = CouplingBlock(
        dim=int(rhs_vec.shape[0]),
        nonsmooth=proximal.shifted_orthant(rhs_vec),
        smooth=zero_smooth(),
        smooth_lipschitz=0.0,
        maps={i: Dense(rows[i]) for i in range(m)},
    )
    game = Game(players, InteractionGradient(interaction_eval, 1.0), [coupling])
    return game, InstanceMeta("shared_constraint", extras={"targets": t_stacked, "rhs": rhs_vec})


def shared_constraint_instance(targets=(1.0, 2.0), rhs=5.0, box=(0.0, 10.0)):
    """Canonical scalar shared-constraint game: boxes, quadratic tracking,
    one row coupling ``sum_i x_i >= rhs``."""
    m = len(targets)
    constraints = [proximal.box([box[0]], [box[1]]) for _ in range(m)]
    rows = [[[1.0]] for _ in range(m)]
    return build_shared_constraint([1] * m, constraints, [[t] for t in targets], rows, [rhs])


def build_minimization(
    nonsmooth_terms: Sequence,
    joint_grad: Callable[[np.ndarray], np.ndarray],
    joint_lipschitz: float,
    joint_value: Optional[Callable[[np.ndarray], float]] = None,
    smooths: Optional[Sequence[SmoothTerm]] = None,
    smooth_lipschitz: Optional[Sequence[float]] = None,
    strategy_dims: Optional[Sequence[int]] = None,
    mixes: Optional[Sequence[LinOp]] = None,
    couplings: Sequence[CouplingBlock] = (),
):
    """Joint minimization posed as a Nash game with one shared smooth loss.

    Every player carries the same convex differentiable joint loss, so the
    interaction gradient is its full gradient and the equilibrium solves
    the sum objective. The caller asserts convexity of the joint loss and
    supplies its gradient Lipschitz constant.
    """
    terms = [_as_term(t) for t in nonsmooth_terms]
    m = len(terms)
    if strategy_dims is None:
        strategy_dims = [t.dim if t.dim is not None else 1 for t in terms]
    kappa = max(float(joint_lipschitz), 1e-12)
    players = _player_blocks(strategy_dims, terms, [kappa] * m, mixes, smooths, smooth_lipschitz)
    game = Game(
        players,
        InteractionGradient(lambda y: np.asarray(joint_grad(y), dtype=float), kappa),
        couplings,
    )
    return game, InstanceMeta("minimization", extras={"joint_value": joint_value})


def lasso_instance(design, rhs, weight: float = 1.0):
    """Least squares plus an l1 penalty, one scalar block per coordinate."""
    a_mat = np.asarray(design, dtype=float)
    b_vec = np.asarray(rhs, dtype=float)
    if a_mat.ndim != 2 or b_vec.shape != (a_mat.shape[0],):
        raise ValueError("design must be a matrix and rhs a matching vector")
    n = a_mat.shape[1]
    lip = float(np.linalg.norm(a_mat, 2) ** 2)

    def grad(y):
        return a_mat.T @ (a_mat @ y - b_vec)

    def objective(x_stacked):
        r = a_mat @ x_stacked - b_vec
        return 0.5 * float(np.dot(r, r)) + weight * float(np.sum(np.abs(x_stacked)))

    game, _ = build_minimization(
        [proximal.l1(weight) for _ in range(n)],
        grad,
        max(lip, 1e-12),
        joint_value=lambda y: 0.5 * float(np.dot(a_mat @ y - b_vec, a_mat @ y - b_vec)),
        strategy_dims=[1] * n,
    )
    return game, InstanceMeta(
        family="lasso",
        extras={"design": a_mat, "rhs": b_vec, "weight": float(weight), "objective": objective},
    )
