"""Equilibrium certificates and desk-scale reference solvers.

The certificate measures how nearly a tuple ``(x, u*, v*)`` satisfies the
first-order equilibrium system: the interaction duals must equal the
stacked partial gradients at the mixed strategies, each coupling dual must
lie in the coupling subdifferential at the mixture, and each player must
be at a prox fixed point of its own stationarity condition. All three
lines vanish exactly at solutions, so the maximum residual doubles as the
solver's stopping rule.

The certificate runs after every tick that moves the iterate, so it works
on stacked vectors: per-block input is joined once, and the tick passes
views of its flat state. Players whose nonsmooth terms declare the same
entrywise ``stack`` share one prox call (``Game.prox_groups``); any other
term, a hand-made one whatever its kind, is evaluated alone. The mixes and
smooth gradients go through ``Game.mix``, ``Game.smooth_grad`` and
``Game.coupling_grad``, as in the solver's local steps. The player and
interaction residuals and the players' gaps are the per-block norms of one
stacked difference (one ``np.add.reduceat``); each coupling's lines are
``np.dot`` norms. The maximum runs over the player, interaction and
coupling residuals and then the gaps (players, then couplings). So on
one-entry blocks every residual has the bits of the per-player evaluation
(``tests/_oracles.py`` keeps it as the reference); on wider blocks the
sums of squares agree with its dot products to rounding.

The reference solvers are diagnostic and deliberately independent of the
main iteration: a Gauss-Seidel best-response sweep (which is expected to
cycle on minimax instances) and an active-set enumerator for quadratic
games with box and orthant constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import Game, as_vector
from .proximal import is_indicator, prox

__all__ = [
    "Certificate",
    "check_equilibrium",
    "equilibrium_tuple",
    "BestResponseResult",
    "best_response_fixed_point",
    "ExactEquilibrium",
    "quadratic_game_exact",
    "NoConsistentActiveSetError",
]


@dataclass(frozen=True)
class Certificate:
    """Residuals of the first-order equilibrium system at a candidate tuple."""

    player_residuals: tuple         # per-player prox fixed-point residual
    interaction_residuals: tuple    # per-player dual-vs-gradient residual
    coupling_residuals: tuple       # per-coupling dual consistency residual
    feasibility_gaps: tuple         # distance to each indicator set (players then couplings)
    max_residual: float


def _norm(v) -> float:
    return float(np.sqrt(np.dot(v, v)))


def _stacked(value, layout, what: str, coerce: bool = True) -> np.ndarray:
    """The blocks ``layout`` as one vector: zeros when absent, a 1-D array as given, other
    input joined; ``coerce`` checks the block count and each block (``what[i]``), then the
    whole (``what``)."""
    stacked = isinstance(value, np.ndarray) and value.ndim == 1
    if not coerce and value is not None:
        return value if stacked else np.concatenate(value) if len(value) else np.zeros(0)
    widths = [s.stop - s.start for s in layout]
    if value is None:
        return np.zeros(sum(widths))
    if not stacked:
        if len(value := list(value)) != len(widths):
            raise ValueError(f"{what}: expected {len(widths)} blocks, got {len(value)}")
        value = [as_vector(b, d, f"{what}[{i}]") for i, (b, d) in enumerate(zip(value, widths))]
        value = np.concatenate(value) if value else np.zeros(0)
    return as_vector(value, sum(widths), what)


def check_equilibrium(game: Game, x, u_star=None, v_star=None, *,
                      coerce: bool = True) -> Certificate:
    """Evaluate the equilibrium residuals at ``(x, u*, v*)``.

    Each of ``x``, ``u_star`` and ``v_star`` is per-block input or one
    stacked 1-D vector, such as ``state.flat[game.x_span]`` (``u_span``,
    ``v_span``). ``u_star`` defaults to the stacked interaction gradient at
    the mixed strategies (making the first line exact); ``v_star`` defaults
    to zeros. For indicator coupling terms the dual-inclusion residual is
    the projection identity distance. ``coerce`` checks that each block and
    each stacked vector is finite and of its width, raising ValueError
    named ``x[i]``, ``x``, ``u*``, ...; ``coerce=False`` skips the checks
    for callers that hold validated vectors (the per-tick path).

    An output of the wrong shape from a smooth gradient, a mix, a prox or
    the interaction gradient raises ValueError naming the operator and, but
    for the last, the first such player or coupling.
    """
    layout, players = game.state_slices, game.num_players
    x = _stacked(x, layout.x, "x", coerce)
    y = game.mix(x)
    q = np.asarray(game.interaction.eval(y), dtype=float)
    if q.shape != y.shape:
        raise ValueError(f"interaction gradient returned shape {q.shape}, expected {y.shape}")
    u = q if u_star is None else _stacked(u_star, layout.u_star, "u*", coerce)
    v, v0 = _stacked(v_star, layout.v_star, "v*", coerce), game.v_span.start

    pull = game.smooth_grad(x) + game.mix(u, adjoint=True)
    for i in game.coupled_players:
        pull[layout.x[i]] = game.coupling_pullback(i, pull[layout.x[i]], v)
    # prox residuals at unit step: any fixed positive step has the same zero
    # set, and this one is unrelated to the solver's step schedules
    step = x - pull
    # [x - prox(step) | u* - q | x - projection], the last with indicator players only
    gapped = bool(game.indicator_players)
    source = np.concatenate((x, u, x) if gapped else (x, u))
    target = np.concatenate((step, q, x) if gapped else (step, q))
    projected = target[len(x) + len(q):]
    for term, index in game.prox_groups:
        a = prox(term, 1.0, step[index])
        if np.shape(a) != index.shape:      # only a term alone in its group gets here
            raise ValueError(f"player {int(np.searchsorted(game.block_starts, index[0]))}: "
                             f"prox returned shape {np.shape(a)}, expected {index.shape}")
        target[index] = a
        if is_indicator(term):
            projected[index] = prox(term, 1.0, x[index])
    diff = source - target
    starts = game._residual_starts[:(3 if gapped else 2) * players]
    norms = np.sqrt(np.add.reduceat(diff * diff, starts)).tolist()
    coupling_res, gaps = [], [norms[2 * players + i] for i in game.indicator_players]
    for k, (blk, s) in enumerate(zip(game.couplings, layout.v_star)):
        z = game.coupling_mixture(k, x)
        b = prox(blk.nonsmooth, 1.0, z + (v[s.start - v0:s.stop - v0] - game.coupling_grad(k, z)))
        if np.shape(b) != z.shape:
            raise ValueError(f"coupling {k}: prox returned shape {np.shape(b)}, expected {z.shape}")
        coupling_res.append(_norm(z - b))
        if is_indicator(blk.nonsmooth):
            gaps.append(_norm(z - prox(blk.nonsmooth, 1.0, z)))
    norms[2 * players:] = coupling_res + gaps   # the max's order, which a NaN makes matter
    norms, c = tuple(norms), 2 * players + len(coupling_res)
    return Certificate(norms[:players], norms[players:2 * players], norms[2 * players:c],
                       norms[c:], max(norms))


def equilibrium_tuple(game: Game, x, v_star=None):
    """Assemble the full solution tuple ``(x, Mx, Lx, Q(Mx), v*)``, from per-block or
    stacked ``x`` and ``v_star`` as ``check_equilibrium`` takes them.

    This is the reference point for the half-space and distance-monotone
    run invariants.
    """
    layout, v0 = game.state_slices, game.v_span.start
    x, v = _stacked(x, layout.x, "x"), _stacked(v_star, layout.v_star, "v*")
    xs = [x[s] for s in layout.x]
    ys = [p.mix.apply(xs[i]) for i, p in enumerate(game.players)]
    zs = [game.coupling_mixture(k, x) for k in range(game.num_couplings)]
    us = game.split_interaction(np.asarray(game.interaction.eval(np.concatenate(ys)), dtype=float))
    vs = [v[s.start - v0:s.stop - v0] for s in layout.v_star]
    return tuple(tuple(np.array(b) for b in group) for group in (xs, ys, zs, us, vs))


@dataclass(frozen=True)
class BestResponseResult:
    x: tuple
    converged: bool
    sweeps: int


def best_response_fixed_point(game: Game, x0=None, rounds: int = 50,
                              inner_tol: float = 1e-10) -> BestResponseResult:
    """Gauss-Seidel best-response sweep, each response by proximal gradient.

    A diagnostic oracle for desk-scale games: the sweep returns once two
    consecutive passes agree to ``inner_tol``, and flags non-convergence
    after ``rounds`` sweeps (best response is known to cycle on minimax
    instances, which is precisely why the main solver exists). Couplings
    must have zero nonsmooth terms; shared nonsmooth constraints do not
    reduce to a per-player proximal step.
    """
    for k, blk in enumerate(game.couplings):
        if blk.nonsmooth.kind != "zero":
            raise ValueError(
                f"best-response oracle supports only smooth couplings; coupling {k} "
                f"has a {blk.nonsmooth.kind!r} term"
            )
    xs = [
        np.zeros(p.dim_strategy) if x0 is None else as_vector(x0[i], p.dim_strategy, f"x0[{i}]")
        for i, p in enumerate(game.players)
    ]

    def smooth_grad(i, xi):
        p = game.players[i]
        ys = [game.players[j].mix.apply(xs[j]) for j in range(game.num_players)]
        ys[i] = p.mix.apply(xi)
        grads = game.split_interaction(
            np.asarray(game.interaction.eval(np.concatenate(ys)), dtype=float)
        )
        g = p.smooth.grad(xi) + p.mix.adjoint_apply(grads[i])
        for k, blk in enumerate(game.couplings):
            op = blk.maps.get(i)
            if op is None:
                continue
            mixture = np.zeros(blk.dim)
            for j in sorted(blk.maps):
                mixture = mixture + blk.maps[j].apply(xi if j == i else xs[j])
            g = g + op.adjoint_apply(blk.smooth.grad(mixture))
        return g

    def lipschitz_bound(i):
        p = game.players[i]
        mix_norm = np.linalg.norm(p.mix.matrix(), 2) if p.dim_strategy else 0.0
        bound = p.smooth_lipschitz + game.interaction.lipschitz * mix_norm ** 2
        for blk in game.couplings:
            op = blk.maps.get(i)
            if op is not None:
                bound += blk.smooth_lipschitz * np.linalg.norm(op.matrix(), 2) ** 2
        return max(bound, 1e-12)

    steps = [1.0 / lipschitz_bound(i) for i in range(game.num_players)]
    for sweep in range(1, rounds + 1):
        moved = 0.0
        for i, p in enumerate(game.players):
            xi = np.array(xs[i])
            for _ in range(2000):
                nxt = prox(p.nonsmooth, steps[i], xi - steps[i] * smooth_grad(i, xi))
                if float(np.linalg.norm(nxt - xi)) <= inner_tol * (1.0 + float(np.linalg.norm(xi))):
                    xi = nxt
                    break
                xi = nxt
            moved = max(moved, float(np.linalg.norm(xi - xs[i])))
            xs[i] = xi
        if moved <= inner_tol * 10.0:
            return BestResponseResult(tuple(np.array(b) for b in xs), True, sweep)
    return BestResponseResult(tuple(np.array(b) for b in xs), False, rounds)


class NoConsistentActiveSetError(RuntimeError):
    """No enumerated active set yields a sign-consistent KKT solution."""


@dataclass(frozen=True)
class ExactEquilibrium:
    """Closed-form variational equilibrium from active-set enumeration.

    ``multipliers`` holds the conventional nonnegative Lagrange multipliers
    of the orthant couplings; the corresponding algorithmic duals are their
    negatives, ``v_star = -multipliers``.
    """

    x: tuple
    u_star: tuple
    v_star: tuple
    multipliers: tuple


def quadratic_game_exact(game: Game, tol: float = 1e-9) -> ExactEquilibrium:
    """Solve a quadratic game with box and shifted-orthant terms exactly.

    Requires an affine pseudo-gradient (quadratic individual and joint
    smooth losses), player terms that are boxes, singletons, or zero, and
    couplings that are indicators of shifted orthants (or zero) with no
    smooth part. Enumerates active sets, solves each KKT linear system,
    and returns the first sign-consistent solution.
    """
    dims = game.strategy_dims
    total = int(sum(dims))
    if total > 12:
        raise ValueError("active-set enumeration is a desk-scale oracle (total dim <= 12)")
    offs = np.cumsum([0] + list(dims))

    def split(xfull):
        return [xfull[offs[i]:offs[i + 1]] for i in range(game.num_players)]

    def pseudo_gradient(xfull):
        xs = split(xfull)
        ys = [p.mix.apply(xs[i]) for i, p in enumerate(game.players)]
        grads = game.split_interaction(
            np.asarray(game.interaction.eval(np.concatenate(ys)), dtype=float)
        )
        parts = [
            game.players[i].smooth.grad(xs[i]) + game.players[i].mix.adjoint_apply(grads[i])
            for i in range(game.num_players)
        ]
        return np.concatenate(parts)

    base = pseudo_gradient(np.zeros(total))
    w_mat = np.zeros((total, total))
    for j in range(total):
        e = np.zeros(total)
        e[j] = 1.0
        w_mat[:, j] = pseudo_gradient(e) - base
    probe = np.random.default_rng(7).standard_normal(total)
    if np.linalg.norm(pseudo_gradient(probe) - (w_mat @ probe + base)) > 1e-6 * (
        1.0 + np.linalg.norm(probe)
    ):
        raise ValueError("pseudo-gradient is not affine; exact oracle does not apply")

    lower = np.full(total, -np.inf)
    upper = np.full(total, np.inf)
    for i, p in enumerate(game.players):
        term = p.nonsmooth
        sl = slice(offs[i], offs[i + 1])
        if term.kind == "zero":
            continue
        if term.kind == "box":
            lower[sl] = term.meta["lower"]
            upper[sl] = term.meta["upper"]
        elif term.kind == "singleton":
            lower[sl] = term.meta["point"]
            upper[sl] = term.meta["point"]
        else:
            raise ValueError(f"player {i}: unsupported term kind {term.kind!r} for exact oracle")

    rows = []
    rhs = []
    row_coupling = []
    for k, blk in enumerate(game.couplings):
        if blk.nonsmooth.kind == "zero":
            continue
        if blk.nonsmooth.kind != "shifted_orthant" or blk.smooth_lipschitz != 0.0:
            raise ValueError(
                f"coupling {k}: exact oracle needs a shifted-orthant indicator with no smooth part"
            )
        block_rows = np.zeros((blk.dim, total))
        for i, op in blk.maps.items():
            block_rows[:, offs[i]:offs[i + 1]] = op.matrix()
        rows.append(block_rows)
        rhs.append(blk.nonsmooth.meta["offset"])
        row_coupling.extend((k, r) for r in range(blk.dim))
    a_mat = np.vstack(rows) if rows else np.zeros((0, total))
    r_vec = np.concatenate(rhs) if rhs else np.zeros(0)
    n_rows = a_mat.shape[0]

    from itertools import combinations, product

    coord_states = []
    for j in range(total):
        states = ["free"]
        if np.isfinite(lower[j]):
            states.append("lo")
        if np.isfinite(upper[j]) and upper[j] != lower[j]:
            states.append("hi")
        coord_states.append(states)

    def try_candidate(active_rows, pins):
        n_act = len(active_rows)
        free = [j for j in range(total) if pins[j] == "free"]
        sys_rows = []
        sys_rhs = []
        for j in free:
            row = np.zeros(total + n_act)
            row[:total] = w_mat[j]
            for c, r in enumerate(active_rows):
                row[total + c] = -a_mat[r, j]
            sys_rows.append(row)
            sys_rhs.append(-base[j])
        for j in range(total):
            if pins[j] != "free":
                row = np.zeros(total + n_act)
                row[j] = 1.0
                sys_rows.append(row)
                sys_rhs.append(lower[j] if pins[j] == "lo" else upper[j])
        for r in active_rows:
            row = np.zeros(total + n_act)
            row[:total] = a_mat[r]
            sys_rows.append(row)
            sys_rhs.append(r_vec[r])
        sys = np.array(sys_rows)
        rhs_v = np.array(sys_rhs)
        sol, *_ = np.linalg.lstsq(sys, rhs_v, rcond=None)
        if np.linalg.norm(sys @ sol - rhs_v) > tol * (1.0 + np.linalg.norm(rhs_v)):
            return None
        xfull = sol[:total]
        lam = np.zeros(n_rows)
        lam[list(active_rows)] = sol[total:]
        if np.any(lam < -tol):
            return None
        if np.any(xfull < lower - tol) or np.any(xfull > upper + tol):
            return None
        if n_rows and np.any(a_mat @ xfull < r_vec - tol):
            return None
        stationarity = w_mat @ xfull + base - (a_mat.T @ lam if n_rows else 0.0)
        for j in range(total):
            if pins[j] == "lo" and stationarity[j] < -tol:
                return None
            if pins[j] == "hi" and stationarity[j] > tol:
                return None
        return xfull, lam

    for n_act in range(n_rows + 1):
        for active_rows in combinations(range(n_rows), n_act):
            for pins in product(*coord_states):
                got = try_candidate(active_rows, pins)
                if got is None:
                    continue
                xfull, lam = got
                xs = [np.array(b) for b in split(xfull)]
                ys = [p.mix.apply(xs[i]) for i, p in enumerate(game.players)]
                us = game.split_interaction(
                    np.asarray(game.interaction.eval(np.concatenate(ys)), dtype=float)
                )
                vs = [np.zeros(c.dim) for c in game.couplings]
                mults = [np.zeros(c.dim) for c in game.couplings]
                for (k, r), val in zip(row_coupling, lam):
                    mults[k][r] = val
                    vs[k][r] = -val
                return ExactEquilibrium(
                    tuple(xs),
                    tuple(np.array(b) for b in us),
                    tuple(vs),
                    tuple(mults),
                )
    raise NoConsistentActiveSetError("no active set yields a consistent equilibrium")
