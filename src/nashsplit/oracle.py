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
views of its flat state. The players and then the couplings are the
blocks of one vector ``[x | Lx]``, and blocks whose nonsmooth terms declare
the same entrywise ``stack`` share one prox call (``Game.prox_groups``),
a player's or a coupling's alike; any other term, a hand-made one
whatever its kind, is evaluated alone. The mixes and smooth gradients go
through ``Game.mix``, ``Game.smooth_grad`` and ``Game.coupling_grad``, and
the couplings' mixtures and adjoints through one ``Game.coupling_mix`` and
one ``Game.coupling_pull`` on the stacked vectors, as in the solver's
``refresh_e`` and ``assemble_duals``. Every player, interaction and
coupling residual and every gap is a per-block norm of one stacked
difference (one ``np.add.reduceat``), so on one-entry blocks every
residual has the bits of the per-block evaluation (``tests/_oracles.py``
keeps it as the reference); on wider blocks the sums of squares agree with
its dot products to rounding. The maximum is NaN when any line is.

The reference solvers are diagnostic and deliberately independent of the
main iteration: a Gauss-Seidel best-response sweep (which is expected to
cycle on minimax instances) and an active-set enumerator for quadratic
games with box and orthant constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple
import numpy as np

from .model import Game, _shaped, _stacked
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


class Certificate(NamedTuple):
    """Residuals of the first-order equilibrium system at a candidate tuple (a tuple record)."""

    player_residuals: tuple         # per-player prox fixed-point residual
    interaction_residuals: tuple    # per-player dual-vs-gradient residual
    coupling_residuals: tuple       # per-coupling dual consistency residual
    feasibility_gaps: tuple         # distance to each indicator set (players then couplings)
    max_residual: float


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
    named ``x[i]``, ``x``, ``u*``, ... (``model._stacked``, which reads the
    starting blocks of ``IterState`` alike); ``coerce=False`` skips the
    checks for callers that hold validated vectors (the per-tick path).

    An output of the wrong shape from a smooth gradient, a mix, a prox or
    the interaction gradient raises ValueError naming the operator and, but
    for the last, the first such player or coupling, in the words of every
    such check (``model._shaped``); under ``tick`` it also names the tick.
    """
    layout, players = game.state_slices, game.num_players
    x = _stacked(x, layout.x, "x", coerce)
    q = _interaction(game, game.mix(x))
    u = q if u_star is None else _stacked(u_star, layout.u_star, "u*", coerce)
    v = _stacked(v_star, layout.v_star, "v*", coerce)

    pull = game.smooth_grad(x) + game.mix(u, adjoint=True)
    # the blocks [x | Lx], and the couplings' steps Lx + (v* - grad(Lx)); v* is
    # empty without couplings
    blocks, z_step = x, v
    if game.couplings:
        if game.coupled_players:
            game.coupling_pull(pull, v)
        z, v0 = game.coupling_mix(x), game.v_span.start
        blocks, z_step = np.concatenate((x, z)), z + v    # z + (v* - 0.0) is z + v*, bit for bit
        for k in game.smooth_couplings:
            s = slice(layout.v_star[k].start - v0, layout.v_star[k].stop - v0)
            z_step[s] = z[s] + (v[s] - game.coupling_grad(k, z[s]))
    # prox residuals at unit step: any fixed positive step has the same zero
    # set, and this one is unrelated to the solver's step schedules;
    # [blocks - prox(step) | u* - q | blocks - projection], the step [x - pull | z_step]
    source = np.concatenate((blocks, u, blocks))
    target = np.concatenate((x - pull, z_step, q, blocks))
    projected, starts = target[len(blocks) + len(q):], game._residual_starts
    for term, index in game.prox_groups:
        a = prox(term, 1.0, target[index])
        if np.shape(a) != index.shape:      # only a term alone in its group gets here
            b = int(np.searchsorted(starts, index[0]))
            name = f"player {b}" if b < players else f"coupling {b - players}"
            _shaped(a, index.shape, f"{name}: prox")
        target[index] = a
        if is_indicator(term):
            projected[index] = prox(term, 1.0, blocks[index])
    diff = source - target
    norms = np.sqrt(np.add.reduceat(diff * diff, starts)).tolist()
    lines, c = tuple(norms), players + game.num_couplings
    total = sum(norms)      # NaN when any line is: max() keeps a NaN only in first place
    return Certificate(lines[:players], lines[c:c + players], lines[players:c],
                       tuple([lines[c + players + b] for b in game.indicator_blocks]),
                       max(norms) if total == total else total)


def _interaction(game: Game, y: np.ndarray, where: str = "") -> np.ndarray:
    """``Q(y)``, checked to be of ``y``'s shape; the error ends with ``where``."""
    q = np.asarray(game.interaction.eval(y), dtype=float)
    if q.shape != y.shape:
        _shaped(q, y.shape, "interaction gradient", where=where)
    return q


def equilibrium_tuple(game: Game, x, v_star=None):
    """Assemble the full solution tuple ``(x, Mx, Lx, Q(Mx), v*)``, from per-block or
    stacked ``x`` and ``v_star`` as ``check_equilibrium`` takes them.

    This is the reference point for the half-space and distance-monotone
    run invariants.
    """
    layout = game.state_slices
    x, v = _stacked(x, layout.x, "x"), _stacked(v_star, layout.v_star, "v*")
    y = game.mix(x)
    flat = np.concatenate((x, y, game.coupling_mix(x), _interaction(game, y), v))
    return tuple(tuple(np.array(b) for b in group) for group in game.split_state(flat))


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
    reduce to a per-player proximal step. ``x0`` is per-block input or one
    stacked 1-D vector, as ``check_equilibrium`` takes ``x`` (ValueError
    named ``x0`` or ``x0[i]`` otherwise).
    """
    x0 = _stacked(x0, game.state_slices.x, "x0")
    for k, blk in enumerate(game.couplings):
        if blk.nonsmooth.kind != "zero":
            raise ValueError(
                f"best-response oracle supports only smooth couplings; coupling {k} "
                f"has a {blk.nonsmooth.kind!r} term"
            )
    xs = [x0[s] for s in game.state_slices.x]

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
    total, blocks = game.x_span.stop, game.state_slices.x
    if total > 12:
        raise ValueError("active-set enumeration is a desk-scale oracle (total dim <= 12)")

    def pseudo_gradient(xfull):
        return game.smooth_grad(xfull) + game.mix(_interaction(game, game.mix(xfull)), adjoint=True)

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
        if term.kind == "zero":
            continue
        if term.kind == "box":
            lower[blocks[i]] = term.meta["lower"]
            upper[blocks[i]] = term.meta["upper"]
        elif term.kind == "singleton":
            lower[blocks[i]] = term.meta["point"]
            upper[blocks[i]] = term.meta["point"]
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
            block_rows[:, blocks[i]] = op.matrix()
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
                vs = [np.zeros(c.dim) for c in game.couplings]
                mults = [np.zeros(c.dim) for c in game.couplings]
                for (k, r), val in zip(row_coupling, lam):
                    mults[k][r] = val
                    vs[k][r] = -val
                xs, _, _, us, _ = equilibrium_tuple(game, xfull)
                return ExactEquilibrium(xs, us, tuple(vs), tuple(mults))
    raise NoConsistentActiveSetError("no active set yields a consistent equilibrium")
