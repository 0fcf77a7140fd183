"""Asynchronous block-iterative half-space projection solver.

Each tick recomputes candidate points for the activated player and
coupling blocks from (possibly lagged) history snapshots, carries the
remaining candidates forward, assembles a point on the graph of the
underlying monotone operator, and relaxedly projects the full iterate
``(x, y, z, u*, v*)`` onto the half-space that the candidate pair
separates from the solution set.

All activated players step together in ``player_local_step``, all activated
couplings in ``coupling_local_step``. The couplings' mixtures and adjoints
are one pass each over ``Game``'s incidence tables (``Game.coupling_mix``,
``Game.coupling_pull``) in the coupling step (one mixture per lag that its
couplings read), ``refresh_e``, ``assemble_duals`` and the certificate; the
player step adds each coupled player's ``L_ki^* v_k`` in turn, with ``v*``
from that player's lag row (``Game.coupling_links``). A tick runs on the
calling thread, and its asynchrony is the schedule's: which blocks it
activates and how many ticks stale their reads are. A run is therefore
bit-reproducible.

Arithmetic is double precision throughout. The scalar test, the step size
and the separation gap share one inner product: per-block sums of the
entrywise products, combined per player as ``(x + y) + u*`` and per
coupling as ``z + v*``, then added strictly left to right from ``+0.0``
over the players and then the couplings (``np.add.accumulate``). The
bitwise gates fix that order; pairwise ``np.sum`` and compensated
``sum()`` (Python 3.12 on) round differently and must not replace it.
"""

from __future__ import annotations

import math
import numbers
import re
from itertools import accumulate
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import (
    Game, SolverParams, StateBlocks, as_vector, validate_params, validate_problem,
)
from .proximal import prox
from .schedules import Schedule
from . import oracle

__all__ = [
    "IterState",
    "TickReport",
    "SolveResult",
    "MissingHistoryError",
    "NumericalAbortError",
    "player_local_step",
    "coupling_local_step",
    "refresh_e",
    "assemble_duals",
    "compute_pi",
    "apply_update",
    "tick",
    "solve",
    "candidate_gap",
    "tuple_distance",
]

# The solve gate samples each analytic check 16 times from seed 0 and
# evaluates callable step schedules at ticks 0..256.
_GATE_SAMPLES, _GATE_SEED, _GATE_HORIZON = 16, 0, 256
_MAX_PLANS = 256    # player-step plans that an IterState keeps
_FIRST_ROWS = 256   # history rows that an IterState starts with, doubled as its run needs
# the end of lagged_interaction_grad's shape error, which names its tick already
_LAGGED_GRAD_ERROR = re.compile(r", at the y of tick \d+\Z")


class MissingHistoryError(RuntimeError):
    """A lagged read asked for a tick outside the retained history.

    Signals a breach of the scheduler/max_lag contract, not a numerical
    failure.
    """


class NumericalAbortError(RuntimeError):
    """The projection step denominator degenerated; state is corrupt."""


class TickReport(NamedTuple):
    """Per-tick record: scalar test, step, residual, and activation data, an immutable
    tuple record. The activation fields are the tick's ``Tick`` fields, whose
    read-only lag maps every query of that tick shares."""

    n: int
    pi: float
    theta: Optional[float]      # present exactly when pi < 0
    step_norm: float            # full-tuple norm of the update
    kkt_residual: float
    active_players: tuple
    active_couplings: tuple
    player_lags: dict
    coupling_lags: dict


@dataclass(frozen=True)
class SolveResult:
    """Final tuple, per-tick reports, and the closing certificate."""

    x: tuple
    y: tuple
    z: tuple
    u_star: tuple
    v_star: tuple
    reports: list
    certificate: "oracle.Certificate"
    status: str                 # "converged" | "max_iters" | "stagnated"
    ticks: int


class IterState:
    """Mutable iterate of the big-space algorithm plus its candidate pair.

    The iterate ``w = (x, y, z, u*, v*)``, the point ``p = (a, q, b, c*, e*)``
    and the direction ``p* = (a*, q*, b*, c, e)`` are three flat vectors laid
    out alike by the game (``flat``, ``point`` and ``direction``), and ``s*``
    is a fourth, ``s_star``, laid out like the ``x`` part; the paper names
    (``x``, ``cand_a``, ``dual_a_star``, ``cand_s_star``, ...) are tuples of
    per-block views into them. The pair and ``s*`` start at zero; a tick
    writes the activated blocks into the views in place, so the inactive
    blocks keep their last values.
    Tick ``n`` of the history is row ``n % len`` of a ring with one row per
    retained tick; the local steps read it through a read-only view. The
    ring starts with ``min(max_lag + 1, 256)`` rows and doubles, up to
    ``max_lag + 1``, when a push reaches its end before it has ever
    wrapped, so tick ``n`` stays at row ``n`` and memory follows the
    history that a run uses, not its lag bound.
    A row's last columns are a memo of the interaction gradient at its
    ``y``: ``lagged_interaction_grad`` evaluates it on the first read after
    the row was pushed and returns the stored columns on later reads.

    The flat vectors and their views are bound once: rebinding one to
    another object raises ``AttributeError``, because that object would be
    detached from the layout that the tick reads. Write into them instead.

    The state, not the game that solves may share, keeps the player-step
    plans of its first ``_MAX_PLANS`` (256) active sets, whose steps a new
    ``_step_table`` (params, list edit, callable schedule) rebuilds.

    A write into the views between ticks reaches all of the next tick:
    the tick pushes its own history row from the live state before its
    local steps read it. To warm-start a run, pass the starting blocks and
    the schedule's ``max_lag`` (a nonnegative integer) to ``IterState(game,
    ...)`` and the state to ``solve(state=...)`` with the same game.
    """

    _FLAT = ("flat", "point", "direction", "s_star")
    _BOUND = frozenset(_FLAT + (
        "x", "y", "z", "u_star", "v_star",
        "cand_a", "cand_q", "cand_b", "cand_c_star", "cand_e_star", "cand_s_star",
        "dual_a_star", "dual_q_star", "cand_b_star", "cand_c", "cand_e",
    ))

    def __setattr__(self, name, value):
        if name in self._BOUND and self.__dict__.get(name, value) is not value:
            index = "[:]" if name in self._FLAT else "[i][:]"
            raise AttributeError(
                f"cannot rebind IterState.{name}, which is bound to the state layout; "
                f"write into it instead: state.{name}{index} = ..."
            )
        object.__setattr__(self, name, value)

    def __init__(self, game: Game, x=None, y=None, z=None, u_star=None, v_star=None,
                 max_lag: int = 0):
        if isinstance(max_lag, bool) or not isinstance(max_lag, numbers.Integral) or max_lag < 0:
            raise ValueError(f"max_lag must be a nonnegative integer, not {max_lag!r}")
        self.game = game
        self.flat = np.zeros(game.state_size)
        live = game.split_state(self.flat)
        for given, views, what in zip((x, y, z, u_star, v_star), live,
                                      ("x0", "y0", "z0", "u0", "v0")):
            if given is None:
                continue
            blocks = list(given)
            if len(blocks) != len(views):
                raise ValueError(f"{what}: expected {len(views)} blocks, got {len(blocks)}")
            for view, b in zip(views, blocks):
                view[:] = as_vector(b, view.shape[0], what)
        self.x, self.y, self.z, self.u_star, self.v_star = live

        self.point = np.zeros(game.state_size)
        self.direction = np.zeros(game.state_size)
        self.cand_a, self.cand_q, self.cand_b, self.cand_c_star, self.cand_e_star = (
            game.split_state(self.point))
        self.dual_a_star, self.dual_q_star, self.cand_b_star, self.cand_c, self.cand_e = (
            game.split_state(self.direction))
        self.s_star = np.zeros(game.x_span.stop)
        self.cand_s_star = tuple(self.s_star[s] for s in game.state_slices.x)

        self.n = 0
        self.pi: Optional[float] = None
        self._steps = (None, (), None)      # see _step_table()
        self._plans = {}                    # see player_local_step()
        # (flat bytes, residual) of the last per-tick certificate; see tick().
        self._certified = (None, None)
        self._capacity = int(max_lag) + 1   # the rows that the ring may grow to
        self._ring_stamps, self._grad_stamps = [], []
        self._grow(min(self._capacity, _FIRST_ROWS))
        self._push_history(0)

    def _grow(self, rows: int) -> None:
        """Give the ring ``rows`` rows, the held ones where they were: a row is a tick's
        state, then the interaction gradient at its ``y``."""
        held = len(self._ring_stamps)
        ring = np.empty((rows, self.game.state_size + self.game.total_interaction_dim))
        if held:
            ring[:held] = self._ring_and_grads
        self._ring_and_grads = ring
        self._ring = ring[:, :self.game.state_size]
        self._ring_stamps += [-1] * (rows - held)
        self._grad_stamps += [-1] * (rows - held)   # the tick whose y a row's gradient holds
        frozen = ring.view()
        frozen.flags.writeable = False
        self._frozen = frozen

    def _push_history(self, idx: int) -> None:
        rows = held = len(self._ring)
        while rows <= idx and rows < self._capacity:     # never wrapped: tick t is at row t
            rows = min(2 * rows, self._capacity)
        if rows > held:
            self._grow(rows)
        row = idx % rows
        self._ring[row] = self.flat
        self._ring_stamps[row] = idx
        self._grad_stamps[row] = -1

    def _row(self, tick_index: int) -> int:
        row = tick_index % len(self._ring)
        if self._ring_stamps[row] != tick_index:
            held = sorted(t for t in self._ring_stamps if t >= 0)
            raise MissingHistoryError(
                f"history has ticks {held}, requested {tick_index}; "
                f"schedule lags exceed the retained depth max_lag={self._capacity - 1}"
            )
        return row

    def snapshot_at(self, tick_index: int) -> StateBlocks:
        """Read-only per-block views of the tuple at a retained tick.

        The views alias a ring row until the row is reused, ``len`` ticks
        later, or the ring grows (see the class docstring); copy them to keep
        them.
        """
        return self.game.split_state(self._frozen[self._row(tick_index)])

    def lagged_interaction_grad(self, tick_index: int) -> np.ndarray:
        """Shape-checked interaction gradient at the ``y`` of a retained tick, kept in its
        row: a read-only view, evaluated on the first read after the row was pushed."""
        row = self._row(tick_index)
        if self._grad_stamps[row] != tick_index:
            y = self._frozen[row, self.game.y_span]
            grad = np.asarray(self.game.interaction.eval(y), dtype=float)
            if grad.shape != y.shape:
                raise ValueError(f"interaction gradient returned shape {grad.shape}, "
                                 f"expected {y.shape}, at the y of tick {tick_index}")
            self._ring_and_grads[row, self.game.state_size:] = grad
            self._grad_stamps[row] = tick_index
        return self._frozen[row, self.game.state_size:]

    def current_tuple(self) -> StateBlocks:
        """Copies of the live ``(x, y, z, u*, v*)`` blocks."""
        return self.game.split_state(self.flat.copy())


def tuple_distance(t1, t2) -> float:
    """Norm of the difference of two full ``(x, y, z, u*, v*)`` tuples; ValueError when
    their groups or their blocks' shapes differ."""
    if len(t1) != len(t2):
        raise ValueError(f"tuples of {len(t1)} and {len(t2)} groups")
    acc = 0.0
    for g, (group1, group2) in enumerate(zip(t1, t2)):
        shapes = [np.shape(a) for a in group1], [np.shape(b) for b in group2]
        if shapes[0] != shapes[1]:
            raise ValueError(f"group {g}: block shapes {shapes[0]} and {shapes[1]} differ")
        for a, b in zip(group1, group2):
            d = np.asarray(a) - np.asarray(b)
            acc += float(np.dot(d, d))
    return float(np.sqrt(acc))


def player_local_step(game: Game, params: SolverParams, state: IterState, players,
                      lags: dict) -> None:
    """The candidates of the activated ``players``, player ``i`` reading history
    tick ``lags[i]`` with its step sizes indexed at that tick, written into the
    point (``q``, ``c*`` and ``a``), the direction (``c``) and ``s*``::

        q  = y + step_y (u* - grad_y)          c* = u* + step_u (M x - y)
        x* = x - step_x (grad_s(x) + M^T u* + sum_k L_k^T v*_k)
        a  = prox(x*)                          c  = q - M a
        s* = (x* - a) / step_x + grad_s(a) + M^T c*

    The arithmetic runs on the entries of all ``players`` at once, with the
    bits of each player stepped alone: the interaction gradient is evaluated
    once per lag, the pullback and the prox once per player, and the mixes
    and smooth gradients go through ``Game.mix`` and ``Game.smooth_grad``,
    as in the certificate (a zero gradient is a ``+ 0.0``: ``-0.0 -> +0.0``).
    The entries are gathered by one ``take`` when every player has one
    interaction entry, else by joining the columns of the ``players``. These
    gathers, the players' bounds, repeat counts and couplings and the steps
    there are the set's plan, which the state may keep (see ``IterState``).
    """
    for tau in sorted({lags[i] for i in players}):
        state.lagged_interaction_grad(tau)      # checks the row of each lag, read below
    plan = state._plans.get(players := tuple(players))
    if plan is None:
        entries, dims = game._entries, game.strategy_dims
        if entries.shape[1] == game.num_players:    # one interaction entry per player
            at, y_repeats = entries.take(players, axis=1), None
        else:
            offs = game.interaction_offsets()
            at = np.concatenate([entries[:, offs[i]:offs[i + 1]] for i in players], axis=1)
            y_repeats = [game.interaction_dims[i] for i in players]
        x_at, x_repeats = ((at[3], None) if len(at) == 4 else (
            np.concatenate([game._x_entries[i] for i in players]), [dims[i] for i in players]))
        bounds = (range(len(players) + 1) if len(x_at) == len(players)
                  else [0, *accumulate(dims[i] for i in players)])
        coupled = [(i, slice(lo, hi)) for i, lo, hi in zip(players, bounds, bounds[1:])
                   if game.coupling_links[i]]
        plan = (at, x_at, bounds, y_repeats, x_repeats, coupled, [None])
        if len(state._plans) < _MAX_PLANS:
            state._plans[players] = plan
    at, x_at, bounds, y_repeats, x_repeats, coupled, steps = plan
    frozen, lag_rows = state._frozen, [lags[i] % len(state._ring) for i in players]
    # at one lag, index its row: about 2 us faster than a fancy index over rows
    held = (frozen[lag_rows[0]][at] if min(lag_rows) == max(lag_rows)
            else frozen[lag_rows if y_repeats is None else np.repeat(lag_rows, y_repeats), at])
    x = held[3] if x_repeats is None else frozen[np.repeat(lag_rows, x_repeats), x_at]
    # rows: gradient, y, u* and, when every player's widths agree, x entries;
    # interaction, dual and, with x, strategy steps
    table = _step_table(state, params, lags)
    if steps[0] is not table:
        step = table[at[1:]]
        step_x = step[2] if x_repeats is None else table[x_at]
        steps[:] = table, step, step_x, step_x.tolist()
    _, step, step_x, strategy = steps
    mixed_x = game.mix(x, players)
    right = held[2:] if len(at) == 4 and mixed_x is x else np.stack((held[2], mixed_x))
    # q = y + step_y * (u* - grad) and c* = u* + step_u * (M x - y) as two rows
    q_c = held[1:3] + step[:2] * (right - held[:2])
    pull = game.smooth_grad(x, players) + game.mix(held[2], players, adjoint=True)
    for i, seg in coupled:     # L_ki^* v_k by increasing k, v* from the player's lag row
        acc, v = pull[seg], frozen[lags[i] % len(frozen), game.v_span]
        for cols, op in game.coupling_links[i]:
            acc = acc + op.adjoint_apply(v[cols])
        pull[seg] = acc
    x_star = x - step_x * pull
    a = []
    for i, lo, hi in zip(players, bounds, bounds[1:]):     # the resolvents
        seg = x_star[lo:hi]
        a.append(np.asarray(prox(game.players[i].nonsmooth, strategy[lo], seg)))
        if a[-1].shape != seg.shape:
            raise ValueError(f"player {i}: prox returned shape {a[-1].shape}, expected {seg.shape}")
    a = np.concatenate(a)
    state.point[at[1:3]] = q_c
    state.point[x_at] = a
    state.s_star[x_at] = ((x_star - a) / step_x + game.smooth_grad(a, players)
                          + game.mix(q_c[1], players, adjoint=True))
    state.direction[at[2]] = q_c[0] - game.mix(a, players)


def _step_table(state: IterState, params: SolverParams, lags: dict) -> np.ndarray:
    """Each player's strategy, interaction and dual steps at its ``x``, ``y``
    and ``u*`` entries of the state layout, at the tick ``lags[i]``. The state
    keeps the table of constant and per-block schedules, which do not depend
    on the tick, for the ``params`` it was built from and the entries of its
    list and array schedules, which can change in place; under a callable
    schedule the table is built per call, for the players in ``lags`` only.
    """
    held, entries, table = state._steps
    if held is params and table is not None and (
            not entries or all(tuple(s) == values for s, values in entries)):
        return table
    game = state.game
    schedules = (params.strategy_steps, params.interaction_steps, params.player_dual_steps)
    per_tick = any(map(callable, schedules))
    ticks = lags if per_tick else dict.fromkeys(range(game.num_players), 0)
    strategy, interaction, dual = (
        [step(i, ticks[i]) if i in ticks else 0.0 for i in range(game.num_players)]
        for step in (params.strategy_step, params.interaction_step, params.player_dual_step))
    none = [0.0] * game.num_couplings
    # one value per block of the state (x, y, z, u*, v*), repeated over its entries
    table = np.repeat(strategy + interaction + none + dual + none,
                      np.diff(game.block_starts, append=game.state_size))
    entries = [(s, tuple(s)) for s in schedules if isinstance(s, (list, np.ndarray))]
    state._steps = (params, entries, None if per_tick else table)
    return table


def coupling_local_step(game: Game, params: SolverParams, state: IterState, couplings,
                        lags: dict) -> None:
    """The candidates of the activated ``couplings``, coupling ``k`` reading history
    tick ``lags[k]`` with its steps indexed there, into the point and the direction::

        d* = z + step_z (v* - grad(z))         b  = prox(d*)
        e* = v* + step_v (L x - z)             b* = (d* - b) / step_z + grad(b) - e*

    ``refresh_e`` computes ``e`` from the newest player candidates; the smooth
    gradients go through ``Game.coupling_grad``, as in the certificate.
    """
    zs, vs, z0 = game.state_slices.z, game.state_slices.v_star, game.z_span.start
    mixed = {}      # per lag, the mixture of every coupling at its row
    for k in couplings:
        row = state._frozen[state._row(lags[k])]
        if lags[k] not in mixed:
            mixed[lags[k]] = game.coupling_mix(row)
        z, v = row[zs[k]], row[vs[k]]
        step_z = params.coupling_step(k, lags[k])
        d_star = z + step_z * (v - game.coupling_grad(k, z))
        b = np.asarray(prox(game.couplings[k].nonsmooth, step_z, d_star))
        if b.shape != d_star.shape:
            raise ValueError(f"coupling {k}: prox returned shape {b.shape}, expected {d_star.shape}")
        mix = mixed[lags[k]][zs[k].start - z0:zs[k].stop - z0]
        e_star = v + params.coupling_dual_step(k, lags[k]) * (mix - z)
        state.point[zs[k]], state.point[vs[k]] = b, e_star
        state.direction[zs[k]] = (d_star - b) / step_z + game.coupling_grad(k, b) - e_star


def refresh_e(game: Game, state: IterState) -> tuple:
    """Recompute ``e_k = b_k - sum_i L_ki a_i`` for every coupling, in place.

    Runs every tick for active and inactive couplings alike, always against
    the freshest player candidates; carrying ``e_k`` forward instead would
    silently break the graph property of the candidate pair. Returns the
    ``e`` views.
    """
    if game.couplings:
        state.direction[game.v_span] = state.point[game.z_span] - game.coupling_mix(state.point)
    return state.cand_e


def assemble_duals(game: Game, state: IterState):
    """Write the dual candidates of every player from the current caches.

    ``q*`` is the stacked interaction gradient at the full fresh candidate
    ``q`` (inactive players included) minus ``c*``, in one step over the
    flat vectors; ``a*`` is a copy of ``s*`` to which each coupled player
    adds its coupling pullbacks. Returns the ``a*`` and ``q*`` views.
    """
    grads = np.asarray(game.interaction.eval(state.point[game.y_span]), dtype=float)
    state.direction[game.y_span] = grads - state.point[game.u_span]
    state.direction[game.x_span] = state.s_star
    if game.coupled_players:
        game.coupling_pull(state.direction[game.x_span], state.point[game.v_span])
    return state.dual_a_star, state.dual_q_star


def _block_inner(game: Game, left: np.ndarray, right: np.ndarray) -> float:
    """Inner product of two flat state-layout vectors, accumulated block by block.

    Sums the entrywise products per block (``np.add.reduceat``) and adds the
    block sums in the order that the module docstring fixes, ``(x + y) + u*``
    per player in one reduce over ``Game._inner_blocks``.
    """
    sums = np.add.reduceat(left * right, game.block_starts)
    terms = np.add.reduce(sums[game._inner_blocks], axis=0)
    if game.couplings:
        _, _, z, _, v = game.field_blocks
        terms = np.concatenate((terms, sums[z] + sums[v]))
    return float(np.add.accumulate(terms)[-1])


def compute_pi(game: Game, state: IterState) -> float:
    """Scalar separation test ``<p - w, p*>`` between the iterate and the candidate pair."""
    state.pi = _block_inner(game, state.point - state.flat, state.direction)
    return state.pi


def _first_nonfinite(game: Game, state: IterState) -> str:
    """Name the first block and field, in layout order of ``p`` then ``p*``, that is not finite."""
    kinds = ("player", "player", "coupling", "player", "coupling")
    for vec, names in ((state.point, ("a", "q", "b", "c*", "e*")),
                       (state.direction, ("a*", "q*", "b*", "c", "e"))):
        for views, name, kind in zip(game.split_state(vec), names, kinds):
            for j, view in enumerate(views):
                if not np.all(np.isfinite(view)):
                    return f"; first non-finite value: {kind} {j}, field {name}"
    return ""


def apply_update(game: Game, state: IterState, params: SolverParams):
    """Relaxed projection of the iterate onto the separating half-space.

    With a negative scalar test the update moves the iterate along the
    direction ``p*`` by ``theta = relaxation * pi / ||p*||^2``; otherwise
    the state is left untouched. The history ring advances either way. A
    nonpositive denominator under a negative test is mathematically
    impossible and aborts the run; the abort message names the first
    block whose candidate or dual is not finite.
    """
    if state.pi is None:
        raise RuntimeError("compute_pi must run before apply_update")
    pi = state.pi
    state.pi = None
    n = state.n
    if not math.isfinite(pi):
        raise NumericalAbortError(
            f"scalar test is not finite at tick {n}: {pi}{_first_nonfinite(game, state)}"
        )
    theta = None
    step_norm = 0.0
    if pi < 0.0:
        den = _block_inner(game, state.direction, state.direction)
        if not math.isfinite(den) or den <= 0.0:
            raise NumericalAbortError(
                f"projection denominator {den} with negative scalar test at tick {n}"
                f"{_first_nonfinite(game, state)}"
            )
        theta = params.relaxation_at(n) * pi / den
        state.flat += theta * state.direction
        step_norm = abs(theta) * math.sqrt(den)
    state._push_history(n + 1)
    return pi, theta, step_norm


def tick(game: Game, params: SolverParams, schedule: Schedule, state: IterState) -> TickReport:
    """Run one full iteration and return its report.

    Queries the schedule and runs the local steps for the activated blocks:
    every player in one ``player_local_step``, then every coupling in one
    ``coupling_local_step``. They write ``p`` and ``p*``, whose inactive
    blocks keep their last values. A ``ValueError`` that a step raises gets
    ``, at tick N`` appended, unless it is the interaction gradient's, which
    names the tick of its ``y`` already. The coupling gaps ``e`` and the
    player duals ``a*``, ``q*`` are then refreshed, and the iterate is
    projected onto the half-space ``{w : <w - p, p*> <= 0}``.
    The reported residual certifies the post-update iterate. That
    certificate is the one step of a tick that touches every block, so it
    is evaluated only when the iterate differs bitwise from the one it last
    certified: a nonnegative scalar test leaves the iterate in place and
    the previous residual, which is a function of the iterate alone, is
    reported again. A ``state`` built for another game raises ValueError.
    """
    if state.game is not game:
        raise ValueError("the state was built for another game; pass IterState(game, ...)")
    n = state.n
    state._push_history(n)      # so a write into the views since the last tick is read
    info = schedule.next_tick(n, game.num_players, game.num_couplings)

    try:
        player_local_step(game, params, state, info.active_players, info.player_lags)
        if info.active_couplings:
            coupling_local_step(game, params, state, info.active_couplings, info.coupling_lags)
    except ValueError as exc:   # a local step's error names the block and the operator
        if not _LAGGED_GRAD_ERROR.search(str(exc)):
            exc.args = (f"{exc}, at tick {n}",)
        raise

    refresh_e(game, state)
    assemble_duals(game, state)
    compute_pi(game, state)
    pi, theta, step_norm = apply_update(game, state, params)
    key = state.flat.tobytes()
    if state._certified[0] != key:
        flat = state.flat
        cert = oracle.check_equilibrium(game, flat[game.x_span], flat[game.u_span],
                                        flat[game.v_span], coerce=False)
        state._certified = (key, cert.max_residual)
    report = TickReport(n, pi, theta, step_norm, state._certified[1], info.active_players,
                        info.active_couplings, info.player_lags, info.coupling_lags)
    state.n = n + 1
    return report


def candidate_gap(game: Game, state: IterState, reference) -> float:
    """Inner product ``<ref - candidate, candidate dual>`` after a tick.

    For a reference tuple assembled from a solution, monotonicity forces
    this to be nonpositive: the solution set lies inside the projection
    half-space. A reference of other than ``game.state_size`` entries raises
    ValueError.
    """
    ref = np.concatenate([np.asarray(b, dtype=float) for group in reference for b in group])
    if ref.shape != (game.state_size,):
        raise ValueError(f"reference: expected {game.state_size} entries, got shape {ref.shape}")
    return _block_inner(game, ref - state.point, state.direction)


def solve(game: Game, params: SolverParams, schedule: Schedule, x0=None, *,
          state: Optional[IterState] = None, parallel: bool = False,
          validate: bool = True, stall_window: int = 1000) -> SolveResult:
    """Iterate to a certified equilibrium or a tick limit.

    Parameters
    ----------
    game, params, schedule
        The problem, its step schedules, and the activation schedule.
    x0
        Initial strategies (per-player blocks); defaults to all zeros. The
        run's history then holds ``min(schedule.max_lag, params.max_iters)``
        ticks back, as far as any tick can read. Pass a prebuilt ``state``
        instead to warm-start the full tuple; its history depth
        (``IterState(..., max_lag=...)``) must cover the schedule's
        ``max_lag``.
    parallel
        Does nothing. It is kept only because ``perfbench/run.py`` passes
        it on every solve; every tick runs on the calling thread.
    validate
        Run the desk-scale problem and parameter validations first and
        raise ValueError on any violation; pass False to override.
    stall_window
        Declare stagnation when the state has not moved for this many
        consecutive ticks while the residual stays above tolerance; 0 never
        does. The underlying theory offers no remedy for a persistent
        nonnegative scalar test, so the run stops and reports it.

    Returns
    -------
    SolveResult
        Final tuple, per-tick reports, closing certificate, and status
        ("converged", "max_iters", or "stagnated").
    """
    if isinstance(stall_window, bool) or not isinstance(stall_window, numbers.Integral) \
            or stall_window < 0:
        raise ValueError(f"stall_window must be a nonnegative integer, not {stall_window!r}")
    if validate:    # first, so that a bad max_iters is named before it sizes the history
        issues = validate_game_and_params(game, params)
        if issues:
            raise ValueError("validation failed:\n" + "\n".join(issues))
    if state is None:
        state = IterState(game, x=x0, max_lag=min(schedule.max_lag, params.max_iters))
    elif x0 is not None:
        raise ValueError("pass either x0 or a prebuilt state, not both")
    elif schedule.max_lag > (depth := state._capacity - 1):
        raise ValueError(
            f"schedule lags up to {schedule.max_lag} exceed the retained history depth max_lag={depth}"
        )

    reports = []
    status = "max_iters"
    frozen_ticks = 0
    for _ in range(params.max_iters):
        report = tick(game, params, schedule, state)
        reports.append(report)
        if report.kkt_residual <= params.tol:
            status = "converged"
            break
        frozen_ticks = frozen_ticks + 1 if report.theta is None else 0
        if stall_window and frozen_ticks >= stall_window:
            status = "stagnated"
            break
    certificate = oracle.check_equilibrium(game, state.x, state.u_star, state.v_star)
    return SolveResult(*state.current_tuple(), reports, certificate, status, state.n)


def validate_game_and_params(game: Game, params: SolverParams) -> list:
    """Combined advisory validation used as the solve() entry gate."""
    return validate_problem(game, samples=_GATE_SAMPLES, seed=_GATE_SEED) + validate_params(
        game, params, horizon=_GATE_HORIZON
    )
