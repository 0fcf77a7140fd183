"""Problem model for modular Nash games and desk-scale validation.

A game consists of player blocks (a nonsmooth term, a smooth term with a
Lipschitz gradient, and a linear map into a shared interaction space),
optional coupling blocks acting on linear mixtures of the strategies, and
the stacked interaction gradient whose monotonicity ties the players
together. Spaces are finite-dimensional real vectors represented as 1-D
float64 numpy arrays; the interfaces never assume a basis beyond the
dimensions.

All types are immutable after construction and safe to share across
threads; user-supplied callables must be reentrant. Validation is
advisory: the ``validate_*`` functions return lists of violation strings
(empty means valid) and never raise on a bad game.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .linops import Dense, Identity, LinOp, ScaledIdentity, Zero
from .proximal import NonsmoothTerm, is_indicator

__all__ = [
    "SmoothTerm",
    "zero_smooth",
    "quadratic_smooth",
    "PlayerBlock",
    "CouplingBlock",
    "InteractionGradient",
    "Game",
    "ProxGroup",
    "StateBlocks",
    "SolverParams",
    "StepSchedule",
    "as_vector",
    "validate_problem",
    "validate_params",
]

# Relative slack for the sampled analytic checks (monotonicity, Lipschitz
# bounds, adjoint consistency).
_SAMPLE_TOL = 1e-9


def as_vector(x, dim: Optional[int] = None, what: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally of a fixed dimension."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{what}: expected a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{what}: expected dimension {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: entries must be finite")
    return arr


def _stacked(value, layout, what: str, coerce: bool = True) -> np.ndarray:
    """The blocks ``layout`` as one vector: zeros when absent, a 1-D array as given, other
    input joined; ``coerce`` checks the block count and each block (``what[i]``), then the
    whole (``what``). The one reader of per-block input."""
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


def _shaped(out, shape: tuple, what: str, *names, where: str = ""):
    """``out`` when its shape is ``shape``, else ValueError ``{what} returned shape ...,
    expected {shape}{where}``, ``names`` formatted into ``what``: the one wrong-shape rule
    of the callables' outputs. A hot site compares inline and calls this only to raise."""
    if np.shape(out) != shape:
        raise ValueError(f"{what.format(*names)} returned shape {np.shape(out)}, "
                         f"expected {shape}{where}")
    return out


@dataclass(frozen=True)
class SmoothTerm:
    """A convex differentiable term given by value and gradient callables.

    ``stack`` is ``zero_smooth`` when the term declares a zero gradient,
    which the player and coupling steps and the certificate then skip
    (``Game.smooth_players``, ``Game.smooth_couplings``) and whose Lipschitz
    bound ``validate_problem`` does not sample (it only asks for exact zeros
    at the origin). The declaration is trusted over ``grad``, so
    ``dataclasses.replace`` of ``grad`` must also set ``stack=None`` unless
    the new ``grad`` only wraps the old one.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    stack: Optional[Callable] = None


def zero_smooth() -> SmoothTerm:
    return SmoothTerm(lambda x: 0.0, lambda x: np.zeros(np.shape(x)), zero_smooth)


def quadratic_smooth(curvature: float, linear) -> SmoothTerm:
    """The smooth term ``(curvature/2)||x||^2 + <linear, x>``."""
    c = float(curvature)
    b = np.atleast_1d(np.asarray(linear, dtype=float))
    return SmoothTerm(
        lambda x: 0.5 * c * float(np.dot(x, x)) + float(np.dot(b, x)),
        lambda x: c * x + b,
    )


@dataclass(frozen=True)
class PlayerBlock:
    """One player: strategy space, loss terms, and the mix into the interaction space.

    Attributes
    ----------
    dim_strategy : int
        Dimension of the player's strategy space.
    dim_interaction : int
        Dimension of the player's slot in the stacked interaction space.
    nonsmooth : NonsmoothTerm
        Proper lsc convex individual term (constraints enter here).
    smooth : SmoothTerm
        Differentiable individual term.
    smooth_lipschitz : float
        Lipschitz constant of the smooth gradient (caller-supplied).
    mix : LinOp
        Linear map from the strategy space into the interaction slot.
    interaction_bound : float
        Positive per-player curvature bound of the interaction gradient
        (caller-supplied; verified only by sampling).
    """

    dim_strategy: int
    dim_interaction: int
    nonsmooth: NonsmoothTerm
    smooth: SmoothTerm
    smooth_lipschitz: float
    mix: LinOp
    interaction_bound: float

    def __post_init__(self):
        if self.dim_strategy < 1 or self.dim_interaction < 1:
            raise ValueError("player dimensions must be positive")
        if self.smooth_lipschitz < 0.0:
            raise ValueError("smooth_lipschitz must be nonnegative")
        if not self.interaction_bound > 0.0:
            raise ValueError("interaction_bound must be positive")


@dataclass(frozen=True)
class CouplingBlock:
    """One nonsmooth-plus-smooth coupling acting on a mixture of strategies.

    ``maps`` sends a player index to the linear map of that player into the
    coupling space; absent entries mean the zero operator.
    """

    dim: int
    nonsmooth: NonsmoothTerm
    smooth: SmoothTerm
    smooth_lipschitz: float
    maps: Mapping[int, LinOp]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("coupling dimension must be positive")
        if self.smooth_lipschitz < 0.0:
            raise ValueError("smooth_lipschitz must be nonnegative")
        object.__setattr__(self, "maps", dict(self.maps))


@dataclass(frozen=True)
class InteractionGradient:
    """Stacked partial-gradient operator of the joint smooth losses.

    ``eval`` takes the stacked interaction vector and returns the stacked
    partial gradients, one block per player. It must be monotone and
    ``lipschitz``-Lipschitzian; both are sampled properties, not enforced
    structurally.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    lipschitz: float

    def __post_init__(self):
        if not self.lipschitz > 0.0:
            raise ValueError("interaction lipschitz constant must be positive")


class StateBlocks(NamedTuple):
    """Per-block views of one flat ``[x | y | z | u* | v*]`` vector."""

    x: tuple
    y: tuple
    z: tuple
    u_star: tuple
    v_star: tuple


class ProxGroup(NamedTuple):
    """Blocks (players, then couplings) whose nonsmooth terms share one prox
    call on their ``index`` entries of the stacked ``[x | Lx]``: a single
    member's own ``term``, or the one that the members' shared ``stack``
    constructor rebuilds from their concatenated vectors."""

    term: NonsmoothTerm
    index: np.ndarray


class _Incidence(NamedTuple):
    """Maps that act on their blocks one product per output entry, and the calls of the
    others: a row per member, one column per output entry. Row ``j`` holds the ``j``-th
    member of each column, the product ``coef * source[at]``, ``-0.0`` where ``pad``
    flat-indexes (a column with fewer members), plus ``shift``, ``+0.0`` at a ``Dense`` product
    and ``-0.0`` elsewhere (None: no ``Dense`` product, or the shift does not matter).
    ``coef`` is None when every coefficient is ``1.0``, and ``pad`` when no column has
    fewer members than the table has rows.
    ``calls`` are ``(row, columns, source entries, map, (k, i))`` of the other maps, coupling
    ``k``'s for player ``i``, which fill their place with their own call."""

    at: np.ndarray
    coef: Optional[np.ndarray]
    pad: Optional[np.ndarray]
    shift: Optional[np.ndarray]
    calls: tuple


def _incidence_table(outputs, width: int, adjoint: bool) -> _Incidence:
    """The table of ``outputs``, one ``(columns, members)`` per output block, over ``width``
    columns, each member ``(source entries, map, (k, i))`` in accumulation order: a map
    (its adjoint) of the right widths is a product per entry when it is an ``Identity`` or a
    ``ScaledIdentity``, or a ``Dense`` of one column (one row)."""
    rows = max((len(members) for _, members in outputs), default=1) or 1
    at, coef, live, dense, calls = [0] * (rows * width), [1.0] * (rows * width), set(), [], []
    for cols, members in outputs:       # built in lists: numpy costs more per member
        for j, (src, op, names) in enumerate(members):
            ins, outs = src.stop - src.start, cols.stop - cols.start
            flat = range(j * width + cols.start, j * width + cols.stop)
            live.update(flat)
            fits = (op.in_dim, op.out_dim) == ((outs, ins) if adjoint else (ins, outs))
            if fits and type(op) in (Identity, ScaledIdentity):
                at[flat.start:flat.stop] = range(src.start, src.stop)
                coef[flat.start:flat.stop] = [getattr(op, "scale", 1.0)] * outs
            elif fits and ins == 1 and type(op) is Dense:
                at[flat.start:flat.stop] = [src.start] * outs
                coef[flat.start:flat.stop] = op.matrix().ravel().tolist()
                dense += flat   # its BLAS gemv returns +0.0 for a lone -0.0 product
            else:
                calls.append((j, cols, src, op, names))
    pad, shape, shift = [p for p in range(rows * width) if p not in live], (rows, width), None
    if adjoint and dense:
        shift = np.full(shape, -0.0)
        shift.flat[dense] = 0.0
        shift.flags.writeable = False
    return _Incidence(_readonly(at, np.intp, shape),
                      None if coef.count(1.0) == len(coef) else _readonly(coef, float, shape),
                      _readonly(pad, np.intp, -1) if pad else None, shift, tuple(calls))


def _readonly(values: list, dtype, shape) -> np.ndarray:
    """``values`` as a read-only array of ``shape``."""
    out = np.array(values, dtype=dtype).reshape(shape)
    out.flags.writeable = False
    return out


def _terms(table: _Incidence, values: np.ndarray) -> np.ndarray:
    """The products of ``table``: ``values`` (the source at ``table.at``, a fresh array)
    times the coefficients, ``-0.0`` at the pads, plus the shift. The places of its calls
    are the caller's to fill."""
    terms = values if table.coef is None else values * table.coef
    if table.pad is not None:
        terms.put(table.pad, -0.0)     # -0.0, the one exact additive identity
    if table.shift is not None:
        terms = terms + table.shift     # not "+=": an in-place ufunc call costs more here
    return terms


def _added(start, terms: np.ndarray) -> np.ndarray:
    """``start`` plus the rows of ``terms``, one at a time: a reduce would add in another
    order."""
    acc = start + terms[0]
    for j in range(1, len(terms)):
        acc = acc + terms[j]
    return acc


def _contiguous(index: np.ndarray):
    """``index`` as a slice when it runs up by one from its first entry, else read-only."""
    entries = index.tolist()
    if entries and entries == list(range(entries[0], entries[0] + len(entries))):
        return slice(entries[0], entries[0] + len(entries))
    index.flags.writeable = False
    return index


def _groups(terms, dims, entries) -> tuple:
    """One ``ProxGroup`` per ``stack[:2]`` that the terms declare, and one per other term,
    on the ``entries`` of their blocks; one whose ``stack`` vectors miss its width
    (``dims``) stays alone to raise its own error."""
    members = {}
    for i, (term, d) in enumerate(zip(terms, dims)):
        stack = term.stack
        fits = stack and all(np.shape(v) == (d,) for v in stack[2])
        members.setdefault(stack[:2] if fits else i, []).append(i)
    groups = []
    for idx in members.values():
        term = terms[idx[0]]
        if len(idx) > 1:
            constructor, scalars, _ = term.stack
            vectors = zip(*(terms[i].stack[2] for i in idx))
            term = constructor(*scalars, *map(np.concatenate, vectors))
        index = np.concatenate([entries[i] for i in idx])
        index.flags.writeable = False
        groups.append(ProxGroup(term, index))
    return tuple(groups)


@dataclass(frozen=True)
class Game:
    """A full modular Nash game: players, couplings, interaction gradient.

    Construction fixes the block widths (``strategy_dims``,
    ``interaction_dims``, ``coupling_dims``), the flat state layout
    ``[x | y | z | u* | v*]`` (``state_size`` entries, per-block slices
    ``state_slices``, the ``x``, ``y``, ``u*`` and ``v*`` parts contiguous at
    ``x_span``, ``y_span``, ``u_span`` and ``v_span``, the last empty without
    couplings, the start of every block in layout order ``block_starts``
    and, per field, the slice of those blocks ``field_blocks``) and, per
    player, the ``x`` entries of the player step
    and ``coupling_links``, the ``(v* entries, L_ki, (k, i))`` of the couplings whose
    maps read that player's strategy by increasing ``k`` (the players
    with at least one are ``coupled_players``). A map key that is not a
    player index (an ``int`` in ``range(num_players)``, not a ``bool``)
    raises ValueError.

    The couplings' maps become two incidence tables over the stacked layout,
    built once: per coupling entry its members in increasing player order
    (``coupling_mix``), per coupled player's strategy entry its couplings in
    increasing ``k`` (``coupling_pull``). A map of the right widths whose
    every output entry is one product, an ``Identity``, a ``ScaledIdentity``
    or a one-column (for the adjoint, one-row) ``Dense``, is a coefficient and
    a source entry; any other map fills its row with its own ``apply``
    (``adjoint_apply``) call, and an output of the wrong shape raises
    ValueError naming the coupling and the player. The rows are added one at a
    time, so the bits are those of calling each map in turn: the mixture from
    ``+0.0``, the adjoint from the given accumulator, a ``Dense`` product plus
    ``+0.0`` (its BLAS gemv turns a lone ``-0.0`` into ``+0.0``), and absent
    members ``-0.0``, the one exact additive identity.

    The stacked certificate sees the players and then the couplings as the
    blocks of one vector ``[x | Lx]``. ``prox_groups`` puts every block in one
    ``ProxGroup``: blocks whose terms declare the same constructor and
    scalars in ``NonsmoothTerm.stack`` share one, a player's or a coupling's
    alike; a term without a ``stack`` (a hand-made one, whatever its
    ``kind``) or whose intrinsic dimension is not the block's is a group of
    one. ``indicator_blocks`` numbers the blocks with an indicator term in
    that order (coupling ``k`` is block ``num_players + k``).
    ``mixed_players`` have a mix that is not an ``Identity`` of their widths,
    which ``mix`` applies; ``smooth_players`` and ``smooth_couplings`` have a
    smooth term that does not declare ``zero_smooth``, which ``smooth_grad``
    and ``coupling_grad`` call, for the local steps and the certificate alike.
    """

    players: Sequence[PlayerBlock]
    interaction: InteractionGradient
    couplings: Sequence[CouplingBlock] = ()

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if not self.players:
            raise ValueError("a game needs at least one player")
        object.__setattr__(self, "strategy_dims", tuple(p.dim_strategy for p in self.players))
        object.__setattr__(self, "interaction_dims", tuple(p.dim_interaction for p in self.players))
        object.__setattr__(self, "coupling_dims", tuple(c.dim for c in self.couplings))
        object.__setattr__(self, "_offsets", np.cumsum((0,) + self.interaction_dims))
        groups, fields, start = [], [], 0
        for dims in (self.strategy_dims, self.interaction_dims, self.coupling_dims,
                     self.interaction_dims, self.coupling_dims):
            blocks = []
            for d in dims:
                blocks.append(slice(start, start + d))
                start += d
            first = fields[-1].stop if fields else 0
            fields.append(slice(first, first + len(blocks)))
            groups.append(tuple(blocks))
        object.__setattr__(self, "state_slices", StateBlocks(*groups))
        object.__setattr__(self, "state_size", start)
        for name, group in (("x_span", groups[0]), ("y_span", groups[1]), ("u_span", groups[3])):
            object.__setattr__(self, name, slice(group[0].start, group[-1].stop))
        object.__setattr__(self, "v_span", slice(start - sum(self.coupling_dims), start))
        object.__setattr__(self, "z_span", slice(self.y_span.stop, self.u_span.start))
        # PlayerBlock and CouplingBlock reject zero widths, so no two starts
        # coincide and np.add.reduceat over them sums exactly one block each.
        starts = np.array([s.start for group in groups for s in group], dtype=np.intp)
        starts.flags.writeable = False
        object.__setattr__(self, "block_starts", starts)
        object.__setattr__(self, "field_blocks", StateBlocks(*fields))
        # per player (column), the indices of its x, y and u* blocks
        inner = np.add.outer((0, fields[1].start, fields[3].start), np.arange(fields[0].stop))
        inner.flags.writeable = False
        object.__setattr__(self, "_inner_blocks", inner)
        # the certificate's blocks [x | Lx] start at `blocks`, and its stacked difference
        # [blocks - prox | u* - Q(Mx) | blocks - P(blocks)] at the residual starts
        nx, width = self.x_span.stop, self.v_span.stop - self.v_span.start
        blocks = np.concatenate((starts[fields[0]], starts[fields[4]] + (nx - self.v_span.start)))
        residual_starts = np.concatenate((blocks, nx + width + self._offsets[:-1],
                                          nx + width + self._offsets[-1] + blocks))
        residual_starts.flags.writeable = False
        object.__setattr__(self, "_residual_starts", residual_starts)
        terms = [b.nonsmooth for b in self.players + self.couplings]
        dims = self.strategy_dims + self.coupling_dims
        block_entries = [np.arange(b, b + d) for b, d in zip(blocks.tolist(), dims)]
        object.__setattr__(self, "_x_entries", tuple(block_entries[:len(self.players)]))
        object.__setattr__(self, "prox_groups", _groups(terms, dims, block_entries))
        object.__setattr__(self, "indicator_blocks",
                           tuple(b for b, term in enumerate(terms) if is_indicator(term)))
        object.__setattr__(self, "mixed_players", tuple(
            i for i, p in enumerate(self.players)
            if not (type(p.mix) is Identity and p.mix.in_dim == p.dim_strategy == p.dim_interaction)
        ))
        object.__setattr__(self, "smooth_players", tuple(
            i for i, p in enumerate(self.players) if p.smooth.stack is not zero_smooth))
        object.__setattr__(self, "smooth_couplings", tuple(
            k for k, c in enumerate(self.couplings) if c.smooth.stack is not zero_smooth))
        self._coupling_tables(groups)

    def _coupling_tables(self, groups) -> None:
        """Refuse a map key that is not a player, then build ``_mixture``,
        ``coupling_links``, ``_pullback`` with the ``x`` entries of its columns
        (``_pulled``), and ``coupled_players``."""
        mixes, links, v0 = [], [[] for _ in self.players], self.v_span.start
        for k, (c, s) in enumerate(zip(self.couplings, groups[4])):
            for i in c.maps:
                if isinstance(i, bool) or not isinstance(i, numbers.Integral) \
                        or not 0 <= i < len(self.players):
                    raise ValueError(f"coupling {k}: map references unknown player {i}")
            cols = slice(s.start - v0, s.stop - v0)   # its columns of the mixture, its v* entries
            mixes.append((cols, [(groups[0][i], c.maps[i], (k, i)) for i in sorted(c.maps)]))
            for i in sorted(c.maps):
                links[i].append((cols, c.maps[i], (k, i)))
        object.__setattr__(self, "_mixture", _incidence_table(mixes, self.v_span.stop - v0,
                                                              adjoint=False))
        object.__setattr__(self, "coupling_links", tuple(map(tuple, links)))
        coupled = tuple(i for i, ls in enumerate(links) if ls)
        outputs, start = [], 0      # per coupled player, its columns of the pullback
        for i in coupled:
            outputs.append((slice(start, start + self.strategy_dims[i]), links[i]))
            start += self.strategy_dims[i]
        object.__setattr__(self, "_pullback", _incidence_table(outputs, start, adjoint=True))
        pulled = [self._x_entries[i] for i in coupled]
        object.__setattr__(self, "_pulled",
                           _contiguous(np.concatenate(pulled)) if pulled else slice(0, 0))
        object.__setattr__(self, "coupled_players", coupled)

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def num_couplings(self) -> int:
        return len(self.couplings)

    @property
    def total_interaction_dim(self) -> int:
        return sum(self.interaction_dims)

    def interaction_offsets(self) -> np.ndarray:
        return self._offsets

    def split_interaction(self, stacked: np.ndarray) -> list:
        """Split a stacked interaction vector into per-player blocks."""
        offs = self.interaction_offsets()
        return [stacked[offs[i]:offs[i + 1]] for i in range(self.num_players)]

    def split_state(self, vec: np.ndarray) -> StateBlocks:
        """Per-block views of a flat state vector (writes go through to it)."""
        return StateBlocks(*(tuple(vec[s] for s in group) for group in self.state_slices))

    def coupling_mix(self, x: np.ndarray) -> np.ndarray:
        """``L_k x = sum_i L_ki x_i`` of every coupling stacked, on the stacked ``x`` or a
        whole state: from ``+0.0``, members by increasing ``i``."""
        table = self._mixture
        terms = _terms(table, x[table.at])
        for row, cols, src, op, names in table.calls:
            terms[row, cols] = _shaped(op.apply(x[src]), (cols.stop - cols.start,),
                                       "coupling {}: map for player {}", *names)
        return _added(0.0, terms)

    def coupling_pull(self, acc: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``acc + sum_k L_k^* v_k`` on the stacked ``x`` and ``v*``, couplings by increasing
        ``k``, written into the entries of ``coupled_players`` of ``acc``; returns ``acc``."""
        table, pulled = self._pullback, self._pulled
        terms = _terms(table, v[table.at])
        for row, cols, src, op, names in table.calls:
            terms[row, cols] = _shaped(op.adjoint_apply(v[src]), (cols.stop - cols.start,),
                                       "coupling {}: map adjoint for player {}", *names)
        acc[pulled] = _added(acc[pulled], terms)
        return acc

    def _walk(self, v, players, ins, outs, call, what) -> np.ndarray:
        """``call(i, block)`` of each of ``players`` on its block of ``v``, the blocks
        ``ins`` wide and in that order, checked to be ``outs[i]`` wide, concatenated."""
        blocks, start = [], 0
        for i in players:
            blocks.append(call(i, v[start:start + ins[i]]))
            start += ins[i]
            if np.shape(blocks[-1]) != (outs[i],):
                _shaped(blocks[-1], (outs[i],), "player {}: " + what, i)
        return np.concatenate(blocks)

    def mix(self, v: np.ndarray, players=None, adjoint: bool = False) -> np.ndarray:
        """``M_i`` (``M_i^*`` with ``adjoint``) of each of ``players`` (all by default)
        on its block of ``v``, their input blocks in that order, concatenated; ``v``
        itself when no listed player is in ``mixed_players``, the only maps applied.
        An output of the wrong shape raises ValueError naming the first such player."""
        mixed = self.mixed_players
        players = range(self.num_players) if players is None else players
        if not mixed or not any(i in mixed for i in players):
            return v
        ins, outs = self.strategy_dims, self.interaction_dims
        ins, outs, name = (outs, ins, "adjoint_apply") if adjoint else (ins, outs, "apply")
        return self._walk(v, players, ins, outs,
                          lambda i, b: getattr(self.players[i].mix, name)(b) if i in mixed else b,
                          "mix adjoint" if adjoint else "mix")

    def smooth_grad(self, v: np.ndarray, players=None):
        """As ``mix``, each listed player's smooth gradient on its block of ``v``:
        zeros outside ``smooth_players``, ``0.0`` when no listed player is in it."""
        smooth = self.smooth_players
        players = range(self.num_players) if players is None else players
        if not smooth or not any(i in smooth for i in players):
            return 0.0
        dims = self.strategy_dims
        return self._walk(v, players, dims, dims,
                          lambda i, b: self.players[i].smooth.grad(b) if i in smooth else np.zeros_like(b),
                          "smooth gradient")

    def coupling_grad(self, k: int, z: np.ndarray):
        """The smooth gradient of coupling ``k`` at ``z``, ``0.0`` outside ``smooth_couplings``;
        a wrong shape raises ValueError naming the coupling."""
        if k not in self.smooth_couplings:
            return 0.0
        g = self.couplings[k].smooth.grad(z)
        if np.shape(g) != np.shape(z):
            _shaped(g, np.shape(z), "coupling {}: smooth gradient", k)
        return g


# A per-block step schedule: a constant, one constant per block, or a
# callable (block, tick) -> value. Schedules are pure functions so lagged
# indexing needs no storage.
StepSchedule = Union[float, Sequence[float], Callable[[int, int], float]]


def _step_at(schedule: StepSchedule, block: int, tick: int) -> float:
    if callable(schedule):
        return float(schedule(block, tick))
    if isinstance(schedule, (int, float)):
        return float(schedule)
    return float(schedule[block])


@dataclass(frozen=True)
class SolverParams:
    """Step-size schedules and run limits for the half-space solver.

    ``epsilon`` and ``eta`` bound every schedule: the strategy steps live in
    ``[epsilon, 1/(alpha_i + eta)]``, the interaction steps in
    ``[epsilon, 1/(chi_i + eta)]``, the coupling steps in
    ``[epsilon, 1/(beta_k + eta)]``, and both dual steps in
    ``[epsilon, 1/epsilon]``. The relaxation stays in
    ``[epsilon, 2 - epsilon]``. ``max_lag`` and ``window`` are validated
    but read by nothing in this package: the schedule alone sets a run's lags
    and covering window. They stay because ``perfbench/workloads.py`` passes them.
    """

    epsilon: float = 0.01
    eta: float = 0.1
    max_lag: int = 0
    window: int = 0
    relaxation: Union[float, Callable[[int], float]] = 1.8
    strategy_steps: StepSchedule = 1.0
    interaction_steps: StepSchedule = 1.0
    player_dual_steps: StepSchedule = 1.0
    coupling_steps: StepSchedule = 1.0
    coupling_dual_steps: StepSchedule = 1.0
    max_iters: int = 100_000
    tol: float = 1e-8

    def strategy_step(self, i: int, n: int) -> float:
        return _step_at(self.strategy_steps, i, n)

    def interaction_step(self, i: int, n: int) -> float:
        return _step_at(self.interaction_steps, i, n)

    def player_dual_step(self, i: int, n: int) -> float:
        return _step_at(self.player_dual_steps, i, n)

    def coupling_step(self, k: int, n: int) -> float:
        return _step_at(self.coupling_steps, k, n)

    def coupling_dual_step(self, k: int, n: int) -> float:
        return _step_at(self.coupling_dual_steps, k, n)

    def relaxation_at(self, n: int) -> float:
        if callable(self.relaxation):
            return float(self.relaxation(n))
        return float(self.relaxation)

    @staticmethod
    def for_game(game: Game, **overrides) -> "SolverParams":
        """Defaults for a game: largest admissible constant steps.

        The steps follow ``eta`` (its field default unless overridden). The
        dual steps default to 1.0; the theory only confines them to
        ``[epsilon, 1/epsilon]`` and offers no guidance, so treat them as
        untuned knobs.
        """
        strategy, interaction, coupling = _step_caps(game, overrides.get("eta", SolverParams.eta))
        fields = dict(strategy_steps=strategy, interaction_steps=interaction,
                      coupling_steps=coupling or 1.0)
        fields.update(overrides)
        return SolverParams(**fields)


def _step_caps(game: Game, eta: float) -> tuple:
    """Per-block upper ends ``1/(alpha_i + eta)``, ``1/(chi_i + eta)`` and
    ``1/(beta_k + eta)`` of the strategy, interaction and coupling steps.
    A zero denominator, which only a nonpositive ``eta`` (refused by
    ``validate_params``) can give, makes that end ``inf``."""
    def cap(bound):
        return 1.0 / (bound + eta) if bound + eta != 0.0 else float("inf")

    return (
        tuple(cap(p.smooth_lipschitz) for p in game.players),
        tuple(cap(p.interaction_bound) for p in game.players),
        tuple(cap(c.smooth_lipschitz) for c in game.couplings),
    )


def _shape_error(out, shape: tuple, what: str, *names) -> str:
    """The message of ``_shaped``'s error for ``out``, whose shape is not ``shape``."""
    try:
        _shaped(out, shape, what, *names)
    except ValueError as exc:
        return str(exc)


def validate_problem(game: Game, samples: int = 25, seed: int = 0) -> list:
    """Check everything about a game that is checkable at desk scale.

    Returns a list of violation strings (empty means none found); violations
    are data, but a ``samples`` that is not a nonnegative integer raises
    ValueError. Dimensions are checked exactly, then each gradient's shape at
    zeros, where a term declaring ``zero_smooth`` must return exact zeros.
    Then ``samples`` draws from ``default_rng(seed)`` test, in this order,
    the adjoint of each player mix and coupling map (a ``standard_normal``
    row ``[x | y]`` per sample, up to an image of the wrong shape, which is
    reported), then the Lipschitz bound of each player's and coupling's
    smooth gradient and the interaction gradient's monotonicity, curvature
    and Lipschitz bounds (a ``standard_normal((2, dim))`` draw ``r`` per
    sample, at ``a = 3 r[0]`` and ``b = a + r[1]``).
    Each check draws all its samples at once, also when its answer is
    trusted and not computed: the adjoint of an exact ``Identity`` or
    ``Zero`` (one computation on both sides) and the bound of a declared
    zero gradient, trusted as the steps and the certificate trust it, so a
    misdeclared gradient that is zero at the origin goes unseen.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 0:
        raise ValueError(f"samples must be a nonnegative integer, not {samples!r}")
    report = []
    rng = np.random.default_rng(seed)

    for i, p in enumerate(game.players):
        if p.mix.in_dim != p.dim_strategy or p.mix.out_dim != p.dim_interaction:
            report.append(f"player {i}: mix operator maps {p.mix.in_dim}->{p.mix.out_dim}, "
                          f"expected {p.dim_strategy}->{p.dim_interaction}")
        if p.nonsmooth.dim is not None and p.nonsmooth.dim != p.dim_strategy:
            report.append(f"player {i}: nonsmooth term has dimension {p.nonsmooth.dim}, "
                          f"strategy space has {p.dim_strategy}")
    for k, c in enumerate(game.couplings):
        if c.nonsmooth.dim is not None and c.nonsmooth.dim != c.dim:
            report.append(f"coupling {k}: nonsmooth term dimension {c.nonsmooth.dim} != {c.dim}")
        for i, op in c.maps.items():
            if op.out_dim != c.dim or op.in_dim != game.players[i].dim_strategy:
                report.append(f"coupling {k}: map for player {i} is {op.in_dim}->{op.out_dim}, "
                              f"expected {game.players[i].dim_strategy}->{c.dim}")
    if report:
        # Sampled checks would only cascade spurious errors on top of a
        # structurally broken game.
        return report

    dim_y = game.total_interaction_dim
    smooth = [(f"player {i}", p.smooth, p.dim_strategy, p.smooth_lipschitz)
              for i, p in enumerate(game.players)]
    smooth += [(f"coupling {k}", c.smooth, c.dim, c.smooth_lipschitz)
               for k, c in enumerate(game.couplings)]
    grads = [("interaction gradient", game.interaction.eval, dim_y, False)]
    grads += [(f"{name}: smooth gradient", term.grad, dim, term.stack is zero_smooth)
              for name, term, dim, _ in smooth]
    for name, grad, dim, zero in grads:
        g = grad(np.zeros(dim))
        if np.shape(g) != (dim,):
            report.append(_shape_error(g, (dim,), name))
        elif zero and np.any(g):
            report.append(f"{name} declared zero returned nonzero values")
    if report:
        # A wrong output shape would broadcast silently in the sampled checks,
        # and a misdeclared zero gradient is not sampled.
        return report

    ops = [(f"player {i} mix", f"player {i}: mix{{}}", p.mix) for i, p in enumerate(game.players)]
    ops += [(f"coupling {k} map for player {i}", f"coupling {k}: map{{}} for player {i}", op)
            for k, c in enumerate(game.couplings) for i, op in sorted(c.maps.items())]
    for name, call, op in ops:      # call: how a shape error names apply and its adjoint
        draws = rng.standard_normal((samples, op.in_dim + op.out_dim))
        if type(op) in (Identity, Zero):
            continue
        worst = 0.0
        for row in draws:
            xs, ys = row[:op.in_dim], row[op.in_dim:]
            images = op.apply(xs), op.adjoint_apply(ys)
            wrong = [_shape_error(image, want.shape, call, adjoint)
                     for adjoint, image, want in zip(("", " adjoint"), images, (ys, xs))
                     if np.shape(image) != want.shape]
            if wrong:   # a wrong output shape would broadcast, or fail in np.dot
                report += wrong
                break
            lhs, rhs = float(np.dot(images[0], ys)), float(np.dot(xs, images[1]))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
        if worst > _SAMPLE_TOL:
            report.append(f"{name}: adjoint inconsistency {worst:.3e}")

    for name, term, dim, bound in smooth:
        draws = rng.standard_normal((samples, 2, dim))
        if term.stack is zero_smooth:
            continue
        worst = 0.0
        for first, second in draws:
            a = 3.0 * first
            b = a + second
            dg, step = np.asarray(term.grad(a)) - np.asarray(term.grad(b)), a - b
            num, den = float(np.sqrt(np.dot(dg, dg))), float(np.sqrt(np.dot(step, step)))
            if den > 0:
                worst = max(worst, num - bound * den * (1.0 + _SAMPLE_TOL))
        if worst > _SAMPLE_TOL:
            report.append(f"{name}: smooth gradient exceeds Lipschitz bound by {worst:.3e}")

    offs = game.interaction_offsets()
    caps = [(p.interaction_bound, slice(offs[i], offs[i + 1])) for i, p in enumerate(game.players)]
    for first, second in rng.standard_normal((samples, 2, dim_y)):
        ya = 3.0 * first
        yb = ya + second
        qa = np.asarray(game.interaction.eval(ya), dtype=float)
        qb = np.asarray(game.interaction.eval(yb), dtype=float)
        dy, dq = ya - yb, qa - qb
        inner = float(np.dot(dy, dq))
        sq = float(np.dot(dy, dy))
        if inner < -_SAMPLE_TOL * (1.0 + abs(inner)):
            report.append(f"interaction gradient not monotone: <dy, dQ> = {inner:.3e}")
            break
        cap = sum(bound * float(np.dot(dy[s], dy[s])) for bound, s in caps)
        if inner > cap * (1.0 + _SAMPLE_TOL) + _SAMPLE_TOL:
            report.append(f"interaction curvature bound violated: "
                          f"<dy, dQ> = {inner:.3e} > {cap:.3e}")
            break
        lip = float(np.sqrt(np.dot(dq, dq)))
        if lip > game.interaction.lipschitz * np.sqrt(sq) * (1.0 + _SAMPLE_TOL) + _SAMPLE_TOL:
            report.append(f"interaction gradient exceeds Lipschitz constant: "
                          f"{lip:.3e} > {game.interaction.lipschitz:.3e} * |dy|")
            break
    return report


def validate_params(game: Game, params: SolverParams, horizon: int = 1000) -> list:
    """Check the step-size schedules against their admissible intervals.

    Evaluates callable schedules at ticks ``0..horizon`` and constant or
    per-block schedules once (their values cannot depend on the tick), and
    reports the first interval breach of each schedule and block; also
    checks the global coupling between ``epsilon``, ``eta``, and the
    Lipschitz data, and that ``max_iters`` is a positive and ``max_lag`` and
    ``window`` nonnegative integers (a bool or a float is not one).
    """
    report = []
    eps, eta = params.epsilon, params.eta
    if not 0.0 < eps < 1.0:
        report.append(f"epsilon must lie in (0, 1), got {eps}")
    if not eta > 0.0:
        report.append(f"eta must be positive, got {eta}")
    counts = {"max_iters": params.max_iters, "max_lag": params.max_lag, "window": params.window}
    type_errors = [f"{name} must be an integer, got {value!r}" for name, value in counts.items()
                if isinstance(value, bool) or not isinstance(value, numbers.Integral)]
    report += type_errors
    if not type_errors and (params.max_lag < 0 or params.window < 0):
        report.append("max_lag and window must be nonnegative")
    if not type_errors and params.max_iters < 1:
        report.append("max_iters must be positive")
    if not params.tol > 0.0:
        report.append("tol must be positive")
    if report:
        return report

    strategy_caps, interaction_caps, coupling_caps = _step_caps(game, eta)
    cap = 1.0 / min(strategy_caps + interaction_caps + coupling_caps)
    if not 1.0 / eps > cap:
        report.append(f"1/epsilon = {1.0 / eps:g} must exceed max(alpha+eta, beta+eta, chi+eta) = {cap:g}")

    players, couplings = game.players, game.couplings
    # (label, schedule, value at (block, tick), upper bound per block)
    table = (
        ("relaxation", params.relaxation, lambda b, n: params.relaxation_at(n), [2.0 - eps]),
        ("strategy step (player {})", params.strategy_steps, params.strategy_step, strategy_caps),
        ("interaction step (player {})", params.interaction_steps, params.interaction_step,
         interaction_caps),
        ("player dual step (player {})", params.player_dual_steps, params.player_dual_step,
         [1.0 / eps] * len(players)),
        ("coupling step (coupling {})", params.coupling_steps, params.coupling_step, coupling_caps),
        ("coupling dual step (coupling {})", params.coupling_dual_steps,
         params.coupling_dual_step, [1.0 / eps] * len(couplings)),
    )
    for label, schedule, value_at, highs in table:
        ticks = range(horizon + 1) if callable(schedule) else (0,)
        for block, hi in enumerate(highs):
            what = label.format(block)
            for n in ticks:
                try:
                    value = value_at(block, n)
                except Exception as exc:  # malformed schedules are violations, not crashes
                    report.append(f"{what} at tick {n}: schedule evaluation failed ({exc})")
                    break
                if not eps <= value <= hi:
                    report.append(f"{what} at tick {n}: {value:g} outside [{eps:g}, {hi:g}]")
                    break
    return report
