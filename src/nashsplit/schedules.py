"""Activation schedules and lag maps for block-iterative runs.

A schedule decides, for each tick, which player and coupling blocks are
recomputed and how stale the data they read may be. Three hard rules
apply: every block is active at tick 0, every window of ``window + 1``
consecutive ticks activates every block, and every lag stays within
``max_lag`` ticks of the present. The first two are constructive here
(forced activation), not statistical tendencies.

Generation is a pure function of ``(kind, seed, tick)``, so simulated
asynchronous runs are bit-reproducible and schedules can be queried in
any order and concurrently. A random schedule draws tick ``n > 0`` from
one generator per ``(seed, n, stream)``: the ``"activation"`` stream gives
the Bernoulli draws (players, then couplings) and then, only when forced
coverage leaves a set empty, the fallback block; the ``"lags"`` stream
gives the player lags, then the coupling lags. The generator is
``Generator(PCG64(SeedSequence(entropy=(seed, n, tag))))`` with tag 0 for
activation and 1 for lags. It is transcribed, not built, for 256 aligned
ticks at once: the ``SeedSequence`` hash runs as uint32 numpy arithmetic,
PCG64's jump-ahead gives each output as one 128-bit multiply-add in uint64
arrays, and coverage, fallbacks and lags are array operations. A tick
whose fallback or lag draw Lemire's method rejects (about one in 10**9),
or whose lag span exceeds 2**32, replays its draws through numpy's own
generators, so the replay equals the definition by construction; the 36
solves of ``tools/solve_digests.py`` make no replay. The numpy-built
original in ``tests/_oracles.py`` and SHA-256 hashes pinned in the tests
guard the transcription, since these draws are part of a run's
reproducible trace.
Forced coverage reads the raw draws of the previous ``window`` ticks; the
memo of each of the 64 streams used last holds the batches that one
window reaches, so memory is bounded by the window and the batch size,
not by the tick count. A batch is resolved whole, its lags as absolute
ticks, so a query inside a held batch, in any order, is one index; a
query outside the held batches resolves its whole batch, and hashes the
batches its window reaches that are not held.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Tick", "Schedule", "synchronous", "cyclic", "randomized", "audit"]


@dataclass(frozen=True)
class Tick:
    """Activation sets and lag maps for one iteration."""

    active_players: tuple
    active_couplings: tuple
    player_lags: dict     # player index -> tick whose data it reads
    coupling_lags: dict   # coupling index -> tick whose data it reads


@dataclass(frozen=True)
class Schedule:
    """A deterministic activation schedule.

    ``kind`` is one of ``"synchronous"`` (every block every tick, no lag),
    ``"cyclic"`` (round-robin groups of ``block_size``, no lag), or
    ``"random"`` (seeded Bernoulli activation with uniformly drawn lags and
    forced coverage).
    """

    kind: str = "synchronous"
    max_lag: int = 0
    window: int = 0
    block_size: int = 1
    seed: int = 0
    activation_prob: float = 0.5

    def __post_init__(self):
        if self.kind not in ("synchronous", "cyclic", "random"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("max_lag", "window", "block_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers wrap in tick arithmetic
        if self.max_lag < 0 or self.window < 0:
            raise ValueError("max_lag and window must be nonnegative")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        prob = self.activation_prob
        if isinstance(prob, bool) or not isinstance(prob, numbers.Real):
            raise ValueError(f"activation_prob must be a real number, not {prob!r}")
        object.__setattr__(self, "activation_prob", float(prob))
        if not 0.0 < self.activation_prob <= 1.0:
            raise ValueError("activation_prob must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def next_tick(self, n: int, num_players: int, num_couplings: int) -> Tick:
        """Activation sets and lags for tick ``n``.

        Tick 0 always activates everything. The returned sets are nonempty
        (couplings only when the game has couplings), lags lie in
        ``[max(0, n - max_lag), n]``, and the result is a deterministic
        function of the schedule fields and ``n``.
        """
        if n < 0:
            raise ValueError("tick index must be nonnegative")
        if self.kind == "random" and n > 0:
            memo = _raw_active(self.seed, self.activation_prob, self.window, self.max_lag,
                               num_players, num_couplings)
            slot = memo.held(n // _BATCH)
            if slot is None or slot[2] is None:
                slot = _resolve(memo, self, n // _BATCH, num_players, num_couplings)
            (players, p_lags), (coups, c_lags) = slot[2][n % _BATCH]
            return Tick(players, coups, dict(zip(players, p_lags)), dict(zip(coups, c_lags)))
        if self.kind == "cyclic" and n > 0:
            players = _rotation(n, num_players, self.block_size)
            coups = _rotation(n, num_couplings, self.block_size)
        else:
            players = tuple(range(num_players))
            coups = tuple(range(num_couplings))
        return Tick(players, coups, {i: n for i in players}, {k: n for k in coups})


def synchronous() -> Schedule:
    return Schedule("synchronous")


def cyclic(block_size: int = Schedule.block_size, window: int = Schedule.window) -> Schedule:
    """Round-robin schedule; ``window`` must be at least ceil(m / block_size) - 1."""
    return Schedule("cyclic", block_size=block_size, window=window)


def randomized(seed: int, activation_prob: float = Schedule.activation_prob,
               max_lag: int = Schedule.max_lag, window: int = Schedule.window) -> Schedule:
    return Schedule(
        "random", max_lag=max_lag, window=window, seed=seed, activation_prob=activation_prob
    )


def _rotation(n: int, size: int, block_size: int) -> tuple:
    if size == 0:
        return ()
    take = min(block_size, size)
    start = (n * take) % size
    return tuple(sorted((start + t) % size for t in range(take)))


def _words(value: int) -> list:
    """The uint32 words, least significant first, that ``SeedSequence`` makes of an int."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


# numpy's SeedSequence (O'Neill's seed_seq hash, pool of 4 words) and its
# PCG64 bit generator (128-bit LCG, XSL-RR output), transcribed
_ACTIVATION, _LAGS = 0, 1  # the stream tags
_BATCH = 256  # ticks hashed at once; it divides 2**32, so a batch's ticks have equally many words
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=8)
def _hash_consts(init: int, mult: int, count: int):
    """The xor and multiply constants of ``count`` successive ``hashmix`` calls, as columns."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return values ^ values >> 16


def _hash_batch(seed: int, batch: int) -> np.ndarray:
    """The PCG64 seed words of both streams of ticks ``batch * _BATCH`` onwards.

    ``rows[tag, i]`` is ``SeedSequence(entropy=(seed, n, tag))
    .generate_state(4, np.uint64)``, for tick
    ``n = batch * _BATCH + i``. Row ``r`` of ``entropy`` holds the ``r``-th
    entropy word of all ``2 * _BATCH`` tuples, and each step of the hash
    runs on whole rows; the updates of the pool words that one source word
    feeds are independent, so they run as one step too.
    """
    base = batch * _BATCH
    ticks = np.arange(base & _M32, (base & _M32) + _BATCH)
    high = _words(base >> 32) if base >> 32 else []
    rows = [*_words(seed), ticks, *high, np.array([[_ACTIVATION], [_LAGS]])]
    rows += [0] * (4 - len(rows))  # a pool word without entropy hashes a zero
    entropy = np.empty((len(rows), 2, _BATCH), dtype=np.uint32)
    for r, row in enumerate(rows):
        entropy[r] = row
    entropy = entropy.reshape(len(rows), 2 * _BATCH)
    xor, mult = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (len(entropy) - 4))
    pool = _hashmix(entropy[:4], xor[:4], mult[:4])
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k:k + 3], mult[k:k + 3]))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, xor[k:k + 4], mult[k:k + 4]))
        k += 4
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 8)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mult).astype(np.uint64)
    seeds = state[0::2] | state[1::2] << np.uint64(32)
    return seeds.T.reshape(2, _BATCH, 4)


@lru_cache(maxsize=8)
def _jumps(count: int) -> tuple:
    """The multipliers of ``s`` and ``inc`` in the PCG64 states of outputs 1..count.

    Seeding sets the state to ``a*(s + inc) + inc`` and each output steps it
    first, so output ``k`` reads ``a**(k+1)*s + (a**(k+1) + a**k + 1 + ... +
    a**(k-1))*inc`` mod 2**128; as uint64 halves, shape ``(2, 1, count)``.
    """
    coefs, power, total = [], _PCG_MULT, 1
    for _ in range(count):
        step = power * _PCG_MULT & _M128
        coefs.append((step, step + power + total & _M128))
        power, total = step, total + power & _M128
    coefs = np.array(coefs, dtype=object).T[:, None]
    lo = (coefs & _M64).astype(np.uint64)
    return (coefs >> 64).astype(np.uint64), lo, lo & _M32, lo >> 32


def _outputs(words: np.ndarray, count: int) -> np.ndarray:
    """``PCG64.random_raw`` outputs 1..count of each row of seed ``words``, as columns.

    In uint64 halves, only the product of low halves needs its high word, from 32-bit limbs.
    """
    s_hi, s_lo, i_hi, i_lo = words.reshape(-1, 4).T
    x_hi = np.stack((s_hi, i_hi << 1 | i_lo >> 63))[:, :, None]  # s and inc, as rows
    x_lo = np.stack((s_lo, i_lo << 1 | 1))[:, :, None]
    c_hi, c_lo, c0, c1 = _jumps(count)
    x0, x1 = x_lo & _M32, x_lo >> 32
    p01, p10 = c0 * x1, c1 * x0
    mid = (c0 * x0 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = c_hi * x_lo + c_lo * x_hi + c1 * x1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    lo = c_lo * x_lo
    state_lo = lo[0] + lo[1]
    state_hi = hi[0] + hi[1] + (state_lo < lo[1])
    value, rot = state_hi ^ state_lo, state_hi >> 58  # XSL-RR
    return (value >> rot | value << (64 - rot & 63)).reshape(*words.shape[:-1], count)


def _lemire(draws: np.ndarray, span) -> tuple:
    """``Generator.integers(0, span)`` of each 32-bit draw, and where Lemire's method rejects it."""
    m = draws * span
    return m >> 32, (m & _M32) < (1 << 32) % span


def _draw_batch(seed: int, index: int, prob: float, num_blocks: int) -> tuple:
    """Bernoulli draws, fallback output and 32-bit lag draws of batch ``index``.

    One row per tick, in stream order; tick 0's Bernoulli draws are full.
    """
    out = _outputs(_hash_batch(seed, index), num_blocks + 1)
    raw = (out[_ACTIVATION, :, :num_blocks] >> 11) * 2.0**-53 < prob
    raw[0] |= index == 0
    lags = out[_LAGS, :, :(num_blocks + 1) // 2]
    halves = np.stack((lags & _M32, lags >> 32), axis=2).reshape(_BATCH, -1)[:, :num_blocks]
    return raw, out[_ACTIVATION, :, num_blocks], halves


class _Memo:
    """What one random stream keeps between queries: a slot per batch that one window reaches.

    Slot ``index % len(slots)`` holds ``(index, draws, ticks)``: batch
    ``index``'s ``_draw_batch`` and all its ticks from ``_resolve``, or
    ``None`` for ticks while only a later window reads the draws. One store
    replaces a slot, and a read checks its index: concurrent queries at worst draw twice.
    """

    __slots__ = ("seed", "slots")

    def __init__(self, seed: int, window: int):
        self.seed = seed
        self.slots = [None] * (-(-window // _BATCH) + 1)

    def held(self, index: int):
        slot = self.slots[index % len(self.slots)]
        return slot if slot is not None and slot[0] == index else None

    def store(self, slot: tuple) -> tuple:
        self.slots[slot[0] % len(self.slots)] = slot
        return slot


@lru_cache(maxsize=64)
def _raw_active(seed, prob, window, max_lag, num_players, num_couplings) -> _Memo:
    """The memo of one random stream; ``cache_clear()`` drops every draw and hash."""
    return _Memo(seed, window)


def _resolve(memo: _Memo, sched: Schedule, index: int, num_players: int, num_couplings: int):
    """Store and return the slot of batch ``index`` with all its ticks resolved.

    A tick is ``((players, their lags), (couplings, their lags))``, lags as
    ticks. A block missing from every raw draw of the last ``window`` ticks
    is force-activated, so every ``window + 1`` ticks cover all blocks.
    """
    num_blocks, window, base = num_players + num_couplings, sched.window, index * _BATCH
    oldest = base - window
    held = {b: (memo.held(b) or memo.store(
        (b, _draw_batch(memo.seed, b, sched.activation_prob, num_blocks), None)))[1]
        for b in range(max(oldest, 0) // _BATCH, index + 1)}
    # the raw rows of ticks base - window onwards after a zero row; a window
    # that reaches before tick 0 holds tick 0, whose row is full
    rows = [np.zeros((1 + max(-oldest, 0), num_blocks), dtype=bool)]
    rows += [draws[0][max(oldest - b * _BATCH, 0):] for b, draws in held.items()]
    seen = np.add.accumulate(np.concatenate(rows), axis=0, dtype=np.intp)
    raw, fallback, halves = held[index]
    active = raw | (seen[window:-1] == seen[:_BATCH])
    players, coups = active[:, :num_players], active[:, num_players:]
    # the fallbacks continue the activation stream: the player's, then the coupling's half
    low, high = fallback & _M32, fallback >> 32
    empty_p, empty_c = ~players.any(axis=1), ~coups.any(axis=1) & (num_couplings > 0)
    pick_p, bad_p = _lemire(low, num_players)
    pick_c, bad_c = _lemire(np.where(empty_p & (num_players > 1), high, low), max(num_couplings, 1))
    players[empty_p, pick_p[empty_p]] = True
    coups[empty_c, pick_c[empty_c]] = True
    cap = min(sched.max_lag, 1 << 32)  # a span over 2**32 draws 64 bits, so it replays
    back = np.minimum(np.arange(_BATCH) + min(base, cap), cap)
    offsets, bad = _lemire(halves, back[:, None].astype(np.uint64) + 1)
    # the lags as ticks: int64 holds them in a batch that ends by 2**63, Python ints after
    lags = offsets.astype(np.int64 if base <= (1 << 63) - _BATCH else object)
    lags = lags + (np.arange(_BATCH) - back)[:, None] + base
    replay = empty_p & bad_p | empty_c & bad_c | bad.any(axis=1) | (back >= 1 << 32)
    ticks = list(zip(_per_tick(players, lags[:, :num_players]),
                     _per_tick(coups, lags[:, num_players:])))
    for j in np.flatnonzero(replay).tolist():
        t, ((ps, _), (cs, _)) = base + j, ticks[j]
        ticks[j] = _replay(memo, t, max(0, t - sched.max_lag), () if empty_p[j] else ps,
                           () if empty_c[j] else cs, num_players, num_couplings)
    return memo.store((index, held[index], ticks))


def _per_tick(active: np.ndarray, lags: np.ndarray) -> list:
    """``(indices, lags)`` of the true entries of each row of ``active``, as Python values."""
    rows, cols = np.nonzero(active)
    ends = np.add.accumulate(active.sum(axis=1)).tolist()
    cols, lags = cols.tolist(), lags[rows, cols].tolist()
    return [(tuple(cols[a:b]), lags[a:b]) for a, b in zip([0, *ends], ends)]


def _replay(memo, n, lo, players, coups, num_players, num_couplings):
    """Tick ``n``'s entry with its fallbacks and lags drawn by numpy's own generators."""
    rng, lags = (np.random.Generator(np.random.PCG64(np.random.SeedSequence((memo.seed, n, tag))))
                 for tag in (_ACTIVATION, _LAGS))
    rng.random(num_players + num_couplings)
    if not players:
        players = (int(rng.integers(num_players)),)
    if num_couplings and not coups:
        coups = (int(rng.integers(num_couplings)),)
    all_p = lags.integers(n + 1 - lo, size=num_players).tolist()
    all_c = lags.integers(n + 1 - lo, size=num_couplings).tolist()
    return (players, [lo + all_p[i] for i in players]), (coups, [lo + all_c[k] for k in coups])


def audit(schedule: Schedule, horizon: int, num_players: int, num_couplings: int) -> list:
    """Replay a schedule and report every violation of the activation rules.

    Checks full activation at tick 0, nonemptiness at every tick, covering
    over every window of ``window + 1`` ticks, and the lag bounds. Returns
    a list of violation strings (empty means the schedule is admissible
    over the horizon).
    """
    report = []
    span = schedule.window + 1
    recent_p, recent_c = deque(maxlen=span), deque(maxlen=span)
    for n in range(horizon + 1):
        tick = schedule.next_tick(n, num_players, num_couplings)
        if n == 0:
            if set(tick.active_players) != set(range(num_players)):
                report.append("tick 0 must activate every player")
            if set(tick.active_couplings) != set(range(num_couplings)):
                report.append("tick 0 must activate every coupling")
        if not tick.active_players:
            report.append(f"tick {n}: empty player activation set")
        if num_couplings and not tick.active_couplings:
            report.append(f"tick {n}: empty coupling activation set")
        lo = max(0, n - schedule.max_lag)
        for i, tau in tick.player_lags.items():
            if not lo <= tau <= n:
                report.append(f"tick {n}: player {i} lag {tau} outside [{lo}, {n}]")
        for k, delta in tick.coupling_lags.items():
            if not lo <= delta <= n:
                report.append(f"tick {n}: coupling {k} lag {delta} outside [{lo}, {n}]")
        recent_p.append(set(tick.active_players))
        recent_c.append(set(tick.active_couplings))
        if n + 1 >= span:
            covered_p = set().union(*recent_p)
            covered_c = set().union(*recent_c)
            if covered_p != set(range(num_players)):
                missing = sorted(set(range(num_players)) - covered_p)
                report.append(f"ticks {n + 1 - span}..{n}: players {missing} never activated")
            if covered_c != set(range(num_couplings)):
                missing = sorted(set(range(num_couplings)) - covered_c)
                report.append(f"ticks {n + 1 - span}..{n}: couplings {missing} never activated")
    return report
