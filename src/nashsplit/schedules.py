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
gives the player lags, then the coupling lags. Each generator is seeded
with the words ``SeedSequence`` derives from ``(seed, n, tag)``. These
draws are part of a run's reproducible trace and are pinned by SHA-256 in
the tests. Forced coverage reads the raw draws of the previous ``window``
ticks; they are memoized as bitmasks for the last ``window + 1`` ticks of
each of the 64 streams used last, so memory is bounded by the window, not
by the tick count.
"""

from __future__ import annotations

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
        if self.max_lag < 0 or self.window < 0:
            raise ValueError("max_lag and window must be nonnegative")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
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
        if self.kind == "synchronous" or n == 0:
            players = tuple(range(num_players))
            coups = tuple(range(num_couplings))
        elif self.kind == "cyclic":
            players = _rotation(n, num_players, self.block_size)
            coups = _rotation(n, num_couplings, self.block_size)
        else:
            players, coups = _random_active(
                self.seed, self.activation_prob, self.window, n, num_players, num_couplings
            )
        if self.kind == "random" and n > 0:
            lo = max(0, n - self.max_lag)
            rng = _tick_rng(self.seed, n, "lags")
            all_p = rng.integers(lo, n + 1, size=num_players).tolist()
            # the stream's last draw, so skipping it when empty changes no value
            all_c = rng.integers(lo, n + 1, size=num_couplings).tolist() if num_couplings else ()
            player_lags = {i: all_p[i] for i in players}
            coupling_lags = {k: all_c[k] for k in coups}
        else:
            player_lags = {i: n for i in players}
            coupling_lags = {k: n for k in coups}
        return Tick(players, coups, player_lags, coupling_lags)


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


def _tick_rng(seed: int, n: int, stream: str) -> np.random.Generator:
    """The generator of ``(seed, n, stream)``.

    Equal to ``default_rng(SeedSequence(entropy=(seed, n, tag)))``, built
    from the entropy words of that tuple as a ready uint32 array.
    """
    tag = {"activation": 0, "lags": 1}[stream]
    words = np.array([*_words(seed), *_words(n), tag], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


@lru_cache(maxsize=64)
def _raw_active(seed: int, prob: float, window: int, num_players: int, num_couplings: int):
    """The raw activation masks of one random stream's last ``window + 1`` ticks.

    Every caller gets the same ring: slot ``n % (window + 1)`` holds
    ``(n, mask)`` once tick ``n`` is drawn (see ``_draw_mask``). A slot is
    replaced by one store and checked against its tick when read, so
    concurrent queries can at worst draw a tick twice.
    """
    return [None] * (window + 1)


def _draw_mask(rng: np.random.Generator, prob: float, num_blocks: int) -> int:
    """Bernoulli draws of one tick: bit ``i`` is player ``i``, then the couplings follow."""
    mask = 0
    for b, u in enumerate(rng.random(num_blocks).tolist()):
        if u < prob:
            mask |= 1 << b
    return mask


def _indices(mask: int, size: int) -> tuple:
    return tuple(i for i in range(size) if mask >> i & 1)


def _random_active(seed, prob, window, n, num_players, num_couplings):
    """Bernoulli activation plus constructive coverage and nonemptiness.

    A block missing from every raw draw of the last ``window`` ticks is
    force-activated, which makes every span of ``window + 1`` ticks cover
    all blocks. Tick 0 counts as a full raw draw.
    """
    num_blocks = num_players + num_couplings
    full = (1 << num_blocks) - 1
    ring = _raw_active(seed, prob, window, num_players, num_couplings)
    rng = _tick_rng(seed, n, "activation")
    raw = _draw_mask(rng, prob, num_blocks)
    ring[n % len(ring)] = (n, raw)
    if n <= window:
        recent = full  # the window holds tick 0
    else:
        recent = 0
        for j in range(n - window, n):
            slot = ring[j % len(ring)]
            if slot is None or slot[0] != j:
                slot = (j, _draw_mask(_tick_rng(seed, j, "activation"), prob, num_blocks))
                ring[j % len(ring)] = slot
            recent |= slot[1]
    active = raw | (full & ~recent)
    players = active & ((1 << num_players) - 1)
    coups = active >> num_players
    # the fallbacks continue the activation stream after the raw draws
    if not players:
        players = 1 << int(rng.integers(num_players))
    if num_couplings and not coups:
        coups = 1 << int(rng.integers(num_couplings))
    return _indices(players, num_players), _indices(coups, num_couplings)


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
