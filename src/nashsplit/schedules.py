"""Activation schedules and lag maps for block-iterative runs.

A schedule decides, for each tick, which player and coupling blocks are
recomputed and how stale the data they read may be. Three hard rules
apply: every block is active at tick 0, every window of ``window + 1``
consecutive ticks activates every block, and every lag stays within
``max_lag`` ticks of the present. The first two are constructive here
(forced activation), not statistical tendencies.

Generation is a pure function of ``(kind, seed, tick)``, so simulated
asynchronous runs are bit-reproducible and schedules can be queried
concurrently.
"""

from __future__ import annotations

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
            all_p = rng.integers(lo, n + 1, size=num_players)
            # the stream's last draw, so skipping it when empty changes no value
            all_c = rng.integers(lo, n + 1, size=num_couplings) if num_couplings else ()
            player_lags = {i: int(all_p[i]) for i in players}
            coupling_lags = {k: int(all_c[k]) for k in coups}
        else:
            player_lags = {i: n for i in players}
            coupling_lags = {k: n for k in coups}
        return Tick(players, coups, player_lags, coupling_lags)


def synchronous() -> Schedule:
    return Schedule("synchronous")


def cyclic(block_size: int = 1, window: int = 0) -> Schedule:
    """Round-robin schedule; ``window`` must be at least ceil(m / block_size) - 1."""
    return Schedule("cyclic", block_size=block_size, window=window)


def randomized(seed: int, activation_prob: float = 0.5, max_lag: int = 0, window: int = 0) -> Schedule:
    return Schedule(
        "random", max_lag=max_lag, window=window, seed=seed, activation_prob=activation_prob
    )


def _rotation(n: int, size: int, block_size: int) -> tuple:
    if size == 0:
        return ()
    take = min(block_size, size)
    start = (n * take) % size
    return tuple(sorted((start + t) % size for t in range(take)))


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


def audit(schedule: Schedule, horizon: int, num_players: int, num_couplings: int) -> list:
    """Replay a schedule and report every violation of the activation rules.

    Checks full activation at tick 0, nonemptiness at every tick, covering
    over every window of ``window + 1`` ticks, and the lag bounds. Returns
    a list of violation strings (empty means the schedule is admissible
    over the horizon).
    """
    report = []
    history_p, history_c = [], []
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
        history_p.append(set(tick.active_players))
        history_c.append(set(tick.active_couplings))
        span = schedule.window + 1
        if n + 1 >= span:
            covered_p = set().union(*history_p[n + 1 - span:n + 1])
            covered_c = set().union(*history_c[n + 1 - span:n + 1])
            if covered_p != set(range(num_players)):
                missing = sorted(set(range(num_players)) - covered_p)
                report.append(f"ticks {n + 1 - span}..{n}: players {missing} never activated")
            if covered_c != set(range(num_couplings)):
                missing = sorted(set(range(num_couplings)) - covered_c)
                report.append(f"ticks {n + 1 - span}..{n}: couplings {missing} never activated")
    return report
