"""Activation schedules: covering, lag bounds, determinism."""

import gc
import hashlib
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nashsplit import schedules
from nashsplit.schedules import Schedule, audit, cyclic, randomized, synchronous

from _oracles import random_schedule_tick


def test_synchronous_full_activation_zero_lag():
    sched = synchronous()
    for n in (0, 1, 17, 500):
        tick = sched.next_tick(n, 3, 2)
        assert tick.active_players == (0, 1, 2)
        assert tick.active_couplings == (0, 1)
        assert all(tau == n for tau in tick.player_lags.values())
        assert all(delta == n for delta in tick.coupling_lags.values())


def test_cyclic_round_robin_with_forced_first_tick():
    sched = cyclic(block_size=1, window=2)
    seen = [sched.next_tick(n, 3, 0).active_players for n in range(5)]
    assert seen[0] == (0, 1, 2)   # full first tick is mandatory
    assert seen[1] == (1,)
    assert seen[2] == (2,)
    assert seen[3] == (0,)
    assert seen[4] == (1,)


def test_cyclic_audit_clean():
    assert audit(cyclic(block_size=1, window=2), 200, 3, 3) == []
    assert audit(cyclic(block_size=2, window=1), 200, 4, 2) == []


def test_synchronous_audit_clean():
    assert audit(synchronous(), 100, 4, 1) == []


def test_too_small_window_reports_covering_violation():
    # with window 0 every tick must activate every block; cyclic singles cannot
    report = audit(cyclic(block_size=1, window=0), 10, 3, 0)
    assert any("never activated" in line for line in report)


def test_random_schedule_replay_invariants():
    sched = randomized(seed=11, activation_prob=0.5, max_lag=3, window=4)
    num_players, num_coups = 4, 2
    history = []
    for n in range(1000):
        tick = sched.next_tick(n, num_players, num_coups)
        assert tick.active_players
        assert tick.active_couplings
        lo = max(0, n - 3)
        for i, tau in tick.player_lags.items():
            assert lo <= tau <= n
        for k, delta in tick.coupling_lags.items():
            assert lo <= delta <= n
        history.append(set(tick.active_players))
        if n >= 4:
            assert set().union(*history[n - 4:n + 1]) == set(range(num_players))
    assert history[0] == set(range(num_players))


def test_random_schedule_audit_long_horizon():
    sched = randomized(seed=3, activation_prob=0.35, max_lag=5, window=4)
    assert audit(sched, 10_000, 3, 1) == []


def test_random_schedule_deterministic_replay():
    sched = randomized(seed=42, activation_prob=0.5, max_lag=4, window=3)
    first = [sched.next_tick(n, 5, 2) for n in range(200)]
    second = [sched.next_tick(n, 5, 2) for n in range(200)]
    for a, b in zip(first, second):
        assert a == b


def test_random_low_probability_never_empty():
    sched = randomized(seed=1, activation_prob=0.02, max_lag=0, window=6)
    for n in range(300):
        tick = sched.next_tick(n, 3, 2)
        assert tick.active_players
        assert tick.active_couplings


def test_schedule_rejects_bad_fields():
    with pytest.raises(ValueError):
        Schedule("nonsense")
    with pytest.raises(ValueError):
        Schedule("random", max_lag=-1)
    with pytest.raises(ValueError):
        Schedule("random", activation_prob=0.0)
    with pytest.raises(ValueError):
        Schedule("cyclic", block_size=0)


@pytest.mark.parametrize("make, field", [
    (lambda: randomized(seed=1.5), "seed"),
    (lambda: randomized(3, max_lag=1.5), "max_lag"),
    (lambda: randomized(3, window=2.5), "window"),
    (lambda: cyclic(block_size=1.5), "block_size"),
    (lambda: Schedule("random", seed=3.0), "seed"),
    (lambda: Schedule("random", window="4"), "window"),
    (lambda: Schedule("random", seed=True), "seed"),
    (lambda: Schedule("cyclic", max_lag=False), "max_lag"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_schedule_rejects_non_integer_fields(make, field):
    # without the check these fail only at the first tick that uses the field
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize("prob", [True, "0.5", None, [0.5]], ids=repr)
def test_schedule_rejects_a_non_real_activation_prob(prob):
    with pytest.raises(ValueError, match=r"^activation_prob must be a real number, not "):
        randomized(1, prob)


def test_schedule_stores_activation_prob_as_a_float():
    for prob in (1, np.float32(0.25), Fraction(1, 2)):
        sched = randomized(1, prob)
        assert type(sched.activation_prob) is float and sched.activation_prob == float(prob)


def test_schedule_accepts_numpy_integers():
    sched = Schedule("random", max_lag=np.int64(2), window=np.uint8(5), seed=np.uint64(2**40),
                     activation_prob=0.3)
    plain = randomized(2**40, 0.3, max_lag=2, window=5)
    for n in range(80):
        assert sched.next_tick(n, 3, 1) == plain.next_tick(n, 3, 1)
    assert cyclic(block_size=np.int32(2), window=1).next_tick(3, 4, 0).active_players == (2, 3)


def _draw_digest(sched, num_players, num_couplings, horizon=500):
    h = hashlib.sha256()
    for n in range(horizon):
        t = sched.next_tick(n, num_players, num_couplings)
        h.update(repr((t.active_players, t.active_couplings,
                       sorted(t.player_lags.items()), sorted(t.coupling_lags.items()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed, sched_args, blocks, expected", [
    (0, (0.1, 3, 20), (8, 0), "c333548a55a572ba3c62de4f10fc34c4dc6e7a1ceb84d1e3c20a7a65a98449d7"),
    (7, (0.1, 3, 20), (8, 0), "72fa3b3f6fb071990ae04a694f35172624ec738fbca8fe1e7e631d796ad017bf"),
    (0, (0.5, 5, 8), (2, 1), "9c0428b9f802d9eb64e829a3a2fc9a1790cc9f30192a2368b792d2ad8194cc7d"),
    (7, (0.5, 5, 8), (2, 1), "54b7985b975be4f3b35de42e9e3f990a4e795d8ed8fb5f558dc698d229279541"),
    (0, (0.1, 3, 20), (100, 2), "4a6e374f307cc5904975281749b923a03f448eab14e000a6baa1000329e39506"),
])
def test_random_schedule_draws_are_stable_across_versions(seed, sched_args, blocks, expected):
    # pinned hashes of the first 500 ticks: activation sets and lags are
    # part of a run's reproducible trace, not only within one version
    prob, max_lag, window = sched_args
    sched = randomized(seed, prob, max_lag=max_lag, window=window)
    assert _draw_digest(sched, *blocks) == expected


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64])
def test_hashed_words_equal_the_seed_sequence_words(seed):
    # batch edges, and ticks and seeds that grow a second or third uint32 word
    for n in (0, 1, 63, 64, 65, 2**32 - 1, 2**32, 2**32 + 64, 2**64 - 1, 2**64):
        rows = schedules._hash_batch(seed, n // schedules._BATCH)
        for tag in (0, 1):
            words = np.random.SeedSequence(entropy=(seed, n, tag)).generate_state(4, np.uint64)
            assert rows[tag][n % schedules._BATCH].tolist() == words.tolist(), (n, tag)


@pytest.mark.parametrize("seed", [0, 2**32, 2**64])
@pytest.mark.parametrize("block", [0, 2**32 // 64 - 1, 2**32 // 64])
def test_jump_ahead_equals_stepping_each_stream(seed, block):
    # every output that a batch computes at once, for the batches that hold
    # the 64 ticks ``block * 64`` onwards: the first ticks, and the ticks just
    # below and just above 2**32, against numpy's own generator stepped one
    # output at a time
    batch = block * 64 // schedules._BATCH
    outputs = schedules._outputs(schedules._hash_batch(seed, batch), 130).tolist()
    for tag in (0, 1):
        for i, ours in enumerate(outputs[tag]):
            entropy = (seed, batch * schedules._BATCH + i, tag)
            ref = np.random.PCG64(np.random.SeedSequence(entropy)).random_raw(130)
            assert ours == ref.tolist(), entropy


def test_rejected_draws_replay_through_the_stream(monkeypatch):
    # Lemire's method rejects about one 32-bit draw in 10**9 at these spans;
    # marking every draw rejected sends every tick down the replay path, and
    # the short window and even odds empty both sets now and then
    lemire, replay, replayed = schedules._lemire, schedules._replay, {}

    def rejecting(draws, span):
        return lemire(draws, span)[0], np.ones(np.shape(draws), dtype=bool)

    def counting(memo, n, lo, players, coups, *args):
        replayed[n] = (not players, not coups)
        return replay(memo, n, lo, players, coups, *args)

    monkeypatch.setattr(schedules, "_lemire", rejecting)
    monkeypatch.setattr(schedules, "_replay", counting)
    seed, prob, window, max_lag, num_players, num_couplings = 6, 0.5, 2, 3, 3, 2
    sched = randomized(seed, prob, max_lag=max_lag, window=window)
    schedules._raw_active.cache_clear()
    try:
        for n in range(201):
            expected = random_schedule_tick(seed, prob, window, max_lag, n, num_players,
                                            num_couplings)
            assert sched.next_tick(n, num_players, num_couplings) == schedules.Tick(*expected), n
    finally:
        schedules._raw_active.cache_clear()
    assert set(range(1, 201)) <= set(replayed)
    empty_players, empty_couplings = (any(flags) for flags in zip(*replayed.values()))
    assert empty_players and empty_couplings


def test_lag_spans_beyond_32_bits_equal_the_original_draws():
    # a lag span over 2**32 makes numpy draw 64-bit lags, which only the
    # replay path does; its ticks still read back to tick 0
    seed, prob, window, max_lag = 8, 0.4, 9, 2**33
    sched = randomized(seed, prob, max_lag=max_lag, window=window)
    schedules._raw_active.cache_clear()
    for n in range(2**32 - 3, 2**32 + 3):
        expected = random_schedule_tick(seed, prob, window, max_lag, n, 3, 1)
        assert sched.next_tick(n, 3, 1) == schedules.Tick(*expected), n


def test_lags_stay_exact_across_tick_2_to_the_63():
    # int64 holds a lag only up to 2**63 - 1: the last two batches below it
    # equal the original draws, and above it, where the original's int64
    # lag draw raises, the lags keep their window and coverage still holds
    seed, prob, window, max_lag, batch = 8, 0.4, 9, 5, schedules._BATCH
    sched = randomized(seed, prob, max_lag=max_lag, window=window)
    schedules._raw_active.cache_clear()
    for n in range(2**63 - 2 * batch, 2**63):
        expected = random_schedule_tick(seed, prob, window, max_lag, n, 3, 1)
        assert sched.next_tick(n, 3, 1) == schedules.Tick(*expected), n
    history = []
    for n in range(2**63 - window, 2**63 + 2 * batch):
        tick = sched.next_tick(n, 3, 1)
        for tau in [*tick.player_lags.values(), *tick.coupling_lags.values()]:
            assert type(tau) is int and n - max_lag <= tau <= n, (n, tau)
        history.append(set(tick.active_players))
        if len(history) > window:
            assert set().union(*history[-window - 1:]) == {0, 1, 2}, n
        assert tick.active_couplings == (0,)


@pytest.fixture
def hashed(monkeypatch):
    """The batches that ``_hash_batch`` hashes, in order, from a cold memo."""
    batches, hash_batch = [], schedules._hash_batch

    def counting(seed, batch):
        batches.append(batch)
        return hash_batch(seed, batch)

    monkeypatch.setattr(schedules, "_hash_batch", counting)
    schedules._raw_active.cache_clear()
    yield batches
    schedules._raw_active.cache_clear()


def test_cache_clear_drops_the_hashed_words(hashed):
    # every timed benchmark solve starts from a cold memo, hashing included;
    # a batch resolves from its first tick, whose window reaches the batch before
    sched, batch = randomized(4, 0.3, max_lag=2, window=5), schedules._BATCH
    for n in range(1, batch + 5):
        sched.next_tick(n, 3, 1)
    assert hashed == [0, 1]
    schedules._raw_active.cache_clear()
    sched.next_tick(batch + 4, 3, 1)
    assert hashed == [0, 1, 0, 1]


def test_shuffled_queries_inside_held_batches_hash_nothing_new(hashed):
    # a held batch is resolved whole, so a query inside it, in any order, is
    # one index; a batch held only for a later window's raw draws resolves
    # from those draws without hashing them again
    seed, prob, window, max_lag, batch = 4, 0.3, 5, 2, schedules._BATCH
    sched = randomized(seed, prob, max_lag=max_lag, window=window)
    second = list(range(batch, 2 * batch))
    in_order = {n: sched.next_tick(n, 3, 1) for n in second}
    assert hashed == [0, 1]
    for n in random.Random(3).sample(second, len(second)):
        assert sched.next_tick(n, 3, 1) == in_order[n], n
    for n in random.Random(4).sample(range(1, batch), 40):
        expected = random_schedule_tick(seed, prob, window, max_lag, n, 3, 1)
        assert sched.next_tick(n, 3, 1) == schedules.Tick(*expected), n
    assert hashed == [0, 1]


def test_random_schedule_memory_is_bounded_by_the_window():
    # the activation memo keeps the raw draws of the last window + 1 ticks
    # only, so what stays allocated does not grow with the tick count; a
    # full collection before each reading empties the interpreter's free
    # lists, which would otherwise count as allocated
    sched = randomized(5, 0.3, max_lag=2, window=4)
    schedules._raw_active.cache_clear()
    tracemalloc.start()
    try:
        for n in range(2_000):
            sched.next_tick(n, 6, 1)
        gc.collect()
        after_short = tracemalloc.get_traced_memory()[0]
        for n in range(2_000, 20_000):
            sched.next_tick(n, 6, 1)
        gc.collect()
        after_long = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_long - after_short < 16_384


def test_concurrent_queries_match_a_sequential_replay():
    # more threads than cores share the activation memo and query ticks in
    # their own orders, with frequent thread switches; the 300 ticks span
    # more batches than the memo holds
    sched = randomized(9, 0.2, max_lag=3, window=6)
    ticks = range(0, 1500, 5)
    schedules._raw_active.cache_clear()
    expected = {n: sched.next_tick(n, 5, 2) for n in ticks}
    mismatches, errors, done = [], [], []

    def query(order):
        # a worker that raises would otherwise only end its thread
        try:
            for n in order:
                if sched.next_tick(n, 5, 2) != expected[n]:
                    mismatches.append(n)
            done.append(len(order))
        except Exception as exc:
            errors.append(exc)

    orders = [list(ticks), list(reversed(ticks))]
    orders += [random.Random(s).sample(ticks, len(ticks)) for s in (1, 2)]
    workers = [threading.Thread(target=query, args=(order,)) for order in orders]
    schedules._raw_active.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert done == [len(ticks)] * len(orders)
    assert mismatches == []
