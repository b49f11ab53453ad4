"""Unit tests for the row lock table."""

from repro.errors import WriteConflict
from repro.sim import Environment, ms
from repro.storage.locks import LockTable


def test_uncontended_acquire_is_immediate():
    env = Environment()
    locks = LockTable(env)
    event = locks.acquire(1, "t", (1,))
    assert event.triggered and event.ok
    assert locks.holder("t", (1,)) == 1


def test_reentrant_acquire():
    env = Environment()
    locks = LockTable(env)
    locks.acquire(1, "t", (1,))
    again = locks.acquire(1, "t", (1,))
    assert again.triggered and again.ok


def test_waiter_granted_on_release_fifo():
    env = Environment()
    locks = LockTable(env)
    granted = []

    def holder():
        yield locks.acquire(1, "t", (1,))
        yield env.timeout(ms(10))
        locks.release_all(1)

    def waiter(txid, delay):
        yield env.timeout(delay)
        yield locks.acquire(txid, "t", (1,))
        granted.append((txid, env.now))
        yield env.timeout(ms(5))
        locks.release_all(txid)

    env.process(holder())
    env.process(waiter(2, 1))
    env.process(waiter(3, 2))
    env.run()
    assert [txid for txid, _t in granted] == [2, 3]
    assert granted[0][1] == ms(10)
    assert granted[1][1] == ms(15)


def test_lock_wait_timeout_raises_write_conflict():
    env = Environment()
    locks = LockTable(env, default_timeout_ns=ms(20))
    locks.acquire(1, "t", (1,))
    outcome = []

    def waiter():
        try:
            yield locks.acquire(2, "t", (1,))
            outcome.append("granted")
        except WriteConflict:
            outcome.append(("timeout", env.now))

    env.process(waiter())
    env.run()
    assert outcome == [("timeout", ms(20))]
    assert locks.timeout_count == 1


def test_timed_out_waiter_skipped_on_release():
    env = Environment()
    locks = LockTable(env, default_timeout_ns=ms(5))
    locks.acquire(1, "t", (1,))
    results = []

    def impatient():
        try:
            yield locks.acquire(2, "t", (1,))
            results.append("2-granted")
        except WriteConflict:
            results.append("2-timeout")

    def patient():
        yield locks.acquire(3, "t", (1,), timeout_ns=ms(100))
        results.append(("3-granted", env.now))

    def holder():
        yield env.timeout(ms(10))
        locks.release_all(1)

    env.process(impatient())
    env.process(patient())
    env.process(holder())
    env.run()
    assert "2-timeout" in results
    assert ("3-granted", ms(10)) in results
    assert locks.holder("t", (1,)) == 3


def test_release_all_frees_every_key():
    env = Environment()
    locks = LockTable(env)
    locks.acquire(1, "t", (1,))
    locks.acquire(1, "t", (2,))
    locks.acquire(1, "u", (1,))
    assert locks.locked_count() == 3
    locks.release_all(1)
    assert locks.locked_count() == 0
    assert locks.held_by(1) == set()


def test_different_keys_do_not_contend():
    env = Environment()
    locks = LockTable(env)
    locks.acquire(1, "t", (1,))
    event = locks.acquire(2, "t", (2,))
    assert event.triggered and event.ok


def test_deadlock_counted_separately_from_timeout():
    # AB/BA cycle with no sanitizer: the timeout breaks it, but the abort
    # is classified (and counted) as a deadlock, not a plain timeout.
    env = Environment()
    locks = LockTable(env)
    aborted = []

    def txn(me, delay, first, second):
        yield locks.acquire(me, first, (1,))
        yield env.timeout(delay)
        try:
            yield locks.acquire(me, second, (1,))
        except WriteConflict:
            aborted.append(me)
        locks.release_all(me)

    env.process(txn(1, 1, "a", "b"))
    env.process(txn(2, 2, "b", "a"))
    env.run()
    assert aborted  # the cycle had to be broken
    assert locks.deadlock_count == 1
    assert locks.timeout_count == 0


def test_lock_counters_emitted_into_timeseries():
    from repro.obs import enable_observability

    env = Environment()
    enable_observability(env, metrics=False, trace=False, timeseries=True)
    locks = LockTable(env, default_timeout_ns=ms(20))
    locks.acquire(1, "t", (1,))  # holder never releases

    def waiter():
        try:
            yield locks.acquire(2, "t", (1,))
        except WriteConflict:
            pass

    env.process(waiter())
    env.run()
    assert locks.timeout_count == 1
    series = env.series.series("lock.timeouts")
    assert series is not None
    assert sum(window.last for window in series.windows.values()) == 1
    assert env.series.series("lock.deadlocks") is None


def test_deadlock_emitted_into_timeseries_with_sanitizer():
    from repro.obs import enable_observability
    from repro.san import Sanitizer

    env = Environment()
    enable_observability(env, metrics=False, trace=False, timeseries=True)
    Sanitizer(env).install()
    locks = LockTable(env)

    def txn(me, delay, first, second):
        yield locks.acquire(me, first, (1,))
        yield env.timeout(delay)
        try:
            yield locks.acquire(me, second, (1,))
        except WriteConflict:
            pass
        locks.release_all(me)

    env.process(txn(1, 1, "a", "b"))
    env.process(txn(2, 2, "b", "a"))
    env.run()
    assert locks.deadlock_count == 1
    series = env.series.series("lock.deadlocks")
    assert series is not None
    assert sum(window.last for window in series.windows.values()) == 1


class _Row:
    """A lock-key component a weakref can watch."""


def test_granted_wait_releases_its_timer_entry():
    """Granting a lock cancels the waiter's timeout: once both holders
    have released, the kernel holds nothing of the wait, long before the
    1 s deadline, and the lock key is no longer referenced."""
    import gc
    import weakref

    env = Environment()
    locks = LockTable(env)  # default 1 s wait timeout
    granted = []

    def holder(key):
        yield locks.acquire(1, "t", key)
        yield env.timeout(ms(1))
        locks.release_all(1)

    def waiter(key):
        yield locks.acquire(2, "t", key)
        granted.append(env.now)
        yield env.timeout(ms(1))
        locks.release_all(2)

    def start():
        row = _Row()
        env.process(holder((row,)))
        env.process(waiter((row,)))
        return weakref.ref(row)

    ref = start()
    # A later tick, so the kernel swaps out the lane the release ran in.
    env.timeout(ms(3))
    env.run(until=ms(5))
    assert granted == [ms(1)]
    assert env.peek() is None  # no timer entry left for the wait
    assert locks.locked_count() == 0
    gc.collect()
    assert ref() is None
    assert (locks.wait_count, locks.timeout_count, locks.deadlock_count) \
        == (1, 0, 0)


def test_timeout_classification_with_cancelled_timers():
    """Granted waits never count; a plain timeout and a timeout that broke
    a wait-for cycle are told apart exactly as before."""
    env = Environment()
    locks = LockTable(env, default_timeout_ns=ms(20))
    outcomes = []

    def txn(me, delay, first, second, hold_ns):
        yield locks.acquire(me, first, (1,))
        yield env.timeout(delay)
        try:
            yield locks.acquire(me, second, (1,))
            outcomes.append((me, "granted", env.now))
            yield env.timeout(hold_ns)
        except WriteConflict:
            outcomes.append((me, "aborted", env.now))
        locks.release_all(me)

    # 1 and 2 form an a/b cycle: the timeout that breaks it (1's, the
    # first armed) is a deadlock, and 2 is then granted.
    env.process(txn(1, ms(1), "a", "b", 0))
    env.process(txn(2, ms(2), "b", "a", ms(30)))
    # 3 waits on "c", held by 4 for longer than the wait timeout.
    env.process(txn(4, 0, "c", "d", ms(50)))
    env.process(txn(3, ms(1), "e", "c", 0))
    env.run()
    assert sorted(outcomes) == [(1, "aborted", ms(21)),
                                (2, "granted", ms(21)),
                                (3, "aborted", ms(21)),
                                (4, "granted", 0)]
    assert (locks.wait_count, locks.deadlock_count, locks.timeout_count) \
        == (3, 1, 1)
    assert locks.locked_count() == 0
