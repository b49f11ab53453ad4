"""Property tests: the calendar-queue kernel is order-equivalent to a
(when, priority, seq) heap.

The PR that introduced the calendar queue replaced the heapq event loop
with current-tick lanes + per-timestamp buckets + a min-heap of distinct
future timestamps. Its correctness argument is that dispatch order is
*identical* to the old kernel's lexicographic (when, priority, seq) heap
order. These tests check exactly that against a reference heapq model,
over randomized programs that schedule urgent/normal events, deferred
callbacks and timeouts — including re-entrant scheduling from inside
callbacks (same-tick lane appends, the calendar queue's trickiest path)
and ``Environment.cancel`` of pending deferred callbacks, which the
reference model treats as removing the entry from the heap.

The pinned-digest test in tests/test_perf_caches.py covers the same
invariant end-to-end on the full cluster scenario; this file covers it
exhaustively at the kernel surface.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.events import (
    Event,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Timeout,
)

#: Node kinds and the priority each occupies in the reference model.
KINDS = {
    "event_urgent": PRIORITY_URGENT,
    "event_normal": PRIORITY_NORMAL,
    "defer": PRIORITY_NORMAL,    # defer() uses the normal lane/buckets
    "timeout": PRIORITY_NORMAL,  # Timeout schedules itself normally
}


@st.composite
def programs(draw):
    """A forest of schedule operations plus cancellations.

    Each node fires at ``parent_fire_time + delay`` and schedules its
    children from inside its callback (re-entrant scheduling). A node may
    also name ``defer`` nodes to cancel when it fires, before scheduling
    its children; a target that is not pending at that moment (not yet
    scheduled, fired, or cancelled already) is left alone.

    Returns ``(roots, cancels)`` with ``cancels`` mapping a node id to the
    ids it cancels."""
    ids = itertools.count()
    defer_ids: list[int] = []
    all_ids: list[int] = []

    def node(depth: int) -> tuple:
        delay = draw(st.integers(min_value=0, max_value=30))
        kind = draw(st.sampled_from(sorted(KINDS)))
        node_id = next(ids)
        all_ids.append(node_id)
        if kind == "defer":
            defer_ids.append(node_id)
        children = []
        if depth < 2:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                children.append(node(depth + 1))
        return (node_id, delay, kind, children)

    roots = [node(0) for _ in range(draw(st.integers(min_value=1,
                                                     max_value=10)))]
    cancels: dict[int, list[int]] = {}
    if defer_ids:
        for node_id in all_ids:
            targets = draw(st.lists(st.sampled_from(defer_ids), max_size=2))
            if targets:
                cancels[node_id] = targets
    return roots, cancels


def reference_order(program) -> list[tuple[int, int]]:
    """Dispatch order under the old kernel's model: a single heap ordered
    by (when, priority, seq), seq bumped on every push. Cancelling removes
    the entry (modelled by skipping it when popped)."""
    roots, cancels = program
    heap: list = []
    seq = itertools.count()
    fired: list[tuple[int, int]] = []
    pending: set[int] = set()
    cancelled: set[int] = set()

    def push(node, now):
        node_id, delay, kind, _children = node
        pending.add(node_id)
        heapq.heappush(heap, (now + delay, KINDS[kind], next(seq), node))

    for node in roots:
        push(node, 0)
    while heap:
        when, _priority, _seq, node = heapq.heappop(heap)
        node_id = node[0]
        if node_id in cancelled:
            continue
        pending.discard(node_id)
        fired.append((node_id, when))
        for target in cancels.get(node_id, ()):
            if target in pending:
                pending.discard(target)
                cancelled.add(target)
        for child in node[3]:
            push(child, when)
    return fired


class KernelProgram:
    """Runs a program on the real kernel, cancelling through
    ``Environment.cancel`` with the handles ``defer`` returned."""

    def __init__(self, env: Environment, program):
        self.env = env
        self.roots, self.cancels = program
        self.fired: list[tuple[int, int]] = []
        self.handles: dict[int, object] = {}  # pending defer entries

    def start(self) -> None:
        for node in self.roots:
            self.schedule(node)

    def schedule(self, node: tuple) -> None:
        env = self.env
        node_id, delay, kind, children = node

        def fire(_arg) -> None:
            self.handles.pop(node_id, None)
            self.fired.append((node_id, env.now))
            for target in self.cancels.get(node_id, ()):
                handle = self.handles.pop(target, None)
                if handle is not None:
                    env.cancel(handle)
            for child in children:
                self.schedule(child)

        if kind == "defer":
            self.handles[node_id] = env.defer(delay, fire, None)
        elif kind == "timeout":
            timer = Timeout(env, delay)
            timer.callbacks.append(fire)
        else:
            event = Event(env)
            event.callbacks.append(fire)
            env.schedule(event, delay=delay, priority=KINDS[kind])


def start(env: Environment, program) -> KernelProgram:
    runner = KernelProgram(env, program)
    runner.start()
    return runner


class TestCalendarQueueOrder:
    @settings(max_examples=200, deadline=None)
    @given(programs())
    def test_matches_heap_reference(self, program):
        env = Environment()
        runner = start(env, program)
        env.run()
        expected = reference_order(program)
        assert runner.fired == expected
        # The clock never visits a tick whose entries were all cancelled.
        assert env.now == (expected[-1][1] if expected else 0)

    @settings(max_examples=100, deadline=None)
    @given(programs(), st.integers(min_value=1, max_value=17))
    def test_chunked_run_until_matches_drain(self, program, stride):
        """Driving the kernel through run(until=...) windows must produce
        the same history as a single drain (exercises the inlined
        until-int loop and its time-barrier handling)."""
        env = Environment()
        runner = start(env, program)
        while env.peek() is not None:
            env.run(until=env.now + stride)
        assert runner.fired == reference_order(program)

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_peek_step_loop_never_sees_a_stale_tick(self, program):
        """peek() names the tick step() is about to run: a timestamp whose
        bucket was cancelled away is skipped, never reported."""
        env = Environment()
        runner = start(env, program)
        visited = set()
        while (when := env.peek()) is not None:
            env.step()
            assert env.now == when
            visited.add(when)
        assert runner.fired == reference_order(program)
        # Every tick the clock visited ran a live entry.
        assert visited <= {when for _node, when in runner.fired}

    def test_same_tick_urgent_beats_earlier_normal(self):
        """Priority dominates insertion order within one tick."""
        env = Environment()
        fired: list[str] = []
        normal = Event(env)
        normal.callbacks.append(lambda _e: fired.append("normal"))
        env.schedule(normal, delay=5, priority=PRIORITY_NORMAL)
        urgent = Event(env)
        urgent.callbacks.append(lambda _e: fired.append("urgent"))
        env.schedule(urgent, delay=5, priority=PRIORITY_URGENT)
        env.run()
        assert fired == ["urgent", "normal"]

    def test_fifo_within_same_tick_and_priority(self):
        env = Environment()
        fired: list[int] = []
        for index in range(50):
            env.defer(7, fired.append, index)
        env.run()
        assert fired == list(range(50))


class TestCancel:
    def test_cancel_in_current_lane_is_a_no_op_entry(self):
        """An entry whose deadline is now already sits in the lane: cancel
        leaves it there with its target dropped, and it fires as a no-op."""
        env = Environment()
        fired: list[str] = []
        payload = ["held"]
        victim = None

        def canceller(_arg):
            fired.append("canceller")
            env.cancel(victim)
            assert victim.arg is None
            assert victim in env._lane_normal

        env.defer(5, canceller, None)
        victim = env.defer(5, fired.append, payload)
        env.defer(5, fired.append, "after")
        env.run()
        assert fired == ["canceller", "after"]
        assert env.now == 5
        # The dispatched no-op entry went back to the free list and is
        # reusable by the next defer.
        env.defer(1, fired.append, "reused")
        env.run()
        assert fired[-1] == "reused" and env.now == 6

    def test_cancel_alone_in_bucket_deletes_the_bucket(self):
        env = Environment()
        fired: list[str] = []
        timer = env.defer(2_000, fired.append, "timeout")
        env.defer(1, fired.append, "reply")
        env.run(until=1)
        env.cancel(timer)
        assert 2_000 not in env._buckets
        assert 2_000 in env._times  # stale until popped or peeked past
        assert timer.fn is not fired.append and timer.arg is None
        assert env.peek() is None
        assert env._times == []
        env.run()
        assert fired == ["reply"]
        assert env.now == 1

    def test_cancelled_entries_unlinked_from_bucket_tail(self):
        """Within a shared bucket, cancelled entries stay as no-ops until
        they reach the tail, where cancel pops them; a bucket emptied this
        way is deleted, so its tick is never visited."""
        env = Environment()
        fired: list[str] = []
        first = env.defer(10, fired.append, "a")
        middle = env.defer(10, fired.append, "b")
        last = env.defer(10, fired.append, "c")
        env.cancel(middle)
        assert len(env._buckets[10]) == 3
        env.cancel(last)
        assert env._buckets[10] == [first]
        env.cancel(first)
        assert 10 not in env._buckets
        env.run()
        assert fired == [] and env.now == 0

    def test_defer_into_a_cancelled_tick(self):
        """A new entry at a timestamp whose bucket was cancelled re-creates
        the bucket; the duplicate timestamp left in the heap is skipped."""
        env = Environment()
        fired: list[tuple[str, int]] = []
        timer = env.defer(10, fired.append, ("dead", 10))
        env.cancel(timer)
        env.defer(10, lambda _arg: fired.append(("live", env.now)), None)
        assert env._times.count(10) == 2
        env.defer(12, lambda _arg: fired.append(("later", env.now)), None)
        env.run()
        assert fired == [("live", 10), ("later", 12)]
        assert env.peek() is None

    def test_stale_ticks_under_run_until_peek_and_step(self):
        env = Environment()
        fired: list[int] = []
        dead = [env.defer(delay, fired.append, delay) for delay in (10, 20, 40)]
        env.defer(30, fired.append, 30)
        for timer in dead:
            env.cancel(timer)
        assert env.peek() == 30
        env.run(until=25)
        assert env.now == 25 and fired == []
        env.step()
        assert env.now == 30 and fired == [30]
        assert env.peek() is None
        with pytest.raises(SimulationError):
            env.step()
        env.run(until=50)
        assert env.now == 50

    def test_cancel_keeps_every_other_slot(self):
        """Entries deferred around a cancelled one keep their order, and
        seq numbering is untouched (cancel consumes no sequence number)."""
        env = Environment()
        fired: list[str] = []
        env.defer(7, fired.append, "a")
        victim = env.defer(7, fired.append, "x")
        env.defer(7, fired.append, "b")
        before = env.events_scheduled
        env.cancel(victim)
        assert env.events_scheduled == before
        env.run()
        assert fired == ["a", "b"]
