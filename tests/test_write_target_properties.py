"""Write-target lookups: the early-exit pass equals the linear scan.

``StorageEngine._current_for_write`` and ``ReplicaStore._current_unended``
walk a key's version chain newest first and stop at the first qualifying
version. That is exact only in states the system can reach: at most one
committed, un-superseded version per key, the writer's own un-ended
version newest (it holds the row lock), and replicas replaying in LSN
order. The property test drives a primary and a replica through random
interleavings of concurrent transactions and checks every lookup against
the full-chain scans kept here as the reference. The complexity guard
pins the per-write cost on a long chain without a wall clock.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError
from repro.replication.replica import ReplicaStore
from repro.sim import Environment
from repro.storage import ColumnDef, StorageEngine, TableSchema
from repro.storage.clog import CommitLog, TxnStatus
from repro.storage.heap import HeapTable, RowVersion
from repro.storage.redo import RedoDelete, RedoUpdate
from repro.storage.wal import WalBuffer

KEYS = (1, 2)
SLOTS = 3
SCHEMA = TableSchema("t", [ColumnDef("k", "int"), ColumnDef("v", "int")],
                     ("k",))


# ----------------------------------------------------------------------
# Reference: the full-chain scans the early exit replaced
# ----------------------------------------------------------------------
def linear_write_target(clog: CommitLog, heap: HeapTable, key: tuple,
                        txid: int | None) -> RowVersion | None:
    """The writer's own un-ended version anywhere in the chain, else the
    committed, un-superseded version with the largest commit ts."""
    for version in heap.versions(key):
        if version.xmin == txid and version.xmax is None:
            return version
    best = None
    best_ts = -1
    for version in heap.versions(key):
        created_ts = clog.commit_ts(version.xmin)
        if created_ts is None:
            continue
        if version.xmax is not None:
            end_status = (clog.status(version.xmax)
                          if clog.known(version.xmax) else TxnStatus.COMMITTED)
            if end_status is TxnStatus.COMMITTED:
                continue
        if created_ts > best_ts:
            best = version
            best_ts = created_ts
    return best


def linear_unended(heap: HeapTable, key: tuple,
                   txid: int) -> RowVersion | None:
    """The writer's own un-ended version anywhere in the chain, else the
    newest un-ended foreign version."""
    fallback = None
    for version in heap.versions(key):
        if version.xmax is not None:
            continue
        if version.xmin == txid:
            return version
        if fallback is None:
            fallback = version
    return fallback


class CheckedEngine(StorageEngine):
    """Asserts every write-target lookup against the linear reference."""

    lookups = 0

    def _current_for_write(self, heap, key, txid):
        got = super()._current_for_write(heap, key, txid)
        assert got is linear_write_target(self.clog, heap, key, txid), \
            (key, txid, heap.versions(key))
        CheckedEngine.lookups += 1
        return got


class CheckedReplica(ReplicaStore):
    """Asserts every replayed update/delete's target against the linear
    reference before applying the record."""

    lookups = 0

    def _apply_checked(self, record):
        heap = self.table(record.table)
        got = self._current_unended(heap, record.key)
        assert got is linear_unended(heap, record.key, record.txid), \
            (record, heap.versions(record.key))
        CheckedReplica.lookups += 1
        ReplicaStore._APPLY[type(record)](self, record)

    _APPLY = {**ReplicaStore._APPLY, RedoUpdate: _apply_checked,
              RedoDelete: _apply_checked}


# ----------------------------------------------------------------------
# Promotion-style handoff (mirrors DataNode.promote_to_primary and
# DataNode.rebuild_replica_from on bare storage objects)
# ----------------------------------------------------------------------
def promote(env: Environment, store: ReplicaStore) -> CheckedEngine:
    """The replica's applied state becomes the primary. In-doubt
    transactions are aborted; plain in-progress ones stay orphaned."""
    engine = CheckedEngine(env, "promoted")
    engine.catalog = store.catalog
    engine.clog = store.clog
    engine._tables = store._tables
    engine.last_commit_ts = store.max_commit_ts
    engine.wal = WalBuffer(name="promoted.wal", start_lsn=store.applied_lsn + 1)
    for txid in list(store._unresolved):
        store._undo(txid)
        engine.clog.abort(txid)
        store._resolve(txid)
    return engine


def rebuild(env: Environment, engine: StorageEngine) -> CheckedReplica:
    store = CheckedReplica(env, "rebuilt")
    store.catalog = engine.catalog
    for txid in sorted(engine.clog._records):
        record = engine.clog._records[txid]
        store.clog._records[txid] = type(record)(record.status, record.commit_ts)
    store.clog.rebuild_cache()
    for name, heap in engine._tables.items():
        clone = HeapTable(name)
        for key, versions in heap._rows.items():
            clone._rows[key] = [RowVersion(key=v.key, data=v.data, xmin=v.xmin,
                                           xmax=v.xmax) for v in versions]
        store._tables[name] = clone
    store.max_commit_ts = engine.last_commit_ts
    store.applied_lsn = engine.wal.last_lsn
    return store


# ----------------------------------------------------------------------
# Random interleavings under a modelled row-lock owner map
# ----------------------------------------------------------------------
ACTIONS = ("insert", "update", "update", "update", "delete", "pend",
           "prepare", "commit", "commit", "abort", "ship", "ship",
           "vacuum", "promote")

steps_strategy = st.lists(
    st.tuples(st.sampled_from(ACTIONS), st.integers(0, SLOTS - 1),
              st.sampled_from(KEYS), st.integers(0, 4)),
    min_size=30, max_size=120)


def run_interleaving(steps) -> None:
    env = Environment()
    engine = CheckedEngine(env, "primary")
    engine.create_table(SCHEMA)
    store = CheckedReplica(env, "replica")
    store.apply_batch(engine.wal.records_from(0))
    rows = [{"k": key, "v": 0} for key in KEYS]
    engine.bulk_load("t", rows)
    store.bulk_load("t", rows, SCHEMA)
    slots: list[list | None] = [None] * SLOTS  # [txid, state] per slot
    owners: dict[tuple, int] = {}  # row lock owner per key
    next_txid = 1
    ts = 0
    for action, slot, key, amount in steps:
        row = (key,)
        txn = slots[slot]
        if action in ("insert", "update", "delete"):
            if txn is None:
                txn = slots[slot] = [next_txid, "active"]
                engine.begin(next_txid)
                next_txid += 1
            txid, state = txn
            if state != "active":
                continue
            if action == "insert":  # inserts take no row lock
                try:
                    engine.insert(txid, "t", {"k": key, "v": ts})
                except DuplicateKeyError:
                    pass
                continue
            if owners.setdefault(row, txid) != txid:
                continue  # blocked behind another writer's row lock
            if action == "update":
                engine.update(txid, "t", row, {"v": ts + amount})
            else:
                engine.delete(txid, "t", row)
        elif action in ("pend", "prepare", "commit", "abort"):
            if txn is None:
                continue
            txid, state = txn
            if action == "pend" and state == "active":
                engine.log_pending_commit(txid)
                txn[1] = "pending"
            elif action == "prepare" and state == "active":
                engine.prepare(txid)
                txn[1] = "prepared"
            elif action == "commit":
                ts += 10
                if state == "prepared":
                    engine.commit_prepared(txid, ts)
                else:
                    if state == "active":
                        engine.log_pending_commit(txid)
                    engine.commit(txid, ts)
            elif action == "abort":
                if state == "prepared":
                    engine.abort_prepared(txid)
                else:
                    engine.abort(txid)
            if action in ("commit", "abort"):
                slots[slot] = None
                owners = {k: o for k, o in owners.items() if o != txid}
        elif action == "ship":
            store.apply_batch(engine.wal.records_from(store.applied_lsn))
        elif action == "vacuum":
            engine.vacuum(retention_ns=amount * 10)
            store.vacuum(retention_ns=amount * 10)
        else:  # promote: unshipped records and every live txn are lost
            engine = promote(env, store)
            store = rebuild(env, engine)
            slots = [None] * SLOTS
            owners = {}
        # Probe every key for every live writer and for a plain insert.
        heap = engine.table("t")
        writers = [None] + [live[0] for live in slots if live is not None]
        for probe_key in KEYS:
            for writer in writers:
                engine._current_for_write(heap, (probe_key,), writer)


@settings(max_examples=150, deadline=None)
@given(steps=steps_strategy)
def test_early_exit_lookups_match_linear_scan(steps):
    run_interleaving(steps)


def test_write_after_handoff_orphans_an_update():
    """Txn 1's update is shipped but never resolved, so the handoff leaves
    it orphaned in progress; txn 2 then writes the same row twice on the
    new primary and its records replay on the rebuilt replica."""
    CheckedEngine.lookups = CheckedReplica.lookups = 0
    run_interleaving([
        ("update", 1, 1, 1), ("ship", 0, 1, 0),
        ("promote", 0, 1, 0),
        ("update", 0, 1, 2), ("update", 0, 1, 3), ("commit", 0, 1, 0),
        ("ship", 0, 1, 0),
    ])
    assert CheckedReplica.lookups >= 3
    assert CheckedEngine.lookups > 0


# ----------------------------------------------------------------------
# Complexity guard: per-write work does not grow with chain length
# ----------------------------------------------------------------------
class CountingCommitLog(CommitLog):
    """Counts the lookups perfbench reports as commit-log probes."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def status(self, txid):
        self.calls += 1
        return super().status(txid)

    def known(self, txid):
        self.calls += 1
        return super().known(txid)

    def commit_ts(self, txid):
        self.calls += 1
        return super().commit_ts(txid)

    def is_committed_before(self, txid, read_ts):
        self.calls += 1
        return super().is_committed_before(txid, read_ts)


CHAIN = 5_000


def long_chain_engine() -> StorageEngine:
    """One key with ``CHAIN`` committed versions, built through the API."""
    engine = StorageEngine(Environment(), "dn")
    engine.clog = CountingCommitLog()
    engine.create_table(SCHEMA)
    engine.begin(1)
    engine.insert(1, "t", {"k": 1, "v": 0})
    engine.commit(1, 10)
    for txid in range(2, CHAIN + 1):
        engine.begin(txid)
        engine.update(txid, "t", (1,), {"v": txid})
        engine.log_pending_commit(txid)
        engine.commit(txid, txid * 10)
    assert len(engine.table("t").versions((1,))) == CHAIN
    return engine


class TestWriteTargetComplexity:
    def test_update_on_long_chain_makes_bounded_clog_calls(self):
        engine = long_chain_engine()
        txid = CHAIN + 1
        engine.begin(txid)
        engine.clog.calls = 0
        assert engine.update(txid, "t", (1,), {"v": -1}) == {"k": 1, "v": -1}
        assert engine.clog.calls <= 4
        engine.clog.calls = 0
        assert engine.delete(txid, "t", (1,))
        assert engine.clog.calls <= 4

    def test_vacuum_truncates_without_comparing_versions(self, monkeypatch):
        engine = long_chain_engine()

        def no_compare(self, other):
            raise AssertionError("vacuum compared RowVersions")

        monkeypatch.setattr(RowVersion, "__eq__", no_compare)
        stats = engine.vacuum(retention_ns=0)
        assert stats.versions_removed == CHAIN - 1
        assert len(engine.table("t").versions((1,))) == 1
