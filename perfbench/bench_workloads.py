"""The benchmark's three workloads.

Each workload is a closed loop with no think time: every simulated
terminal is a DES process that issues its next transaction as soon as the
previous one completes (the paper's §V setup). A workload object owns its
cluster configuration, its data load, one transaction generator per
terminal, an optional action at the window midpoint, and the output check
that runs after the window.

All randomness comes from ``seed``: the cluster seed is ``seed`` and each
workload stream is derived from it, so one seed yields one input set.
``parts`` is how many input sets (derived from the run seed) one run
pools its simulated metrics over.
"""

from __future__ import annotations

import dataclasses
import random

from repro import ClusterConfig, one_region, three_city
from repro.sim.units import us
from repro.sql import SqlExecutor, parse
from repro.storage.catalog import ColumnDef, TableSchema
from repro.txn.modes import TxnMode
from repro.workloads import BankConfig, BankWorkload, TpccConfig, TpccWorkload
from repro.workloads.tpcc import ReadOnlyTpccWorkload


def derive(seed: int, salt: int) -> int:
    """A workload stream seed derived from the run seed."""
    return seed * 1_000_003 + salt


def read_one_snapshot(cn, tables, keys):
    """Generator: read ``keys`` (a list of ``(table, key)``) at one
    read-only snapshot through the CN's public read-only API."""
    read_ts, use_ror = yield from cn.ro_snapshot(tables)
    reads = [cn.env.process(cn.g_ro_read(read_ts, use_ror, table, key))
             for table, key in keys]
    yield cn.env.all_of(reads)
    return [read.value for read in reads]


class Workload:
    """Defaults for the optional hooks. ``snapshot`` holds the values the
    output check read, which repeats of one input set must reproduce."""

    snapshot: tuple | list = ()

    def midpoint(self, db) -> None:
        """Called when the window is half over."""

    def counts(self, db) -> dict:
        """Workload-specific deterministic counters."""
        return {}


class TpccGeo(Workload):
    """Full TPC-C mix on Three-City with region-local warehouses."""

    name = "tpcc-geo"
    parts = 4
    warehouses = 12
    terminals = 120
    warmup_s = 0.2
    window_s = 0.6

    def __init__(self, seed: int):
        self.seed = seed
        self.tpcc = TpccWorkload(TpccConfig(warehouses=self.warehouses,
                                            seed=derive(seed, 42)))

    def config(self, **observability) -> ClusterConfig:
        return ClusterConfig.globaldb(three_city(), seed=self.seed,
                                      **observability)

    def load(self, db) -> None:
        self.tpcc.setup(db)

    def transaction(self, cn, terminal_id: int):
        return (yield from self.tpcc.transaction(cn, terminal_id))

    def check(self, db):
        """Generator: TPC-C consistency condition 1, ``w_ytd = sum(d_ytd)``
        for every warehouse, at one snapshot."""
        districts = self.tpcc.config.districts_per_warehouse
        keys = []
        for w_id in range(1, self.warehouses + 1):
            keys.append(("warehouse", (w_id,)))
            keys.extend(("district", (w_id, d_id))
                        for d_id in range(1, districts + 1))
        rows = yield from read_one_snapshot(
            db.cns[0], ["warehouse", "district"], keys)
        errors = []
        self.snapshot = []
        per_warehouse = 1 + districts
        for index in range(self.warehouses):
            chunk = rows[index * per_warehouse:(index + 1) * per_warehouse]
            if any(row is None for row in chunk):
                errors.append(f"warehouse {index + 1}: rows missing")
                continue
            w_ytd = chunk[0]["w_ytd"]
            d_ytd = sum(row["d_ytd"] for row in chunk[1:])
            self.snapshot.append([w_ytd, d_ytd])
            # Payments add float amounts in a different order to the two
            # totals, so allow rounding error far below one cent.
            if abs(w_ytd - d_ytd) > 1e-6 * max(1.0, abs(w_ytd)):
                errors.append(f"warehouse {index + 1}: w_ytd {w_ytd!r} != "
                              f"sum(d_ytd) {d_ytd!r}")
        return errors


class RorReads(Workload):
    """Read-mostly mix on Three-City: prepared SQL point-selects with 2/3 of
    keys remote (Fig. 6d), read-only TPC-C with 50% multi-shard queries
    (Fig. 6c), and a few single-row updates that keep replication and the
    RCP moving."""

    name = "ror-reads"
    parts = 2
    terminals = 60
    warmup_s = 0.3
    window_s = 0.4
    tables = 8
    rows_per_table = 250
    remote_pct = 2 / 3
    update_pct = 0.03
    ro_tpcc_pct = 0.25

    def __init__(self, seed: int):
        self.seed = seed
        self.ro_tpcc = ReadOnlyTpccWorkload(
            TpccConfig(warehouses=6, seed=derive(seed, 43)),
            multi_shard_pct=0.5)
        self.statements = {}
        self.expected = {}
        self.local_keys: dict[str, list] = {}
        self.remote_keys: dict[str, list] = {}
        self.executors = {}
        self.rngs: dict[int, random.Random] = {}
        self.point_selects = 0
        self.mismatches = 0
        self.mismatch_examples: list[str] = []

    def config(self, **observability) -> ClusterConfig:
        # Link jitter keeps simulated latencies from collapsing onto one
        # value: without it every local point-select takes exactly the
        # same time, and so does the median.
        topology = dataclasses.replace(three_city(), jitter_ns=us(10))
        return ClusterConfig.globaldb(topology, seed=self.seed,
                                      **observability)

    def load(self, db) -> None:
        self.ro_tpcc.setup(db)
        rng = random.Random(derive(self.seed, 44))
        regions = list(db.config.topology.regions)
        self.local_keys = {region: [] for region in regions}
        self.remote_keys = {region: [] for region in regions}
        for index in range(1, self.tables + 1):
            table = f"kv{index}"
            db.create_table_offline(TableSchema(
                name=table,
                columns=[ColumnDef("id", "int"), ColumnDef("val", "int"),
                         ColumnDef("n", "int")],
                primary_key=("id",)))
            rows = [{"id": row_id, "val": rng.randrange(1_000_000), "n": 0}
                    for row_id in range(1, self.rows_per_table + 1)]
            db.bulk_load(table, rows)
            for row in rows:
                self.expected[(table, row["id"])] = row["val"]
                home = db.primaries[
                    db.shard_map.shard_for_value(table, row["id"])].region
                for region in regions:
                    bucket = (self.local_keys if home == region
                              else self.remote_keys)
                    bucket[region].append((table, row["id"]))
            # Prepared once; the executor caches the point plan on the AST.
            self.statements[table] = parse(
                f"SELECT val FROM {table} WHERE id = ?")
        self.executors = {cn.name: SqlExecutor(cn) for cn in db.cns}

    def _rng(self, terminal_id: int) -> random.Random:
        rng = self.rngs.get(terminal_id)
        if rng is None:
            rng = self.rngs[terminal_id] = random.Random(
                derive(self.seed, 45) * 7919 + terminal_id)
        return rng

    def transaction(self, cn, terminal_id: int):
        rng = self._rng(terminal_id)
        draw = rng.random()
        if draw < self.update_pct:
            table, row_id = rng.choice(self.local_keys[cn.region])
            ctx = yield from cn.g_begin()
            yield from cn.g_update(ctx, table, (row_id,), {
                "n": lambda value: (value or 0) + 1})
            yield from cn.g_commit(ctx)
            return "update"
        if draw < self.update_pct + self.ro_tpcc_pct:
            return (yield from self.ro_tpcc.transaction(cn, terminal_id))
        keys = (self.remote_keys if rng.random() < self.remote_pct
                else self.local_keys)[cn.region]
        table, row_id = rng.choice(keys)
        rows = yield from self.executors[cn.name].g_execute(
            self.statements[table], (row_id,))
        self.point_selects += 1
        expected = [{"val": self.expected[(table, row_id)]}]
        if rows != expected:
            self.mismatches += 1
            if len(self.mismatch_examples) < 5:
                self.mismatch_examples.append(
                    f"{table}[{row_id}]: got {rows!r}, loaded {expected!r}")
        return "point_select"

    def check(self, db) -> list[str]:
        """Every point-select returned its loaded value."""
        errors = list(self.mismatch_examples)
        if self.mismatches:
            errors.append(f"{self.mismatches} of {self.point_selects} "
                          f"point-selects returned a wrong value")
        if not self.point_selects:
            errors.append("no point-selects ran")
        return errors

    def counts(self, db) -> dict:
        return {"sql.point_selects": self.point_selects}


class HotRows(Workload):
    """Bank transfers on One-Region with 90% of picks from 4 of 32 accounts
    and 10% multi-shard audits. Starts in GTM mode and migrates to GClock
    through DUAL at the window midpoint."""

    name = "hot-rows"
    parts = 3
    terminals = 32
    warmup_s = 0.5
    window_s = 2.0
    accounts = 32
    initial_balance = 1000

    def __init__(self, seed: int):
        self.seed = seed
        self.bank = BankWorkload(BankConfig(
            accounts=self.accounts, initial_balance=self.initial_balance,
            read_fraction=0.1, hot_fraction=0.9, hot_accounts=4,
            seed=derive(seed, 46)))
        self.migration = None

    def config(self, **observability) -> ClusterConfig:
        # ROR off: audits read primaries at a GTM snapshot, so this
        # workload bypasses replica routing.
        return ClusterConfig.globaldb(one_region(), seed=self.seed,
                                      txn_mode=TxnMode.GTM,
                                      ror_enabled=False, **observability)

    def load(self, db) -> None:
        self.bank.setup(db)

    def transaction(self, cn, terminal_id: int):
        return (yield from self.bank.transaction(cn, terminal_id))

    def midpoint(self, db) -> None:
        self.migration = db.start_migration_to_gclock()

    def check(self, db):
        """Generator: balances at one snapshot sum to the money loaded, and
        the GTM -> GClock migration finished."""
        rows = yield from read_one_snapshot(
            db.cns[0], ["bank"],
            [("bank", (account,)) for account in range(self.accounts)])
        errors = []
        self.snapshot = [row and row["balance"] for row in rows]
        if any(row is None for row in rows):
            errors.append("bank rows missing")
        else:
            total = sum(row["balance"] for row in rows)
            if total != self.accounts * self.initial_balance:
                errors.append(f"balances sum to {total}, expected "
                              f"{self.accounts * self.initial_balance}")
        if self.migration is None or not self.migration.triggered:
            errors.append("migration to GClock did not finish")
        elif db.gtm.mode is not TxnMode.GCLOCK:
            errors.append(f"cluster ended in {db.gtm.mode} mode")
        return errors

    def counts(self, db) -> dict:
        report = self.migration.value if (
            self.migration is not None and self.migration.triggered) else None
        return {
            "txn.migration_ns": report.duration_ns if report else 0,
            "txn.cutover_aborts": sum(node.provider.stats.aborts_on_cutover
                                      for node in db.all_nodes()),
        }


WORKLOADS = {cls.name: cls for cls in (TpccGeo, RorReads, HotRows)}
