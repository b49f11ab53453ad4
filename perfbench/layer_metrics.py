"""Per-layer metrics of a traced episode.

Counts come from the program's own counters (``deterministic``) and from
the wrappers' call counts; host times are layer self times from the
:class:`~layertrace.LayerTracer`. Every ratio is reported next to its
base, and a layer the workload does not use reports zeros.
"""

from __future__ import annotations

import statistics

from layertrace import LAYERS

#: Storage engine calls that write a row version, and that read; the data
#: nodes call these (never ``read``, which ``read_waiting`` wraps).
STORAGE_WRITES = ("StorageEngine.insert", "StorageEngine.update",
                  "StorageEngine.delete")
STORAGE_READS = ("StorageEngine.read_waiting", "StorageEngine.scan",
                 "StorageEngine.lookup_index")
#: Finding the version a write targets is write work too, also when a data
#: node does it before the write (read-for-update, read-modify-write).
WRITE_PATH = STORAGE_WRITES + ("StorageEngine._current_for_write",)
VACUUM = ("StorageEngine.vacuum", "vacuum_tables")
#: CommitLog lookups (visibility and write-target resolution).
CLOG_PROBES = ("CommitLog.status", "CommitLog.known", "CommitLog.commit_ts",
               "CommitLog.is_committed_before")


def _per(value, base):
    return value / base if base else 0.0


def _p50_ms(values_ns) -> float:
    values = list(values_ns)
    return statistics.median_low(values) / 1e6 if values else 0.0


def layer_metrics(tracer, db, tracker, det: dict) -> dict:
    from repro.obs import RunReport

    self_ns = tracer.layer_self_ns()
    total_ns = sum(self_ns.values())
    txns = det["committed"]

    def us_per(layer_ns, base):
        return _per(layer_ns / 1e3, base)

    writes = tracer.calls_of(*STORAGE_WRITES)
    reads = tracer.calls_of(*STORAGE_READS)
    routes = tracer.calls_of("ComputingNode._choose_read_node")
    statements = tracer.calls_of("SqlExecutor.g_execute")
    statements_cn = tracer.calls_of("ComputingNode._statement")
    eligible = det["replica_reads"] + det["primary_reads"]

    # Simulated waiting per read-write commit, from the repro.obs spans
    # of the window (only enabled in the traced episode).
    start, end = tracker.window
    report = RunReport.capture(db)
    window_txns = [txn for txn in report.transactions if start <= txn.end < end]

    metrics = {
        "trace.window_host_s": total_ns / 1e9,
        "trace.dropped_spans": tracer.dropped_spans,
        "txns": txns,
        "sim.kernel.events": det["events"],
        "sim.kernel.events_per_txn": _per(det["events"], txns),
        "sim.kernel.host_us_per_event": us_per(self_ns["sim.kernel"],
                                               det["events"]),
        "sim.network.msgs": det["msgs"],
        "sim.network.msgs_per_txn": _per(det["msgs"], txns),
        "sim.network.bytes_per_txn": _per(det["net_bytes"], txns),
        "sim.network.dropped": det["dropped"],
        "sim.network.host_us_per_msg": us_per(self_ns["sim.network"],
                                              det["msgs"]),
        "cluster.cn.statements": statements_cn,
        "cluster.cn.statements_per_txn": _per(statements_cn, txns),
        "cluster.cn.host_us_per_txn": us_per(self_ns["cluster.cn"], txns),
        "cluster.dn.ops": det["dn_ops"],
        "cluster.dn.ops_per_txn": _per(det["dn_ops"], txns),
        "cluster.dn.host_us_per_op": us_per(self_ns["cluster.dn"],
                                            det["dn_ops"]),
        "storage.writes": writes,
        "storage.reads": reads,
        "storage.host_us_per_write": us_per(
            tracer.self_ns_of("storage", *WRITE_PATH), writes),
        "storage.host_us_per_read": us_per(
            tracer.self_ns_of("storage", *STORAGE_READS), reads),
        "storage.clog_probes_per_txn": _per(tracer.calls_of(*CLOG_PROBES),
                                            txns),
        "storage.lock_waits_per_txn": _per(det["lock_waits"], txns),
        "storage.lock_timeouts": det["lock_timeouts"],
        "storage.deadlocks": det["deadlocks"],
        "storage.wal_bytes_per_txn": _per(det["wal_bytes"], txns),
        "storage.versions_vacuumed": det["versions_vacuumed"],
        "storage.vacuum_host_s": tracer.self_ns_of("storage", *VACUUM) / 1e9,
        "txn.gtm.requests": det["gtm_requests"],
        "txn.gtm.requests_per_txn": _per(det["gtm_requests"], txns),
        "txn.gtm.batch_size": _per(det["gtm_windowed_requests"],
                                   det["gtm_windows"]),
        "txn.ts_acquire_ms_p50": _p50_ms(txn.begin for txn in window_txns),
        "txn.rw_commits_traced": len(window_txns),
        "txn.cutover_aborts": det.get("txn.cutover_aborts", 0),
        "txn.migration_ms": det.get("txn.migration_ns", 0) / 1e6,
        "txn.host_us_per_txn": us_per(self_ns["txn"], txns),
        "clocks.commit_waits": det["commit_waits"],
        "clocks.commit_wait_ms_mean": _per(det["commit_wait_ns"] / 1e6,
                                           det["commit_waits"]),
        "clocks.syncs": det["syncs"],
        "clocks.failed_syncs": det["failed_syncs"],
        "replication.flushes_per_txn": _per(det["flushes"], txns),
        "replication.wire_bytes_per_txn": _per(det["wire_bytes"], txns),
        "replication.compression_ratio": _per(det["payload_bytes"],
                                              det["wire_bytes"]),
        "replication.records_applied": det["records_applied"],
        "replication.records_applied_per_txn": _per(det["records_applied"],
                                                    txns),
        "replication.host_us_per_record": us_per(self_ns["replication"],
                                                 det["records_applied"]),
        "replication.flush_ack_ms_p50": _p50_ms(
            txn.flush for txn in window_txns),
        "ror.replica_reads": det["replica_reads"],
        "ror.eligible_reads": eligible,
        "ror.replica_read_pct": 100 * _per(det["replica_reads"], eligible),
        "ror.rcp_lag_ms": det["rcp_lag_ns_mean"] / 1e6,
        "ror.read_staleness_ms_p50": det["read_staleness_ns_p50"] / 1e6,
        "ror.staleness_samples": det["staleness_samples"],
        "ror.rcp_polls": det["rcp_polls"],
        "ror.failed_probes": det["failed_probes"],
        "ror.routes": routes,
        "ror.host_us_per_route": us_per(self_ns["ror"], routes),
        "sql.statements": statements,
        "sql.parses": tracer.calls_of("repro.sql.parser.parse"),
        "sql.host_us_per_stmt": us_per(self_ns["sql"], statements),
        "workloads.driver_host_share": _per(self_ns["workloads"], total_ns),
    }
    for layer in LAYERS:
        if layer == "workloads":
            continue
        metrics[f"{layer}.host_self_share"] = _per(self_ns[layer], total_ns)
    return metrics
