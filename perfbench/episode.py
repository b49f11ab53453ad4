"""One benchmark episode, run in a process of its own.

    python3 perfbench/episode.py --workload NAME --seed N [--trace SPANS]

``--seed`` is the input seed of this episode (the runner derives one per
part of a run).

Builds the cluster, loads data and runs the simulated warm-up (the set-up
time), then runs the measured window of ``window_s`` simulated seconds in
``SLICES`` equal slices, timing each, then checks the program's outputs.
The calibration loop (``calibration.py``) is timed before the set-up and
after the set-up and every slice. Prints one JSON object:
host timings, peak RSS, and a ``deterministic`` block of simulated
metrics and work counters that must be bit-identical for one seed.

With ``--trace`` the layer wrappers are installed before the cluster is
built, ``repro.obs`` metrics and spans are enabled for the commit-latency
breakdown, and the per-layer metrics are added under ``layers``; the
layer spans of the window are written to SPANS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.errors import TransactionAborted  # noqa: E402
from repro.sim.network import NetworkStats  # noqa: E402
from repro.sim.units import SECOND  # noqa: E402
from repro.workloads.driver import WorkloadStats  # noqa: E402

import bench_workloads  # noqa: E402
from calibration import calibrate  # noqa: E402

#: The window is run and timed in this many slices of equal simulated
#: length; the host rate is taken per slice.
SLICES = 8
#: Kinds of transaction that are read-only queries (their RCP staleness is
#: sampled).
READ_ONLY_KINDS = ("point_select", "order_status", "stock_level", "read")


def counters(db, tracker) -> dict:
    """Cumulative work counters read from the program's own state."""
    nodes = db.all_nodes()
    dns = list(db.primaries) + [replica for replicas in db.replicas.values()
                                for replica in replicas]
    engines = [primary.engine for primary in db.primaries if primary.engine]
    # The RCP collector a CN hosts has no public accessor.
    collectors = [cn._collector for cn in db.cns if cn._collector]
    network = db.network
    return {
        "events": db.env.events_scheduled,
        "msgs": network.messages_delivered,
        "dropped": network.messages_dropped,
        "net_bytes": sum(NetworkStats.capture(network).bytes_by_link.values()),
        "dn_ops": sum(dn.ops_served for dn in dns),
        "lock_waits": sum(engine.locks.wait_count for engine in engines),
        "lock_timeouts": sum(engine.locks.timeout_count for engine in engines),
        "deadlocks": sum(engine.locks.deadlock_count for engine in engines),
        "wal_bytes": sum(engine.wal.bytes_written for engine in engines),
        "versions_vacuumed": sum(dn.versions_vacuumed for dn in dns),
        "gtm_requests": db.gtm.begin_requests + db.gtm.commit_requests,
        "gtm_windows": db.gtm.windows_served,
        "gtm_windowed_requests": db.gtm.windowed_requests,
        "syncs": sum(node.sync.sync_count for node in nodes),
        "failed_syncs": sum(node.sync.failed_syncs for node in nodes),
        "commit_waits": sum(node.provider.stats.commit_waits
                            for node in nodes),
        "commit_wait_ns": sum(node.provider.stats.commit_wait_ns_total
                              for node in nodes),
        "flushes": sum(shipper.flushes for shipper in db.shippers),
        "wire_bytes": sum(shipper.wire_bytes_total for shipper in db.shippers),
        "payload_bytes": sum(shipper.payload_bytes_total
                             for shipper in db.shippers),
        "records_applied": sum(dn.store.records_applied for dn in dns
                               if dn.store is not None),
        "replica_reads": sum(cn.ror_reads for cn in db.cns),
        "primary_reads": sum(cn.primary_fallback_reads for cn in db.cns),
        "ro_queries": sum(cn.read_only_queries for cn in db.cns),
        "rcp_polls": sum(collector.polls for collector in collectors),
        "failed_probes": sum(collector.failed_probes
                             for collector in collectors),
        "staleness_samples": len(tracker.staleness_ns),
    }


class Tracker:
    """What the terminals record: latencies and outcomes in the window,
    completions per slice, and RCP age samples for read-only queries."""

    def __init__(self):
        self.stats = WorkloadStats()
        self.window = (0, 0)
        self.slice_done = [0] * SLICES
        self.slice_ns = 1
        self.staleness_ns: list[int] = []
        self.rcp_lag_ns: list[int] = []


def terminal(env, db, workload, terminal_id: int, tracker: Tracker, stop):
    """Closed loop, no think time."""
    cn = db.cns[terminal_id % len(db.cns)]
    sample_rcp = cn.config.ror_enabled
    primaries = db.primaries
    while not stop[0]:
        started = env.now
        if sample_rcp:
            rcp = cn.rcp_state.rcp
        try:
            kind = yield from workload.transaction(cn, terminal_id)
            ok = True
        except TransactionAborted:
            kind, ok = "aborted", False
        now = env.now
        start, end = tracker.window
        if start <= now < end:
            tracker.stats.record(kind, now - started, ok)
            if ok:
                tracker.slice_done[(now - start) // tracker.slice_ns] += 1
            if sample_rcp and kind in READ_ONLY_KINDS:
                tracker.staleness_ns.append(started - rcp)
                frontier = max(primary.engine.last_commit_ts
                               for primary in primaries)
                tracker.rcp_lag_ns.append(max(0, frontier - rcp))


def run_episode(name: str, seed: int, spans_path: str | None) -> dict:
    workload = bench_workloads.WORKLOADS[name](seed)
    tracer = None
    observability = {}
    if spans_path:
        from layertrace import LayerTracer
        tracer = LayerTracer()
        tracer.install({__file__: "workloads",
                        bench_workloads.__file__: "workloads"})
        observability = {"metrics_enabled": True, "trace_enabled": True}
    from repro import build_cluster

    setup_calibration = [calibrate()]
    setup_started = time.perf_counter()
    db = build_cluster(workload.config(**observability))
    env = db.env
    if tracer:
        tracer.env = env
    workload.load(db)
    tracker = Tracker()
    stop = [False]
    window_ns = round(workload.window_s * SECOND)
    start = env.now + round(workload.warmup_s * SECOND)
    tracker.window = (start, start + window_ns)
    tracker.slice_ns = window_ns // SLICES
    for terminal_id in range(workload.terminals):
        env.process(terminal(env, db, workload, terminal_id, tracker, stop),
                    name=f"terminal-{terminal_id}")
    env.run(until=start)
    setup_s = time.perf_counter() - setup_started
    slice_calibration = [calibrate()]
    setup_calibration.append(slice_calibration[0])

    before = counters(db, tracker)
    if tracer:
        tracer.start_window(env)
    slice_host_s = []
    for index in range(SLICES):
        if index == SLICES // 2:
            workload.midpoint(db)
        slice_started = time.perf_counter()
        env.run(until=start + (index + 1) * tracker.slice_ns)
        slice_host_s.append(time.perf_counter() - slice_started)
        slice_calibration.append(calibrate())
    if tracer:
        tracer.stop_window()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = counters(db, tracker)

    stop[0] = True
    check = workload.check(db)
    errors = (env.run(until=env.process(check, name="check"))
              if hasattr(check, "send") else check)

    stats = tracker.stats
    delta = {key: after[key] - before[key] for key in after}
    deterministic = {
        "attempted": stats.committed + stats.aborted,
        "committed": stats.committed,
        "failed": stats.aborted,
        "sim_tps": stats.committed / workload.window_s,
        "sim_p50_ms": stats.latency_percentile_ms(50),
        "sim_p99_ms": stats.latency_percentile_ms(99),
        "slice_done": tracker.slice_done,
        "read_staleness_ns_p50": (statistics.median_low(tracker.staleness_ns)
                                  if tracker.staleness_ns else 0),
        "rcp_lag_ns_mean": (sum(tracker.rcp_lag_ns) / len(tracker.rcp_lag_ns)
                            if tracker.rcp_lag_ns else 0.0),
        "latencies_ns": stats.latencies_ns,
        **delta,
        **workload.counts(db),
        "check_snapshot": workload.snapshot,
    }
    result = {
        "workload": name, "seed": seed, "traced": bool(tracer),
        "setup_s": setup_s,
        "window_host_s": sum(slice_host_s),
        "slice_host_s": slice_host_s,
        "setup_calibration_s": setup_calibration,
        "slice_calibration_s": slice_calibration,
        "peak_rss_mb": peak_rss_mb,
        "deterministic": deterministic,
        "errors": errors,
    }
    if tracer:
        from layer_metrics import layer_metrics
        result["layers"] = layer_metrics(tracer, db, tracker, deterministic)
        tracer.write_spans(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS",
                        help="trace layers and write window spans here")
    args = parser.parse_args(argv)
    result = run_episode(args.workload, args.seed, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
