"""The repository benchmark: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload tpcc-geo --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table

Each run is a sequence of episodes, each in a fresh process (see
``episode.py``): set-up, then a measured window of fixed simulated length.
With ``--trace 0`` a run covers the workload's ``parts`` input sets, all
derived from ``--seed``, once each; then part 0 again under the other
PYTHONHASHSEED value, and further repeats until ``--seconds`` host seconds
of window have been measured. Simulated metrics pool the parts' samples;
host metrics are medians over all episodes (``txn_per_host_s`` over
every timed slice of every episode's window). Every repeat of a part must
reproduce its simulated metrics and work counters bit for bit. With
``--trace 1`` part 0 runs untraced and then traced; the traced episode
reports the per-layer metrics, and the two must agree on every simulated
metric and counter, which shows the layer wrappers are passive.

Every output check and determinism comparison that fails makes the run
print ``"correct": false`` and exit 1. The last line of standard output is
the JSON result; the metric names and units are the ones BENCHMARK.json
lists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EPISODE = os.path.join(HERE, "episode.py")
HASH_SEEDS = ("0", "1")
MAX_EPISODES = 10
#: Host seconds after which no further episode starts, so that a run ends
#: well within the 180 s a run may take even on a slow host.
EPISODE_DEADLINE_S = 100.0
EPISODE_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    """A run that cannot produce a result."""


def part_seed(seed: int, part: int) -> int:
    """The input seed of one part of a run."""
    return seed * 1009 + part


def run_episode(workload: str, seed: int, part: int, hash_seed: str,
                spans: str | None = None) -> dict:
    command = [sys.executable, EPISODE, "--workload", workload,
               "--seed", str(part_seed(seed, part))]
    if spans:
        command += ["--trace", spans]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} episode timed out") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchmarkError(f"{workload} episode exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(part=part, hash_seed=hash_seed)
    return result


def deterministic_mismatches(episodes: list[dict]) -> list[str]:
    """Differences between repeats of one part."""
    first: dict[int, dict] = {}
    problems = []
    for episode in episodes:
        det = episode["deterministic"]
        reference = first.setdefault(episode["part"], det)
        for key in sorted(set(reference) | set(det)):
            if reference.get(key) != det.get(key):
                problems.append(
                    f"part {episode['part']} under PYTHONHASHSEED="
                    f"{episode['hash_seed']}, traced={episode['traced']}: "
                    f"{key} differs")
    return problems


def reference_s(host_s: float, before: float, after: float) -> float:
    """Host seconds in reference seconds, by the calibration loop's times
    just before and just after the interval (see calibration.py)."""
    from calibration import REFERENCE_S

    return host_s * REFERENCE_S / ((before + after) / 2)


def slice_reference_s(episode: dict) -> list[float]:
    """Each window slice's host time, in reference seconds."""
    calibration = episode["slice_calibration_s"]
    return [reference_s(host, calibration[index], calibration[index + 1])
            for index, host in enumerate(episode["slice_host_s"])]


def slice_rates(episode: dict) -> list[float]:
    """Committed transactions per reference second, per window slice."""
    return [done / seconds for done, seconds in zip(
        episode["deterministic"]["slice_done"], slice_reference_s(episode))]


def end_to_end(episodes: list[dict], window_s: float) -> tuple[dict, dict]:
    """Metric values, and the sample count behind each."""
    from repro.workloads.driver import WorkloadStats

    parts = {episode["part"]: episode["deterministic"]
             for episode in episodes}
    pooled = WorkloadStats(
        committed=sum(det["committed"] for det in parts.values()),
        latencies_ns=[latency for det in parts.values()
                      for latency in det["latencies_ns"]])
    rates = [rate for episode in episodes for rate in slice_rates(episode)]
    values = {
        "txn_per_host_s": statistics.median(rates),
        "setup_s": statistics.median(
            reference_s(e["setup_s"], *e["setup_calibration_s"])
            for e in episodes),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in episodes),
        "sim_tps": pooled.committed / (window_s * len(parts)),
        "sim_p50_ms": pooled.latency_percentile_ms(50),
        "sim_p99_ms": pooled.latency_percentile_ms(99),
    }
    samples = {name: len(episodes) for name in ("setup_s", "peak_rss_mb")}
    samples["txn_per_host_s"] = len(rates)
    samples.update(sim_tps=pooled.committed, sim_p50_ms=pooled.committed,
                   sim_p99_ms=pooled.committed)
    return values, samples


def per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    rates = slice_rates(untraced)
    quarter = len(rates) // 4
    values["workloads.host_rate_late_over_early"] = (
        statistics.median(rates[-quarter:])
        / statistics.median(rates[:quarter]))
    values["trace.overhead_pct"] = 100 * (
        sum(slice_reference_s(traced)) / sum(slice_reference_s(untraced))
        - 1)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    from bench_workloads import WORKLOADS

    started = time.monotonic()
    parts = WORKLOADS[workload].parts
    if trace:
        spans = os.path.join(ROOT, ".perfbench",
                             f"spans-{workload}-seed{seed}.jsonl")
        episodes = [run_episode(workload, seed, 0, HASH_SEEDS[0]),
                    run_episode(workload, seed, 0, HASH_SEEDS[1], spans)]
    else:
        # Every part once, then part 0 under the other hash seed, then
        # repeats while the measured window is shorter than ``seconds``.
        episodes = []
        while len(episodes) <= parts or (
                sum(e["window_host_s"] for e in episodes) < seconds
                and len(episodes) < MAX_EPISODES
                and time.monotonic() - started < EPISODE_DEADLINE_S):
            index = len(episodes)
            part = index % parts
            hash_seed = HASH_SEEDS[(index // parts) % len(HASH_SEEDS)]
            episodes.append(run_episode(workload, seed, part, hash_seed))

    errors = [f"output check: {error}" for episode in episodes
              for error in episode["errors"]]
    errors += [f"determinism: {problem}"
               for problem in deterministic_mismatches(episodes)]
    if trace:
        wanted = spec["per_layer"]
        values = per_layer(episodes[0], episodes[1])
        samples = {}
        counted = episodes[:1]
    else:
        wanted = spec["end_to_end"]
        values, samples = end_to_end(episodes, WORKLOADS[workload].window_s)
        counted = episodes[:parts]
    missing = [metric["name"] for metric in wanted
               if metric["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in wanted}
    return {
        "correct": not errors,
        "attempted": sum(e["deterministic"]["attempted"] for e in counted),
        "failed": sum(e["deterministic"]["failed"] for e in counted),
        "metrics": metrics,
        "errors": errors,
        "samples": samples,
        "episodes": len(episodes),
        "host_s": time.monotonic() - started,
    }


def describe(workload: str, result: dict) -> list[str]:
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"== {workload}: {result['episodes']} episodes in "
             f"{result['host_s']:.1f} host-s",
             f"  {'failed_pct':32s} {100 * failed / attempted:12.4f} % "
             f"({failed} of {attempted} attempted)"]
    for name, metric in result["metrics"].items():
        count = result["samples"].get(name)
        suffix = f" (n={count})" if count is not None else ""
        lines.append(f"  {name:32s} {metric['value']:12.4f} "
                     f"{metric['unit']}{suffix}")
    lines += [f"  ERROR {error}" for error in result["errors"]]
    return lines


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(spec_path) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "manifest.json")) as handle:
        manifest = json.load(handle)
    listed = {metric["name"] for metric in spec["per_layer"]}
    unmapped = [name for entry in manifest["layer_map"]
                for name in entry["metrics"] if name not in listed]
    if unmapped:
        print(f"manifest.json maps metrics BENCHMARK.json does not list: "
              f"{unmapped}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    from bench_workloads import WORKLOADS

    parser.add_argument("--workload", default="all",
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=manifest["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), spec)
        except BenchmarkError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(name, results[name])), flush=True)
    correct = all(result["correct"] for result in results.values())
    if args.workload == "all":
        print(json.dumps({"correct": correct, "workloads": {
            name: {key: result[key] for key in
                   ("correct", "attempted", "failed", "metrics")}
            for name, result in results.items()}}))
    else:
        result = results[args.workload]
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
