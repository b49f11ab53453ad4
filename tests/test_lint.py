"""simlint: per-rule fixtures, pragmas, baseline, reporters, CLI, harness.

Every rule gets at least one flagging and one non-flagging fixture; the
repo itself must lint clean; and re-introducing the PR-1 ``locks.py`` bug
(set-order lock release) must trip SIM103.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (
    Baseline,
    default_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.lint.determinism import run_perturbation, smoke_run
from repro.lint.rules import module_name_for

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def findings_for(source, rule=None, path="fixture.py", module_name=None):
    rules = default_rules(select=[rule] if rule else None)
    return lint_source(textwrap.dedent(source), path=path, rules=rules,
                       module_name=module_name)


def codes(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# SIM101 — wall-clock reads
# ----------------------------------------------------------------------
class TestWallClock:
    def test_flags_time_time(self):
        found = findings_for("""
            import time
            started = time.time()
        """, rule="SIM101")
        assert codes(found) == ["SIM101"]
        assert "time.time" in found[0].message

    def test_flags_from_import_and_datetime(self):
        found = findings_for("""
            from time import perf_counter
            from datetime import datetime
            a = perf_counter()
            b = datetime.now()
        """, rule="SIM101")
        assert codes(found) == ["SIM101", "SIM101"]

    def test_env_now_and_unrelated_time_are_clean(self):
        found = findings_for("""
            import time
            def g_run(env):
                now = env.now
                yield env.timeout(time.hour_ns if False else 5)
            duration = 3.0  # a variable named time.time is not a call
        """, rule="SIM101")
        assert found == []

    def test_local_object_named_time_is_clean(self):
        # A non-imported binding shadowing the module name must not match.
        found = findings_for("""
            time = make_clock()
            t = time.time()
        """, rule="SIM101")
        assert found == []


# ----------------------------------------------------------------------
# SIM102 — unseeded randomness
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_flags_module_level_function(self):
        found = findings_for("""
            import random
            jitter = random.random()
        """, rule="SIM102")
        assert codes(found) == ["SIM102"]

    def test_flags_unseeded_and_system_random(self):
        found = findings_for("""
            import random
            a = random.Random()
            b = random.SystemRandom()
        """, rule="SIM102")
        assert codes(found) == ["SIM102", "SIM102"]

    def test_seeded_random_is_clean(self):
        found = findings_for("""
            import random
            rng = random.Random(42)
            value = rng.random()
        """, rule="SIM102")
        assert found == []

    def test_allowlisted_module_is_clean(self):
        found = findings_for("""
            import random
            x = random.getrandbits(64)
        """, rule="SIM102", module_name="repro.sim.rand")
        assert found == []


# ----------------------------------------------------------------------
# SIM103 — set iteration order
# ----------------------------------------------------------------------
class TestSetIteration:
    def test_flags_direct_set_call(self):
        found = findings_for("""
            for item in set(items):
                schedule(item)
        """, rule="SIM103")
        assert codes(found) == ["SIM103"]

    def test_flags_annotated_local(self):
        found = findings_for("""
            def release(held):
                keys: set = held
                for key in keys:
                    wake(key)
        """, rule="SIM103")
        assert codes(found) == ["SIM103"]

    def test_flags_nested_dict_annotation(self):
        # The storage/heap.py shape: dict[str, dict[Any, set]] buckets.
        found = findings_for("""
            import typing
            class Table:
                def __init__(self):
                    self._indexes: dict[str, dict[typing.Any, set]] = {}
                def lookup(self, column, value):
                    index = self._indexes.get(column)
                    rows = [key for key in index.get(value, ())]
                    return rows
        """, rule="SIM103")
        assert codes(found) == ["SIM103"]

    def test_sorted_iteration_is_clean(self):
        found = findings_for("""
            def release(self, txid):
                for lock_key in sorted(self._held.pop(txid, set()), key=repr):
                    self._release_one(lock_key)
        """, rule="SIM103")
        assert found == []

    def test_membership_and_len_are_clean(self):
        found = findings_for("""
            seen: set = set()
            if "x" in seen:
                pass
            n = len(seen)
            copy = set(seen)
        """, rule="SIM103")
        assert found == []

    def test_set_comprehension_over_set_is_clean(self):
        # set -> set never leaks iteration order.
        found = findings_for("""
            homes = {pick(w) for w in range(50)}
            regions = {region_of(w) for w in homes}
        """, rule="SIM103")
        assert found == []

    def test_list_comprehension_over_set_is_flagged(self):
        found = findings_for("""
            homes: set = discover()
            ordered = [region_of(w) for w in homes]
        """, rule="SIM103")
        assert codes(found) == ["SIM103"]

    def test_list_conversion_of_set_flagged(self):
        found = findings_for("""
            shards = {1, 2, 3}
            ordered = list(shards)
        """, rule="SIM103")
        assert codes(found) == ["SIM103"]

    def test_reintroducing_pr1_locks_bug_is_flagged(self):
        """Un-sorting the lock-release loop (the actual PR-1 bug) must
        trip SIM103 — the rule guards a real scheduling path."""
        locks_path = os.path.join(SRC_DIR, "repro", "storage", "locks.py")
        with open(locks_path, encoding="utf-8") as handle:
            source = handle.read()
        fixed = "for lock_key in sorted(self._held.pop(txid, set()), key=repr):"
        assert fixed in source, "locks.py release loop changed; update test"
        buggy = source.replace(
            fixed, "for lock_key in self._held.pop(txid, set()):")
        assert codes(findings_for(buggy, rule="SIM103")) == ["SIM103"]
        # ... and the current, fixed source is clean.
        assert findings_for(source, rule="SIM103") == []


# ----------------------------------------------------------------------
# SIM104 — dropped generator-process calls
# ----------------------------------------------------------------------
class TestDroppedGenerator:
    def test_flags_bare_statement(self):
        found = findings_for("""
            def run(cn, ctx):
                cn.g_commit(ctx)
        """, rule="SIM104")
        assert codes(found) == ["SIM104"]
        assert "g_commit" in found[0].message

    def test_yield_from_and_process_are_clean(self):
        found = findings_for("""
            def g_run(env, cn, ctx):
                result = yield from cn.g_commit(ctx)
                env.process(cn.g_abort(ctx))
                yield from cn.g_begin()
                return result
        """, rule="SIM104")
        assert found == []


# ----------------------------------------------------------------------
# SIM105 — blocking calls in sim generators
# ----------------------------------------------------------------------
class TestBlockingInGenerator:
    def test_flags_sleep_in_generator(self):
        found = findings_for("""
            import time
            def g_worker(env):
                time.sleep(0.1)
                yield env.timeout(5)
        """, rule="SIM105")
        assert codes(found) == ["SIM105"]

    def test_flags_socket_in_generator(self):
        found = findings_for("""
            import socket
            def poller(env):
                conn = socket.create_connection(("host", 80))
                yield env.timeout(5)
        """, rule="SIM105")
        assert codes(found) == ["SIM105"]

    def test_sleep_outside_generator_is_clean(self):
        found = findings_for("""
            import time
            def host_side_wait():
                time.sleep(0.1)
        """, rule="SIM105")
        assert found == []

    def test_local_dict_named_requests_is_clean(self):
        # ror/rcp.py shape: a local variable named `requests` is not the
        # requests library.
        found = findings_for("""
            def g_poll(env, nodes):
                requests = {node: send(node) for node in nodes}
                yield env.all_of(list(requests.values()))
                for node, request in requests.items():
                    handle(node, request.value)
        """, rule="SIM105")
        assert found == []


# ----------------------------------------------------------------------
# SIM106 — mutable default arguments
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_flags_literal_and_factory(self):
        found = findings_for("""
            def enqueue(item, queue=[], registry={}):
                queue.append(item)
            def track(key, *, seen=set()):
                seen.add(key)
        """, rule="SIM106")
        assert codes(found) == ["SIM106", "SIM106", "SIM106"]

    def test_none_default_is_clean(self):
        found = findings_for("""
            def enqueue(item, queue=None, limit=10, name="q"):
                queue = [] if queue is None else queue
        """, rule="SIM106")
        assert found == []


# ----------------------------------------------------------------------
# SIM112 — hot-path dispatch hazards
# ----------------------------------------------------------------------
class TestHotPathDispatch:
    def test_flags_heapq_import_outside_sim(self):
        found = findings_for("""
            import heapq
            from heapq import heappush, heappop
        """, rule="SIM112", module_name="repro.storage.wal")
        assert codes(found) == ["SIM112", "SIM112"]

    def test_heapq_allowed_inside_sim_kernel(self):
        found = findings_for("""
            from heapq import heappop, heappush
        """, rule="SIM112", module_name="repro.sim.core")
        assert found == []

    def test_flags_per_event_fstring_getattr(self):
        found = findings_for("""
            class Node:
                def on_message(self, kind, request):
                    handler = getattr(self, f"_handle_{kind}", None)
                    if hasattr(self, "_pre_" + kind):
                        handler(request)
        """, rule="SIM112", module_name="repro.cluster.custom")
        assert codes(found) == ["SIM112", "SIM112"]

    def test_precomputed_handler_dict_is_clean(self):
        found = findings_for("""
            class Node:
                def __init__(self):
                    self._handlers = {
                        attr[len("_handle_"):]: getattr(self, attr)
                        for attr in dir(self)
                        if attr.startswith("_handle_")
                    }

                def on_message(self, kind, request):
                    self._handlers[kind](request)
        """, rule="SIM112", module_name="repro.cluster.custom")
        assert found == []

    def test_constant_getattr_is_clean(self):
        found = findings_for("""
            class Node:
                def probe(self, other):
                    return getattr(other, "applied_lsn", 0)
        """, rule="SIM112", module_name="repro.cluster.custom")
        assert found == []


# ----------------------------------------------------------------------
# SIM113 — uncancellable timer guards
# ----------------------------------------------------------------------
class TestTimerGuard:
    def test_flags_timeout_only_passed_to_add_callback(self):
        # The shape RPC and lock-wait timeouts had before env.cancel.
        found = findings_for("""
            class Network:
                def _arm_timeout(self, reply_event, timeout_ns, dst):
                    timer = self.env.timeout(timeout_ns)

                    def on_timer(_ev):
                        if not reply_event.triggered:
                            reply_event.fail(RuntimeError(dst))

                    timer.add_callback(on_timer)
        """, rule="SIM113")
        assert codes(found) == ["SIM113"]
        assert found[0].line == 4

    def test_flags_chained_add_callback(self):
        found = findings_for("""
            def guard(env, done):
                env.timeout(5).add_callback(lambda _ev: done.fail(KeyError()))
        """, rule="SIM113")
        assert codes(found) == ["SIM113"]

    def test_yielded_or_raced_timeout_is_clean(self):
        found = findings_for("""
            def sleeper(env):
                timer = env.timeout(10)
                timer.add_callback(print)
                yield timer

            def race(env, reply):
                timer = env.timeout(10)
                result = yield env.any_of([reply, timer])
                return result
        """, rule="SIM113")
        assert found == []

    def test_timer_read_in_nested_function_is_clean(self):
        found = findings_for("""
            def guard(env, done):
                timer = env.timeout(10)

                def on_done(_ev):
                    return timer.triggered

                timer.add_callback(on_done)
        """, rule="SIM113")
        assert found == []

    def test_defer_with_cancel_is_clean(self):
        found = findings_for("""
            class LockTable:
                def wait(self, waiter, timeout_ns):
                    waiter.timer = self.env.defer(timeout_ns, self._expire,
                                                  waiter)

                def grant(self, waiter):
                    self.env.cancel(waiter.timer)
                    waiter.done.succeed(True)
        """, rule="SIM113")
        assert found == []


# ----------------------------------------------------------------------
# Pragmas, baseline, reporters
# ----------------------------------------------------------------------
class TestSuppression:
    def test_line_pragma_suppresses_named_rule(self):
        source = """
            import time
            a = time.time()  # simlint: ignore[SIM101]
            b = time.time()
        """
        found = findings_for(source, rule="SIM101")
        assert len(found) == 1 and found[0].line == 4

    def test_bare_pragma_suppresses_all(self):
        found = findings_for("""
            import time
            a = time.time()  # simlint: ignore
        """)
        assert found == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        found = findings_for("""
            import time
            a = time.time()  # simlint: ignore[SIM103]
        """, rule="SIM101")
        assert codes(found) == ["SIM101"]

    def test_skip_file(self):
        found = findings_for("""
            # simlint: skip-file
            import time
            a = time.time()
        """)
        assert found == []

    def test_baseline_round_trip(self, tmp_path):
        source = textwrap.dedent("""
            import time
            a = time.time()
            for x in set([1, 2]):
                pass
        """)
        findings = lint_source(source, path="mod.py")
        assert {f.rule for f in findings} == {"SIM101", "SIM103"}
        baseline_path = str(tmp_path / "baseline.json")
        Baseline.write(baseline_path, findings)
        baseline = Baseline.load(baseline_path)
        assert len(baseline) == 2
        new, grandfathered = baseline.split(lint_source(source, path="mod.py"))
        assert new == [] and len(grandfathered) == 2
        # A fresh finding is not absorbed by the baseline.
        extra = lint_source(source + "b = time.monotonic()\n", path="mod.py")
        new, grandfathered = baseline.split(extra)
        assert [f.rule for f in new] == ["SIM101"]
        assert "time.monotonic" in new[0].message

    def test_syntax_error_becomes_sim100(self):
        found = lint_source("def broken(:\n", path="bad.py")
        assert codes(found) == ["SIM100"]


class TestReporters:
    def test_json_schema(self):
        findings = lint_source(
            "import time\nx = time.time()\n", path="mod.py")
        payload = json.loads(render_json(findings, files_checked=1))
        assert payload["version"] == 1
        assert payload["counts"] == {"SIM101": 1}
        assert payload["files_checked"] == 1
        assert payload["baselined"] == 0
        (entry,) = payload["findings"]
        assert set(entry) == {"rule", "path", "line", "col", "message"}
        assert entry["rule"] == "SIM101" and entry["line"] == 2

    def test_text_report_mentions_location_and_summary(self):
        findings = lint_source(
            "import time\nx = time.time()\n", path="mod.py")
        text = render_text(findings, files_checked=1)
        assert "mod.py:2:" in text and "SIM101×1" in text

    def test_clean_text_report(self):
        assert "clean: 0 findings" in render_text([], files_checked=3)


class TestModuleNames:
    def test_src_layout(self):
        assert module_name_for("src/repro/storage/heap.py") == \
            "repro.storage.heap"
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"

    def test_bare_path(self):
        assert module_name_for("heap.py") == "heap"


# ----------------------------------------------------------------------
# The repo itself
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_lint_paths_on_src_is_clean(self):
        findings = lint_paths([SRC_DIR])
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings)

    def test_cli_exits_zero_on_repo(self):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "--format", "json"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["files_checked"] > 50

    def test_cli_nonzero_on_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nx = time.time()\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1
        assert "SIM101" in proc.stdout


# ----------------------------------------------------------------------
# Determinism harness
# ----------------------------------------------------------------------
class TestDeterminismHarness:
    def test_smoke_run_summary_shape(self):
        summary = smoke_run(duration_s=0.05, warmup_s=0.01)
        assert set(summary) >= {"digest", "spans", "committed", "aborted",
                                "sim_now_ns", "hash_seed"}
        assert len(summary["digest"]) == 64
        assert summary["spans"] > 0

    @pytest.mark.slow
    def test_perturbation_passes_on_repo(self):
        result = run_perturbation(seeds=2, duration_s=0.1, warmup_s=0.02)
        assert result.errors == []
        assert result.ok, result.render()
        assert len({run["digest"] for run in result.runs}) == 1
        assert "PASS" in result.render()


class TestFileDedup:
    def test_file_passed_directly_and_via_directory_yields_once(self, tmp_path):
        from repro.lint.rules import iter_python_files

        target = tmp_path / "mod.py"
        target.write_text("import time\n", encoding="utf-8")
        files = list(iter_python_files([str(target), str(tmp_path)]))
        assert len(files) == 1

    def test_no_duplicate_findings_for_doubly_passed_file(self, tmp_path):
        target = tmp_path / "mod.py"
        # One definite SIM101 finding.
        target.write_text(
            "import time\n\n"
            "def f():\n"
            "    return time.time()\n", encoding="utf-8")
        findings = lint_paths([str(target), str(tmp_path)])
        assert len(findings) == 1
        assert findings[0].rule == "SIM101"
