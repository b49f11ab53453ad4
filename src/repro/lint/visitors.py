"""The built-in simlint rules (SIM101–SIM106, SIM111–SIM113).

Each rule targets a determinism or sim-safety hazard this codebase has
actually hit or is structurally exposed to:

========  ==========================================================
SIM101    wall-clock reads (`time.time`, `datetime.now`, ...) — real
          time must never leak into simulated control flow
SIM102    process-global or unseeded randomness — every stream must be
          seeded (see `repro.sim.rand`)
SIM103    iterating a set/frozenset — order follows PYTHONHASHSEED
          (the PR-1 `storage/locks.py` bug class)
SIM104    dropping the result of a `g_*` generator-process call — the
          generator is created but never runs (silent no-op)
SIM105    blocking calls (`time.sleep`, socket/file I/O) inside sim
          process generators — they stall the event loop in wall time
SIM106    mutable default arguments — shared state across calls
SIM111    fault-injection primitives (partitions, delay injection,
          endpoint up/down, link/clock mutation) outside the
          sanctioned layers — all chaos must flow through
          `repro.chaos` so it is scheduled, recorded, and healed
SIM112    hot-path dispatch hazards: direct `heapq` use outside the
          kernel (`repro.sim` owns event ordering — ad-hoc heaps
          re-introduce comparison-based ordering of unorderable
          payloads), and per-event `getattr(self, f"_handle_{...}")`
          string-building dispatch — precompute a handler dict once
          at `__init__` instead
SIM113    a timer guard built as `<x>.timeout(...)` whose result is
          only passed to `.add_callback(...)` — the timer holds its
          callback (and what that closes over) until expiry even once
          the guarded thing settled; use `env.defer` and cancel the
          entry with `env.cancel` instead
========  ==========================================================
"""

from __future__ import annotations

import ast
import typing

from repro.lint.rules import Finding, Module, Rule, register
from repro.lint.typeinfo import (
    class_attr_types,
    function_scope,
    is_set,
    module_scope,
    _walk_function_body,
)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def import_map(tree: ast.Module) -> dict[str, str]:
    """Local binding name -> dotted origin, for resolving call targets.

    ``import time`` -> ``{"time": "time"}``;
    ``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``;
    ``import urllib.request`` -> ``{"urllib": "urllib"}`` (attribute access
    then rebuilds the full path).
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                mapping[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return mapping


def resolve_dotted(func: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted path of a call target, import-aware (None when dynamic).

    Attribute chains whose root is *not* an imported binding return None:
    a local variable that happens to be named ``requests`` or ``time`` is
    an object, not the module, and must not match module-call patterns.
    Bare names (builtins like ``open``) resolve to themselves.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    origin = imports.get(parts[0])
    if origin is not None:
        parts[0] = origin
    elif len(parts) > 1:
        return None
    return ".".join(parts)


def _function_nodes(module: Module) -> typing.Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Every function in the module, paired with its enclosing class."""
    def visit(node: ast.AST, enclosing: ast.ClassDef | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, enclosing
                yield from visit(child, enclosing)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            else:
                yield from visit(child, enclosing)
    yield from visit(module.tree, None)


def is_generator_function(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function's own body yields (nested defs excluded)."""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in _walk_function_body(func))


# ----------------------------------------------------------------------
# SIM101 — wall-clock reads
# ----------------------------------------------------------------------
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "time.clock_gettime_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register
class WallClockRule(Rule):
    code = "SIM101"
    name = "wall-clock-read"
    description = ("Wall-clock reads outside an allowlist: simulated code "
                   "must derive all time from Environment.now.")

    #: dotted module names where wall-clock reads are legitimate (host-side
    #: tooling). Empty by default — prefer a line pragma with justification.
    allowed_modules: frozenset[str] = frozenset()

    def check(self, module: Module) -> typing.Iterator[Finding]:
        if module.name in self.allowed_modules:
            return
        imports = import_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = resolve_dotted(node.func, imports)
                if dotted in WALL_CLOCK_CALLS:
                    yield self.finding(
                        module, node,
                        f"wall-clock read '{dotted}()' — simulation code "
                        f"must use Environment.now; host-side tooling may "
                        f"suppress with '# simlint: ignore[SIM101]'")


# ----------------------------------------------------------------------
# SIM102 — unseeded / process-global randomness
# ----------------------------------------------------------------------
_RANDOM_MODULE_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "seed", "getrandbits", "randbytes", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "gammavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "binomialvariate",
})


@register
class UnseededRandomRule(Rule):
    code = "SIM102"
    name = "unseeded-random"
    description = ("Module-level random.* functions or unseeded "
                   "random.Random() — all randomness must flow from named, "
                   "seeded streams (repro.sim.rand).")

    #: modules allowed to touch the random module directly (the stream
    #: factory itself derives seeds there).
    allowed_modules: frozenset[str] = frozenset({"repro.sim.rand"})

    def check(self, module: Module) -> typing.Iterator[Finding]:
        if module.name in self.allowed_modules:
            return
        imports = import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, imports)
            if dotted is None or not dotted.startswith("random."):
                continue
            tail = dotted[len("random."):]
            if tail == "Random" and not node.args:
                yield self.finding(
                    module, node,
                    "random.Random() without a seed draws from OS entropy — "
                    "pass an explicit seed or use RandomStreams.stream(name)")
            elif tail == "SystemRandom":
                yield self.finding(
                    module, node,
                    "random.SystemRandom is inherently non-deterministic — "
                    "use a seeded random.Random or RandomStreams")
            elif tail in _RANDOM_MODULE_FNS:
                yield self.finding(
                    module, node,
                    f"module-level 'random.{tail}()' uses the process-global "
                    f"RNG — draw from a seeded stream "
                    f"(repro.sim.rand.RandomStreams) instead")


# ----------------------------------------------------------------------
# SIM103 — set iteration order
# ----------------------------------------------------------------------
_ORDERED_CONVERTERS = frozenset({"list", "tuple", "enumerate"})


@register
class SetIterationRule(Rule):
    code = "SIM103"
    name = "set-iteration-order"
    description = ("Iterating a set/frozenset: element order follows "
                   "PYTHONHASHSEED, so any downstream scheduling or result "
                   "ordering diverges across processes. Wrap in sorted().")

    def check(self, module: Module) -> typing.Iterator[Finding]:
        attr_cache: dict[ast.ClassDef, dict] = {}
        # Module-level code first.
        yield from self._check_body(module, module.tree,
                                    module_scope(module.tree))
        for func, enclosing in _function_nodes(module):
            attrs = None
            if enclosing is not None:
                if enclosing not in attr_cache:
                    attr_cache[enclosing] = class_attr_types(enclosing)
                attrs = attr_cache[enclosing]
            scope = function_scope(func, attrs)
            yield from self._check_body(module, func, scope)

    def _check_body(self, module: Module, root: ast.AST,
                    scope: Scope) -> typing.Iterator[Finding]:
        for node in _walk_function_body(root):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(module, node.iter, scope,
                                            context="for loop")
            elif isinstance(node, (ast.ListComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # SetComp is exempt: set -> set never leaks iteration
                # order. List/dict results (and generators feeding them)
                # preserve it, so those stay flagged.
                for comp in node.generators:
                    yield from self._check_iter(module, comp.iter, scope,
                                                context="comprehension")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in _ORDERED_CONVERTERS and node.args:
                if is_set(scope.infer(node.args[0])):
                    yield self.finding(
                        module, node,
                        f"'{node.func.id}(...)' of a set materialises "
                        f"hash-dependent order — use sorted(...)")

    def _check_iter(self, module: Module, iterable: ast.expr, scope: Scope,
                    context: str) -> typing.Iterator[Finding]:
        if is_set(scope.infer(iterable)):
            yield self.finding(
                module, iterable,
                f"{context} iterates a set — order follows PYTHONHASHSEED; "
                f"wrap in sorted(...) or use an insertion-ordered container")


# ----------------------------------------------------------------------
# SIM104 — dropped generator-process call
# ----------------------------------------------------------------------
@register
class DroppedGeneratorRule(Rule):
    code = "SIM104"
    name = "dropped-generator"
    description = ("A bare 'g_*(...)' statement creates a generator and "
                   "never runs it — the classic silently-dropped sim "
                   "process.")

    def check(self, module: Module) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            name = None
            if isinstance(call.func, ast.Name):
                name = call.func.id
            elif isinstance(call.func, ast.Attribute):
                name = call.func.attr
            if name and name.startswith("g_"):
                yield self.finding(
                    module, node,
                    f"result of generator-process call '{name}(...)' is "
                    f"dropped — nothing will execute; use 'yield from "
                    f"{name}(...)' or hand it to env.process(...)")


# ----------------------------------------------------------------------
# SIM105 — blocking calls inside sim generators
# ----------------------------------------------------------------------
_BLOCKING_EXACT = frozenset({
    "time.sleep", "os.system", "os.popen", "os.wait", "input", "open",
    "socket.create_connection", "socket.socket",
})
_BLOCKING_PREFIXES = ("socket.", "subprocess.", "requests.",
                      "urllib.request.", "http.client.", "asyncio.")


@register
class BlockingInGeneratorRule(Rule):
    code = "SIM105"
    name = "blocking-in-generator"
    description = ("Blocking wall-time calls (time.sleep, socket/file I/O) "
                   "inside a sim process generator stall the event loop; "
                   "model delays with env.timeout(...).")

    def check(self, module: Module) -> typing.Iterator[Finding]:
        imports = import_map(module.tree)
        for func, _enclosing in _function_nodes(module):
            if not (is_generator_function(func)
                    or func.name.startswith("g_")):
                continue
            for node in _walk_function_body(func):
                if not isinstance(node, ast.Call):
                    continue
                dotted = resolve_dotted(node.func, imports)
                if dotted is None:
                    continue
                if dotted in _BLOCKING_EXACT or \
                        dotted.startswith(_BLOCKING_PREFIXES):
                    yield self.finding(
                        module, node,
                        f"blocking call '{dotted}(...)' inside sim process "
                        f"generator '{func.name}' — blocks wall time, not "
                        f"sim time; use env.timeout(...) / move I/O out of "
                        f"the process")


# ----------------------------------------------------------------------
# SIM106 — mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})


@register
class MutableDefaultRule(Rule):
    code = "SIM106"
    name = "mutable-default-argument"
    description = ("Mutable default arguments are shared across calls — "
                   "state leaks between transactions/runs; default to None "
                   "and construct inside the function.")

    def check(self, module: Module) -> typing.Iterator[Finding]:
        for func, _enclosing in _function_nodes(module):
            args = func.args
            for default in (*args.defaults, *args.kw_defaults):
                if default is None:
                    continue
                if self._is_mutable_literal(default):
                    yield self.finding(
                        module, default,
                        f"mutable default argument in '{func.name}(...)' is "
                        f"evaluated once and shared by every call — use "
                        f"None and build it in the body")

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in _MUTABLE_FACTORIES
        return False


# ----------------------------------------------------------------------
# SIM111 — fault injection outside repro.chaos
# ----------------------------------------------------------------------
_FAULT_CALL_ATTRS = frozenset({
    "set_partition", "inject_delay", "inject_delay_all",
    "inject_delay_between_regions", "set_endpoint_up",
})

_FAULT_STORE_ATTRS = frozenset({"blocked", "extra_delay_ns"})


@register
class FaultInjectionRule(Rule):
    code = "SIM111"
    name = "unsanctioned-fault-injection"
    description = ("Fault-injection primitives used outside repro.chaos "
                   "(or the layers implementing them) — ad-hoc faults are "
                   "invisible to the nemesis event log, never healed by "
                   "quiesce, and break chaos-run reproducibility.")

    #: Module prefixes where the primitives are legitimate: the chaos
    #: engine itself, the layers that *implement* them (network, cluster
    #: crash/recovery, clock devices), and the bench experiments that
    #: reproduce the paper's injected-delay figures.
    allowed_prefixes: tuple[str, ...] = (
        "repro.chaos", "repro.sim", "repro.cluster", "repro.clocks",
        "repro.bench",
    )

    def _allowed(self, module: Module) -> bool:
        return any(module.name == prefix
                   or module.name.startswith(prefix + ".")
                   for prefix in self.allowed_prefixes)

    def check(self, module: Module) -> typing.Iterator[Finding]:
        if self._allowed(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in _FAULT_CALL_ATTRS:
                    yield self.finding(
                        module, node,
                        f"fault-injection call '.{attr}(...)' outside "
                        f"repro.chaos — route faults through a chaos "
                        f"injector/schedule so they are recorded and "
                        f"healed")
                elif attr == "step" and \
                        isinstance(node.func.value, ast.Name) and \
                        "clock" in node.func.value.id.lower():
                    yield self.finding(
                        module, node,
                        "direct clock step outside repro.chaos — use the "
                        "ClockStep injector so the anomaly is scheduled "
                        "and recorded")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            target.attr in _FAULT_STORE_ATTRS:
                        yield self.finding(
                            module, target,
                            f"direct link mutation '.{target.attr} = ...' "
                            f"outside repro.chaos — use a partition/"
                            f"degradation injector so the fault heals "
                            f"deterministically")


# ----------------------------------------------------------------------
# SIM112 — hot-path dispatch hazards
# ----------------------------------------------------------------------
@register
class HotPathDispatchRule(Rule):
    code = "SIM112"
    name = "hot-path-dispatch"
    description = ("Direct heapq use outside repro.sim (the calendar-queue "
                   "kernel owns event ordering; ad-hoc heaps re-introduce "
                   "comparison-based ordering of unorderable payloads) and "
                   "per-event getattr(self, f'_handle_{...}') string-built "
                   "dispatch — precompute a handler dict at __init__.")

    #: Module prefixes where heapq is legitimate: the sim kernel itself,
    #: whose ordering the calendar queue implements and whose events carry
    #: explicit (when, priority, seq) keys.
    heapq_allowed_prefixes: tuple[str, ...] = ("repro.sim",)

    def check(self, module: Module) -> typing.Iterator[Finding]:
        yield from self._check_heapq(module)
        yield from self._check_dispatch(module)

    def _check_heapq(self, module: Module) -> typing.Iterator[Finding]:
        if any(module.name == prefix
               or module.name.startswith(prefix + ".")
               for prefix in self.heapq_allowed_prefixes):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq" or \
                            alias.name.startswith("heapq."):
                        yield self._heapq_finding(module, node)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "heapq" and not node.level:
                    yield self._heapq_finding(module, node)

    def _heapq_finding(self, module: Module, node: ast.AST) -> Finding:
        return self.finding(
            module, node,
            "direct heapq use outside repro.sim — the kernel's calendar "
            "queue owns event ordering; schedule through Environment "
            "(schedule/defer/timeout) or, for domain priority queues, "
            "key entries explicitly and keep them out of the event loop")

    def _check_dispatch(self, module: Module) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2):
                continue
            name_arg = node.args[1]
            # Only string-*building* name arguments are per-event dispatch:
            # f-strings and '+' concatenation rebuild the attribute name on
            # every call. A plain Name (e.g. iterating dir(self) once in
            # __init__ to precompute the handler dict) is the sanctioned
            # pattern and stays silent.
            if isinstance(name_arg, ast.JoinedStr) or \
                    (isinstance(name_arg, ast.BinOp)
                     and isinstance(name_arg.op, ast.Add)):
                yield self.finding(
                    module, node,
                    f"per-event '{node.func.id}(self, <built name>)' "
                    f"dispatch rebuilds the attribute name and walks the "
                    f"type's MRO on every message — precompute a handler "
                    f"dict once in __init__ (see ClusterNode/GTMServer) "
                    f"and look the kind up in it")


# ----------------------------------------------------------------------
# SIM113 — uncancellable timer guards
# ----------------------------------------------------------------------
@register
class TimerGuardRule(Rule):
    code = "SIM113"
    name = "uncancellable-timer-guard"
    description = ("A timer guard built as <x>.timeout(...) whose result is "
                   "only passed to .add_callback(...): the Timeout keeps its "
                   "callback, and everything the callback closes over, alive "
                   "until the deadline even after the guarded reply or lock "
                   "arrived. Use env.defer and cancel the entry with "
                   "env.cancel once the guard is settled.")

    def check(self, module: Module) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            # env.timeout(...).add_callback(...) in one expression.
            if self._is_add_callback(node) and \
                    self._is_timeout_call(node.func.value):
                yield self._finding(module, node.func.value)
        for func, _cls in _function_nodes(module):
            yield from self._check_function(module, func)

    @staticmethod
    def _is_timeout_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "timeout")

    @staticmethod
    def _is_add_callback(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_callback")

    def _check_function(self, module: Module, func: ast.AST
                        ) -> typing.Iterator[Finding]:
        timers: dict[str, ast.Call] = {}
        for node in _walk_function_body(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    self._is_timeout_call(node.value):
                timers[node.targets[0].id] = node.value
        if not timers:
            return
        # A timer name counts as a guard only if every read of it, nested
        # functions included, is the receiver of an add_callback call.
        receiver_reads: dict[str, int] = dict.fromkeys(timers, 0)
        all_reads: dict[str, int] = dict.fromkeys(timers, 0)
        for node in ast.walk(func):
            if self._is_add_callback(node) and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id in timers:
                receiver_reads[node.func.value.id] += 1
            elif isinstance(node, ast.Name) and node.id in timers and \
                    isinstance(node.ctx, ast.Load):
                all_reads[node.id] += 1
        for name, call in timers.items():
            if receiver_reads[name] and all_reads[name] == receiver_reads[name]:
                yield self._finding(module, call)

    def _finding(self, module: Module, call: ast.AST) -> Finding:
        return self.finding(
            module, call,
            "timer guard '.timeout(...)' used only via add_callback holds "
            "its callback until expiry even after the guard settled — "
            "schedule it with env.defer and env.cancel the entry when the "
            "reply or lock arrives")
