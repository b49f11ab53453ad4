"""Per-layer host-time tracing, installed from outside the program.

A layer is a ``repro`` package (``repro.sim`` is split into the kernel and
the network). :meth:`LayerTracer.install` wraps every function and method
defined in each layer's modules, before the cluster is built, so that the
handler tables nodes bind at construction hold the wrappers. Every DES
process body passed to ``Environment.process`` is wrapped too and charged
to the layer of the module that defined it.

A call is a span when it crosses into another layer; a call within the
caller's own layer is only counted. Spans nest on one host-side stack, so
a layer's self time is its spans' time minus the time their child spans
cover. A wrapped generator is timed only while it runs: each resume is
one interval, and suspended time costs nothing. The wrappers never
schedule events or touch simulated state, so a traced run has the same
simulated history as an untraced one (the benchmark checks this).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

#: Layers in report order. ``other`` holds the rest of ``repro`` (the
#: cluster facade, failover manager, errors) and code outside any layer.
LAYERS = ("sim.kernel", "sim.network", "cluster.cn", "cluster.dn", "storage",
          "txn", "clocks", "replication", "ror", "sql", "workloads", "obs",
          "other")

#: Module prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS = {
    "repro.sim": "sim.kernel",
    "repro.sim.network": "sim.network",
    "repro.sim.transport": "sim.network",
    "repro.cluster": "other",
    "repro.cluster.cn": "cluster.cn",
    "repro.cluster.sharding": "cluster.cn",
    "repro.cluster.dn": "cluster.dn",
    "repro.storage": "storage",
    "repro.txn": "txn",
    "repro.clocks": "clocks",
    "repro.replication": "replication",
    "repro.ror": "ror",
    "repro.sql": "sql",
    "repro.workloads": "workloads",
    "repro.obs": "obs",
}

#: Packages the benchmark never runs (tooling), and modules whose
#: functions are unit helpers or exception types rather than layer work.
SKIPPED = ("repro.lint", "repro.explore", "repro.chaos", "repro.check",
           "repro.bench", "repro.san", "repro.errors", "repro.sim.units")

_ROOT = "<root>"


def layer_of_module(module: str) -> str:
    best, layer = "", "other"
    for prefix, candidate in MODULE_LAYERS.items():
        if ((module == prefix or module.startswith(prefix + "."))
                and len(prefix) > len(best)):
            best, layer = prefix, candidate
    return layer


class LayerTracer:
    """Host self time, call counts and spans per layer."""

    def __init__(self, max_spans: int = 50_000):
        self.names: list[str] = []     # function index -> qualified name
        self.layers: list[str] = []    # function index -> layer
        # Live counters, by function index: calls, and self time of the
        # spans the function opened. ``calls``/``self_ns`` are their values
        # when the window closed.
        self._calls: list[int] = []
        self._self_ns: list[int] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        # Host-side stack of open spans: [layer, child_ns, function index].
        self.stack: list[list] = [[_ROOT, 0, -1]]
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.recording = False
        self.env = None
        self._code_entries: dict = {}
        self._file_layers: dict[str, tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self._calls.append(0)
        self._self_ns.append(0)
        return len(self.names) - 1

    def start_window(self, env) -> None:
        """Zero every counter and start keeping spans."""
        self.env = env
        for index in range(len(self._calls)):
            self._calls[index] = 0
            self._self_ns[index] = 0
        self.spans.clear()
        self.dropped_spans = 0
        self.recording = True

    def stop_window(self) -> None:
        """Stop keeping spans and freeze the counters."""
        self.recording = False
        self.calls = list(self._calls)
        self.self_ns = list(self._self_ns)

    def _span(self, index: int, parent: int, sim_start: int,
              self_ns: int) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append((index, parent, sim_start, self.env.now,
                               self_ns))
        else:
            self.dropped_spans += 1

    def wrap(self, fn, layer: str, name: str):
        """A wrapper around ``fn`` that charges its time to ``layer``."""
        index = self._register(name, layer)
        if inspect.isgeneratorfunction(fn):
            drive = self.drive

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                generator = fn(*args, **kwargs)
                traced = drive(generator, index, layer)
                traced.__name__ = generator.__name__
                traced.__qualname__ = generator.__qualname__
                return traced
            return traced_generator

        calls, self_ns, stack = self._calls, self._self_ns, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[index] += 1
            if stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0, index]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                mine = elapsed - frame[1]
                self_ns[index] += mine
                parent = stack[-1]
                parent[1] += elapsed
                if tracer.recording:
                    tracer._span(index, parent[2], tracer.env.now, mine)
        return traced

    def drive(self, generator, index: int, layer: str):
        """Generator: run ``generator`` and charge each resume to
        ``layer``. Values, exceptions and close() pass straight through."""
        self._calls[index] += 1
        stack, self_ns = self.stack, self._self_ns
        clock = time.perf_counter_ns
        born = self.env.now if self.env is not None else 0
        parent_index = stack[-1][2]
        total = 0
        value, error = None, None
        while True:
            timed = stack[-1][0] is not layer
            if timed:
                frame = [layer, 0, index]
                stack.append(frame)
                started = clock()
            try:
                if error is None:
                    yielded = generator.send(value)
                else:
                    thrown, error = error, None
                    yielded = generator.throw(thrown)
            except StopIteration as stop:
                finished, result = True, stop.value
            except BaseException:
                finished, result = True, None
                raise
            else:
                finished = False
            finally:
                if timed:
                    elapsed = clock() - started
                    stack.pop()
                    mine = elapsed - frame[1]
                    self_ns[index] += mine
                    total += mine
                    stack[-1][1] += elapsed
                if finished and self.recording:
                    self._span(index, parent_index, born, total)
            if finished:
                return result
            try:
                value = yield yielded
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # re-raised inside the generator
                value, error = None, exc

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, extra_files: dict[str, str]) -> None:
        """Wrap every layer function; ``extra_files`` maps source files
        outside ``repro`` (the benchmark's own) to a layer."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not (info.name.startswith(SKIPPED)
                    or info.name.endswith(".__main__")):
                importlib.import_module(info.name)
        modules = [module for name, module in sorted(sys.modules.items())
                   if (name == "repro" or name.startswith("repro."))
                   and not name.startswith(SKIPPED)]
        originals: dict[int, object] = {}
        for module in modules:
            layer = layer_of_module(module.__name__)
            path = getattr(module, "__file__", None)
            if path:
                self._file_layers[os.path.realpath(path)] = (
                    module.__name__, layer)
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and not attr.startswith("__"):
                    wrapped = self.wrap(value, layer,
                                        f"{module.__name__}.{attr}")
                    originals[id(value)] = wrapped
                    setattr(module, attr, wrapped)
                elif inspect.isclass(value) and type(value) is type:
                    self._wrap_class(value, layer, originals)
        self._wrap_node_bases()
        for path, layer in extra_files.items():
            self._file_layers[os.path.realpath(path)] = (
                os.path.basename(path), layer)
        # Re-point names other modules imported with ``from x import f``.
        extra = {os.path.realpath(path) for path in extra_files}
        for module in list(sys.modules.values()):
            path = getattr(module, "__file__", None)
            if module not in modules and (
                    not path or os.path.realpath(path) not in extra):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)
        self._hook_processes()

    def _wrap_class(self, cls, layer: str, originals: dict) -> None:
        prefix = f"{cls.__module__}.{cls.__qualname__}"
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                wrapped = type(value)(self.wrap(value.__func__, layer,
                                                f"{prefix}.{attr}"))
            elif inspect.isfunction(value):
                wrapped = self.wrap(value, layer, f"{prefix}.{attr}")
            else:
                continue
            originals[id(value)] = wrapped
            setattr(cls, attr, wrapped)

    def _wrap_node_bases(self) -> None:
        """``ClusterNode`` (message dispatch, handler table) is shared by
        CNs and DNs: give each subclass its own copy in its own layer."""
        from repro.cluster.cn import ComputingNode
        from repro.cluster.dn import DataNode
        from repro.cluster.node import ClusterNode

        for subclass, layer in ((ComputingNode, "cluster.cn"),
                                (DataNode, "cluster.dn")):
            for attr, value in vars(ClusterNode).items():
                if (inspect.isfunction(value) and not attr.startswith("__")
                        and attr not in vars(subclass)):
                    original = getattr(value, "__wrapped__", value)
                    setattr(subclass, attr, self.wrap(
                        original, layer,
                        f"{subclass.__module__}.{subclass.__qualname__}.{attr}"))

    def _code_entry(self, code) -> tuple[int, str]:
        entry = self._code_entries.get(code)
        if entry is None:
            module, layer = self._file_layers.get(
                os.path.realpath(code.co_filename), ("?", "other"))
            entry = self._code_entries[code] = (
                self._register(
                    f"{module}.{getattr(code, 'co_qualname', code.co_name)}",
                    layer), layer)
        return entry

    def _hook_processes(self) -> None:
        """Charge every process body to the layer that defined it."""
        from repro.sim.core import Environment

        original = Environment.process
        drive_code = LayerTracer.drive.__code__
        tracer = self

        def process(env, generator, name=None):
            code = getattr(generator, "gi_code", None)
            if code is not None and code is not drive_code:
                index, layer = tracer._code_entry(code)
                traced = tracer.drive(generator, index, layer)
                traced.__name__ = generator.__name__
                traced.__qualname__ = generator.__qualname__
                generator = traced
            return original(env, generator, name)

        Environment.process = self.wrap(process, "sim.kernel",
                                        "repro.sim.core.Environment.process")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_ns(self) -> dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for layer, spent in zip(self.layers, self.self_ns):
            totals[layer] = totals.get(layer, 0) + spent
        return totals

    def calls_of(self, *suffixes: str) -> int:
        """Calls of every wrapped function whose name ends with one of
        ``suffixes`` (e.g. ``"CommitLog.status"``)."""
        return sum(calls for name, calls in zip(self.names, self.calls)
                   if name.endswith(suffixes))

    def self_ns_of(self, layer: str, *suffixes: str) -> int:
        """Self time of ``layer`` spans opened by functions whose name
        ends with one of ``suffixes``."""
        return sum(spent for name, spans_layer, spent
                   in zip(self.names, self.layers, self.self_ns)
                   if spans_layer == layer and name.endswith(suffixes))

    def write_spans(self, path: str) -> None:
        """One JSON object per span: name, parent, sim start/end (ns),
        host self time (ns)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        names = self.names
        with open(path, "w") as out:
            for index, parent, start, end, spent in self.spans:
                out.write(json.dumps({
                    "name": names[index],
                    "layer": self.layers[index],
                    "parent": names[parent] if parent >= 0 else None,
                    "sim_start_ns": start, "sim_end_ns": end,
                    "host_self_ns": spent}) + "\n")
            if self.dropped_spans:
                out.write(json.dumps({"dropped_spans":
                                      self.dropped_spans}) + "\n")
