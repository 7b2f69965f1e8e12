"""Span recorder for the traced benchmark run.

The traced run wraps the public entry points of each layer at the class
boundary (no source file of the system is edited) and records one span
per call: layer, start, end, parent span and the unit it belongs to.
A layer's *self time* is its spans' duration minus the part covered by
child spans, so the self times of all layers plus the driver's own time
add up to the traced window.  A callback the system stored as a bound
method before the tracer was installed would bypass the wrapper and
charge its time to the caller's layer; each workload therefore re-points
such callbacks with :meth:`Tracer.rebind` / :meth:`Tracer.rebind_item`.

Spans of the first traced pass are kept in memory in compact arrays and
written out when the benchmark ends; later traced passes only aggregate.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

# (module, class, methods, layer).  Each is a public entry point of one
# layer; a layer's self time excludes time spent in the layers it calls.
LAYER_ENTRY_POINTS = (
    ("repro.runtime.coop", "CooperativeRuntime",
     ("poll", "round", "spawn", "begin", "commit", "wait"), "runtime"),
    ("repro.core.locks", "LockManager",
     ("acquire", "delegate", "release_all"), "locks"),
    ("repro.core.permits", "PermitTable", ("allows", "grant"), "permits"),
    ("repro.core.manager", "TransactionManager",
     ("initiate", "begin", "create_object", "try_read", "try_write",
      "try_commit", "try_prepare", "delegate", "permit", "abort"),
     "manager"),
    ("repro.core.deadlock", "DeadlockDetector",
     ("resolve_one", "build_graph"), "deadlock"),
    ("repro.storage.store", "StorageManager",
     ("read_object", "write_object", "create_object"), "storage"),
    ("repro.storage.buffer", "BufferPool", ("fetch",), "storage"),
    ("repro.storage.log", "WriteAheadLog",
     ("log_before_image", "log_after_image", "log_commit", "log_abort",
      "log_delegate", "log_prepare", "log_decision", "log_takeover",
      "log_workflow", "flush"), "wal"),
    ("repro.net.fabric", "NetworkFabric", ("send", "pump_round"), "fabric"),
    ("repro.cluster.site", "Site", ("on_tick", "on_message"), "site"),
    ("repro.cluster.cluster", "Cluster",
     ("tick", "call", "spawn_at", "wait", "link_group", "group_commit",
      "_on_client_message"), "console"),
    ("repro.workflow.durable", "DurableWorkflowEngine",
     ("start", "signal", "cancel"), "workflow"),
)

LAYERS = tuple(dict.fromkeys(entry[-1] for entry in LAYER_ENTRY_POINTS))


class Tracer:
    """Collects spans and per-layer aggregates while installed."""

    def __init__(self, keep_spans):
        self.keep_spans = keep_spans
        self.calls = {}        # "layer" and "layer.method" -> call count
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.span_s = {}       # "layer.method" -> summed span duration
        self.edges = 0         # waits-for edges over every build_graph
        self.victims = 0
        self.window_s = 0.0
        self.driver_self_s = 0.0
        self._stack = []
        self._root_of = {}     # tid value -> top-level tid value
        self._names = []
        self._name_ids = {}
        self._sp_name = array("i")
        self._sp_start = array("d")
        self._sp_end = array("d")
        self._sp_parent = array("i")
        self._sp_unit = array("q")
        self._restores = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        import importlib

        for module_name, class_name, methods, layer in LAYER_ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self.rebind(cls, method, self._wrap(
                    layer, method, cls.__dict__[method]))

    def rebind(self, obj, attr, value):
        """Set ``obj.attr`` to ``value`` until :meth:`uninstall`."""
        old = obj.__dict__[attr]
        self._restores.append(lambda: setattr(obj, attr, old))
        setattr(obj, attr, value)

    def rebind_item(self, mapping, key, value):
        """Set ``mapping[key]`` to ``value`` until :meth:`uninstall`."""
        old = mapping[key]
        self._restores.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def uninstall(self):
        for restore in reversed(self._restores):
            restore()
        self._restores = []

    def _name_id(self, name):
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return index

    def _unit_of(self, manager, tid):
        """The top-level tid value a transaction belongs to."""
        value = getattr(tid, "value", None)
        if value is None:
            return -1
        root = self._root_of.get(value)
        if root is None:
            root = value
            td = manager.table.maybe_get(tid)
            while td is not None and td.parent:
                root = td.parent.value
                td = manager.table.maybe_get(td.parent)
            self._root_of[value] = root
        return root

    def _wrap(self, layer, method, original):
        name = f"{layer}.{method}"
        name_id = self._name_id(name)
        is_manager = layer == "manager"
        is_build = name == "deadlock.build_graph"
        is_resolve = name == "deadlock.resolve_one"
        tracer = self
        calls = self.calls
        calls.setdefault(layer, 0)
        calls.setdefault(name, 0)
        self.span_s.setdefault(name, 0.0)

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if is_manager and len(args) > 1:
                unit = tracer._unit_of(args[0], args[1])
            else:
                unit = parent[3] if parent is not None else -1
            index = -1
            if tracer.keep_spans:
                index = len(tracer._sp_name)
                tracer._sp_name.append(name_id)
                tracer._sp_start.append(0.0)
                tracer._sp_end.append(0.0)
                tracer._sp_parent.append(parent[4] if parent else -1)
                tracer._sp_unit.append(unit)
            frame = [0.0, 0.0, layer, unit, index]
            stack.append(frame)
            frame[0] = start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.self_s[layer] += duration - frame[1]
                tracer.span_s[name] += duration
                calls[layer] += 1
                calls[name] += 1
                if index >= 0:
                    tracer._sp_start[index] = start
                    tracer._sp_end[index] = end
            if is_build:
                tracer.edges += sum(len(h) for h in result.edges.values())
            elif is_resolve and result is not None:
                tracer.victims += 1
            return result

        return traced

    # -- the driver's root span ------------------------------------------

    def open_window(self):
        """Start the traced window: the driver's root frame."""
        frame = [0.0, 0.0, "driver", -1, -1]
        self._stack.append(frame)
        frame[0] = perf_counter()
        return frame

    def close_window(self, frame):
        end = perf_counter()
        self._stack.pop()
        self.window_s = end - frame[0]
        self.driver_self_s = self.window_s - frame[1]

    def unattributed_s(self):
        """Window time not covered by any layer's or the driver's self time."""
        return self.window_s - self.driver_self_s - sum(self.self_s.values())

    # -- output ------------------------------------------------------------

    def write_spans(self, path, meta):
        """Write kept spans as JSON lines: a header, then one per span."""
        if not self._sp_name:
            return 0
        origin = self._sp_start[0]
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for i in range(len(self._sp_name)):
                out.write(json.dumps({
                    "id": i,
                    "name": self._names[self._sp_name[i]],
                    "start_us": round((self._sp_start[i] - origin) * 1e6, 3),
                    "end_us": round((self._sp_end[i] - origin) * 1e6, 3),
                    "parent": self._sp_parent[i],
                    "unit": self._sp_unit[i],
                }) + "\n")
        return len(self._sp_name)
