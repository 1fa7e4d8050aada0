"""Outside-in tracing: spans around each layer's entry points.

:class:`Tracer` keeps spans in memory (parallel arrays: name, start, end,
parent, op id) until the run ends.  :func:`install` wraps the public entry
points of every layer from the outside -- nothing under ``src/`` changes --
and returns a callable that restores the originals.

Plain functions get one span per call.  Generator functions get one span per
*resume*, because calling a generator function does no work: the body runs
on ``send``/``throw``, inside whatever resumed it (usually
``Simulation.step``).  Spans nest strictly on one thread, so a span's self
time is its duration minus the durations of its direct children
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NO_PARENT = -1
NO_OP = -1


#: The layers self time is reported for, most specific first; a span
#: belongs to the first layer its name starts with.  ``bench`` is the
#: benchmark's own client code, which runs inside simulator steps.
LAYERS = ("api", "sim", "core.pipeline", "core.dispatcher", "ldap",
          "directory", "storage", "replication", "cdc", "cluster", "net",
          "metrics", "setup", "bench")


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to (see :data:`LAYERS`)."""
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no layer")


class Tracer:
    """In-memory span recorder with a per-name call counter."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._next_op = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def index_of(self, name: str) -> Optional[int]:
        return self._ids.get(name)

    def count(self, name: str) -> int:
        index = self._ids.get(name)
        return 0 if index is None else self.calls[index]

    def __len__(self) -> int:
        return len(self.name)

    # -- op ids ---------------------------------------------------------------

    def current_op(self) -> int:
        return self.op[self._stack[-1]] if self._stack else NO_OP

    def op_here(self) -> int:
        """The op of the innermost open span, or a fresh op id if none."""
        op = self.current_op()
        if op == NO_OP:
            self._next_op += 1
            op = self._next_op
        return op

    # -- spans ----------------------------------------------------------------

    def open(self, name_id: int, op: int = NO_OP) -> int:
        stack = self._stack
        index = len(self.name)
        if stack:
            parent = stack[-1]
            if op == NO_OP:
                op = self.op[parent]
        else:
            parent = NO_PARENT
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(op)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} is open")

    def spans(self, first: int = 0, last: Optional[int] = None
              ) -> List[Tuple[str, float, float, int, int]]:
        """``(name, start, end, parent, op)`` of the spans numbered
        ``first`` up to (not including) ``last``."""
        names = self.names
        return [(names[self.name[index]], self.start[index], self.end[index],
                 self.parent[index], self.op[index])
                for index in range(first, len(self.name) if last is None
                                   else last)]


def self_times(spans: Sequence[Tuple[str, float, float, int, int]],
               first: int = 0) -> Dict[str, float]:
    """Self seconds per span name.

    ``spans[i]`` is ``(name, start, end, parent, op)`` with ``parent`` an
    absolute index into the same numbering (``first`` is the absolute index
    of ``spans[0]``); a parent before ``first`` is treated as absent.
    """
    own = [end - start for _name, start, end, _parent, _op in spans]
    for name, start, end, parent, _op in spans:
        if parent >= first:
            own[parent - first] -= end - start
    totals: Dict[str, float] = {}
    for (name, *_rest), seconds in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def inclusive_times(spans: Sequence[Tuple[str, float, float, int, int]],
                    names: Iterable[str], first: int = 0) -> Dict[str, float]:
    """Seconds spent inside spans of each of ``names``; a span nested in a
    span of the same name is already covered by it and is not added."""
    totals = dict.fromkeys(names, 0.0)
    for name, start, end, parent, _op in spans:
        if name in totals and not (
                parent >= first and spans[parent - first][0] == name):
            totals[name] += end - start
    return totals


# -- wrappers -------------------------------------------------------------------


def _wrap_function(tracer: Tracer, fn, span_name: str, starts_op: bool):
    name_id = tracer.name_id(span_name)
    calls = tracer.calls
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls[name_id] += 1
        index = open_(name_id, tracer.op_here() if starts_op else NO_OP)
        try:
            return fn(*args, **kwargs)
        finally:
            close(index)
    return traced


def _resumes(tracer: Tracer, name_id: int, generator, op: int):
    """Delegate to ``generator`` like ``yield from``, one span per resume."""
    open_, close = tracer.open, tracer.close
    value = None
    error: Optional[BaseException] = None
    while True:
        index = open_(name_id, op)
        try:
            if error is None:
                yielded = generator.send(value)
            else:
                pending, error = error, None
                yielded = generator.throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            close(index)
        try:
            value = yield yielded
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # delivered into the wrapped body
            error, value = exc, None


def trace_generator(tracer: Tracer, span_name: str, generator):
    """Time an already-created generator per resume under ``span_name``."""
    name_id = tracer.name_id(span_name)
    tracer.calls[name_id] += 1
    return _resumes(tracer, name_id, generator, NO_OP)


def _wrap_generator(tracer: Tracer, fn, span_name: str, starts_op: bool):
    name_id = tracer.name_id(span_name)
    calls = tracer.calls

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls[name_id] += 1
        # The op is fixed when the generator is created: its resumes run
        # later, under whatever simulator step wakes them.
        op = tracer.op_here() if starts_op else NO_OP
        return _resumes(tracer, name_id, fn(*args, **kwargs), op)
    return traced


#: ``(module, class or None, attribute, span name, kind)``.  ``kind`` is
#: ``call`` (one span per call) or ``gen`` (one span per resume), with an
#: ``-op`` suffix where one call is one client operation: such a span opens
#: a fresh op id unless it runs inside another op's span, and the spans it
#: causes share that id.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.sim.engine", "Simulation", "step", "sim.step", "call"),
    ("repro.api.session", "Session", "submit", "api.submit", "call-op"),
    ("repro.api.session", "Session", "call", "api.call", "gen-op"),
    ("repro.api.session", "Session", "search_pages", "api.search_pages",
     "gen"),
    ("repro.api.session", "ResponseFuture", "wait", "api.wait", "gen"),
    ("repro.core.dispatcher", "BatchDispatcher", "submit",
     "core.dispatcher.submit", "call"),
    ("repro.core.dispatcher", "BatchDispatcher", "_run",
     "core.dispatcher.loop", "gen"),
    ("repro.core.pipeline", "OperationPipeline", "execute",
     "core.pipeline.execute", "gen-op"),
    ("repro.core.pipeline", "OperationPipeline", "execute_wave",
     "core.pipeline.execute_wave", "gen"),
    ("repro.core.pipeline", "OperationPipeline", "execute_batch",
     "core.pipeline.execute_batch", "gen"),
    ("repro.core.pipeline", "BatchAdmissionStage", "order",
     "core.pipeline.order", "call"),
    ("repro.core.pipeline", "SearchPath", "_fetch",
     "core.pipeline.search_fetch", "gen"),
    ("repro.ldap.server", "LdapServer", "plan", "ldap.plan", "call"),
    ("repro.ldap.dn", "DistinguishedName", "__init__", "ldap.dn.init",
     "call"),
    ("repro.ldap.dn", "DistinguishedName", "parse", "ldap.dn.parse",
     "call"),
    ("repro.ldap.dn", "DistinguishedName", "__str__", "ldap.dn.str", "call"),
    ("repro.ldap.filters", "FilterPlanner", "plan", "ldap.filters.plan",
     "call"),
    ("repro.ldap.filters", None, "parse_filter", "ldap.filters.parse",
     "call"),
    ("repro.directory.locator", "ProvisionedLocator", "locate",
     "directory.locate", "call"),
    ("repro.directory.locator", "CachedLocator", "locate",
     "directory.locate", "call"),
    ("repro.directory.locator", "ConsistentHashLocator", "locate",
     "directory.locate", "call"),
    ("repro.directory.dit", "DirectoryCatalog", "upsert",
     "directory.dit.upsert", "call"),
    ("repro.directory.dit", "DirectoryCatalog", "scope_candidates",
     "directory.dit.scope", "call"),
    ("repro.storage.transactions", "Transaction", "commit",
     "storage.commit", "call"),
    ("repro.storage.transactions", "TransactionManager", "apply_log_record",
     "storage.apply_log_record", "call"),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal.append",
     "call"),
    ("repro.storage.engine", "RecordStore", "apply_version",
     "storage.apply_version", "call"),
    ("repro.storage.records", None, "record_size", "storage.record_size",
     "call"),
    ("repro.storage.storage_element", "StorageElement", "subscriber_count",
     "storage.subscriber_count", "call"),
    ("repro.net.network", "Network", "transfer", "net.transfer", "gen"),
    ("repro.metrics.collector", "MetricsRegistry", "increment",
     "metrics.increment", "call"),
    ("repro.metrics.collector", "MetricsBatch", "flush", "metrics.flush",
     "call"),
    ("repro.replication.mux", "ReplicationMux", "_round",
     "replication.round", "gen"),
    ("repro.replication.asynchronous", "AsyncReplicationChannel", "apply",
     "replication.apply", "call"),
    ("repro.cdc.stream", "ChangeStream", "_ingest", "cdc.ingest", "call"),
    ("repro.cdc.history", "HistoryStore", "apply_event", "cdc.history.apply",
     "call"),
    ("repro.cluster.detector", "MembershipPlane", "_run", "cluster.heartbeat",
     "gen"),
    ("repro.core.udr", "UDRNetworkFunction", "load_subscriber_base",
     "setup.load", "call"),
)


def _make_wrapper(tracer: Tracer, fn, span_name: str, kind: str):
    shape, _, suffix = kind.partition("-")
    if shape not in ("call", "gen") or suffix not in ("", "op"):
        raise ValueError(f"unknown wrapper kind {kind!r}")
    wrap = _wrap_function if shape == "call" else _wrap_generator
    return wrap(tracer, fn, span_name, starts_op=suffix == "op")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the undo.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name.  Classmethods and staticmethods keep
    their descriptor type.
    """
    undo: List[Tuple[object, str, object]] = []
    for module_name, class_name, attribute, span_name, kind in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is None:
            original = getattr(module, attribute)
            wrapper = _make_wrapper(tracer, original, span_name, kind)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").startswith("repro") and \
                        getattr(holder, attribute, None) is original:
                    undo.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)
            continue
        owner = getattr(module, class_name)
        raw = owner.__dict__[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(_make_wrapper(tracer, raw.__func__,
                                              span_name, kind))
        else:
            if kind.startswith("gen") and not inspect.isgeneratorfunction(raw):
                raise TypeError(f"{class_name}.{attribute} is not a "
                                f"generator function")
            wrapper = _make_wrapper(tracer, raw, span_name, kind)
        undo.append((owner, attribute, raw))
        setattr(owner, attribute, wrapper)

    def uninstall() -> None:
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)
    return uninstall
