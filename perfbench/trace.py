"""Per-layer tracing by wrapping each layer's public functions.

Nothing inside ``src/`` is instrumented: :meth:`Tracer.install`
replaces methods and functions of the ``repro`` package with timing
wrappers from here, for the traced operations of a ``--trace 1`` run
only, and :meth:`Tracer.uninstall` puts the originals back.

* Coarse calls (framework phases, explorations, portfolio runs,
  monitor feeds) are kept as spans ``(id, name, start, end, parent,
  op)`` in memory and written out at the end of the run.
* Fine-grained calls (passed-store ``covers``/``insert``, DBM
  successor kernels, interning) happen hundreds of thousands of times
  per operation, so they are only aggregated: call counts, inclusive
  time and self time.
* Self time of a call is its wall time minus the wall time of the
  wrapped calls nested in it; summing self time by layer prefix gives
  the per-layer breakdown.

A wrapped target that does not exist (renamed or deleted by a later
change) is skipped and listed in :attr:`Tracer.missing`; its metrics
then read 0.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

#: Layers, longest prefix first (a name belongs to the first match).
LAYERS = ("zones.store", "zones.dbm", "zones.intern", "core", "mc",
          "portfolio", "monitor", "service")

#: (module, class or None, attribute, span name, keep as span)
TARGETS = [
    ("repro.core.framework", "TimingVerificationFramework", "verify",
     "core.verify", True),
    ("repro.core.framework", "TimingVerificationFramework",
     "verify_pim", "core.pim", True),
    ("repro.core.framework", "TimingVerificationFramework",
     "transform", "core.transform", True),
    ("repro.core.framework", "TimingVerificationFramework",
     "check_constraints", "core.constraints", True),
    ("repro.core.framework", "TimingVerificationFramework",
     "derive_bounds", "core.bounds", True),
    ("repro.core.framework", "TimingVerificationFramework",
     "verify_psm_deadlines", "core.deadline_sweep", True),
    ("repro.core.framework", "TimingVerificationFramework",
     "measure_psm", "core.suprema", True),
    ("repro.mc.explorer", "ZoneGraphExplorer", "__init__",
     "mc.explorer_init", True),
    ("repro.mc.explorer", "ZoneGraphExplorer", "explore",
     "mc.explore", True),
    ("repro.mc.explorer", "ZoneGraphExplorer", "plans_for",
     "mc.plans_for", False),
    ("repro.mc.parallel", "ShardedZoneGraphExplorer", "__init__",
     "mc.explorer_init", True),
    ("repro.mc.parallel", "ShardedZoneGraphExplorer", "explore",
     "mc.explore", True),
    ("repro.zones.store", "ReferencePassedBucket", "covers",
     "zones.store.covers", False),
    ("repro.zones.store", "ReferencePassedBucket", "insert",
     "zones.store.insert", False),
    ("repro.zones.store", "ReferencePassedBucket", "commit_batch",
     "zones.store.commit_batch", False),
    ("repro.zones.store", "NumpyPassedBucket", "covers",
     "zones.store.covers", False),
    ("repro.zones.store", "NumpyPassedBucket", "insert",
     "zones.store.insert", False),
    ("repro.zones.store", "NumpyPassedBucket", "commit_batch",
     "zones.store.commit_batch", False),
    ("repro.mc.explorer", "ZoneGraphExplorer", "successors",
     "zones.dbm.successors", False),
    ("repro.zones.batch", "BatchExpander", "run_plan",
     "zones.dbm.batch", False),
    ("repro.zones.batch", "BatchExpander", "constrain_each",
     "zones.dbm.batch", False),
    ("repro.zones.batch", "BatchExpander", "constrain",
     "zones.dbm.batch", False),
    ("repro.zones.dbm_native", "NativeBatchExpander", "run_plan",
     "zones.dbm.batch", False),
    ("repro.zones.intern", "ZoneInternTable", "intern",
     "zones.intern.intern", False),
    ("repro.mc.portfolio", "PortfolioVerifier", "run",
     "portfolio.run", True),
    ("repro.ta.rename", None, "canonical_network",
     "portfolio.memo_key", False),
    ("repro.monitor.batch", "BatchMonitor", "feed",
     "monitor.feed", True),
    ("repro.service.protocol", None, "send_frame",
     "service.send_frame", False),
    ("repro.service.protocol", None, "recv_frame",
     "service.recv_frame", False),
]


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return "other"


class Tracer:
    """Span recorder and per-name aggregates (thread-safe)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self.op: int | None = None
        self._originals: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        # Inclusive time counts only the outermost call of a name, so
        # a wrapped method calling another wrapped one of the same
        # name is not counted twice.
        outer = all(frame[1] != name for frame in stack)
        frame = [next(self._ids), name, time.perf_counter(), 0.0,
                 parent, outer]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][3] += duration
        name = frame[1]
        with self._lock:
            self.calls[name] += 1
            if frame[5]:
                self.inclusive[name] += duration
            self.self_time[name] += duration - frame[3]
            if keep:
                self.spans.append((frame[0], name, frame[2], end,
                                   frame[4], self.op))

    # -- wrappers ------------------------------------------------------
    def _wrap_function(self, fn, name: str, keep: bool):
        tracer = self
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, keep)
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame = tracer._enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, False)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS` that exists."""
        import inspect

        self.wrapped, self.missing = [], []
        for module_name, cls_name, attr, name, keep in TARGETS:
            label = ".".join(filter(None, (module_name, cls_name, attr)))
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, cls_name) if cls_name else module
                fn = owner.__dict__[attr] if cls_name \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(fn, name)
            else:
                wrapped = self._wrap_function(fn, name, keep)
            if cls_name:
                self._originals.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                self._rebind(fn, wrapped)
            self.wrapped.append(label)

    def _rebind(self, fn, wrapped) -> None:
        """Point every loaded ``repro`` module's reference to ``fn``
        at ``wrapped`` (``from x import f`` copies the binding)."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._originals.append((module, key, fn))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- results -------------------------------------------------------
    def layer_self_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[layer_of(name)] += seconds
        return dict(out)

    @staticmethod
    def interned_zones() -> int:
        """Zones held by every live intern table right now."""
        import gc

        try:
            from repro.zones.intern import ZoneInternTable
        except ImportError:
            return 0
        return sum(len(obj) for obj in gc.get_objects()
                   if isinstance(obj, ZoneInternTable))

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op}) + "\n")


def _count_exploration(tracer: Tracer, args, result) -> None:
    tracer.counters["mc.explorations"] += 1
    tracer.counters["mc.states"] += getattr(result, "visited", 0)
    tracer.counters["mc.transitions"] += getattr(result, "transitions", 0)
    explorer = args[0]
    rows = sum(len(bucket) for bucket in
               (getattr(explorer, "passed_store", None) or {}).values())
    tracer.counters["zones.store.rows"] += rows
    backend = getattr(getattr(explorer, "backend", None), "name", None)
    if backend:
        tracer.counters[f"backend.{backend}"] += 1


def _count_covered(tracer: Tracer, args, result) -> None:
    if result:
        tracer.counters["zones.store.covered"] += 1


def _count_portfolio(tracer: Tracer, args, outcome) -> None:
    tracer.counters["portfolio.schemes"] += len(outcome)
    tracer.counters["portfolio.explored"] += outcome.explored
    tracer.counters["portfolio.memo_hits"] += outcome.memoized


_OBSERVERS = {
    "mc.explore": _count_exploration,
    "zones.store.covers": _count_covered,
    "portfolio.run": _count_portfolio,
}
