"""Host-time spans recorded from outside ``repro``.

A :class:`Recorder` keeps ``(name, start_ns, end_ns, parent, op_id)``
tuples in memory.  Two things feed it:

* :meth:`Recorder.stage` — a context manager the harness puts around
  its own calls into the library (dataset generation, build, freeze,
  the DES run, each export).  Stages are recorded on every run; there
  are a dozen per round, so they cost nothing measurable.
* :meth:`Recorder.wrap` — call wrappers that :func:`install` patches
  over layer-boundary callables for the traced pass only and
  :func:`restore` puts back.

The process is single-threaded and every wrapped callable returns
before its caller does, so open spans form a stack and a span's parent
is whatever was on top when it opened.  A span's *self time* is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (name, start_ns, end_ns, parent index or -1, op id or -1)
Span = Tuple[str, int, int, int, int]

#: (owner object, attribute or key, original value, owner is a dict)
Patch = Tuple[object, str, object, bool]


class Recorder:
    """In-memory span sink; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: Identifier shared by the spans of one operation; the workload
        #: sets it where an operation has a host-side boundary.
        self.op_id = -1
        #: Every Environment whose run() was traced, so the event count
        #: can be read off it once the run is over.
        self.environments: List[object] = []

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: int, end: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op_id)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, name, start, time.perf_counter_ns())

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable that records one *name* span per call to *fn*."""
        open_span, close_span = self._open, self._close
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = open_span()
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index, name, start, now())

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_coroutine(self, name: str, generator):
        """Proxy *generator*, recording one *name* span per resume.

        The executors drive search coroutines with ``next``/``send`` and
        read the answer off ``StopIteration.value``; the proxy forwards
        all three, so it can stand in for the coroutine it wraps.
        """
        send = self.wrap(name, generator.send)

        def proxy():
            reply = None
            while True:
                try:
                    request = send(reply)
                except StopIteration as stop:
                    return stop.value
                reply = yield request

        return proxy()

    def closed(self) -> List[Span]:
        """Every finished span, in the order the spans were opened."""
        return [span for span in self.spans if span is not None]


# -- arithmetic --------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time (ns) of each span: duration minus direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def under(spans: Sequence[Span], root_name: str) -> List[bool]:
    """For each span, whether it is or sits below a *root_name* span.

    Relies on parents being opened, and therefore indexed, before their
    children.
    """
    inside = [False] * len(spans)
    for index, (name, _, _, parent, _) in enumerate(spans):
        inside[index] = name == root_name or (parent >= 0 and inside[parent])
    return inside


def totals(
    spans: Sequence[Span], keep: Optional[Sequence[bool]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, self seconds and inclusive seconds."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for index, (name, start, end, _, _) in enumerate(spans):
        if keep is not None and not keep[index]:
            continue
        row = out[name]
        row["calls"] += 1
        row["self_s"] += own[index] / 1e9
        row["total_s"] += (end - start) / 1e9
    return dict(out)


# -- patching ----------------------------------------------------------------


def _patch(patches: List[Patch], owner, key: str, value) -> None:
    if isinstance(owner, dict):
        patches.append((owner, key, owner[key], True))
        owner[key] = value
    else:
        # Read through __dict__ so a staticmethod/classmethod wrapper is
        # saved as such and an inherited attribute is not captured.
        original = vars(owner)[key]
        patches.append((owner, key, original, False))
        setattr(owner, key, value)


def restore(patches: List[Patch]) -> None:
    """Put back every original, newest patch first."""
    while patches:
        owner, key, original, is_dict = patches.pop()
        if is_dict:
            owner[key] = original
        else:
            setattr(owner, key, original)


def _public_methods(cls) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, property, type))
    ]


def _subclasses(base) -> List[type]:
    found, queue = [], [base]
    while queue:
        cls = queue.pop()
        found.append(cls)
        queue.extend(cls.__subclasses__())
    return found


def install(recorder: Recorder) -> List[Patch]:
    """Wrap the layer-boundary callables; returns what to :func:`restore`.

    Only plain (non-generator) callables get a timing wrapper: a call
    wrapper around a generator function would time the creation of the
    generator, not its body.  The process bodies of ``simulator``,
    ``system``, ``frontend`` and ``raid1`` therefore stay inside the
    self time of ``simulation.run``.
    """
    from repro.core import bbss, crss, executor, fpss, regions, scan, woptss
    from repro.disks.model import DiskModel
    from repro.extensions.raid1 import MirroredDiskArraySystem
    from repro.faults.health import DiskHealthMonitor
    from repro.obs.lifecycle import LifecycleLog
    from repro.obs import metrics as obs_metrics
    from repro.obs.slo import SLOTracker
    from repro.obs.timeline import TimelineSampler
    from repro.obs.trace import Tracer
    from repro.parallel.declustering import DeclusteringPolicy
    from repro.perf import kernels
    from repro.rtree.split import SplitPolicy
    from repro.rtree.tree import RStarTree
    from repro.serving.admission import AdmissionController
    from repro.serving.batcher import FetchBroker
    from repro.simulation.buffer import BufferPool
    from repro.simulation.engine import Environment, Resource

    patches: List[Patch] = []

    def methods(cls, span_name: str, names: Sequence[str]) -> None:
        for name in names:
            if name in vars(cls):
                _patch(patches, cls, name,
                       recorder.wrap(span_name, vars(cls)[name]))

    try:
        methods(RStarTree, "rtree.insert", ["insert"])
        methods(RStarTree, "rtree.delete", ["delete"])
        for cls in _subclasses(SplitPolicy):
            methods(cls, "rtree.split", ["split"])
        for cls in _subclasses(DeclusteringPolicy):
            methods(cls, "parallel.place", ["choose_disk"])
        methods(DiskModel, "disks.service", ["service", "service_coalesced"])
        methods(BufferPool, "simulation.buffer", ["lookup", "admit"])
        methods(Resource, "simulation.resource", ["request", "release"])
        timed_run = recorder.wrap("simulation.run", vars(Environment)["run"])

        def run(env, *args, **kwargs):
            recorder.environments.append(env)
            return timed_run(env, *args, **kwargs)

        _patch(patches, Environment, "run", run)
        methods(AdmissionController, "serving.admission",
                ["offer", "pop_next", "release"])
        methods(FetchBroker, "serving.broker", ["submit"])
        methods(DiskHealthMonitor, "faults.health",
                _public_methods(DiskHealthMonitor))
        # Generator methods: the span times only the call that creates
        # the process, so just its count is used.
        methods(MirroredDiskArraySystem, "extensions.raid1_fetch",
                ["fetch_page", "fetch_group"])
        methods(executor.CountingExecutor, "core.executor", ["execute"])
        methods(Tracer, "obs.tracer",
                ["track", "span", "instant", "counter", "async_event"])
        methods(obs_metrics.MetricsRegistry, "obs.metrics",
                ["counter", "gauge", "histogram"])
        methods(obs_metrics.Counter, "obs.metrics", ["inc"])
        methods(obs_metrics.Gauge, "obs.metrics", ["set"])
        methods(obs_metrics.Histogram, "obs.metrics", ["observe"])
        methods(TimelineSampler, "obs.timeline", ["record"])
        methods(LifecycleLog, "obs.lifecycle",
                ["arrival", "admitted", "queued", "popped", "shed",
                 "rejected", "batch", "round", "outcome"])
        methods(SLOTracker, "obs.slo", ["observe"])

        kernel_names = [
            name for name in vars(kernels)
            if name.startswith("batch_") and callable(vars(kernels)[name])
        ]
        wrapped_kernels = {}
        for name in kernel_names:
            original = vars(kernels)[name]
            wrapped_kernels[original] = recorder.wrap("perf.kernels", original)
            _patch(patches, kernels, name, wrapped_kernels[original])
        # scan and regions also hold the kernels in module-level tables
        # built at import; those entries bypass the module attribute.
        for module in (scan, regions):
            for table in vars(module).values():
                if not isinstance(table, dict):
                    continue
                for key, value in list(table.items()):
                    if callable(value) and value in wrapped_kernels:
                        _patch(patches, table, key, wrapped_kernels[value])
        # The scan helpers are imported by name into each algorithm
        # module, so each importer's own binding has to be replaced.
        for module in (bbss, fpss, crss, woptss):
            for name in ("scan_children", "offer_leaf", "gathered_counts"):
                if name in vars(module):
                    _patch(patches, module, name,
                           recorder.wrap("core.scan", vars(module)[name]))
    except BaseException:
        restore(patches)
        raise
    return patches
