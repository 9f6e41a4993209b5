"""Layer tracing installed from outside the program.

:class:`Tracer` wraps the entry points of each layer (listed in
:data:`SPANS` and :data:`COUNTS`) in place, records a span per call with
name, start, end and parent, counts calls at the same boundaries, and
removes every wrapper again on :meth:`Tracer.uninstall`. Nothing under
``src/`` is edited.

* A span's *self time* is its duration minus the time its direct child
  spans cover; a layer's ``busy_s`` is the sum of its spans' self time.
* A call into a layer that is already the innermost open span is
  counted but opens no new span (recursion such as ``estimate_size``
  would otherwise produce one span per nested container).
* Generator functions (DES processes) are wrapped in a proxy generator
  that times each resume as one span, so a process's busy time excludes
  the simulated time it spends parked on events.
* Spans and counts are kept per thread (the live backend runs one host
  per thread) and merged when the run ends; spans are written out only
  then.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> targets. ``mod:Class.meth`` one method, ``mod:Class.*``
#: its public methods, ``mod:Class.**`` every method, ``mod:func`` one
#: function, ``mod:**`` every method of every class defined in ``mod``.
SPANS: List[Tuple[str, List[str]]] = [
    ("machines.merge", [
        "repro.core.machines.table:LockingTable.update",
        "repro.core.machines.table:LockingTable.apply_delta",
        "repro.core.machines.table:LockingTable.merge_bulletin",
    ]),
    ("machines.decide", ["repro.core.machines.priority:decide"]),
    ("machines.replica", ["repro.core.machines.replica:ReplicaMachine.*"]),
    ("machines.agent", ["repro.core.machines.agent:AgentMachine.*"]),
    ("agents", [
        "repro.core.update_agent:UpdateAgent.**",
        "repro.agents.agent:MobileAgent.**",
        "repro.agents.platform:AgentPlatform.**",
    ]),
    ("sim.run", ["repro.replication.deployment:Deployment.run"]),
    ("sim.inbox", ["repro.sim.stores:Store._dispatch"]),
    ("net.send", [
        "repro.net.network:Network.send",
        "repro.net.network:Network.attempt_transfer",
        "repro.net.network:Network._deliver",
    ]),
    ("net.size", [
        "repro.net.message:estimate_size",
        "repro.agents.identity:AgentId.wire_size",
        "repro.core.machines.wire:SharedViewDelta.wire_size",
        "repro.core.machines.wire:WriteOp.wire_size",
        "repro.core.machines.wire:UpdatePayload.wire_size",
        "repro.core.machines.wire:Transform.wire_size",
        "repro.core.machines.table:LockingTable.wire_size",
    ]),
    ("replication.server", ["repro.replication.server:ReplicaServer.**"]),
    ("replication.protocol", [
        "repro.replication.protocol:ReplicationProtocol.**",
        "repro.core.protocol:MARP.**",
    ]),
    ("baselines", [
        "repro.baselines.base:**",
        "repro.baselines.mcv:**",
    ]),
    ("workload", [
        "repro.workload.mix:OperationMix.sample",
        "repro.workload.mix:OperationMix.sample_batch",
        "repro.workload.arrivals:ExponentialArrivals.next_gap",
        "repro.workload.arrivals:ExponentialArrivals.gaps",
        "repro.replication.client:Client.**",
    ]),
    ("analysis.audit", [
        "repro.analysis.consistency:audit",
        "repro.analysis.consistency:commit_slots",
    ]),
    ("analysis.metrics", [
        "repro.analysis.metrics:alt",
        "repro.analysis.metrics:att",
        "repro.analysis.metrics:prk",
        "repro.analysis.metrics:throughput",
    ]),
    ("runtime.host", ["repro.runtime.host:HostRuntime.**"]),
    ("runtime.transport", ["repro.runtime.transport:LiveTransport.send"]),
]

#: counter name -> targets counted without a span (too hot, or a
#: boundary that only needs a count).
COUNTS: List[Tuple[str, List[str]]] = [
    ("machines.ul_add", ["repro.core.machines.structures:UpdatedList.add"]),
    ("workload.draws", [
        "repro.workload.mix:OperationMix.sample",
        "repro.workload.mix:OperationMix.sample_batch",
        "repro.workload.arrivals:ExponentialArrivals.next_gap",
        "repro.workload.arrivals:ExponentialArrivals.gaps",
    ]),
]

#: Methods never wrapped: a host thread's whole life is one ``run``
#: call, so a span around it would count idle blocking as busy time.
SKIP = {"repro.runtime.host:HostRuntime.run"}


class _ThreadState:
    __slots__ = ("stack", "names", "starts", "ends", "parents", "counts",
                 "busy")

    def __init__(self) -> None:
        #: open spans: [name id, child seconds, span index]
        self.stack: List[list] = []
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Dict[int, int] = defaultdict(int)
        self.busy: Dict[int, float] = defaultdict(float)


class Tracer:
    """Spans and call counts at layer boundaries, for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.mailbox_waits: List[float] = []
        self._sent_at: Dict[int, float] = {}

    # -- bookkeeping -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def open(self, st: _ThreadState, nid: int) -> list:
        stack = st.stack
        index = len(st.names)
        st.names.append(nid)
        st.starts.append(0.0)
        st.ends.append(0.0)
        st.parents.append(stack[-1][2] if stack else -1)
        frame = [nid, 0.0, index]
        stack.append(frame)
        st.starts[index] = perf_counter()
        return frame

    def close(self, st: _ThreadState, frame: list) -> None:
        end = perf_counter()
        index = frame[2]
        st.ends[index] = end
        st.stack.pop()
        duration = end - st.starts[index]
        st.busy[frame[0]] += duration - frame[1]
        if st.stack:
            st.stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        st = self.state()
        nid = self.name_id(name)
        st.counts[nid] += 1
        frame = self.open(st, nid)
        try:
            yield
        finally:
            self.close(st, frame)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.state().counts[nid] += 1
                inner = fn(*args, **kwargs)
                proxy = tracer._proxy(inner, nid)
                proxy.__name__ = inner.__name__
                proxy.__qualname__ = inner.__qualname__
                return proxy
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            st.counts[nid] += 1
            stack = st.stack
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            frame = tracer.open(st, nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(st, frame)
        return wrapper

    def _proxy(self, inner, nid: int):
        """Re-yield ``inner``'s events, timing each resume as a span."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            st = self.state()
            stack = st.stack
            frame = None if stack and stack[-1][0] == nid else self.open(st, nid)
            try:
                if error is None:
                    item = inner.send(value)
                else:
                    item = inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    self.close(st, frame)
            error = None
            try:
                value = yield item
            except BaseException as exc:  # delivered into ``inner``
                error = exc
                value = None

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.state().counts[nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, new: Callable) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = module.__dict__[attr]
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, new)

    def _targets(self, spec: str):
        """Yield (owner, attr, is_method) for one target spec."""
        module_name, _, path = spec.partition(":")
        module = importlib.import_module(module_name)
        if path == "**":
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module_name:
                    yield from self._methods(cls, module_name, private=True)
            return
        if "." not in path:
            yield module, path, False
            return
        cls_name, _, meth = path.partition(".")
        cls = getattr(module, cls_name)
        if meth in ("*", "**"):
            yield from self._methods(cls, module_name, private=meth == "**")
        else:
            yield cls, meth, True

    @staticmethod
    def _methods(cls, module_name: str, private: bool):
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value) or attr.startswith("__"):
                continue
            if attr.startswith("_") and not private:
                continue
            if f"{module_name}:{cls.__name__}.{attr}" in SKIP:
                continue
            yield cls, attr, True

    def install(self) -> "Tracer":
        # Load every module that may hold a reference to a wrapped
        # function first, so _patch_function finds them all.
        for module in ("repro.experiments.runner", "repro.runtime.cluster"):
            importlib.import_module(module)
        for kind, table in (("count", COUNTS), ("span", SPANS)):
            for name, specs in table:
                for spec in specs:
                    for owner, attr, is_method in self._targets(spec):
                        current = owner.__dict__[attr]
                        new = (
                            self._count_wrapper(current, name)
                            if kind == "count"
                            else self._span_wrapper(current, name)
                        )
                        if is_method:
                            self._patch(owner, attr, new)
                        else:
                            self._patch_function(owner, attr, new)
        self._install_inbox()
        self._install_sim_steps()
        self._install_live()
        return self

    def _install_inbox(self) -> None:
        """Count FilterStore gets, and the filter calls they scan."""
        from repro.sim.stores import FilterStore

        tracer = self
        gets = self.name_id("sim.inbox.gets")
        scanned = self.name_id("sim.inbox.scanned")
        original = FilterStore.__dict__["get"]

        @functools.wraps(original)
        def get(store, filter=None):
            counts = tracer.state().counts
            counts[gets] += 1
            if filter is None:
                return original(store, None)

            def counting_filter(item, _filter=filter):
                counts[scanned] += 1
                return _filter(item)
            return original(store, counting_filter)

        self._patch(FilterStore, "get", get)

    def _install_sim_steps(self) -> None:
        """Count processed events through the Environment's per-instance
        ``step`` hook (the loop honours an instance-level step)."""
        from repro.sim.core import Environment

        tracer = self
        events = self.name_id("sim.events")
        original_init = Environment.__dict__["__init__"]
        step = Environment.step

        @functools.wraps(original_init)
        def __init__(env, *args, **kwargs):
            original_init(env, *args, **kwargs)
            counts = tracer.state().counts

            def counted_step():
                counts[events] += 1
                step(env)
            env.step = counted_step

        self._patch(Environment, "__init__", __init__)

    def _install_live(self) -> None:
        """Mailbox wait (send to dequeue) and delivery-timer counts."""
        from repro.runtime import host as host_module
        from repro.runtime import transport as transport_module

        tracer = self
        sent_at = self._sent_at
        waits = self.mailbox_waits
        send = transport_module.LiveTransport.__dict__["send"]
        dispatch = host_module.HostRuntime.__dict__["_dispatch"]

        @functools.wraps(send)
        def timed_send(transport, msg):
            sent_at[id(msg)] = perf_counter()
            return send(transport, msg)

        @functools.wraps(dispatch)
        def timed_dispatch(runtime, msg, now):
            start = sent_at.pop(id(msg), None)
            if start is not None:
                waits.append((perf_counter() - start) * 1000.0)
            return dispatch(runtime, msg, now)

        self._patch(transport_module.LiveTransport, "send", timed_send)
        self._patch(host_module.HostRuntime, "_dispatch", timed_dispatch)

        timers = self.name_id("runtime.timers")
        real_threading = transport_module.threading

        class _CountingThreading:
            def __getattr__(self, attr):
                return getattr(real_threading, attr)

            @staticmethod
            def Timer(*args, **kwargs):
                tracer.state().counts[timers] += 1
                return real_threading.Timer(*args, **kwargs)

        self._patch(transport_module, "threading", _CountingThreading())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        total: Dict[str, int] = defaultdict(int)
        for st in self._states:
            for nid, n in st.counts.items():
                total[self._names[nid]] += n
        return dict(total)

    def busy(self) -> Dict[str, float]:
        total: Dict[str, float] = defaultdict(float)
        for st in self._states:
            for nid, seconds in st.busy.items():
                total[self._names[nid]] += seconds
        return dict(total)

    def n_spans(self) -> int:
        return sum(len(st.names) for st in self._states)

    def write_spans(self, path: str) -> None:
        """All spans of the run: name, start, end, parent, thread."""
        import numpy as np

        names, starts, ends, parents, threads = [], [], [], [], []
        base = 0
        for thread, st in enumerate(self._states):
            if not st.names:
                continue
            parent = np.frombuffer(st.parents, dtype=np.int64).copy()
            parent[parent >= 0] += base
            names.append(np.frombuffer(st.names, dtype=np.uint16))
            starts.append(np.frombuffer(st.starts, dtype=np.float64))
            ends.append(np.frombuffer(st.ends, dtype=np.float64))
            parents.append(parent)
            threads.append(np.full(len(st.names), thread, dtype=np.uint16))
            base += len(st.names)

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            span_names=np.array(self._names),
            name=cat(names, np.uint16),
            start=cat(starts, np.float64),
            end=cat(ends, np.float64),
            parent=cat(parents, np.int64),
            thread=cat(threads, np.uint16),
        )
