"""Host-speed reference: a fixed workload timed beside every measurement.

The shared host this benchmark runs on changes speed in phases that
last from seconds to minutes: the same DES rep takes 0.9 s in one phase
and 1.5 s in the next, and a run of 30 s cannot outlast a phase. The
benchmark therefore times :func:`reference_work`, a small discrete-event
simulation written here (heap of timed events, generator processes,
filtered mailbox scans, dict updates, the operations the program spends
its time on) that no change to the program can touch, between windows
of measured work. Each window's wall time is scaled by
``REF_NOMINAL_S / (mean of the reference times just before and just
after it)``: a *normalised second* is the time the host would take at
the speed at which the reference runs in ``REF_NOMINAL_S``.

Measured on a 2-vCPU VM over 146 alternations of one quorum_mixed rep
with the reference, while the host moved between phases: the rep's
median wall per block of 15 ranged 0.91-1.47 s (1.6x), its wall over the
neighbouring reference time 9.8-10.5 (7%).
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter
from typing import Dict, Hashable, List, Tuple

#: Wall time of one :func:`reference_work` on the nominal host.
REF_NOMINAL_S = 0.1
#: Measured work between two reference timings, at least.
WINDOW_S = 1.0
#: Reference runs discarded before the first timed one (a fresh
#: interpreter runs its first few noticeably slower).
WARMUP = 2

_PROCESSES = 8
_EVENTS = 20000


def reference_work() -> int:
    """A fixed mini DES; returns a checksum of its final state."""
    rng = random.Random(7)
    heap: List[Tuple[float, int, int]] = []
    inboxes: Dict[int, list] = {i: [] for i in range(_PROCESSES)}
    state: Dict[str, int] = {}

    def process(pid: int):
        count = 0
        while True:
            box = inboxes[pid]
            hits = [m for m in box if m[0] % 3 != pid % 3]
            if hits:
                box.remove(hits[0])
            key = f"k{count % 17}"
            state[key] = state.get(key, 0) + 1
            count += 1
            yield rng.expovariate(1.0)

    processes = {i: process(i) for i in range(_PROCESSES)}
    for i in range(_PROCESSES):
        heapq.heappush(heap, (0.0, i, i))
    seq = 0
    for _ in range(_EVENTS):
        now, _order, pid = heapq.heappop(heap)
        delay = next(processes[pid])
        dst = rng.randrange(_PROCESSES)
        inboxes[dst].append((seq, pid, {"t": now, "v": seq}))
        if len(inboxes[dst]) > 40:
            inboxes[dst].pop(0)
        seq += 1
        heapq.heappush(heap, (now + delay, seq, pid))
    return sum(state.values()) + seq


def time_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class Normaliser:
    """Alternates reference timings with windows of measured work.

    :meth:`add` records one measured execution's wall seconds under a
    key; once a window holds ``WINDOW_S`` of work, :meth:`close` times
    the reference again and gives every execution of the window the
    scale ``REF_NOMINAL_S / mean(reference before, reference after)``.
    """

    def __init__(self) -> None:
        for _ in range(WARMUP):
            time_reference()
        self.refs: List[float] = [time_reference()]
        self.pending: List[Tuple[Hashable, float]] = []
        #: key -> [(wall seconds, scale)] of each closed execution
        self.runs: Dict[Hashable, List[Tuple[float, float]]] = {}

    def add(self, key: Hashable, wall: float) -> None:
        self.pending.append((key, wall))
        if sum(w for _k, w in self.pending) >= WINDOW_S:
            self.close()

    def close(self) -> None:
        if not self.pending:
            return
        self.refs.append(time_reference())
        scale = REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2.0)
        for key, wall in self.pending:
            self.runs.setdefault(key, []).append((wall, scale))
        self.pending = []

    def normalised(self, key: Hashable) -> List[float]:
        """Normalised seconds of every closed execution under ``key``."""
        return [wall * scale for wall, scale in self.runs.get(key, [])]
