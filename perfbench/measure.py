"""End-to-end figures from the program's outputs.

Everything here reads results the public API returns (``RunResult``
records, network totals, replica histories; the live cluster's records
and final dumps) and turns them into plain numbers, so the child process
can ship them to the parent as JSON.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(percentile, value, samples): the highest percentile with at
    least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct), n
    return 50.0, percentile(values, 50.0), n


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def service_gap(intervals: Iterable[Tuple[float, Optional[float], bool]],
                end: float) -> float:
    """Longest interval in which requests were pending but none was
    served.

    ``intervals`` holds one ``(created_at, finished_at, served)`` per
    request; ``finished_at`` is None for a request still open at
    ``end``, and ``served`` is False for a request that finished by
    failing (its end leaves the gap running).
    """
    events: List[Tuple[float, int, bool]] = []
    for created, finished, served in intervals:
        events.append((created, 0, False))
        events.append((end if finished is None else finished, 1, served))
    events.sort(key=lambda e: (e[0], e[1]))
    pending = 0
    gap_start = 0.0
    longest = 0.0
    for time, kind, served in events:
        if kind == 0:
            if pending == 0:
                gap_start = time
            pending += 1
            continue
        if served:
            longest = max(longest, time - gap_start)
            gap_start = time
        pending -= 1
        if pending == 0:
            longest = max(longest, time - gap_start)
    return longest


def chain_fingerprint(slots, id_base: int) -> str:
    """sha256 over the global commit map with run-relative request ids."""
    canon = sorted(
        (key, version, request_id - id_base, value)
        for key, version, request_id, value in slots
    )
    text = json.dumps(canon, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def des_rep(result) -> Dict[str, Any]:
    """Plain-data summary of one DES rep (a ``RunResult``)."""
    records = result.records
    deployment = result.deployment
    writes = [r for r in records if r.op == "write"]
    reads = [r for r in records if r.op == "read"]
    committed = [r for r in writes if r.status == "committed"]
    reads_done = [r for r in reads if r.status == "read-done"]
    failed = sum(1 for r in records if r.status == "failed")
    still_open = sum(1 for r in records if r.status == "pending")

    hosts = list(deployment.hosts)
    cells = {(key, version) for key, version, _rid, _v in result.commit_slots}
    missing = 0
    for host in hosts:
        have = {(c.key, c.version) for c in deployment.server(host).history}
        missing += len(cells - have)

    served_status = ("committed", "read-done")
    gap = service_gap(
        (
            (
                r.created_at,
                r.completed_at if r.status != "pending" else None,
                r.status in served_status,
            )
            for r in records
        ),
        end=result.sim_time,
    )
    audit = result.audit
    problems: List[str] = []
    # AuditReport.consistent is divergence-free, monotone and equal final
    # states; `complete` is not required, since a replica may skip a
    # superseded version whose APPLY/COMMIT arrives after a newer one.
    if not audit.consistent:
        problems.append("run not consistent")
    if still_open or failed:
        problems.append(f"{failed} failed, {still_open} open")
    if not committed:
        problems.append("nothing committed")
    problems.extend(audit.problems[:3] if problems else [])

    id_base = min((r.request_id for r in records), default=0)
    return {
        "attempted": len(records),
        "committed": len(committed),
        "failed": failed + still_open,
        "open": still_open,
        "write_ms": [r.completed_at - r.created_at for r in committed],
        "read_ms": [r.completed_at - r.created_at for r in reads_done],
        "messages": result.total_messages,
        "bytes": result.total_bytes,
        "dropped": result.dropped,
        "cells": len(cells),
        "replicas": len(hosts),
        "missing_versions": missing,
        "service_gap_ms": gap,
        "fingerprint": chain_fingerprint(result.commit_slots, id_base),
        "audit": {
            "divergence_free": audit.divergence_free,
            "monotone": audit.monotone,
            "final_state_equal": audit.final_state_equal,
            "complete": audit.complete,
            "identical_histories": audit.identical_histories,
        },
        "problems": problems,
        # per-layer inputs (records are gone once the child exits)
        "dispatch_wait_ms": mean([
            r.dispatched_at - r.created_at for r in committed
            if r.dispatched_at is not None
        ]),
        "commit_phase_ms": mean([
            r.completed_at - r.lock_acquired_at for r in committed
            if r.lock_acquired_at is not None
        ]),
        "lock_wait_ms": mean([
            r.lock_time for r in committed
            if r.visits_to_lock is not None and r.lock_time is not None
        ]),
        "visits_per_commit": mean([
            float(r.total_visits) for r in committed
            if r.total_visits is not None
        ]),
    }


def pooled(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Latency and cost figures over the pooled samples of several reps.

    ``max_service_gap_ms`` is the median of the per-rep gaps: one rep's
    worst stall should not decide the run's figure.
    """
    write_ms = [v for rep in reps for v in rep["write_ms"]]
    read_ms = [v for rep in reps for v in rep["read_ms"]]
    committed = sum(rep["committed"] for rep in reps)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    cells = sum(rep["cells"] * rep["replicas"] for rep in reps)
    missing = sum(rep["missing_versions"] for rep in reps)
    pct, tail_value, n = tail(write_ms)
    out = {
        "write_p50_ms": percentile(write_ms, 50.0),
        "write_tail_ms": tail_value,
        "write_tail_pct": pct,
        "write_samples": n,
        "read_p50_ms": percentile(read_ms, 50.0) if read_ms else None,
        "read_samples": len(read_ms),
        "msgs_per_commit": (
            sum(rep["messages"] for rep in reps) / committed
            if committed else float("inf")
        ),
        "bytes_per_commit": (
            sum(rep["bytes"] for rep in reps) / committed
            if committed else float("inf")
        ),
        "failed_frac": failed / attempted if attempted else 1.0,
        "served_frac": 1.0 - failed / attempted if attempted else 0.0,
        "missing_versions": missing,
        "replica_coverage": 1.0 - missing / cells if cells else 0.0,
        "max_service_gap_ms": percentile(
            [rep["service_gap_ms"] for rep in reps], 50.0
        ),
        "attempted": attempted,
        "failed": failed,
        "committed": committed,
    }
    return out
