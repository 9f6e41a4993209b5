"""The half of the benchmark that runs inside a fresh interpreter.

``run.py`` starts one child per measurement so that one workload's
imports, caches and memory never leak into another's:

    python3 perfbench/child.py setup --workload W --seed S
    python3 perfbench/child.py run --workload W --seed S --seconds T \
        --trace 0|1 [--spans PATH]
    python3 perfbench/child.py sample --workload W --seed S --trace 0|1

Each prints one JSON line. ``setup`` prints as soon as the workload could
take its first request; ``sample`` runs only the reps a traced run
traces (used by the self-test).
The program is imported from ``src/`` of the checkout (``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from statistics import median
from time import perf_counter

import measure
import reference
import workloads
from tracer import Tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up probe ------------------------------------------------------------


def setup(name: str, seed: int) -> dict:
    """Imports plus deployment (or cluster) construction, timed."""
    start = perf_counter()
    workload = workloads.WORKLOADS[name]
    if name == "live_threads":
        from repro.runtime.cluster import LiveCluster

        imported = perf_counter()
        inputs = workload.inputs(seed, 0)
        cluster = LiveCluster(
            n_replicas=inputs["n_replicas"], backend=inputs["backend"],
            latency_range=tuple(inputs["latency_range"]),
            seed=inputs["seed"],
        ).start()
        built = perf_counter()
        cluster.shutdown()
    else:
        from repro.experiments.runner import build_protocol
        from repro.net.latency import lan_profile
        from repro.replication.deployment import Deployment

        imported = perf_counter()
        config = workloads.run_config(workload.inputs(seed, 0))
        deployment = Deployment(
            n_replicas=config.n_replicas, seed=config.seed,
            latency=lan_profile(), faults=config.faults,
        )
        build_protocol(deployment, config)
        built = perf_counter()
    return {"import_s": imported - start, "build_s": built - imported}


# -- DES workloads -------------------------------------------------------------


def des_rep(workload, seed: int, rep: int, tracer=None) -> dict:
    """One rep through ``run_once``; with a tracer, under a root span."""
    from repro.experiments.runner import run_once

    inputs = workload.inputs(seed, rep)
    config = workloads.run_config(inputs)
    start = perf_counter()
    if tracer is not None:
        with tracer.span("run"):
            result = run_once(config)
    else:
        result = run_once(config)
    wall = perf_counter() - start
    summary = measure.des_rep(result)
    summary["wall_s"] = wall
    summary["inputs"] = inputs
    return summary


def des_run(workload, seed: int, seconds: float) -> dict:
    """The fixed set of ``workload.reps`` reps, then timing passes.

    Latency and cost figures pool the fixed set. After it, the run
    repeats the same reps in order until ``seconds`` are used up; a
    repeat must reproduce its rep's commit-chain fingerprint. Every
    execution's wall time is normalised by the host-speed reference
    timed around its window (``reference.py``), and each rep's time is
    the median of its normalised executions. ``commits_per_s`` is the
    fixed set's commits over the sum of those times;
    ``raw_commits_per_s`` is the same over median wall times.
    """
    start = perf_counter()
    norm = reference.Normaliser()
    reps = []
    for rep in range(workload.reps):
        reps.append(des_rep(workload, seed, rep))
        norm.add(rep, reps[-1]["wall_s"])
    problems = [p for r in reps for p in r["problems"]]
    repeat = 0
    while perf_counter() - start < seconds:
        index = repeat % len(reps)
        again = des_rep(workload, seed, index)
        norm.add(index, again["wall_s"])
        if again["fingerprint"] != reps[index]["fingerprint"]:
            problems.append(f"rep {index} did not repeat its fingerprint")
        repeat += 1
    norm.close()
    committed = sum(r["committed"] for r in reps)
    result = measure.pooled(reps)
    result["commits_per_s"] = committed / sum(
        median(norm.normalised(i)) for i in range(len(reps))
    )
    result["raw_commits_per_s"] = committed / sum(
        median(wall for wall, _scale in norm.runs[i])
        for i in range(len(reps))
    )
    result["host_ref_ms"] = median(norm.refs) * 1000.0
    result["reps"] = len(reps)
    result["repeats"] = repeat
    result["rep_walls_s"] = [norm.runs[i] for i in range(len(reps))]
    result["host_refs_s"] = norm.refs
    result["rep_commits"] = [r["committed"] for r in reps]
    result["fingerprints"] = [r["fingerprint"] for r in reps]
    result["problems"] = problems
    result["inputs"] = [r["inputs"] for r in reps]
    result["audits"] = [r["audit"] for r in reps]
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def des_sample(workload, seed: int, tracer=None) -> dict:
    """The traced sample: the first ``workload.trace_reps`` reps, pooled,
    with every wrapper installed for the whole sample when traced."""
    if tracer is not None:
        tracer.install()
    try:
        reps = [des_rep(workload, seed, rep, tracer)
                for rep in range(workload.trace_reps)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = measure.pooled(reps)
    for field in ("dispatch_wait_ms", "commit_phase_ms", "lock_wait_ms",
                  "visits_per_commit"):
        out[field] = measure.mean([r[field] for r in reps])
    out["read_ms"] = [v for r in reps for v in r["read_ms"]]
    for field in ("messages", "bytes", "dropped", "wall_s"):
        out[field] = sum(r[field] for r in reps)
    out["fingerprints"] = [r["fingerprint"] for r in reps]
    out["problems"] = [p for r in reps for p in r["problems"]]
    out["inputs"] = [r["inputs"] for r in reps]
    if tracer is not None:
        out["counts"] = tracer.counts()
    return out


def des_traced(workload, seed: int, spans_path) -> dict:
    """The sample untraced, then traced: per-layer figures."""
    plain = des_sample(workload, seed)
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}")
    traced = des_sample(workload, seed, tracer)
    problems = plain["problems"] + traced["problems"]
    for field in ("fingerprints", "messages", "bytes", "failed"):
        if plain[field] != traced[field]:
            problems.append(f"tracing changed {field}")
    if spans_path:
        tracer.write_spans(spans_path)
    return {
        "layers": layer_metrics(tracer, traced, plain["wall_s"]),
        "spans": tracer.n_spans(),
        "fingerprints": traced["fingerprints"],
        "problems": problems,
        "inputs": traced["inputs"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
    }


def layer_metrics(tracer, traced: dict, untraced_wall: float) -> dict:
    counts = tracer.counts()
    busy = tracer.busy()
    messages = traced.get("messages", 0)
    gets = counts.get("sim.inbox.gets", 0)
    scanned = counts.get("sim.inbox.scanned", 0)
    out = {
        "machines.merge.calls": counts.get("machines.merge", 0),
        "machines.merge.busy_s": busy.get("machines.merge", 0.0),
        "machines.ul_add.calls": counts.get("machines.ul_add", 0),
        "machines.decide.calls": counts.get("machines.decide", 0),
        "machines.decide.busy_s": busy.get("machines.decide", 0.0),
        "machines.replica.busy_s": busy.get("machines.replica", 0.0),
        "machines.agent.busy_s": busy.get("machines.agent", 0.0),
        "agents.busy_s": busy.get("agents", 0.0),
        "agents.visits_per_commit": traced.get("visits_per_commit", 0.0),
        "agents.lock_wait_ms": traced.get("lock_wait_ms", 0.0),
        "sim.events": counts.get("sim.events", 0),
        "sim.busy_s": busy.get("sim.run", 0.0),
        "sim.inbox.busy_s": busy.get("sim.inbox", 0.0),
        "sim.inbox.gets": gets,
        "sim.inbox.scanned": scanned,
        "sim.inbox.scanned_per_get": scanned / gets if gets else 0.0,
        "net.messages": messages,
        "net.bytes": traced.get("bytes", 0),
        "net.send.busy_s": busy.get("net.send", 0.0),
        "net.size.calls": counts.get("net.size", 0),
        "net.size.busy_s": busy.get("net.size", 0.0),
        "net.dropped": traced.get("dropped", 0),
        "net.transfer.success_ratio": (
            1.0 - traced.get("dropped", 0) / messages if messages else 0.0
        ),
        "replication.server.busy_s": busy.get("replication.server", 0.0),
        "replication.protocol.busy_s": busy.get("replication.protocol", 0.0),
        "replication.dispatch_wait_ms": traced.get("dispatch_wait_ms", 0.0),
        "replication.commit_phase_ms": traced.get("commit_phase_ms", 0.0),
        "replication.read_p50_ms": (
            measure.percentile(traced["read_ms"], 50.0)
            if traced.get("read_ms") else 0.0
        ),
        "baselines.busy_s": busy.get("baselines", 0.0),
        "workload.draws": counts.get("workload.draws", 0),
        "workload.busy_s": busy.get("workload", 0.0),
        "analysis.audit.busy_s": busy.get("analysis.audit", 0.0),
        "analysis.metrics.busy_s": busy.get("analysis.metrics", 0.0),
        "runtime.host.busy_s": busy.get("runtime.host", 0.0),
        "runtime.transport.sends": counts.get("runtime.transport", 0),
        "runtime.mailbox.wait_ms": measure.mean(tracer.mailbox_waits),
        "runtime.timers": counts.get("runtime.timers", 0),
        "run.busy_s": busy.get("run", 0.0),
        "trace.overhead_frac": traced["wall_s"] / untraced_wall - 1.0,
    }
    return out


# -- live workload --------------------------------------------------------------


def closed_loop(inputs: dict, tracer=None) -> dict:
    """One outstanding write per host until ``inputs["writes"]`` are
    submitted, then drain, stop and audit."""
    from repro.runtime import transport as transport_module
    from repro.runtime.cluster import LiveCluster
    from repro.runtime.host import now_ms

    sent = {"messages": 0, "bytes": 0}
    send = transport_module.LiveTransport.send

    def counted_send(transport, msg):
        if msg.src != "client":  # replica traffic only, as in the DES
            sent["messages"] += 1
            sent["bytes"] += msg.size_bytes
        return send(transport, msg)

    transport_module.LiveTransport.send = counted_send
    if tracer is not None:
        tracer.install()
    try:
        cluster = LiveCluster(
            n_replicas=inputs["n_replicas"], backend=inputs["backend"],
            latency_range=tuple(inputs["latency_range"]),
            seed=inputs["seed"],
        )
        hosts = cluster.hosts
        keys = inputs["keys"]
        rngs = {h: workloads.LiveWorkload.key_sequence(inputs, h)
                for h in hosts}
        drawn = {h: [] for h in hosts}
        created = {}
        home_of = {}
        submitted = 0

        def submit(host: str) -> None:
            nonlocal submitted
            key = keys[rngs[host].randrange(len(keys))]
            drawn[host].append(key)
            created_at = now_ms()
            rid = cluster.submit_write(
                host, key, (hosts.index(host), len(drawn[host]))
            )
            created[rid] = created_at
            home_of[rid] = host
            submitted += 1

        cluster.start()
        try:
            start = perf_counter()
            for host in hosts:
                submit(host)
            seen = set()
            while len(seen) < submitted:
                cluster.wait_for(len(seen) + 1, timeout=60.0)
                fresh = [rid for rid in cluster.records if rid not in seen]
                for rid in fresh:
                    seen.add(rid)
                    if submitted < inputs["writes"]:
                        submit(home_of[rid])
            wall = perf_counter() - start
        finally:
            finals = cluster.shutdown()
        audit = cluster.audit()
    finally:
        if tracer is not None:
            tracer.uninstall()
        transport_module.LiveTransport.send = send

    records = [cluster.records[rid] for rid in sorted(cluster.records)]
    committed = [r for r in records if r["status"] == "committed"]
    cells = set()
    per_host = {}
    for host, final in finals.items():
        have = {(key, version) for _rid, key, version in final["history"]}
        per_host[host] = have
        cells |= have
    missing = sum(len(cells - have) for have in per_host.values())
    problems = []
    if not audit.consistent:
        problems.append("live audit inconsistent: " + "; ".join(
            audit.problems[:2]))
    if len(finals) != len(hosts):
        problems.append(f"only {len(finals)}/{len(hosts)} final dumps")
    if not committed:
        problems.append("nothing committed")
    base = min(created.values()) if created else 0.0
    return {
        "attempted": submitted,
        "committed": len(committed),
        "failed": submitted - len(committed),
        "open": submitted - len(records),
        "write_ms": [r["completed_at"] - created[r["request_id"]]
                     for r in committed],
        "read_ms": [],
        "messages": sent["messages"],
        "bytes": sent["bytes"],
        "dropped": 0,
        "cells": len(cells),
        "replicas": len(hosts),
        "missing_versions": missing,
        "service_gap_ms": measure.service_gap(
            (
                (created[r["request_id"]] - base,
                 r["completed_at"] - base, r["status"] == "committed")
                for r in records
            ),
            end=wall * 1000.0,
        ),
        "wall_s": wall,
        "problems": problems,
        "keys_drawn": drawn,
        "dispatch_wait_ms": measure.mean([
            r["dispatched_at"] - created[r["request_id"]] for r in committed
        ]),
        "commit_phase_ms": measure.mean([
            r["completed_at"] - r["lock_acquired_at"] for r in committed
            if r["lock_acquired_at"] is not None
        ]),
        "lock_wait_ms": measure.mean([
            r["lock_acquired_at"] - r["dispatched_at"] for r in committed
            if r["lock_acquired_at"] is not None
        ]),
        "visits_per_commit": 0.0,
    }


def live_run(workload, seed: int, seconds: float) -> dict:
    """Fresh-cluster reps (at least one) while the next one is expected
    to end within ``seconds``: a rep takes several seconds, and one
    started just before the end would lengthen the run by that much."""
    reps = []
    start = perf_counter()
    longest = 0.0
    while not reps or perf_counter() - start + longest <= seconds:
        began = perf_counter()
        inputs = workload.inputs(seed, len(reps))
        rep = closed_loop(inputs)
        rep["inputs"] = dict(inputs, keys_drawn=rep.pop("keys_drawn"))
        reps.append(rep)
        longest = max(longest, perf_counter() - began)
    result = measure.pooled(reps)
    result["commits_per_s"] = (
        sum(r["committed"] for r in reps) / sum(r["wall_s"] for r in reps)
    )
    # the live figures are not normalised (see workloads.LiveWorkload)
    result["raw_commits_per_s"] = result["commits_per_s"]
    result["host_ref_ms"] = None
    result["reps"] = len(reps)
    result["problems"] = [p for r in reps for p in r["problems"]]
    result["inputs"] = [r["inputs"] for r in reps]
    result["peak_rss_mb"] = peak_rss_mb()
    result["fingerprints"] = []
    return result


def live_traced(workload, seed: int, spans_path) -> dict:
    """Rep 0 untraced, then rep 0 again traced."""
    inputs = workload.inputs(seed, 0)
    plain = closed_loop(inputs)
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}")
    traced = closed_loop(inputs, tracer=tracer)
    if spans_path:
        tracer.write_spans(spans_path)
    return {
        "layers": layer_metrics(tracer, traced, plain["wall_s"]),
        "spans": tracer.n_spans(),
        "fingerprints": [],
        "problems": plain["problems"] + traced["problems"],
        "inputs": [dict(inputs, keys_drawn=traced["keys_drawn"])],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
    }


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "sample"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    workload = workloads.get(args.workload)
    live = args.workload == "live_threads"
    if args.mode == "setup":
        out = setup(args.workload, args.seed)
    elif args.mode == "sample":
        if live:
            raise SystemExit("the live workload has no deterministic sample")
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
        out = des_sample(workload, args.seed, tracer if args.trace else None)
    elif args.trace:
        out = (
            live_traced(workload, args.seed, args.spans)
            if live else des_traced(workload, args.seed, args.spans)
        )
    else:
        out = (
            live_run(workload, args.seed, args.seconds)
            if live else des_run(workload, args.seed, args.seconds)
        )
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
