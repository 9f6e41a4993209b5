"""Workload definitions: every input a run uses, made from the seed.

A DES workload is a list of repetitions ("reps"). Rep ``i`` of seed
``s`` gets its own simulator seed, derived here from ``(workload, s, i)``
alone, so a run is reproducible from the inputs it writes out plus the
seed. The program only ever sees the resulting
:class:`~repro.experiments.runner.RunConfig` (or the live cluster
parameters); it never sees the benchmark seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List

#: Replicas of every DES workload (the paper's N=5).
N_REPLICAS = 5


def derive_seed(workload: str, seed: int, rep: int) -> int:
    """A 31-bit seed that depends only on (workload, seed, rep)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


class DesWorkload:
    """One DES workload: fixed RunConfig fields plus per-rep inputs.

    ``reps`` is the fixed set of reps the latency and cost figures pool,
    as many as those figures need to repeat across seeds; the rest of a
    30-second run re-times the same reps. A traced run traces the first
    ``trace_reps`` reps.
    """

    def __init__(self, name: str, why: str, reps: int, trace_reps: int,
                 **config: Any) -> None:
        self.name = name
        self.why = why
        self.reps = reps
        self.trace_reps = trace_reps
        self.config = config

    def inputs(self, seed: int, rep: int) -> Dict[str, Any]:
        """The JSON-serialisable inputs of one rep."""
        return dict(self.config, seed=derive_seed(self.name, seed, rep))


def run_config(inputs: Dict[str, Any]):
    """The program's RunConfig for one rep's inputs."""
    from repro.experiments.runner import RunConfig

    fields = dict(inputs)
    if "keys" in fields:
        fields["keys"] = tuple(fields["keys"])
    return RunConfig(**fields)


class LiveWorkload:
    """The live thread-backend workload: a closed loop, one outstanding
    write per host, keys drawn uniformly by the benchmark.

    A run is a series of reps, each a fresh cluster taking a fixed
    ``writes`` writes: the classic data plane's suitcases grow with a
    cluster's history, so a per-commit cost is only comparable over
    the same number of writes.

    Links delay each message 10-20 ms. With 1-4 ms links the program's
    CPU time and the host's thread wake-ups made up nearly all of a
    write's latency, and 30-second runs of the same code spread by a
    quarter of their median on a loaded 2-vCPU host. With 10-20 ms links
    the CPU time is about a fifth of a rep's wall time, and the link
    delays, which do not depend on the host, most of the rest. The
    figures of this workload are therefore not normalised by the
    host-speed reference (``reference.py``): most of what they time
    does not scale with the host's speed.
    """

    name = "live_threads"
    why = (
        "LiveCluster, 3 thread hosts, 8 keys, 10-20 ms links, closed loop: "
        "the only run of runtime/ (HostRuntime loop, LiveTransport, one "
        "threading.Timer per delayed message)"
    )
    n_hosts = 3
    n_keys = 8
    latency_range = (10.0, 20.0)
    writes = 150

    def inputs(self, seed: int, rep: int) -> Dict[str, Any]:
        return {
            "backend": "thread",
            "n_replicas": self.n_hosts,
            "keys": [f"k{i}" for i in range(self.n_keys)],
            "latency_range": list(self.latency_range),
            "seed": derive_seed(self.name, seed, rep),
            "outstanding_per_host": 1,
            "writes": self.writes,
        }

    @staticmethod
    def key_sequence(inputs: Dict[str, Any], host: str) -> random.Random:
        """The per-host key stream (its draws are written to the output)."""
        return random.Random(f"{inputs['seed']}:{host}")


WORKLOADS: Dict[str, Any] = {
    "marp_contended": DesWorkload(
        "marp_contended",
        "MARP N=5, one key, all writes, 40 ms arrivals: agents queue on "
        "the same Locking Lists, so view merges, decide and suitcase "
        "sizing dominate",
        reps=120, trace_reps=10,
        protocol="marp", n_replicas=N_REPLICAS, mean_interarrival=40.0,
        requests_per_client=12, write_fraction=1.0, keys=["x"],
    ),
    "quorum_mixed": DesWorkload(
        "quorum_mixed",
        "MCV N=5, 256 Zipf(0.99) keys, 50% reads: no agents run, so the "
        "DES inbox scan is the wall, and reads use the quorum read path",
        reps=6, trace_reps=2,
        protocol="mcv", n_replicas=N_REPLICAS, mean_interarrival=40.0,
        requests_per_client=100, write_fraction=0.5, n_keys=256,
        key_skew=0.99,
    ),
    "live_threads": LiveWorkload(),
}


def names() -> List[str]:
    return list(WORKLOADS)


def get(name: str):
    if name not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; expected one of {names()} or 'all'"
        )
    return WORKLOADS[name]
