"""Determinism regression: one config + seed ⇒ one result, everywhere.

``run_once`` must produce an identical *measured surface* (the
``result_fingerprint``) no matter where it executes:

* twice in the same interpreter (process-global request-id counters
  advance between runs — the fingerprint normalizes them away);
* in a ``ProcessPoolExecutor`` worker via :class:`ParallelRunner`;
* in a fresh interpreter (``python -c``), the way a cold CI shard or a
  cache written yesterday would see it.

This is the contract the result cache and the parallel engine both
stand on: a cache hit is only sound if a worker-produced result is
byte-equivalent to the serial one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.experiments.cache import result_fingerprint
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import RunConfig, run_once, run_repeats
from repro.net.faults import CrashSchedule, FaultPlan

CONFIG = RunConfig(
    n_replicas=5, seed=42, mean_interarrival=40.0, requests_per_client=5
)

#: Reconstructs CONFIG in a fresh interpreter and prints its fingerprint.
_FRESH_SCRIPT = """
from repro.experiments.cache import result_fingerprint
from repro.experiments.runner import RunConfig, run_once

config = RunConfig(
    n_replicas=5, seed=42, mean_interarrival=40.0, requests_per_client=5
)
print(result_fingerprint(run_once(config)))
"""


def test_same_interpreter_rerun_identical():
    first = result_fingerprint(run_once(CONFIG))
    second = result_fingerprint(run_once(CONFIG))
    assert first == second


def test_pool_worker_matches_serial():
    serial = result_fingerprint(run_once(CONFIG))
    with ParallelRunner(jobs=2) as runner:
        pooled = runner.run_one(CONFIG)
    assert result_fingerprint(pooled) == serial
    # workers ship results back pickled, without the live deployment
    assert pooled.deployment is None


def test_fresh_interpreter_matches_serial():
    serial = result_fingerprint(run_once(CONFIG))
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT],
        capture_output=True, text=True, check=True, env=env,
    )
    assert proc.stdout.strip() == serial


def test_run_order_does_not_matter():
    """Sharding contract: results line up with configs by index."""
    configs = [CONFIG.with_(seed=s) for s in (1, 2, 3, 4)]
    serial = [result_fingerprint(run_once(c)) for c in configs]
    with ParallelRunner(jobs=2) as runner:
        pooled = [result_fingerprint(r) for r in runner.run_many(configs)]
        reversed_back = [
            result_fingerprint(r)
            for r in reversed(runner.run_many(list(reversed(configs))))
        ]
    assert pooled == serial
    assert reversed_back == serial


def test_run_repeats_serial_vs_parallel():
    serial = run_repeats(CONFIG, repeats=3)
    with ParallelRunner(jobs=2) as runner:
        pooled = run_repeats(CONFIG, repeats=3, runner=runner)
    assert [result_fingerprint(r) for r in serial] == [
        result_fingerprint(r) for r in pooled
    ]


def test_fingerprint_distinguishes_seeds():
    """Sanity: the fingerprint is not insensitive to actual behaviour."""
    a = result_fingerprint(run_once(CONFIG))
    b = result_fingerprint(run_once(CONFIG.with_(seed=43)))
    assert a != b


@pytest.mark.parametrize("protocol", ["marp", "primary-copy"])
def test_protocols_deterministic_through_engine(engine_runner, protocol):
    config = CONFIG.with_(protocol=protocol)
    assert result_fingerprint(engine_runner.run_one(config)) == (
        result_fingerprint(run_once(config))
    )


# -- golden fingerprints ------------------------------------------------------
#
# One small seeded run per protocol, pinned to its exact measured
# surface. These cover every receive path of every protocol (MARP claim
# rounds and quorum reads, the quorum baselines' grant and read rounds,
# available-copies' per-host lock ladder, primary-copy's DONE wait), so
# a change to message delivery or to how replies are matched that
# shifts any timing, order or outcome shows up here. The crash cases
# make MCV's lock timeout and available-copies' detection timeout fire.

_GOLDEN_BASE = RunConfig(
    n_replicas=5, seed=7, mean_interarrival=40.0, requests_per_client=6,
    write_fraction=0.5, keys=("x", "y"),
)


def _minority_crash() -> FaultPlan:
    return FaultPlan(
        crashes=CrashSchedule()
        .add("s2", 50.0, 1500.0)
        .add("s4", 50.0, 1500.0)
    )


GOLDEN = {
    "marp-local": (
        {},
        "6d4f9845e5027b5d50564dede132e87a134fe0c1e90bd82f50737384a387bb14",
    ),
    "marp-quorum": (
        {"read_strategy": "quorum"},
        "d284510fd426660b5dd52ac47fe202c0046d9bd2c3ad0c50a2cbc62f52e7cc99",
    ),
    "mcv": (
        {"protocol": "mcv"},
        "baddd18fdf6797b18f4254f29ee7e13f98f3273f750ff35b9897a497d57e7ded",
    ),
    "weighted-voting": (
        {"protocol": "weighted-voting"},
        "30e79d98442dfdcca681134cbc9c7498c30fc45246c9df77f2a01189ab46b71c",
    ),
    "available-copies": (
        {"protocol": "available-copies"},
        "1211d8b1234782dbeb2c5c00f3cb848c009bbdd892fac182974829dec1b0b071",
    ),
    "primary-copy": (
        {"protocol": "primary-copy"},
        "37767f9539d0b0119a70fe5fb771a41cc3c8892d8c53fbc9bfbb6e50ba9f89fc",
    ),
    "mcv-crash": (
        {"protocol": "mcv", "faults": "crash"},
        "a1b5466c16bd28dcd43b0bd93b3481b18ef36fdd13162580c131235c3aca3d77",
    ),
    "available-copies-crash": (
        {"protocol": "available-copies", "faults": "crash"},
        "8e5df78b1947275789ff578a2a6eda3cffc79ec1642ba42d5ad4573e4972571d",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_fingerprint(case):
    changes, expected = GOLDEN[case]
    changes = dict(changes)
    if changes.get("faults") == "crash":
        changes["faults"] = _minority_crash()
    result = run_once(_GOLDEN_BASE.with_(**changes))
    assert result_fingerprint(result) == expected
    if case == "mcv-crash":  # the lock-timeout path ran
        assert result.failed > 0
    if case == "available-copies-crash":  # the detection timeout fired
        assert any(r.extra.get("skipped") for r in result.records)
