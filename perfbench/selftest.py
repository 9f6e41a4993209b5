"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed 1] [--workload NAME ...]

Checks, at one seed and for each DES workload:

* a traced and an untraced run of the traced sample give the same
  commit-chain fingerprints, ``msgs_per_commit``, ``bytes_per_commit`` and
  ``failed_frac`` (the wrappers do not change behaviour);
* two traced runs give identical deterministic counts (``sim.events``,
  ``machines.merge.calls``, ``sim.inbox.scanned``, ``net.size.calls``).

It also checks that ``BENCHMARK.json`` lists exactly the metrics of
``metrics.py`` and that ``run.py`` fails without printing a result in a
directory that holds only the benchmark. Each run is a fresh child
interpreter. Exits 1 on any failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from run import BUDGET_S, run_child  # noqa: E402

BEHAVIOUR = ("msgs_per_commit", "bytes_per_commit", "failed_frac")
COUNTS = {
    "sim.events": "sim.events",
    "machines.merge.calls": "machines.merge",
    "sim.inbox.scanned": "sim.inbox.scanned",
    "net.size.calls": "net.size",
}


def check_definitions(root: Path) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = []
    e2e = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in spec["end_to_end"]]
    if e2e != [tuple(m) for m in metrics.END_TO_END]:
        failures.append("BENCHMARK.json end_to_end differs from metrics.py")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != [tuple(m[:3]) for m in metrics.PER_LAYER]:
        failures.append("BENCHMARK.json per_layer differs from metrics.py")
    if [w["name"] for w in spec["workloads"]] != workloads.names():
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    return failures


def check_workload(root: Path, name: str, seed: int, deadline: float) -> list:
    args = ["sample", "--workload", name, "--seed", str(seed), "--trace"]
    plain = run_child(root, args + ["0"], deadline)
    traced = [run_child(root, args + ["1"], deadline) for _ in range(2)]
    failures = []
    if plain["fingerprints"] != traced[0]["fingerprints"]:
        failures.append(f"{name}: tracing changed the commit-chain fingerprint")
    for field in BEHAVIOUR:
        if plain[field] != traced[0][field]:
            failures.append(f"{name}: tracing changed {field}")
    for metric, counter in COUNTS.items():
        first, second = (t["counts"].get(counter, 0) for t in traced)
        if first != second:
            failures.append(f"{name}: {metric} {first} != {second}")
    print(f"{name}: {len(plain['fingerprints'])} reps "
          + " ".join(f"{m}={traced[0]['counts'].get(c, 0)}"
                     for m, c in COUNTS.items()))
    return failures


def check_bare_directory(root: Path) -> list:
    """run.py must fail, printing no result, without the program."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "marp_contended",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py succeeded in a directory without the program"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=None)
    args = parser.parse_args(argv)
    root = HERE.parent
    names = args.workload or [
        n for n in workloads.names() if n != "live_threads"
    ]
    failures = check_definitions(root) + check_bare_directory(root)
    for name in names:
        deadline = __import__("time").monotonic() + BUDGET_S
        failures += check_workload(root, name, args.seed, deadline)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
