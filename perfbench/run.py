"""Layer-attributed MARP benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload marp_contended --seed 1 \
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn. With ``--trace 0`` the
end-to-end metrics are measured with no wrapper installed; with
``--trace 1`` a separate run of the same seed installs the layer
wrappers of ``tracer.py`` and reports the per-layer metrics. Every
measurement runs in a fresh child interpreter (``child.py``), and
``setup_s`` is the median over several fresh interpreters of the time
from process start until the workload could take its first request.
On the DES workloads ``commits_per_s`` is normalised by the host-speed
reference of ``reference.py``; the unscaled figure is printed beside it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed audit
check (a DES rep that is not consistent or leaves a request failed or
open, a repeat that does not reproduce its rep's commit-chain
fingerprint, an inconsistent live audit, or tracing that changes
protocol outcomes) prints ``"correct": false`` and exits 1. Each run's inputs and results are written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` (spans of a traced
run beside it as ``.spans.npz``), enough to repeat the run from that
file and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Wall budget of one invocation (the whole run must end within 180 s).
BUDGET_S = 170.0


class BenchError(Exception):
    """The program could not be run or measured."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: Path, args, deadline: float) -> dict:
    """Run ``child.py`` to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time budget")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:3]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"child {args[:3]} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args[:3]} printed nothing")
    return json.loads(lines[-1])


def probe_setup(root: Path, name: str, seed: int, deadline: float) -> dict:
    """Median set-up time over fresh interpreters: spawn to ready line."""
    totals, imports, builds = [], [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "setup",
             "--workload", name, "--seed", str(seed)],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            totals.append(time.perf_counter() - start)
            _out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe timed out") from exc
        if proc.returncode != 0 or not line.strip():
            raise BenchError(f"set-up probe failed:\n{err[-2000:]}")
        probe = json.loads(line)
        imports.append(probe["import_s"])
        builds.append(probe["build_s"])
    return {
        "setup_s": median(totals),
        "setup.import_s": median(imports),
        "setup.build_s": median(builds),
        "probes_s": totals,
    }


def run_workload(root: Path, name: str, seed: int, seconds: int,
                 trace: int, out_dir: Path, deadline: float) -> dict:
    setup = probe_setup(root, name, seed, deadline)
    stem = f"{name}-seed{seed}-trace{trace}"
    args = ["run", "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", str(out_dir / f"{stem}.spans.npz")]
    result = run_child(root, args, deadline)
    if trace:
        values = dict(result["layers"])
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.build_s"] = setup["setup.build_s"]
        wanted = [m[0] for m in metrics.PER_LAYER]
    else:
        values = dict(result, setup_s=setup["setup_s"])
        wanted = [m[0] for m in metrics.END_TO_END]
    report = {
        "workload": name,
        "why": workloads.WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "setup": setup,
        "result": result,
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m: {"value": values[m], "unit": metrics.UNITS[m]} for m in wanted
        },
    }
    with open(out_dir / f"{stem}.json", "w") as handle:
        json.dump(report, handle, indent=1)
    print_report(report)
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"== {report['workload']} seed={report['seed']} "
          f"trace={report['trace']}: {report['why']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if not report["trace"]:
        print("  -- reported, not gated:")
        for name, unit in metrics.REPORTED:
            value = result[name]
            text = "n/a" if value is None else f"{value:>16.6g}"
            print(f"  {name:32s} {text:>16s} {unit}")
        print(f"  write_tail is p{result['write_tail_pct']:g} of "
              f"{result['write_samples']} writes; read_p50 of "
              f"{result['read_samples']} reads; {result['reps']} reps")
    else:
        print(f"  spans recorded: {result['spans']}")
    for index, fp in enumerate(result["fingerprints"]):
        print(f"  commit-chain fingerprint rep {index}: {fp}")
    for problem in result["problems"]:
        print(f"  AUDIT FAILURE: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2
    names = (
        workloads.names() if args.workload == "all"
        else [workloads.get(args.workload).name]
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S * len(names)
    try:
        reports = [
            run_workload(root, name, args.seed, args.seconds, args.trace,
                         out_dir, deadline)
            for name in names
        ]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(reports) == 1:
        summary_metrics = reports[0]["metrics"]
    else:
        summary_metrics = {
            f"{r['workload']}.{name}": metric
            for r in reports for name, metric in r["metrics"].items()
        }
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": summary_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
