"""Metric definitions: name, unit, direction, and for per-layer metrics
the end-to-end metric and workload each is predicted to move.

``BENCHMARK.json`` lists the same names and units; the self-test checks
that the two agree.

End-to-end latencies are simulated ms on DES workloads and wall ms on
``live_threads``. On the DES workloads ``commits_per_s`` is in
normalised seconds: scaled by a host-speed reference timed around the
measured work (``reference.py``), because the shared host changes speed
by up to 1.6x in phases longer than a run. The unscaled figure is
reported beside it (``raw_commits_per_s``), with ``host_ref_ms``, the
median reference time. ``setup_s`` is not scaled: a fresh interpreter's
imports did not follow the reference (over five runs its spread was
0.03 unscaled and 0.09 scaled); nor are the live figures (see
``workloads.LiveWorkload``).

Every gated end-to-end metric is reported, non-zero, on every workload, so the failure and staleness
figures are gated as their complements: ``served_frac`` = 1 -
failed_frac (failed plus still-open requests over attempted) and
``replica_coverage`` = 1 - missing versions over (committed cells x
replicas). The figures in :data:`REPORTED` are printed beside them.
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = [
    ("commits_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("msgs_per_commit", "count", "lower", 0.2),
    ("bytes_per_commit", "B", "lower", 0.25),
    ("served_frac", "fraction", "higher", 0.1),
    ("replica_coverage", "fraction", "higher", 0.05),
]

#: Printed and written out with every untraced run, but not gated: their
#: run-to-run spread exceeds any allowed bound on some workload (a p99
#: that falls on the edge of MCV's rare conflict retries on
#: quorum_mixed; a longest stall set by single rare events on
#: quorum_mixed and live_threads; the unscaled wall figures, which follow
#: the host's speed).
REPORTED = [
    ("write_tail_ms", "ms"),
    ("max_service_gap_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("failed_frac", "fraction"),
    ("missing_versions", "count"),
    ("raw_commits_per_s", "1/s"),
    ("host_ref_ms", "ms"),
]

#: (name, unit, better, predicted to move: "metric on workload[, ...]")
PER_LAYER = [
    ("machines.merge.calls", "count", "lower",
     "commits_per_s on marp_contended; no change on quorum_mixed"),
    ("machines.merge.busy_s", "s", "lower",
     "commits_per_s on marp_contended; no change on quorum_mixed"),
    ("machines.ul_add.calls", "count", "lower",
     "commits_per_s on marp_contended; no change on quorum_mixed"),
    ("machines.decide.calls", "count", "lower",
     "commits_per_s on marp_contended; no change on quorum_mixed"),
    ("machines.decide.busy_s", "s", "lower",
     "commits_per_s on marp_contended; no change on quorum_mixed"),
    ("machines.replica.busy_s", "s", "lower",
     "commits_per_s on marp_contended; no change on quorum_mixed"),
    ("machines.agent.busy_s", "s", "lower",
     "commits_per_s on marp_contended; no change on quorum_mixed"),
    ("agents.busy_s", "s", "lower",
     "write_p50_ms and msgs_per_commit on marp_contended"),
    ("agents.visits_per_commit", "count", "lower",
     "write_p50_ms and msgs_per_commit on marp_contended"),
    ("agents.lock_wait_ms", "ms", "lower",
     "write_p50_ms and msgs_per_commit on marp_contended"),
    ("sim.events", "count", "lower",
     "commits_per_s on quorum_mixed"),
    ("sim.busy_s", "s", "lower",
     "commits_per_s on quorum_mixed"),
    ("sim.inbox.busy_s", "s", "lower",
     "commits_per_s on quorum_mixed"),
    ("sim.inbox.gets", "count", "lower",
     "commits_per_s on quorum_mixed"),
    ("sim.inbox.scanned", "count", "lower",
     "commits_per_s on quorum_mixed"),
    ("sim.inbox.scanned_per_get", "count", "lower",
     "commits_per_s on quorum_mixed"),
    ("net.messages", "count", "lower",
     "bytes_per_commit and commits_per_s on marp_contended"),
    ("net.bytes", "B", "lower",
     "bytes_per_commit and commits_per_s on marp_contended"),
    ("net.send.busy_s", "s", "lower",
     "commits_per_s on marp_contended"),
    ("net.size.calls", "count", "lower",
     "bytes_per_commit and commits_per_s on marp_contended"),
    ("net.size.busy_s", "s", "lower",
     "commits_per_s on marp_contended"),
    ("net.dropped", "count", "lower",
     "served_frac on any workload that loses messages (none yet)"),
    ("net.transfer.success_ratio", "ratio", "higher",
     "served_frac on any workload that loses messages (none yet)"),
    ("replication.server.busy_s", "s", "lower",
     "write_p50_ms on marp_contended"),
    ("replication.protocol.busy_s", "s", "lower",
     "commits_per_s on every DES workload"),
    ("replication.dispatch_wait_ms", "ms", "lower",
     "write_p50_ms on marp_contended"),
    ("replication.commit_phase_ms", "ms", "lower",
     "write_p50_ms on marp_contended"),
    ("replication.read_p50_ms", "ms", "lower",
     "read latency on quorum_mixed"),
    ("baselines.busy_s", "s", "lower", "commits_per_s on quorum_mixed"),
    ("workload.draws", "count", "lower", "commits_per_s on quorum_mixed"),
    ("workload.busy_s", "s", "lower", "commits_per_s on quorum_mixed"),
    ("analysis.audit.busy_s", "s", "lower",
     "commits_per_s on every DES workload"),
    ("analysis.metrics.busy_s", "s", "lower",
     "commits_per_s on every DES workload"),
    ("runtime.host.busy_s", "s", "lower",
     "write_p50_ms and commits_per_s on live_threads"),
    ("runtime.transport.sends", "count", "lower",
     "write_p50_ms and commits_per_s on live_threads"),
    ("runtime.mailbox.wait_ms", "ms", "lower",
     "write_p50_ms and commits_per_s on live_threads"),
    ("runtime.timers", "count", "lower",
     "write_p50_ms and commits_per_s on live_threads"),
    ("run.busy_s", "s", "lower", "commits_per_s on every DES workload"),
    ("setup.import_s", "s", "lower", "setup_s on every workload"),
    ("setup.build_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_frac", "ratio", "lower",
     "none (traced wall / untraced wall - 1)"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + REPORTED + PER_LAYER}
