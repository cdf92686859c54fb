"""Benchmark of the recovery data plane and the warehouse simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dataplane --seed 1 --seconds 60 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same operations twice, untraced then traced, and prints the per-layer
metrics, writing a Chrome trace and a per-layer table under
``.perfbench/out/``.  The last line of standard output is the result
object; the line before it is the paper-yardstick report.

The GF kernels are compiled into ``.perfbench/gf-cache/`` on the first
run in a checkout; set-up time is always measured with that cache warm.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("dataplane", "simulator")
CODE_NAMES = ("rs", "piggyback", "lrc", "crs")

#: Layers every traced run of a workload must see called at least once;
#: the waits only exist on hosts where pools and workers start.
REQUIRED = {
    "dataplane": ("pipeline", "pipeline.compiled", "codec", "codes",
                  "codes.plan", "gf", "checksum", "wait.pool"),
    "simulator": ("timeline", "placement.place", "placement.draw", "recovery",
                  "shard.apply", "network.charge", "repair_policy",
                  "workload.read", "wait.workers"),
}
MULTI_CPU_ONLY = ("wait.pool", "wait.workers")

WARNING_EVENTS = (
    "traffic-series-overflow", "repair-policy-workers-degraded",
    "stateful-placement-workers-degraded", "pool-unavailable-serial-fallback",
    "repair-pool-unavailable-serial-fallback", "pool-stalled",
    "pool-deaths-exhausted-serial-fallback", "repair-backlog",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_kib() -> int:
    """Peak resident set of this process or of the largest process it
    waited for (pool and shard workers), whichever is larger."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def end_to_end(tally) -> dict:
    metrics = {
        "setup_s": (statistics.median(tally.setup_seconds), "s"),
        "peak_rss_MB": (peak_rss_kib() / 1024, "MB"),
        "op_success_rate": (
            1 - tally.failed / tally.attempted if tally.attempted else 0.0, "ratio"),
        "encode_MBps": (tally.rate("encode") / 1e6, "MB/s"),
        "encode_stream_MBps": (tally.rate("encode_stream") / 1e6, "MB/s"),
    }
    for name in CODE_NAMES:
        metrics[f"repair_MBps.{name}"] = (
            tally.rate("repair", name) / 1e6, "MB/s")
    metrics["repair_stream_MBps"] = (tally.rate("repair_stream") / 1e6, "MB/s")
    metrics["degraded_read_ms_p50"] = (tally.read_latency(5) * 1e3, "ms")
    metrics["degraded_read_ms_p90"] = (tally.read_latency(9) * 1e3, "ms")
    for engine, name in (("serial", "sim_days_per_s"),
                         ("sharded", "sim_days_per_s.sharded")):
        metrics[name] = (tally.geomean_rate(f"sim.{engine}"), "1/s")
    return metrics


def per_layer(tally, tracer, table, snapshot, warnings, overhead) -> dict:
    layers = table["layers"]

    def self_s(layer):
        row = layers.get(layer)
        return row["self_s"] + row["thread_self_s"] + row["child_self_s"] if row else 0.0

    def calls(layer):
        row = layers.get(layer)
        return row["calls"] + row["thread_calls"] + row["child_calls"] if row else 0

    def ratio(num, den):
        return num / den if den else 0.0

    counters = snapshot["counters"]
    histograms = snapshot["histograms"]

    def hist_total(suffix):
        return sum(h["total"] for name, h in histograms.items()
                   if name.startswith("pipeline.") and name.endswith(suffix))

    def cache(kind):
        return sum(v for name, v in counters.items()
                   if name.startswith("cache.") and name.endswith(kind))

    counts = tracer.counts
    hits, misses = cache(".hits"), cache(".misses")
    plan_hits = counters.get("recovery.plan_cache.hits", 0)
    plan_lookups = plan_hits + counters.get("recovery.plan_cache.misses", 0)
    sim_reads = tally.total("sim.reads")
    m = {
        "pipeline.self_s": (self_s("pipeline"), "s"),
        "pipeline.ops": (tally.total("pipeline.ops"), "count"),
        "pipeline.parallel_ops": (tally.total("pipeline.parallel_ops"), "count"),
        "pipeline.pool_wait_s": (self_s("wait.pool"), "s"),
        "pipeline.compiled_s": (self_s("pipeline.compiled"), "s"),
        "pipeline.compiled_calls": (calls("pipeline.compiled"), "count"),
        "pipeline.read_wait_s": (hist_total("read_wait_seconds"), "s"),
        "pipeline.write_wait_s": (hist_total("write_wait_seconds"), "s"),
        "pipeline.stream_wall_s": (tally.total("stream.wall_s"), "s"),
        "pipeline.stream_occupancy": (
            ratio(tally.total("stream.busy_s"), tally.total("stream.wall_s")), "ratio"),
        "codec.self_s": (self_s("codec"), "s"),
        "codec.calls": (calls("codec"), "count"),
        "codes.self_s": (self_s("codes"), "s"),
        "codes.calls": (calls("codes"), "count"),
        "codes.plan_s": (self_s("codes.plan"), "s"),
        "codes.plan_misses": (counts["codes.plan_misses"], "count"),
        "codes.cache_lookups": (hits + misses, "count"),
        "codes.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "gf.self_s": (self_s("gf"), "s"),
        "gf.calls": (calls("gf"), "count"),
        "gf.bytes": (counts["gf.bytes"], "B"),
        "gf.xor_schedule.scheduled_xors": (
            counts["gf.xor_schedule.scheduled_xors"], "count"),
        "checksum.self_s": (self_s("checksum"), "s"),
        "checksum.calls": (calls("checksum"), "count"),
        "checksum.bytes": (counts["checksum.bytes"], "B"),
        "repair.rebuilt_bytes": (
            sum(tally.total(f"repair.rebuilt.{c}") for c in CODE_NAMES), "B"),
    }
    for code in CODE_NAMES:
        m[f"repair.read_ratio.{code}"] = (
            ratio(tally.total(f"repair.bytes_read.{code}"),
                  tally.total(f"repair.rebuilt.{code}")), "ratio")
    m.update({
        "child.self_s": (sum(r["child_self_s"] for r in layers.values()), "s"),
        "child.calls": (sum(r["child_calls"] for r in layers.values()), "count"),
        "timeline.s": (self_s("timeline"), "s"),
        "timeline.calls": (calls("timeline"), "count"),
        "timeline.ops": (counts["timeline.ops"], "count"),
        "timeline.flags": (counts["timeline.flags"], "count"),
        "placement.place_s": (self_s("placement.place"), "s"),
        "placement.place_calls": (calls("placement.place"), "count"),
        "placement.draw_s": (self_s("placement.draw"), "s"),
        "placement.draw_calls": (calls("placement.draw"), "count"),
        "placement.destinations": (counts["placement.destinations"], "count"),
        "recovery.self_s": (self_s("recovery"), "s"),
        "recovery.calls": (calls("recovery"), "count"),
        "recovery.flags": (counts["recovery.flags"], "count"),
        "recovery.plan_cache.lookups": (plan_lookups, "count"),
        "recovery.plan_cache.hit_ratio": (ratio(plan_hits, plan_lookups), "ratio"),
        "shard.apply_s": (self_s("shard.apply"), "s"),
        "shard.apply_calls": (calls("shard.apply"), "count"),
        "shard.worker_wait_s": (self_s("wait.workers"), "s"),
        "shard.epochs": (counters.get("sim.shard.epochs", 0), "count"),
        "shard.merge_bytes": (counters.get("sim.shard.merge_bytes", 0), "B"),
        "network.charge_s": (self_s("network.charge"), "s"),
        "network.charge_calls": (counts["network.charges"], "count"),
        "network.transfers": (counts["network.transfers"], "count"),
        "network.transfers_per_charge": (
            ratio(counts["network.transfers"], counts["network.charges"]), "ratio"),
        "repair_policy.self_s": (self_s("repair_policy"), "s"),
        "repair_policy.calls": (calls("repair_policy"), "count"),
        "repair_policy.enqueued": (
            counters.get("sim.repair.queue_enqueued", 0), "count"),
        "repair_policy.queue_peak_depth": (tally.total("sim.queue_peak_depth"), "count"),
        "repair_policy.deferred": (tally.total("sim.deferred"), "count"),
        "repair_policy.promoted": (tally.total("sim.promoted"), "count"),
        "workload.read_s": (self_s("workload.read"), "s"),
        "workload.reads": (sim_reads, "count"),
        "workload.degraded_fraction": (
            ratio(tally.total("sim.degraded_reads"), sim_reads), "ratio"),
        "blocks_recovered": (tally.total("blocks_recovered"), "count"),
        "cross_rack_bytes": (tally.total("cross_rack_bytes"), "B"),
        "trace.overhead_s": (overhead, "s"),
        "trace.wall_s": (table["wall_s"], "s"),
        "trace.attributed_s": (table["attributed_s"], "s"),
        "trace.unattributed_s": (table["unattributed_s"], "s"),
        "trace.harness_s": (layers["harness"]["self_s"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    for event in WARNING_EVENTS:
        m[f"warnings.{event}"] = (warnings.get(event, 0), "count")
    m["warnings.other"] = (
        sum(v for k, v in warnings.items() if k not in WARNING_EVENTS), "count")
    return m


def yardstick(tally) -> dict:
    """Derived paper comparisons and the environment (never gated)."""
    import numpy as np
    from repro.gf import backends

    rs = tally.rate("repair", "rs")
    piggyback = tally.rate("repair", "piggyback")
    backend = backends.active_backend()
    tb = {code: statistics.median(values)
          for code, values in tally.cross_rack_tb_per_day.items()}
    report = {
        "rebuild_time_piggyback_over_rs": rs / piggyback if piggyback else None,
        "rebuild_time_paper_s3.2": 7 / 10,
        "cross_rack_TB_per_day": tb,
        "cross_rack_TB_per_day_paper_rs": ">180",
        "cross_rack_saving_TB_per_day_paper": "~50",
        "cpu_count": os.cpu_count(),
        "gf_backend": f"{backend.name} ({backend.tier_description})",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pipeline_pool_share": (
            tally.total("pipeline.parallel_ops") / tally.total("pipeline.ops")
            if tally.total("pipeline.ops") else None),
        "sharded_worker_share": (
            tally.total("sharded.worker_runs") / tally.total("sharded.runs")
            if tally.total("sharded.runs") else None),
    }
    if "piggyback" in tb and "rs" in tb:
        report["cross_rack_saving_TB_per_day"] = tb["rs"] - tb["piggyback"]
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from the "
              f"root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    tmpdir = STATE / "tmp" / str(os.getpid())
    outdir = STATE / "out"
    child_dir = tmpdir / "children"
    child_dir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_GF_CACHE_DIR"] = str(STATE / "gf-cache")
    os.environ["TMPDIR"] = str(tmpdir)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    tempfile.tempdir = str(tmpdir)
    try:
        return measure(args, str(outdir), str(child_dir))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def measure(args, outdir: str, child_dir: str) -> int:
    import workloads

    try:
        return _measure(args, outdir, child_dir)
    finally:
        workloads.join_children()
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts to track the
    pool's shared memory, and wait for it, instead of leaving it to exit
    after this process."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()


def _measure(args, outdir: str, child_dir: str) -> int:
    import tracing
    import workloads
    from repro import observability
    from repro.gf import backends

    warnings = tracing.WarningCounter()
    logging.getLogger("repro").addHandler(warnings)
    workload = workloads.WORKLOADS[args.workload]
    backends.active_backend()  # compiles the kernels on a cold cache

    attempted = failed = 0
    correct = True
    if not args.trace:
        ctx = workloads.Context(args.seed, tempfile.tempdir)
        workloads.run_pass(ctx, workload, args.seconds)
        tally = ctx.tally
        metrics = end_to_end(tally)
    else:
        # Each pass builds its inputs from the seed on a fresh context,
        # so the two passes differ only in the tracing.
        ctx = workloads.Context(args.seed, tempfile.tempdir)
        start = time.perf_counter()
        cycles = workloads.run_pass(ctx, workload, args.seconds / 2)
        untraced = time.perf_counter() - start
        attempted, failed = ctx.tally.attempted, ctx.tally.failed
        tracer = tracing.Tracer(child_dir)
        ctx = workloads.Context(args.seed, tempfile.tempdir)
        ctx.tracer = tracer
        tracing.install(tracer)
        observability.reset()
        warnings.counts.clear()
        start = time.perf_counter()
        try:
            workloads.run_pass(ctx, workload, cycles=cycles)
        finally:
            tracer.uninstall()
        traced = time.perf_counter() - start
        tally = ctx.tally
        table = tracer.table(traced)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(os.path.join(outdir, f"trace-{stem}.json"),
                     os.path.join(outdir, f"layers-{stem}.txt"), table)
        sys.stderr.write(tracing.format_table(table))
        metrics = per_layer(tally, tracer, table,
                            observability.get_registry().snapshot(),
                            warnings.counts, traced - untraced)
        host_multi_cpu = (os.cpu_count() or 1) > 1
        for layer in REQUIRED[args.workload]:
            row = table["layers"].get(layer)
            fired = row and row["calls"] + row["thread_calls"] + row["child_calls"]
            if not fired and (host_multi_cpu or layer not in MULTI_CPU_ONLY):
                print(f"perfbench: layer {layer} was never called", file=sys.stderr)
                correct = False
    attempted += tally.attempted
    failed += tally.failed
    correct = correct and failed == 0 and attempted > 0
    print("paper-yardstick " + json.dumps(yardstick(tally)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
