"""Span tracing for the benchmark's traced run (``--trace 1``).

The program is never edited: :func:`install` replaces each layer's
public entry points with wrappers, at the class or module that defines
them, and every call then records one span -- name, layer, start, end,
parent span, ``time.thread_time`` CPU seconds and the id of the
benchmark request it served.  Spans stay in memory; :meth:`Tracer.write`
emits a Chrome trace-event JSON file (viewable offline in
``chrome://tracing`` or Perfetto) and a per-layer self-time table.

A layer's self time is its spans' durations minus the time their child
spans cover.  Over the main thread, attributed self time plus the
unattributed rows -- parent-side waits on pool or worker processes and
the benchmark's own code between calls ("harness") -- sums to the traced
wall time.  Worker and pool processes are forked from the traced
process, so they inherit the wrappers; each child keeps its own spans
and writes them to a file when it exits.  Those spans are reported
separately (``child`` columns): they overlap the parent-side wait and
are never added to the wall-time sum.
"""

from __future__ import annotations

import collections
import functools
import glob
import itertools
import json
import logging
import multiprocessing.util
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers whose spans are parent-side waits on other processes.
WAIT_LAYERS = ("wait.pool", "wait.workers")

#: Chrome trace events written per process at most (spans beyond it are
#: still aggregated into the table).
MAX_TRACE_EVENTS = 200_000


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self, child_dir: str):
        self.pid = os.getpid()
        self.main_tid = threading.get_ident()
        self.child_dir = child_dir
        self.request = 0
        #: Set while the benchmark is inside a call into the program, so
        #: its own oracles and input preparation are never attributed.
        self.enabled = False
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = collections.Counter()
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, fn: Callable, args, kwargs, post):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                result = post(self, args, kwargs, result)
            return result
        finally:
            t1 = time.perf_counter()
            cpu = time.thread_time() - c0
            stack.pop()
            self.spans.append(
                (sid, parent, name, layer, t0, t1, cpu,
                 threading.get_ident(), self.request)
            )

    def traced(self, fn: Callable, name: str, layer: str, post=None):
        """``fn`` wrapped so each call records a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            return tracer.call(name, layer, fn, args, kwargs, post)

        return wrapper

    # -- installation --------------------------------------------------

    def patch(self, owner, attr: str, layer: str, post=None) -> None:
        """Wrap ``owner.attr`` where it is defined (class or module)."""
        original = owner.__dict__[attr]
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, self.traced(original, label, layer, post))
        self._patches.append((owner, attr, original))

    def patch_function(self, module, attr: str, layer: str, post=None):
        """Wrap a module function in every ``repro`` module that holds it
        (``from x import f`` copies the binding into the importer)."""
        original = getattr(module, attr)
        wrapper = self.traced(original, f"{module.__name__}.{attr}", layer, post)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_methods(self, classes, attrs, layer: str, post=None) -> None:
        for cls in classes:
            for attr in attrs:
                if attr in cls.__dict__:
                    self.patch(cls, attr, layer, post)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- child processes -----------------------------------------------

    def _after_fork(self) -> None:
        """Runs in a forked pool or shard worker: record its own spans
        and write them out when the process exits."""
        if not self._patches:
            return
        self.pid = os.getpid()
        self.main_tid = threading.get_ident()
        self.spans = []
        self.counts = collections.Counter()
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self._dump_child, exitpriority=100)

    def _dump_child(self) -> None:
        path = os.path.join(self.child_dir, f"child-{self.pid}.json")
        with open(path, "w") as handle:
            json.dump(
                {"pid": self.pid, "main_tid": self.main_tid,
                 "counts": dict(self.counts), "spans": self.spans},
                handle,
            )

    def child_records(self) -> List[dict]:
        records = []
        for path in sorted(glob.glob(os.path.join(self.child_dir, "child-*.json"))):
            with open(path) as handle:
                records.append(json.load(handle))
        return records

    # -- reporting -----------------------------------------------------

    @staticmethod
    def self_times(spans, main_tid: int):
        """Per-layer [self seconds, calls, CPU seconds] on the main
        thread and on the other threads of one process."""
        child_time: Dict[int, float] = collections.defaultdict(float)
        for sid, parent, _n, _l, t0, t1, *_ in spans:
            if parent:
                child_time[parent] += t1 - t0
        main: Dict[str, List[float]] = collections.defaultdict(lambda: [0.0, 0, 0.0])
        other: Dict[str, List[float]] = collections.defaultdict(lambda: [0.0, 0, 0.0])
        for sid, _p, _n, layer, t0, t1, cpu, tid, _r in spans:
            row = (main if tid == main_tid else other)[layer]
            row[0] += (t1 - t0) - child_time[sid]
            row[1] += 1
            row[2] += cpu
        return main, other

    def table(self, wall: float) -> dict:
        """Per-layer self time; attributed + unattributed == ``wall``."""
        main, other = self.self_times(self.spans, self.main_tid)
        children: Dict[str, List[float]] = collections.defaultdict(lambda: [0.0, 0, 0.0])
        for record in self.child_records():
            cmain, cother = self.self_times(record["spans"], record["main_tid"])
            for rows in (cmain, cother):
                for layer, (self_s, calls, cpu) in rows.items():
                    acc = children[layer]
                    acc[0] += self_s
                    acc[1] += calls
                    acc[2] += cpu
            for key, value in record["counts"].items():
                self.counts[key] += value
        layers = sorted(set(main) | set(other) | set(children))
        rows = {}
        attributed = unattributed = 0.0
        for layer in layers:
            self_s, calls, cpu = main.get(layer, (0.0, 0, 0.0))
            waits = layer in WAIT_LAYERS
            if waits:
                unattributed += self_s
            else:
                attributed += self_s
            rows[layer] = {
                "self_s": self_s,
                "calls": calls,
                "cpu_s": cpu,
                "unattributed": waits,
                "thread_self_s": other.get(layer, (0.0,))[0],
                "thread_calls": other.get(layer, (0.0, 0))[1],
                "child_self_s": children.get(layer, (0.0,))[0],
                "child_calls": children.get(layer, (0.0, 0))[1],
            }
        harness = wall - attributed - unattributed
        rows["harness"] = {
            "self_s": harness, "calls": 0, "cpu_s": 0.0, "unattributed": True,
            "thread_self_s": 0.0, "thread_calls": 0,
            "child_self_s": 0.0, "child_calls": 0,
        }
        return {
            "wall_s": wall,
            "attributed_s": attributed,
            "unattributed_s": unattributed + harness,
            "layers": rows,
        }

    def write(self, trace_path: str, table_path: str, table: dict) -> None:
        events = []
        processes = [(self.pid, self.spans)] + [
            (record["pid"], record["spans"]) for record in self.child_records()
        ]
        for pid, spans in processes:
            for sid, parent, name, layer, t0, t1, cpu, tid, request in spans[
                :MAX_TRACE_EVENTS
            ]:
                events.append({
                    "name": name, "cat": layer, "ph": "X", "pid": pid,
                    "tid": tid, "ts": (t0 - self.origin) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "args": {"id": sid, "parent": parent,
                             "request": request, "cpu_us": cpu * 1e6},
                })
        with open(trace_path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        with open(table_path, "w") as handle:
            handle.write(format_table(table))


def format_table(table: dict) -> str:
    lines = [
        f"{'layer':<16} {'self_s':>10} {'share':>7} {'calls':>9} "
        f"{'cpu_s':>9} {'thread_s':>9} {'child_s':>9} {'child_calls':>11}"
    ]
    wall = table["wall_s"] or 1.0
    for layer, row in sorted(
        table["layers"].items(), key=lambda item: -item[1]["self_s"]
    ):
        label = layer + (" *" if row["unattributed"] else "")
        lines.append(
            f"{label:<16} {row['self_s']:>10.4f} {row['self_s'] / wall:>7.1%} "
            f"{row['calls']:>9d} {row['cpu_s']:>9.4f} "
            f"{row['thread_self_s']:>9.4f} {row['child_self_s']:>9.4f} "
            f"{row['child_calls']:>11d}"
        )
    lines.append(
        f"wall {table['wall_s']:.4f} s = attributed {table['attributed_s']:.4f}"
        f" + unattributed (*) {table['unattributed_s']:.4f}; thread_s and"
        f" child_s overlap the main thread and are not in the sum"
    )
    return "\n".join(lines) + "\n"


class WarningCounter(logging.Handler):
    """Counts the program's structured warnings by event name."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: Dict[str, int] = collections.Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.getMessage().split(" ", 1)[0]] += 1


# ----------------------------------------------------------------------
# Layer boundaries
# ----------------------------------------------------------------------


def _nbytes(value) -> int:
    if value is None:
        return 0
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    return sum(_nbytes(item) for item in value)


def _count(key: str, amount: Callable) -> Callable:
    def post(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)
        return result

    return post


def _gf_bytes(out_arg: Optional[int] = None, out_kw: str = ""):
    """Counts output bytes computed by a GF bulk op: the result, or the
    output argument (position ``out_arg`` counting ``self``, or
    keyword ``out_kw``) for ops that write in place."""

    def amount(args, kwargs, result):
        if out_arg is None:
            return _nbytes(result)
        return _nbytes(args[out_arg] if len(args) > out_arg else kwargs.get(out_kw))

    return _count("gf.bytes", amount)


def _bound_executor(tracer, args, kwargs, result):
    """A bound batch executor runs the native kernel later, once per
    call: trace those calls as GF work on the buffers bound here."""
    nbytes = _nbytes(args[2] if len(args) > 2 else kwargs.get(
        "batch_rows_out", kwargs.get("batch_outs")))
    count = _count("gf.bytes", lambda a, k, r: nbytes)
    return tracer.traced(result, "bound_batch.execute", "gf", count)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.cluster import network, placement, recovery, repair_policy
    from repro.cluster import shard, workload
    from repro.codes import base, crs, lrc, rs
    from repro.codes.piggyback import code as piggyback
    from repro.gf import field, packed, xor_schedule
    from repro.striping import checksum, codec, pipeline

    # Data plane.
    for name in ("encode_file", "encode_stream", "repair_file",
                 "repair_stream", "decode_file"):
        tracer.patch(pipeline, name, "pipeline")
    tracer.patch(pipeline.CompiledFileRepair, "run", "pipeline.compiled")
    tracer.patch(pipeline, "_run_shards_self_healing", "wait.pool")
    tracer.patch_methods(
        [codec.StripeCodec],
        ("encode_stripes", "repair_blocks", "decode_stripe"), "codec")
    code_classes = [base.ErasureCode, rs.ReedSolomonCode,
                    piggyback.PiggybackedRSCode, lrc.LRCCode,
                    crs.CauchyBitmatrixRSCode]
    tracer.patch_methods(
        code_classes,
        ("encode_batch", "parity_batch", "decode_batch",
         "execute_repair_batch", "bind_repair_batch"), "codes")

    def memoize(self, cache_name, key, builder, cap=base.MEMO_CAP):
        return original_memoize(
            self, cache_name, key,
            tracer.traced(builder, f"build{cache_name}", "codes.plan",
                          _count("codes.plan_misses", lambda a, k, r: 1)),
            cap)

    original_memoize = base.ErasureCode.__dict__["_memoize"]
    base.ErasureCode._memoize = memoize
    tracer._patches.append((base.ErasureCode, "_memoize", original_memoize))
    for attr in ("matmul", "dot", "scale"):
        tracer.patch(field.GF256, attr, "gf", _gf_bytes())
    tracer.patch(field.GF256, "addmul", "gf", _gf_bytes(1, "accumulator"))
    for cls, out_kw, batch_kw in (
        (packed.PackedMatmul, "rows_out", "batch_rows_out"),
        (packed.PackedRow, "out", "batch_outs"),
    ):
        tracer.patch(cls, "apply", "gf", _gf_bytes(2, out_kw))
        tracer.patch(cls, "apply_batch", "gf", _gf_bytes(2, batch_kw))
        tracer.patch(cls, "bind_batch", "gf", _bound_executor)

    def xor_post(tracer_, args, kwargs, result):
        tracer_.counts["gf.xor_schedule.scheduled_xors"] += args[0].scheduled_xors
        tracer_.counts["gf.bytes"] += _nbytes(result)
        return result

    tracer.patch(xor_schedule.XorSchedule, "apply", "gf", xor_post)
    tracer.patch_function(
        checksum, "crc32c", "checksum",
        _count("checksum.bytes", lambda a, k, r: _nbytes(a[0])
               if hasattr(a[0], "nbytes") else len(a[0])))
    tracer.patch_function(
        checksum, "crc32c_batch", "checksum",
        _count("checksum.bytes", lambda a, k, r: _nbytes(a[0])))

    # Simulator.
    def timeline_post(tracer_, args, kwargs, result):
        tracer_.counts["timeline.ops"] += result.num_ops
        tracer_.counts["timeline.flags"] += int((result.kinds == shard.OP_FLAG).sum())
        return result

    tracer.patch(shard, "resolve_timeline", "timeline", timeline_post)
    policies = [placement.PlacementPolicy, placement.DistinctRackPlacement,
                placement.DistinctNodePlacement,
                placement.DeterministicRoundRobinPlacement]
    tracer.patch_methods(policies, ("place_many",), "placement.place")
    tracer.patch_methods(
        policies, ("replacement_nodes", "hashed_replacement_nodes"),
        "placement.draw",
        _count("placement.destinations",
               lambda a, k, r: 0 if r is None else int(len(r))))
    tracer.patch(recovery.RecoveryService, "on_node_flagged", "recovery",
                 _count("recovery.flags", lambda a, k, r: 1))
    tracer.patch_methods([recovery.RecoveryService],
                         ("recover_node_batch", "recover_unit"), "recovery")
    tracer.patch(shard.ShardState, "apply_epoch", "shard.apply")
    tracer.patch(shard.ShardedSimulation, "_dispatch_epoch_workers",
                 "wait.workers")
    def charge_post(transfers):
        def post(tracer_, args, kwargs, result):
            tracer_.counts["network.charges"] += 1
            tracer_.counts["network.transfers"] += transfers(args)
            return result

        return post

    tracer.patch(network.TrafficMeter, "charge", "network.charge",
                 charge_post(lambda a: 1))
    tracer.patch(network.TrafficMeter, "charge_batch", "network.charge",
                 charge_post(lambda a: int(len(a[1]))))
    tracer.patch(network.TrafficMeter, "merge_from", "network.charge")
    tracer.patch_methods(
        [repair_policy.RepairScheduler],
        ("submit", "advance", "next_wake", "read_latency", "pending_jobs",
         "state_dict", "restore"), "repair_policy")
    tracer.patch(workload.ReadWorkload, "perform_read", "workload.read")
