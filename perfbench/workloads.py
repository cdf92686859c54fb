"""The benchmark's workloads: inputs, timed operations and oracles.

Load comes from one client in a closed loop: each operation is issued
after the previous one returns, and the program keeps its default
parallelism.  Every input is generated from the benchmark seed; the
program sees only the generated bytes, shards and configs.  The seed
decides the bytes, file offsets and tail sizes, not which calls a cycle
makes or their order, so runs with different seeds do alike work.

A run repeats *cycles* until ``--seconds`` are spent (at least
:data:`MIN_CYCLES`).  Each cycle runs every phase of
the workload once: the phases of the product the workload is named
after at full size, the other product's small, so every run reports
every end-to-end metric and a change aimed at one product shows as "no
change" on the other product's metrics.  Data-plane throughputs are
total work over total time with each class of alike operations timed at
its median over the cycles (:meth:`Tally.rate`), which a burst of load
from other tenants of the host moves less than a plain total; simulation
rates are the geometric mean over configs, each timed at its midmean
(:meth:`Tally.geomean_rate`).

Every operation's output is checked; an operation that raises or fails
a check counts as failed and contributes no timing.  Between operations
the benchmark waits, off the clock, for exiting pool processes, so one
call's teardown is not timed as part of the next.  Files on disk live
only a second or two, as long as the few operations that read them, so
the page cache never writes them back and disk traffic from other
tenants of the host does not reach the timings.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.shard import ShardedSimulation
from repro.cluster.simulation import WarehouseSimulation
from repro.codes.registry import create_code
from repro.gf import backends
from repro.striping import pipeline
from repro.striping.checksum import crc32c as _crc32c

MiB = 1 << 20

#: The four code families, all storing 10 data units in 14.
CODES: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("rs", {"k": 10, "r": 4}),
    ("piggyback", {"k": 10, "r": 4}),
    ("lrc", {"k": 10, "l": 2, "g": 2}),
    ("crs", {"k": 10, "r": 4}),
)
K, N = 10, 14

#: Blocks of the raid workload's files: the paper's 256 MB HDFS block
#: at 1/128 scale, so a two-stripe file is 40 MiB.
RAID_BLOCK = 2 * MiB

#: Blocks of the recover workload's files (1/128 scale): a two-stripe
#: file's 14 shards hold 56 MiB.
REPAIR_BLOCK = 2 * MiB

#: Blocks of the small encode and repair phases, whose one-stripe files
#: take the serial path (a pool starts only for more than one stripe).
SMALL_BLOCK = 512 * 1024

#: Blocks of the one-stripe files degraded reads are served from.
READ_BLOCK = 256 * 1024

#: Distinct one-stripe files per code that degraded reads draw from,
#: half ending in a full block and half in a tail.
READ_FILES = 4

#: Degraded reads per code per cycle: every slot missing twice, so each
#: cycle has the same mix of missing data and parity slots.  The four
#: codes give 112 reads a cycle, eleven beyond a cycle's p90.
READ_ROUNDS = 2

#: Reads per cycle with two slots missing instead of one: 2 of 112
#: (1.8%), against 1.87% in section 2.2's split (98.08% one, the rest
#: nearly all two).
TWO_MISSING = 2

#: Bytes per sub-unit window the scalar encode oracle checks.
ORACLE_WINDOW = 4096

#: Cycles a pass runs at least, so every class has three samples.
MIN_CYCLES = 3

#: Seeded random bytes are generated in chunks of this size, so a
#: corpus grown later keeps the bytes it started with.
CORPUS_CHUNK = 1 * MiB

#: Files start at page-aligned offsets in the corpus.
PAGE = 4096

#: Step of the tail-size sequence across cycles (the golden ratio's
#: fractional part spreads any number of steps evenly).
GOLDEN = 0.6180339887498949


def paper_config(code_name: str = "rs", days: float = 24.0,
                 seed: int = ClusterConfig.seed) -> ClusterConfig:
    """The paper's cluster at the default config: 100 racks x 30 nodes,
    24 days, eager recovery, hashed destination draws (the mode both
    engines share)."""
    params = dict(CODES)[code_name]
    config = ClusterConfig(destination_draws="hashed", days=days, seed=seed)
    return config.with_code(code_name, **params)


def policy_config() -> ClusterConfig:
    """The same cluster under the full repair-policy stack.

    A contended recovery pipe with priority and lazy repair, parallel
    repair waves, d3 placement, one hot spare per rack, the per-TOR link
    model and a low rate of degraded reads.  Three days keep one serial
    run near two seconds.
    """
    return replace(
        paper_config(days=3.0),
        recovery_bandwidth_bytes_per_sec=400e6,
        repair_queue_discipline="priority",
        lazy_repair=True,
        lazy_repair_delay_seconds=7200.0,
        parallel_repair=True,
        placement_policy="d3",
        hot_spares_per_rack=1,
        repair_link_gbps=40.0,
        reads_per_stripe_per_day=0.01,
    )


class CheckFailed(Exception):
    """An operation's output differs from its oracle."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def join_children(timeout: float = 30.0) -> None:
    """Wait for every pool or worker process the program started."""
    for child in multiprocessing.active_children():
        child.join(timeout)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------


def midmean(values: List[float]) -> float:
    """Mean of the values between the quartiles (the median of three or
    four).  Like a median it ignores a cycle that another tenant of the
    host slowed, and it averages more of the rest: for the few, long
    samples of a simulation, whose times spread evenly around a centre,
    it is the steadier of the two."""
    ordered = sorted(values)
    cut = max(1, len(ordered) // 4) if len(ordered) > 2 else 0
    return statistics.fmean(ordered[cut: len(ordered) - cut])


class Tally:
    """Outcomes, timed samples and counts of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: While set, operations are run and checked but not timed.
        self.warming = False
        self.sums: Dict[str, float] = {}
        #: metric -> class -> (weight, [(work, seconds), ...])
        self.samples: Dict[str, Dict[tuple, Tuple[float, list]]] = {}
        #: cycle -> degraded-read latencies
        self.read_latencies: Dict[int, List[float]] = {}
        #: Seconds of each build of the program objects.
        self.setup_seconds: List[float] = []
        self.cross_rack_tb_per_day: Dict[str, List[float]] = {}

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def total(self, key: str) -> float:
        return self.sums.get(key, 0.0)

    def sample(self, metric: str, cls: tuple, work: float, seconds: float,
               weight: float = 1.0) -> None:
        """One timed operation of a class whose operations do alike work
        (same code, stripe count and full or tail last block; slot
        stratum; or engine and config)."""
        if self.warming:
            return
        per_class = self.samples.setdefault(metric, {})
        per_class.setdefault(cls, (weight, []))[1].append((work, seconds))

    def rate(self, metric: str, code: Optional[str] = None) -> float:
        """Total work over total time, with each class's operations
        timed at the median of their seconds per unit of work.

        Every cycle adds one sample per class, so the median discards a
        cycle that load from elsewhere on the host slowed.  Pooled calls
        take one of two speeds (a two-stripe CRS encode 0.3-0.6 s or about
        1.5 s for the same input), and the slow ones come in a share that
        differs from run to run; the median follows the common speed where
        a mean, even of the middle half, moves with that share.  Classes
        carry weights: repair strata weigh their share of the stripe, so
        the rate is that of a uniform draw of the failed slot.
        """
        work = seconds = 0.0
        for cls, (weight, samples) in self.samples.get(metric, {}).items():
            if code is not None and cls[0] != code:
                continue
            mean_work = statistics.fmean(w for w, _ in samples)
            per_unit = statistics.median(s / w for w, s in samples)
            work += weight * mean_work
            seconds += weight * mean_work * per_unit
        return work / seconds if seconds else 0.0

    def geomean_rate(self, metric: str) -> float:
        """Geometric mean over classes of each class's work per second,
        timed at the :func:`midmean` of its seconds per unit of work.

        For simulations, whose configs differ twentyfold in cost per
        simulated day: each config counts alike, where in a total the
        slowest config would decide the rate and, with it, the rate's
        run-to-run spread.
        """
        rates = [1 / midmean([s / w for w, s in samples])
                 for _, samples in self.samples.get(metric, {}).values()]
        return statistics.geometric_mean(rates) if rates else 0.0

    def read_latency(self, decile: int) -> float:
        """Midmean over cycles of one decile of a cycle's read latencies."""
        values = [statistics.quantiles(lat, n=10, method="inclusive")[decile - 1]
                  for lat in self.read_latencies.values() if len(lat) > 1]
        return midmean(values) if values else 0.0

    def op(self, label: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # an operation that raised counts as failed
            self.failed += 1
            print(f"operation failed: {label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        join_children()


class Context:
    """Run-wide state: seed, scratch directory, inputs and tracer."""

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self.tracer = None
        self.tally = Tally()
        self.cache: Dict[tuple, object] = {}
        self._corpus = np.empty(0, dtype=np.uint8)

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def corpus(self, size: int) -> np.ndarray:
        """Seeded random bytes that files and shards are views into.

        Grown on demand to what the workload's phases use: a forked pool
        copies the page tables of all of it.
        """
        have = self._corpus.size
        if have < size:
            chunks = -(-size // CORPUS_CHUNK)
            grown = np.empty(chunks * CORPUS_CHUNK, dtype=np.uint8)
            grown[:have] = self._corpus
            for i in range(have // CORPUS_CHUNK, chunks):
                grown[i * CORPUS_CHUNK: (i + 1) * CORPUS_CHUNK] = np.frombuffer(
                    self.rng(0, i).bytes(CORPUS_CHUNK), dtype=np.uint8)
            self._corpus = grown
        return self._corpus

    def path(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)

    @contextmanager
    def request(self):
        """One call into the program; traced when tracing is on."""
        tracer = self.tracer
        if tracer is None:
            yield
            return
        tracer.request += 1
        tracer.enabled = True
        try:
            yield
        finally:
            tracer.enabled = False


@dataclass
class Program:
    """The program objects a pass uses: one code per family."""

    codes: Dict[str, object]


def build_program(sim_configs) -> Program:
    """Everything a workload constructs before its first timed call:
    GF backend load (from the warm compiled-kernel cache), the codes,
    and both simulation engines with their placements."""
    backends.reset_backend_state(forget_probes=True)
    backends.active_backend()
    codes = {name: create_code(name, **params) for name, params in CODES}
    for config in sim_configs:
        WarehouseSimulation(config)
        ShardedSimulation(config)
    return Program(codes)


def hdfs_file_size(stripes: int, block: int, tail: Optional[float]) -> int:
    """``stripes`` stripes of blocks whose last block is full (``tail``
    None) or a tail at fraction ``tail`` of the way from 1/16 block to a
    full block.  Half the files of every phase end in a full block, the
    simulator's block-size mix; a tail makes the codec pad, several
    times slower than a full stripe, so the half is exact rather than
    drawn."""
    last = block if tail is None else block // 16 + int(tail * (block - block // 16))
    return (stripes * K - 1) * block + last


def file_offset(rng: np.random.Generator, corpus: np.ndarray, size: int) -> int:
    """A seeded page-aligned offset of a ``size``-byte file in the
    corpus, so buffer alignment is the same for every seed."""
    return PAGE * int(rng.integers(0, (corpus.size - size) // PAGE + 1))


def stripe_units(code, data: np.ndarray, block: int, t: int) -> np.ndarray:
    """Stripe ``t`` of a file as the zero-padded ``(k, width)`` units the
    scalar encoder takes."""
    blocks = [data[b * block: (b + 1) * block] for b in range(t * K, (t + 1) * K)]
    align = code.unit_alignment
    width = -(-max(b.size for b in blocks) // align) * align
    units = np.zeros((K, width), dtype=np.uint8)
    for j, payload in enumerate(blocks):
        units[j, : payload.size] = payload
    return units


def sub_unit_window(units: np.ndarray, align: int, start: int, length: int):
    """The same ``length`` columns of each of a unit's ``align``
    sub-units (Piggybacked-RS substripes, CRS packets).  Every code here
    computes parities column by column within sub-units, so a window of
    the data encodes to the same window of the parities."""
    sub = units.shape[-1] // align
    return np.concatenate(
        [units[..., s * sub + start: s * sub + start + length] for s in range(align)],
        axis=-1)


# ----------------------------------------------------------------------
# Data plane
# ----------------------------------------------------------------------


def encode_cycle(ctx: Context, program: Program, cycle: int, block: int,
                 stripe_counts: Tuple[int, ...]) -> None:
    """Raid two files of each stripe count under every code, in memory
    (``encode_file``) and file to file (``encode_stream``): one ending
    in a full block and one in a tail.

    Successive cycles' tails step through 1/16..1 block by the golden
    ratio from a seeded start, so every run spreads them evenly.
    """
    rng = ctx.rng(1, block, cycle)
    start = float(ctx.rng(1, block).random())
    corpus = ctx.corpus(max(stripe_counts) * K * block + block)
    for stripes in stripe_counts:
        for tail in (None, (start + cycle * GOLDEN) % 1.0):
            size = hdfs_file_size(stripes, block, tail)
            offset = file_offset(rng, corpus, size)
            data = corpus[offset: offset + size]
            source = ctx.path("raid-source.bin")
            data.tofile(source)
            for name, _ in CODES:
                code = program.codes[name]
                sample = (int(rng.integers(0, stripes)), float(rng.random()))
                state: Dict[str, object] = {}
                ctx.tally.op(f"encode_file {name}", encode_op, ctx, code, data,
                             block, sample, state)
                ctx.tally.op(f"encode_stream {name}", encode_stream_op, ctx,
                             code, source, block, state)
            os.remove(source)


def encode_op(ctx, code, data, block, sample, state) -> None:
    with ctx.request():
        t0 = time.perf_counter()
        result = pipeline.encode_file(code, data, block, name="raid")
        seconds = time.perf_counter() - t0
    parities = [[np.asarray(p.payload) for p in row] for row in result.parities]
    t, where = sample
    units = stripe_units(code, data, block, t)
    align = code.unit_alignment
    length = min(ORACLE_WINDOW, units.shape[1] // align)
    start = int(where * (units.shape[1] // align - length + 1))
    expected = code.encode(sub_unit_window(units, align, start, length))[K:]
    actual = sub_unit_window(np.stack(parities[t]), align, start, length)
    check(np.array_equal(actual, expected),
          f"stripe {t} parity differs from the scalar encode oracle")
    state["parities"] = parities
    tally = ctx.tally
    tally.sample("encode", (code.name, len(parities), data.size % block == 0),
                 data.size, seconds)
    tally.add("pipeline.ops", 1)
    tally.add("pipeline.parallel_ops", int(result.parallel_used))


def encode_stream_op(ctx, code, source, block, state) -> None:
    sink = ctx.path("raid-parity.bin")
    with ctx.request():
        t0 = time.perf_counter()
        result = pipeline.encode_stream(code, source, sink, block, name="raid")
        seconds = time.perf_counter() - t0
    check("parities" in state, "no encode_file parities to compare with")
    streamed = np.fromfile(sink, dtype=np.uint8)
    os.remove(sink)
    offset = 0
    for row in state.pop("parities"):
        for parity in row:
            check(np.array_equal(streamed[offset: offset + parity.size], parity),
                  "encode_stream parity differs from encode_file")
            offset += parity.size
    check(offset == streamed.size, "encode_stream wrote more than the parities")
    _add_stream(ctx.tally, result, result.encode_seconds)
    ctx.tally.sample("encode_stream",
                     (code.name, result.stripes, result.data_bytes % block == 0),
                     result.data_bytes, seconds)


def _add_stream(tally: Tally, result, busy_seconds: float) -> None:
    tally.add("pipeline.ops", 1)
    tally.add("stream.wall_s", result.wall_seconds)
    tally.add("stream.busy_s", busy_seconds)


def repair_strata(code, every_slot: bool):
    """Slots grouped by kind (data or parity) and download cost, or one
    group per slot, with each group's share of the stripe."""
    groups: Dict[tuple, List[int]] = {}
    for slot in range(code.n):
        key = (slot,) if every_slot else (
            slot >= code.k, Fraction(code.repair_download_units(slot)))
        groups.setdefault(key, []).append(slot)
    return [(len(slots) / code.n, slots) for _, slots in sorted(groups.items())]


def repair_inputs(ctx: Context, name: str, code, block: int, stripes: int):
    """A file's stored shards (parities from the scalar encoder) and
    their per-stripe CRC32C checksums."""
    key = ("repair", name, block, stripes)
    if key not in ctx.cache:
        span = stripes * block
        corpus = ctx.corpus(K * span)
        shards = [corpus[j * span: (j + 1) * span] for j in range(K)]
        shards += [np.empty(span, dtype=np.uint8) for _ in range(code.n - K)]
        for t in range(stripes):
            stripe = code.encode(np.stack(
                [shard[t * block: (t + 1) * block] for shard in shards[:K]]))
            for j in range(K, code.n):
                shards[j][t * block: (t + 1) * block] = stripe[j]
        checks = {slot: [_crc32c(shard[t * block: (t + 1) * block])
                         for t in range(stripes)]
                  for slot, shard in enumerate(shards)}
        ctx.cache[key] = (shards, checks)
    return ctx.cache[key]


def repair_cycle(ctx: Context, program: Program, cycle: int, block: int,
                 stripes: int, every_slot: bool) -> None:
    """For every code and slot stratum, rebuild a failed slot of the
    stratum, in memory (``repair_file``) and from on-disk shards
    (``repair_stream``).

    Cycle ``c`` takes slot ``c`` (mod its size) of every stratum, so a
    run covers a stratum's slots (their repair cost still differs,
    Piggybacked-RS parities and CRS schedules most) instead of the few a
    draw would give.  With ``every_slot`` each slot is its own stratum,
    for phases cheap enough to repair them all.  Slots and codes come in
    the same order for every seed: the codes' plan caches hold fewer
    erasure patterns than a cycle uses, and the order decides which
    calls find their plan cached.  A code's shard files are written once
    a cycle for its ``repair_stream`` calls and removed after them.
    """
    for name, _ in CODES:
        code = program.codes[name]
        shards, checks = repair_inputs(ctx, name, code, block, stripes)
        paths = [ctx.path(f"shard-{s}.bin") for s in range(code.n)]
        try:
            for shard, path in zip(shards, paths):
                shard.tofile(path)
            for index, (weight, slots) in enumerate(repair_strata(code, every_slot)):
                slot = slots[cycle % len(slots)]
                job = (ctx, name, code, shards, checks, slot, block, index, weight)
                ctx.tally.op(f"repair_file {name} slot {slot}", repair_op, *job)
                ctx.tally.op(f"repair_stream {name} slot {slot}",
                             repair_stream_op, *job, paths)
        finally:
            for path in paths:
                if os.path.exists(path):
                    os.remove(path)


def _check_read_ratio(code, slot: int, bytes_read: int, rebuilt: int) -> None:
    expected = Fraction(code.repair_download_units(slot))
    check(Fraction(bytes_read, rebuilt) == expected,
          f"slot {slot} read {bytes_read} bytes to rebuild {rebuilt}, "
          f"expected {expected} units per unit")


def repair_op(ctx, name, code, shards, checks, slot, block, stratum, weight) -> None:
    survivors = {s: shards[s] for s in range(code.n) if s != slot}
    size = K * shards[0].size
    with ctx.request():
        t0 = time.perf_counter()
        result = pipeline.repair_file(code, survivors, slot, block, size,
                                      name="recover", checksums=checks)
        seconds = time.perf_counter() - t0
    check(np.array_equal(result.rebuilt, shards[slot]),
          "rebuilt shard differs from the encoded shard")
    _check_read_ratio(code, slot, result.bytes_read, result.rebuilt_bytes)
    tally = ctx.tally
    tally.sample("repair", (name, stratum), result.rebuilt_bytes, seconds, weight)
    tally.add(f"repair.bytes_read.{name}", result.bytes_read)
    tally.add(f"repair.rebuilt.{name}", result.rebuilt_bytes)
    tally.add("pipeline.ops", 1)
    tally.add("pipeline.parallel_ops", int(result.parallel_used))


def repair_stream_op(ctx, name, code, shards, checks, slot, block, stratum,
                     weight, paths) -> None:
    sources = {s: paths[s] for s in range(code.n) if s != slot}
    sink = ctx.path("rebuilt.bin")
    size = K * shards[0].size
    try:
        with ctx.request():
            t0 = time.perf_counter()
            result = pipeline.repair_stream(code, sources, sink, block, slot,
                                            size, name="recover", checksums=checks)
            seconds = time.perf_counter() - t0
        rebuilt = np.fromfile(sink, dtype=np.uint8)
    finally:
        if os.path.exists(sink):
            os.remove(sink)
    check(np.array_equal(rebuilt, shards[slot]),
          "streamed rebuild differs from the encoded shard")
    _check_read_ratio(code, slot, result.bytes_read, result.rebuilt_bytes)
    ctx.tally.sample("repair_stream", (name, stratum), result.rebuilt_bytes,
                     seconds, weight)
    _add_stream(ctx.tally, result, result.repair_seconds)


def read_files(ctx: Context, program: Program):
    """Per code, one-stripe files with their stored shards and checksums."""
    if "read" not in ctx.cache:
        rng = ctx.rng(3)
        block = READ_BLOCK
        corpus = ctx.corpus(K * block + block)
        files = {}
        for name, _ in CODES:
            code = program.codes[name]
            files[name] = []
            for i in range(READ_FILES):
                size = hdfs_file_size(1, block, None if i % 2 else rng.random())
                offset = file_offset(rng, corpus, size)
                data = corpus[offset: offset + size]
                shards = [data[j * block: (j + 1) * block] for j in range(K)]
                shards += list(code.encode(stripe_units(code, data, block, 0))[K:])
                checks = {slot: [_crc32c(shard)] for slot, shard in enumerate(shards)}
                files[name].append((data, shards, checks))
        ctx.cache["read"] = files
    return ctx.cache["read"]


def degraded_cycle(ctx: Context, program: Program, cycle: int) -> None:
    """Degraded reads (``decode_file``) of one-stripe files with one
    slot missing or, in ``TWO_MISSING`` reads, two.

    Every cycle reads the same mix in the same order -- each slot
    missing ``READ_ROUNDS`` times under every code, files taken in turn
    -- and only the second missing slots are drawn.  A cycle's p90 falls
    between the latencies of different codes and slots, so it would move
    with the share of each that a free draw gives, and the order decides
    which reads find their plan cached (see :func:`repair_cycle`).
    """
    rng = ctx.rng(3, cycle)
    files = read_files(ctx, program)
    reads = [(name, slot, (cycle + slot + r) % READ_FILES)
             for r in range(READ_ROUNDS)
             for slot in range(N)
             for name, _ in CODES]
    doubles = {len(reads) * (2 * i + 1) // (2 * TWO_MISSING)
               for i in range(TWO_MISSING)}
    for index, (name, slot, which) in enumerate(reads):
        code = program.codes[name]
        data, shards, checks = files[name][which]
        missing = {slot}
        if index in doubles:
            missing.add(int(rng.choice([s for s in range(code.n) if s != slot])))
        ctx.tally.op(f"decode_file {name} missing {sorted(missing)}",
                     decode_op, ctx, code, data, shards, checks, missing, cycle)


def decode_op(ctx, code, data, shards, checks, missing, cycle) -> None:
    sources = {s: shards[s] for s in range(code.n) if s not in missing}
    sink = io.BytesIO()
    with ctx.request():
        t0 = time.perf_counter()
        result = pipeline.decode_file(code, sources, sink, READ_BLOCK, data.size,
                                      name="read", checksums=checks)
        seconds = time.perf_counter() - t0
    check(np.array_equal(np.frombuffer(sink.getbuffer(), dtype=np.uint8), data),
          "decoded file differs from the original")
    if not ctx.tally.warming:
        ctx.tally.read_latencies.setdefault(cycle, []).append(seconds)
    _add_stream(ctx.tally, result, result.decode_seconds)


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------

FINGERPRINT_FIELDS = (
    "unavailability_events_per_day", "blocks_recovered_per_day",
    "cross_rack_bytes_per_day", "degraded_histogram",
    "stats.blocks_recovered", "stats.bytes_downloaded",
    "stats.unrecoverable_units", "stats.flagged_events_recovered",
    "stats.flagged_events_skipped", "stats.cancelled_recoveries",
    "stats.queue_wait_us", "stats.urgent_wait_us", "stats.deferred_repairs",
    "stats.promoted_repairs", "stats.queue_peak_depth", "stats.spare_placements",
    "meter.total_bytes", "meter.cross_rack_bytes", "meter.intra_rack_bytes",
    "meter.num_transfers", "meter.cross_rack_bytes_by_day",
    "meter.bytes_by_switch",
)


def fingerprint(result) -> Dict[str, object]:
    """Order-invariant summary of everything a simulation reports,
    including the degraded-read accounting when reads are simulated."""
    values = {}
    for field in FINGERPRINT_FIELDS:
        value = result
        for part in field.split("."):
            value = getattr(value, part)
        if isinstance(value, dict):
            value = tuple(sorted(value.items()))
        elif isinstance(value, list):
            value = tuple(value)
        values[field] = value
    if result.read_stats is not None:
        for field, value in asdict(result.read_stats).items():
            values[f"read_stats.{field}"] = value
    return values


def sim_cycle(ctx: Context, program: Program, configs) -> None:
    """Each config on the serial engine (the oracle) and on the sharded
    engine with default workers; the two must agree field by field.

    Every cycle replays the failure trace of the config's own seed,
    whatever the benchmark seed: run time differs between traces
    (fivefold for the policy stack, whose queue correlated outages fill)
    more than a run of a few cycles can average out.
    """
    for config in configs:
        state: Dict[str, object] = {}
        ctx.tally.op(f"simulate serial {config.code_name}", sim_op, ctx, config,
                     WarehouseSimulation, "serial", state)
        ctx.tally.op(f"simulate sharded {config.code_name}", sim_op, ctx, config,
                     ShardedSimulation, "sharded", state)


def sim_op(ctx, config, engine, label, state) -> None:
    with ctx.request():
        simulation = engine(config)
    with ctx.request():
        t0 = time.perf_counter()
        result = simulation.run()
        seconds = time.perf_counter() - t0
    check(len(result.blocks_recovered_per_day) == int(config.days),
          "simulation series does not cover the horizon")
    tally = ctx.tally
    if label == "serial":
        state["oracle"] = fingerprint(result)
        tally.add("blocks_recovered", result.stats.blocks_recovered)
        tally.add("cross_rack_bytes", result.meter.cross_rack_bytes)
        if result.read_stats is not None:
            tally.add("sim.reads", result.read_stats.reads)
            tally.add("sim.degraded_reads", result.read_stats.degraded_reads)
        tally.add("sim.queue_peak_depth", result.stats.queue_peak_depth)
        tally.add("sim.deferred", result.stats.deferred_repairs)
        tally.add("sim.promoted", result.stats.promoted_repairs)
        if config.days >= 24:
            tally.cross_rack_tb_per_day.setdefault(config.code_name, []).append(
                result.median_cross_rack_bytes_scaled / 1e12)
    else:
        check("oracle" in state, "no serial run to compare with")
        got = fingerprint(result)
        check(got.keys() == state["oracle"].keys(),
              "sharded and serial engines report different fields")
        for field, value in state["oracle"].items():
            check(got[field] == value,
                  f"sharded {field} differs from the serial engine")
        tally.add("sharded.runs", 1)
        tally.add("sharded.worker_runs", int(simulation.num_workers > 0))
    tally.sample(f"sim.{label}", (config.code_name, config.placement_policy,
                                  config.days, config.seed), config.days, seconds)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def dataplane_cycle(ctx: Context, program: Program, cycle: int) -> None:
    """Raid and recover at full size: one- and two-stripe files (the
    latter start the process pool), then degraded reads."""
    encode_cycle(ctx, program, cycle, RAID_BLOCK, stripe_counts=(1, 2))
    repair_cycle(ctx, program, cycle, REPAIR_BLOCK, stripes=2, every_slot=False)
    degraded_cycle(ctx, program, cycle)


def small_dataplane_cycle(ctx: Context, program: Program, cycle: int) -> None:
    """Raid and recover of one-stripe files on the serial path, every
    slot repaired each cycle, then degraded reads."""
    encode_cycle(ctx, program, cycle, SMALL_BLOCK, stripe_counts=(1,))
    repair_cycle(ctx, program, cycle, SMALL_BLOCK, stripes=1, every_slot=True)
    degraded_cycle(ctx, program, cycle)


@dataclass(frozen=True)
class Workload:
    why: str
    #: The data-plane calls of one cycle.
    dataplane: Callable[[Context, Program, int], None]
    #: The simulations of one cycle, each on both engines.
    sims: Tuple[ClusterConfig, ...]


#: Two workloads, one per product; each runs the other product small,
#: so every run reports every end-to-end metric and a change aimed at
#: one product shows as "no change" on the other's metrics.  Each merges
#: two of the four the benchmark was planned with (raid + recover,
#: sim-paper + sim-policy): on a host whose speed drifts by a fifth over
#: ten-second periods, two long runs per seed are steadier than four
#: short ones in the same time.
WORKLOADS: Dict[str, Workload] = {
    "dataplane": Workload(
        "raid and recover: encode kernels and batching, repair plans over "
        "more erasure patterns than the plan caches hold, pool, streams, reads",
        dataplane_cycle,
        (paper_config("rs", days=6.0), paper_config("rs", days=6.0, seed=1)),
    ),
    "simulator": Workload(
        "the paper's cluster (flag recovery, draws, metering, shards and "
        "workers) and the repair-policy stack (scheduler, links, d3, reads)",
        small_dataplane_cycle,
        (paper_config("rs"), paper_config("piggyback"), policy_config()),
    ),
}


def timed_build(ctx: Context, workload: Workload) -> Program:
    t0 = time.perf_counter()
    program = build_program(workload.sims)
    ctx.tally.setup_seconds.append(time.perf_counter() - t0)
    return program


def run_pass(ctx: Context, workload: Workload, seconds: float = 0.0,
             cycles: Optional[int] = None) -> int:
    """Cycles on freshly built program objects: exactly ``cycles``, or as
    many (at least :data:`MIN_CYCLES`) as end within ``seconds`` of the
    start at the mean pace so far.  Returns the number run.

    An untimed first cycle of the data-plane calls comes first: a short
    call runs several times slower until allocator and plan caches warm
    up, which would otherwise decide a class's median.  The program
    objects are built before it and, to be discarded, again after every
    cycle: set-up is timed at moments spread over the run like the
    calls, not only in the second or two before the first cycle.
    """
    start = time.perf_counter()
    program = timed_build(ctx, workload)
    ctx.tally.warming = True
    workload.dataplane(ctx, program, 0)
    ctx.tally.warming = False
    warm = time.perf_counter()
    done = 0
    while True:
        if cycles is not None:
            if done == cycles:
                break
        elif done >= MIN_CYCLES:
            now = time.perf_counter()
            if now - start + (now - warm) / done > seconds:
                break
        workload.dataplane(ctx, program, done)
        sim_cycle(ctx, program, workload.sims)
        timed_build(ctx, workload)
        done += 1
    return done
