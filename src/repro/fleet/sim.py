"""Fleet coordinator: conservative sharded parallel co-simulation.

:class:`FleetSim` partitions a :class:`FleetSpec` across worker
processes (contiguous node blocks, see
:func:`repro.fleet.topology.partition`) and drives them in bulletin
rounds:

1. every shard receives, for each of its inbound cross-shard links,
   the peer source's conservative **earliest-TX bound** plus any fresh
   ``(seq, value, tx_cycle)`` TX-ring entries;
2. the shard feeds the entries through the link's fault streams into
   the canonical arrival inbox, caps each boundary node at
   ``min over inbound cross links (bound + latency)``, and runs the
   ordinary lagging-node algorithm locally up to those caps;
3. it replies with its own outbound bounds/entries, and the
   coordinator routes bulletins for the next round.

Because a bound is conservative (a source cannot transmit earlier than
its current cycle, or its next event when idle) and link latencies are
>= 1 cycle, the globally lagging node can always advance — rounds make
progress until every node halts or exhausts the cycle budget — and no
byte is ever delivered to a node that already simulated past its
arrival cycle.  Delivery order, fault-stream draws, and node-local
execution are all independent of the partition, so the fleet digest is
bit-identical for every ``--shards`` value (1-shard runs in-process
through the very same :class:`~repro.fleet.shard.ShardRuntime`).

Workers are **pre-forked warm**: before forking, the coordinator runs
a priming pass — one scratch node per distinct program image (keyed by
flash fingerprint), fed a few radio bytes so receive paths get hot —
which populates the process-wide superblock cache the forked children
inherit copy-on-write; N identical nodes across all shards then
compile each hot block exactly once, in one process.

Timing: the container running the benchmark may have a single CPU, so
besides wall-clock the result reports per-process CPU seconds and a
``critical_path_s`` = coordinator CPU + the slowest shard's CPU — the
wall-clock a machine with >= ``shards`` idle cores would see.  The
nodes/sec scaling metric is defined on the critical path and labeled
as such in reports.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..faults.plan import FaultPlan
from ..fingerprint import content_key
from ..kernel.node import SensorNode
from .shard import InPayload, ShardRuntime, worker_main
from .topology import Topology, partition
from .workload import ProgramMap, build_programs

DEFAULT_MAX_CYCLES = 50_000_000
PRIME_CYCLES = 500_000


@dataclass
class FleetSpec:
    """Everything a shard worker needs to rebuild its partition."""
    topology: Topology
    programs: ProgramMap
    roles: Dict[str, str]
    workload: str
    count: int
    seed: int
    max_cycles: int = DEFAULT_MAX_CYCLES
    fault_plan: Optional[FaultPlan] = None

    @property
    def label(self) -> str:
        t = self.topology
        shape = "x".join(str(t.params[k]) for k in ("rows", "cols")
                         if k in t.params) or str(t.params.get("count"))
        return f"{t.kind}-{shape}-{self.workload}"


def build_spec(topology: Topology, workload: str = "flood",
               count: int = 8, seed: int = 0xF1EE7,
               max_cycles: int = DEFAULT_MAX_CYCLES,
               fault_plan: Optional[FaultPlan] = None) -> FleetSpec:
    programs, roles = build_programs(topology, workload, count=count)
    return FleetSpec(topology=topology, programs=programs, roles=roles,
                     workload=workload, count=count, seed=seed,
                     max_cycles=max_cycles, fault_plan=fault_plan)


@dataclass
class FleetResult:
    label: str
    nodes: int
    links: int
    cross_links: int
    shards: int
    rounds: int
    finished_nodes: int
    max_node_cycles: int
    total_instret: int
    delivered: int
    dropped: int
    corrupted: int
    duplicated: int
    cross_bytes: int
    digest: str
    node_summaries: Dict[str, dict] = field(default_factory=dict)
    link_rows: List[Tuple[int, ...]] = field(default_factory=list)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    primed_images: int = 0
    compiled_per_shard: List[int] = field(default_factory=list)
    busy_s: List[float] = field(default_factory=list)
    coordinator_cpu_s: float = 0.0
    critical_path_s: float = 0.0
    wall_s: float = 0.0
    prime_s: float = 0.0

    @property
    def nodes_per_sec(self) -> float:
        """Fleet size over critical-path CPU seconds (the wall-clock a
        host with >= shards idle cores would see)."""
        if self.critical_path_s <= 0:
            return 0.0
        return self.nodes / self.critical_path_s

    def render(self, timing: bool = False) -> str:
        """Deterministic human-readable summary (timing lines opt-in,
        so golden files stay byte-stable)."""
        lines = [
            f"fleet {self.label}: {self.nodes} nodes, {self.links} links "
            f"({self.cross_links} cross-shard), {self.shards} shard(s)",
            f"  rounds {self.rounds}, finished {self.finished_nodes}/"
            f"{self.nodes}, max cycle {self.max_node_cycles}, "
            f"instret {self.total_instret}",
            f"  bytes: delivered {self.delivered}, dropped "
            f"{self.dropped}, corrupted {self.corrupted}, duplicated "
            f"{self.duplicated}, cross-shard ferried {self.cross_bytes}",
            f"  primed images {self.primed_images}, compiled blocks "
            f"per shard {self.compiled_per_shard}",
            f"  digest {self.digest}",
        ]
        if self.fault_counts:
            counts = ", ".join(f"{k}={v}" for k, v in
                               sorted(self.fault_counts.items()))
            lines.insert(3, f"  faults: {counts}")
        if timing:
            busy = ", ".join(f"{b:.3f}" for b in self.busy_s)
            lines.append(
                f"  timing: wall {self.wall_s:.3f}s, coordinator cpu "
                f"{self.coordinator_cpu_s:.3f}s, shard cpu [{busy}]s, "
                f"critical path {self.critical_path_s:.3f}s, "
                f"{self.nodes_per_sec:.1f} nodes/s")
        return "\n".join(lines)


def prime_caches(spec: FleetSpec,
                 prime_cycles: int = PRIME_CYCLES) -> Tuple[int, float]:
    """Warm the process-wide JIT caches before forking workers.

    Builds scratch nodes per *distinct flash image* in the fleet
    (deduped first by source tuple, then by flash fingerprint) and runs
    each image twice: once with an empty RX queue and once fed the
    workload's byte count over the radio.  The two passes matter
    because the specializer keys compiled variants on observed device
    state — ``UCSR0A`` reads differ between "bytes pending" (RXC set)
    and "idle" — so a single pass would leave one variant to compile
    per worker after the fork.  Last, the blocks the scratch runs'
    traces chained are fused too (:func:`_prime_seams`).  Returns
    (primed image count, CPU seconds spent priming).
    """
    t0 = time.process_time()
    seen_sources = set()
    seen_images = set()
    payload = bytes((0x30 + i) & 0xFF for i in range(spec.count))
    for name in spec.topology.names:
        sources = spec.programs[name]
        if sources in seen_sources:
            continue
        seen_sources.add(sources)
        probe = SensorNode.from_sources(
            list(sources), adc_seed=derive_scratch_seed(spec.seed))
        fingerprint = probe.cpu.flash.fingerprint()
        if fingerprint in seen_images:
            continue
        seen_images.add(fingerprint)
        probe.run(max_cycles=min(prime_cycles, 120_000))
        # Feed in two chunks with a bounded run between, so the scratch
        # node also visits the "drained mid-stream, spinning on an
        # empty queue" states a real relay sees between hops — and run
        # in horizon-sized slices: the network scheduler interrupts
        # nodes at link-latency horizons, which creates superblock
        # entry points mid-loop that an uninterrupted run never forms.
        fed = SensorNode.from_sources(
            list(sources), adc_seed=derive_scratch_seed(spec.seed))
        half = max(1, len(payload) // 2)
        fed.radio.deliver(payload[:half])
        slice_cycles = max(1, min(
            (ls.latency_cycles for ls in spec.topology.links),
            default=2_000))
        budget = min(prime_cycles, 120_000)
        while not fed.finished and fed.cpu.cycles < budget:
            fed.run(max_cycles=fed.cpu.cycles + slice_cycles)
        if not fed.finished:
            fed.radio.deliver(payload[half:])
            while not fed.finished and fed.cpu.cycles < prime_cycles:
                fed.run(max_cycles=fed.cpu.cycles + slice_cycles)
        _prime_seams(sources, spec.seed, (probe, fed))
    return len(seen_images), time.process_time() - t0


def _prime_seams(sources, seed: int, scratch) -> None:
    """Fuse every block the scratch nodes' traces chained behind a head.

    A trace leaves the dispatch loop at such a block when a seam check
    stops it (an event due, a horizon reached), so a fleet node may
    enter one mid-loop that no scratch run ever entered.  The blocks
    are fused on a node whose task is alive — the unfed probe while it
    still waits for input, else a fresh node of the image — until no
    newly compiled trace chains another.
    """
    probe = scratch[0]
    warm = probe if not probe.finished else SensorNode.from_sources(
        list(sources), adc_seed=derive_scratch_seed(seed))
    tracers = [node.kernel.tracer for node in (*scratch, warm)]
    fused = set()
    while True:
        todo = set().union(*(tracer.chained for tracer in tracers)) - fused
        if not todo:
            return
        for pc in sorted(todo):
            warm.cpu._fuse_block(pc)
        fused |= todo


def derive_scratch_seed(seed: int) -> int:
    from .shard import derive_adc_seed
    return derive_adc_seed(seed, "__prime__")


class FleetSim:
    """Drive a :class:`FleetSpec` across *shards* worker processes."""

    def __init__(self, spec: FleetSpec, shards: int = 1,
                 prime: bool = True):
        if shards < 1:
            raise ReproError("shard count must be >= 1")
        for ls in spec.topology.links:
            if ls.latency_cycles < 1:
                raise ReproError(
                    f"cross-process conservative sync needs link latency "
                    f">= 1 cycle; link #{ls.index} "
                    f"{ls.source!r} -> {ls.destination!r} has "
                    f"{ls.latency_cycles} (zero-lookahead links would "
                    f"deadlock the bulletin protocol)")
        self.spec = spec
        self.blocks = partition(spec.topology, shards)
        self.shards = len(self.blocks)
        self.prime = prime
        shard_of: Dict[str, int] = {}
        for index, block in enumerate(self.blocks):
            for name in block:
                shard_of[name] = index
        self.shard_of = shard_of
        #: Cross-shard links, routing table: index -> (src shard, dst shard)
        self.cross: Dict[int, Tuple[int, int]] = {}
        for ls in spec.topology.links:
            src, dst = shard_of[ls.source], shard_of[ls.destination]
            if src != dst:
                self.cross[ls.index] = (src, dst)

    # -- driving ------------------------------------------------------------

    def run(self) -> FleetResult:
        wall0 = time.perf_counter()
        primed, prime_s = (0, 0.0)
        if self.prime:
            primed, prime_s = prime_caches(self.spec)
        cpu0 = time.process_time()
        if self.shards == 1:
            rounds, finals = self._run_inprocess()
            local_busy = finals[0]["busy_s"]
        else:
            rounds, finals = self._run_forked()
            local_busy = 0.0
        coordinator_cpu = time.process_time() - cpu0 - local_busy
        wall_s = time.perf_counter() - wall0
        return self._assemble(rounds, finals, primed=primed,
                              prime_s=prime_s,
                              coordinator_cpu=coordinator_cpu,
                              wall_s=wall_s)

    def _run_inprocess(self) -> Tuple[int, List[dict]]:
        runtime = ShardRuntime(self.spec, self.blocks[0], 0)
        max_cycles = self.spec.max_cycles
        rounds = 0
        while True:
            progressed, rebooted = runtime.advance(max_cycles)
            rounds += 1
            states = runtime.states()
            if all(finished or cycles >= max_cycles
                   for cycles, finished in states.values()):
                break
            if not progressed and not rebooted:
                raise ReproError("fleet made no progress "
                                 f"(round {rounds})")
        return rounds, [runtime.finalize()]

    def _run_forked(self) -> Tuple[int, List[dict]]:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        pipes = []
        workers = []
        try:
            for index, block in enumerate(self.blocks):
                parent_conn, child_conn = ctx.Pipe()
                worker = ctx.Process(
                    target=worker_main,
                    args=(child_conn, self.spec, block, index),
                    daemon=True)
                worker.start()
                child_conn.close()
                pipes.append(parent_conn)
                workers.append(worker)
            return self._round_loop(pipes)
        finally:
            for conn in pipes:
                conn.close()
            for worker in workers:
                worker.join(timeout=30)
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=10)

    def _recv(self, conn):
        reply = conn.recv()
        if reply[0] == "error":
            raise ReproError(f"fleet worker failed:\n{reply[1]}")
        return reply

    def _round_loop(self, pipes) -> Tuple[int, List[dict]]:
        max_cycles = self.spec.max_cycles
        # Round 0: every inbound cross link starts at bound 0 (all
        # nodes boot at cycle 0) with no traffic yet.
        inbound: List[Dict[int, InPayload]] = [
            {index: (0, [], 0)
             for index, (_, dst) in self.cross.items() if dst == shard}
            for shard in range(self.shards)]
        rounds = 0
        while True:
            for shard, conn in enumerate(pipes):
                conn.send(("round", inbound[shard], max_cycles))
            replies = [self._recv(conn) for conn in pipes]
            rounds += 1
            nxt: List[Dict[int, InPayload]] = [
                {} for _ in range(self.shards)]
            shipped = 0
            any_progress = False
            all_done = True
            for shard, reply in enumerate(replies):
                _, outbound, states, progressed, rebooted, _ = reply
                any_progress = any_progress or progressed or rebooted
                for index, payload in outbound.items():
                    nxt[self.cross[index][1]][index] = payload
                    shipped += len(payload[1])
                for cycles, finished in states.values():
                    if not (finished or cycles >= max_cycles):
                        all_done = False
            if all_done:
                break
            if not any_progress and shipped == 0:
                raise ReproError(
                    f"fleet made no progress (round {rounds}; "
                    "conservative bounds stopped advancing)")
            inbound = nxt
        # The last round's collected outbound never went through a
        # "round" message — ship it with the finish so end-of-sim
        # in-flight bytes reach their destination inboxes (a 1-shard
        # run ferries them locally; the settle pass then delivers the
        # same residue either way).
        finals = []
        for shard, conn in enumerate(pipes):
            conn.send(("finish", nxt[shard]))
        for conn in pipes:
            finals.append(self._recv(conn)[1])
        return rounds, finals

    # -- assembly -----------------------------------------------------------

    def _assemble(self, rounds: int, finals: List[dict], *,
                  primed: int, prime_s: float, coordinator_cpu: float,
                  wall_s: float) -> FleetResult:
        node_summaries: Dict[str, dict] = {}
        link_rows: List[Tuple[int, ...]] = []
        fault_counts: Dict[str, int] = {}
        cross_bytes = 0
        for final in sorted(finals, key=lambda f: f["shard"]):
            node_summaries.update(final["nodes"])
            link_rows.extend(final["links"])
            for key, value in final["fault_counts"].items():
                fault_counts[key] = fault_counts.get(key, 0) + value
        link_rows.sort()
        names = self.spec.topology.names
        digest = content_key(
            [(name, node_summaries[name]["digest"]) for name in names],
            link_rows)
        # Bytes that crossed a process boundary: per shipped entry the
        # receiver either dropped it or delivered 1–2 copies, so
        # entries = dropped + delivered - duplicated.
        cross_indices = set(self.cross)
        for row in link_rows:
            if row[0] in cross_indices:
                cross_bytes += row[1] + row[2] - row[4]
        busy = [final["busy_s"]
                for final in sorted(finals, key=lambda f: f["shard"])]
        critical = coordinator_cpu + prime_s + (max(busy) if busy else 0.0)
        return FleetResult(
            label=self.spec.label,
            nodes=len(names),
            links=len(self.spec.topology.links),
            cross_links=len(self.cross),
            shards=self.shards,
            rounds=rounds,
            finished_nodes=sum(
                1 for s in node_summaries.values() if s["finished"]),
            max_node_cycles=max(
                s["cycles"] for s in node_summaries.values()),
            total_instret=sum(
                s["instret"] for s in node_summaries.values()),
            delivered=sum(row[1] for row in link_rows),
            dropped=sum(row[2] for row in link_rows),
            corrupted=sum(row[3] for row in link_rows),
            duplicated=sum(row[4] for row in link_rows),
            cross_bytes=cross_bytes,
            digest=digest,
            node_summaries=node_summaries,
            link_rows=link_rows,
            fault_counts=fault_counts,
            primed_images=primed,
            compiled_per_shard=[
                final["compiled_blocks"]
                for final in sorted(finals, key=lambda f: f["shard"])],
            busy_s=busy,
            coordinator_cpu_s=max(coordinator_cpu, 0.0),
            critical_path_s=max(critical, 1e-9),
            wall_s=wall_s,
            prime_s=prime_s,
        )
