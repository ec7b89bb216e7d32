"""One shard of a fleet: a partition of nodes plus its boundary links.

A :class:`ShardRuntime` wraps a plain :class:`~repro.net.Network` over
the shard's local nodes and handles the two halves of the conservative
cross-shard protocol:

* **inbound** — for every cross-shard link whose *destination* is
  local, the shard owns the :class:`~repro.net.network.Link` object
  (so the loss/corruption/duplication LFSR streams are consumed by
  exactly one process, in global byte order) and feeds bulletin
  entries through the network's canonical arrival inbox;
* **outbound** — for every cross-shard link whose *source* is local,
  the shard keeps a TX-ring cursor and ships fresh
  ``(seq, value, tx_cycle)`` entries plus the source's conservative
  earliest-TX bound in its bulletin.

The same class backs both the in-process 1-shard path and the forked
worker processes (:func:`worker_main`), so every shard count executes
the same code.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Optional, Tuple

from ..avr.cpu import _GLOBAL_BLOCK_CACHE
from ..faults.inject import FaultInjector
from ..faults.rng import XorShift32
from ..fingerprint import content_key
from ..kernel.node import SensorNode
from ..net.network import Link, Network
from ..sim.events import INFINITY

#: One shipped TX-ring entry: (sequence, value, tx_cycle).
Entry = Tuple[int, int, int]
#: Inbound bulletin per cross link: (earliest_tx bound or None for
#: "source finished, never again", fresh entries, ring-missed count).
InPayload = Tuple[Optional[int], List[Entry], int]


def derive_adc_seed(fleet_seed: int, name: str) -> int:
    """Per-node ADC LFSR seed from the fleet seed (16-bit, nonzero)."""
    state = XorShift32(fleet_seed).derive(f"fleet/adc/{name}").next()
    return (state & 0xFFFF) or 0xACE1


def node_digest(name: str, node: SensorNode) -> str:
    """Content key over the node's complete architectural final state.

    Everything execution can influence is in here — registers, SREG,
    PC, SP, cycle and instruction counts, the full SRAM image, the
    radio TX sequence and undrained RX queue, context switches, and
    reboot count — so two runs agree on the digest only if the node's
    history was bit-identical.
    """
    cpu = node.cpu
    return content_key(
        name, cpu.cycles, cpu.instret, cpu.pc, cpu.sp, cpu.sreg,
        bool(cpu.halted), bytes(cpu.r), bytes(cpu.mem.data),
        node.radio.tx_seq, bytes(node.radio.rx_queue),
        node.kernel.stats.context_switches, node.reboots)


def link_stats_row(index: int, link: Link) -> Tuple[int, ...]:
    return (index, link.delivered, link.dropped, link.corrupted,
            link.duplicated, link.log_missed)


def _compiled_blocks() -> int:
    return sum(_GLOBAL_BLOCK_CACHE.compile_counts.values())


class ShardRuntime:
    """Local simulation state for one shard of a :class:`FleetSpec`."""

    def __init__(self, spec, names: List[str], shard_index: int):
        self.spec = spec
        self.names = list(names)
        self.shard_index = shard_index
        local = set(self.names)
        self.net = Network()
        for name in self.names:
            self.net.add_node(name, SensorNode.from_sources(
                list(spec.programs[name]),
                adc_seed=derive_adc_seed(spec.seed, name)))
        #: global link index -> Link, for links fully inside the shard
        self.local_links: Dict[int, Link] = {}
        #: global link index -> Link owned here (destination local)
        self.inbound_cross: Dict[int, Link] = {}
        #: global link index -> (LinkSpec, tx cursor) (source local)
        self.outbound_cross: Dict[int, List] = {}
        for ls in spec.topology.links:
            src_local = ls.source in local
            dst_local = ls.destination in local
            link = Link(source=ls.source, destination=ls.destination,
                        latency_cycles=ls.latency_cycles,
                        loss_permille=ls.loss_permille,
                        corrupt_permille=ls.corrupt_permille,
                        dup_permille=ls.dup_permille, order=ls.index)
            if src_local and dst_local:
                self.local_links[ls.index] = self.net.add_link(link)
            elif dst_local:
                self.inbound_cross[ls.index] = link
            elif src_local:
                self.outbound_cross[ls.index] = [ls, 0]
        self.injector: Optional[FaultInjector] = None
        if spec.fault_plan is not None:
            self.injector = FaultInjector(spec.fault_plan)
            self.injector.attach_network(self.net)
        self._reboots_seen = {name: 0 for name in self.names}
        self._compiled_at_start = _compiled_blocks()
        self._busy_s = 0.0

    # -- round protocol -----------------------------------------------------

    def apply_inbound(self, inbound: Dict[int, InPayload]) -> int:
        """Feed bulletin traffic and recompute external bounds.

        Returns how many bytes were ferried in.  A node's bound is the
        min over its inbound cross links of (peer earliest-TX bound +
        link latency); links whose source has finished forever
        (``None`` bound) impose no constraint.
        """
        ferried = 0
        bounds: Dict[str, float] = {}
        for index, (tx_bound, entries, missed) in sorted(inbound.items()):
            link = self.inbound_cross[index]
            link.log_missed += missed
            if entries:
                ferried += len(entries)
                self.net.ferry_entries(link, entries)
            bound = INFINITY if tx_bound is None \
                else tx_bound + link.latency_cycles
            name = link.destination
            bounds[name] = min(bounds.get(name, INFINITY), bound)
        self.net.ext_bounds = {
            name: int(bound) for name, bound in bounds.items()
            if bound != INFINITY}
        return ferried

    def advance(self, max_cycles: int) -> Tuple[bool, int]:
        """Run every local node to its bound/budget; service faults.

        Returns (progressed, rebooted): whether any node advanced its
        cycle counter, and how many crashed nodes came back (a reboot
        rewinds this shard's outbound cross cursors for the fresh
        radio, mirroring what :meth:`Network.reset_node_io` does for
        local links).
        """
        before = [self.net.nodes[name].cpu.cycles for name in self.names]
        t0 = time.process_time()
        self.net.run(max_cycles=max_cycles)
        rebooted = 0
        if self.injector is not None:
            rebooted = self.injector.service()
            if rebooted:
                for name in self.names:
                    node = self.net.nodes[name]
                    if node.reboots > self._reboots_seen[name]:
                        self._reboots_seen[name] = node.reboots
                        for pair in self.outbound_cross.values():
                            if pair[0].source == name:
                                pair[1] = 0
        self._busy_s += time.process_time() - t0
        after = [self.net.nodes[name].cpu.cycles for name in self.names]
        return after != before, rebooted

    def collect_outbound(self) -> Dict[int, InPayload]:
        """Fresh TX entries + earliest-TX bound per outbound cross link."""
        out: Dict[int, InPayload] = {}
        for index, pair in self.outbound_cross.items():
            ls, cursor = pair
            node = self.net.nodes[ls.source]
            radio = node.radio
            fresh, missed = radio.tx_since(cursor)
            pair[1] = radio.tx_seq
            tx = Network._earliest_tx(node)
            bound = None if tx == INFINITY else int(tx)
            out[index] = (bound, fresh, missed)
        return out

    def states(self) -> Dict[str, Tuple[int, bool]]:
        return {name: (self.net.nodes[name].cpu.cycles,
                       self.net.nodes[name].finished)
                for name in self.names}

    # -- final accounting ---------------------------------------------------

    def finalize(self, flush: Optional[Dict[int, InPayload]] = None) -> dict:
        """Summarize the shard's final state.

        *flush* carries the coordinator's last collected outbound
        bulletins — traffic that was still in flight when every node
        reached its end state.  It is ferried (but no longer run), and
        then the network settles every residual inbox arrival in
        canonical order: a byte that raced a receiver's halt lands in
        the RX queue wherever the partition cut fell, so delivery
        counts and RX residue are functions of execution alone.
        """
        if flush:
            self.apply_inbound(flush)
        self.net.settle_inboxes()
        nodes = {}
        for name in self.names:
            node = self.net.nodes[name]
            nodes[name] = {
                "digest": node_digest(name, node),
                "cycles": node.cpu.cycles,
                "instret": node.cpu.instret,
                "finished": node.finished,
                "reboots": node.reboots,
            }
            node.cpu.free_decode_caches()
        links = [link_stats_row(index, link)
                 for index, link in sorted(self.local_links.items())]
        links += [link_stats_row(index, link)
                  for index, link in sorted(self.inbound_cross.items())]
        fault_counts = dict(self.injector.counts) \
            if self.injector is not None else {}
        return {
            "shard": self.shard_index,
            "nodes": nodes,
            "links": links,
            "busy_s": self._busy_s,
            "compiled_blocks": _compiled_blocks() - self._compiled_at_start,
            "fault_counts": fault_counts,
        }


def worker_main(conn, spec, names: List[str], shard_index: int) -> None:
    """Entry point of a forked shard worker.

    Speaks a tiny tuple protocol over *conn*:

    * recv ``("round", inbound, max_cycles)`` → apply bulletin, advance,
      reply ``("ok", outbound, states, progressed, rebooted, ferried)``
    * recv ``("finish", flush)`` → ferry the last in-flight bulletins,
      settle residual inboxes, reply ``("final", summary)`` and exit
    Any exception is reported as ``("error", traceback_text)``.
    """
    try:
        runtime = ShardRuntime(spec, names, shard_index)
        while True:
            message = conn.recv()
            if message[0] == "round":
                _, inbound, max_cycles = message
                ferried = runtime.apply_inbound(inbound)
                progressed, rebooted = runtime.advance(max_cycles)
                conn.send(("ok", runtime.collect_outbound(),
                           runtime.states(), progressed, rebooted,
                           ferried))
            elif message[0] == "finish":
                flush = message[1] if len(message) > 1 else None
                conn.send(("final", runtime.finalize(flush)))
                return
            else:
                raise ValueError(f"unknown message {message[0]!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()
