"""Multi-hop fleet workloads: flood dissemination and relay routing.

Both workloads are built from the same three AVR program shapes the
network tests pin down (busy-wait on ``UCSR0A`` status bits, byte I/O
through ``UDR0``), assigned per node from the topology:

``flood``
    The source clocks out *count* bytes; **every** other node runs a
    relay that forwards the first *count* bytes it hears, then halts.
    On a connected topology with lossless links each node therefore
    receives at least *count* bytes (each neighbor is a source or a
    relay), so the whole fleet terminates — no node spins to the cycle
    budget.

``relay``
    A single multi-hop route: the source sends *count* bytes down the
    first BFS shortest path to the sink (the hop-farthest node), path
    interior nodes relay, the sink stores the payload in ``.bss``, and
    every off-path node runs a bounded ALU workload so shards always
    have local compute to overlap with the route's I/O.

``attack``
    The relay route carrying adversarial traffic: the source is
    ``mallory``, sending a length-prefixed frame whose length byte
    claims *count* payload bytes, and the sink runs the intentionally
    vulnerable unchecked heap-copy receiver from
    :mod:`repro.adversary.attacks`.  With *count* beyond the 16-byte
    buffer the copy crosses the sink task's region boundary and the
    kernel traps it (an ``oob`` fault termination on the sink) — the
    containment outcome, like everything else in the node digests,
    must be bit-identical across shard counts.

Busy-wait receive loops are deliberate here: a spinning node's
earliest-possible-TX equals its current cycle, so the conservative
cross-shard lookahead in :mod:`repro.fleet.sim` never needs to reason
about transitively-woken sleepers (see INTERNALS.md §13).  They cost
O(events), not O(iterations): ``UCSR0A`` is a stable register, so the
trace JIT skips every spin iteration that repeats the one before it,
up to the next kernel entry, event or run limit (INTERNALS.md §11).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..avr import ioports
from ..avr.devices.radio import RXC
from ..errors import ReproError
from .topology import Topology

#: name -> ordered (task-name, source) tuples, ready for
#: ``SensorNode.from_sources``.
ProgramMap = Dict[str, Tuple[Tuple[str, str], ...]]


def sender_src(count: int, start: int = 0x30) -> str:
    return f"""
main:
    ldi r20, {count}
    ldi r16, {start}
send:
wait_tx:
    lds r19, {ioports.UCSR0A}
    sbrs r19, {ioports.UDRE}
    rjmp wait_tx
    sts {ioports.UDR0}, r16
    inc r16
    dec r20
    brne send
    break
"""


def relay_src(count: int) -> str:
    return f"""
main:
    ldi r20, {count}
relay:
wait_rx:
    lds r17, {ioports.UCSR0A}
    sbrs r17, {RXC}
    rjmp wait_rx
    lds r16, {ioports.UDR0}
wait_tx:
    lds r17, {ioports.UCSR0A}
    sbrs r17, {ioports.UDRE}
    rjmp wait_tx
    sts {ioports.UDR0}, r16
    dec r20
    brne relay
    break
"""


def receiver_src(count: int) -> str:
    return f"""
.bss received, {count}
main:
    ldi r20, {count}
    ldi r26, lo8(received)
    ldi r27, hi8(received)
recv:
wait_rx:
    lds r17, {ioports.UCSR0A}
    sbrs r17, {RXC}
    rjmp wait_rx
    lds r16, {ioports.UDR0}
    st X+, r16
    dec r20
    brne recv
    break
"""


def mallory_src(count: int, start: int = 0x30) -> str:
    """The attack source: a length byte claiming *count*, then *count*
    pattern bytes — the classic unchecked-copy overflow frame."""
    return f"""
main:
    ldi r16, {count}
    ldi r20, {count}
wait_len:
    lds r19, {ioports.UCSR0A}
    sbrs r19, {ioports.UDRE}
    rjmp wait_len
    sts {ioports.UDR0}, r16
    ldi r16, {start}
send:
wait_tx:
    lds r19, {ioports.UCSR0A}
    sbrs r19, {ioports.UDRE}
    rjmp wait_tx
    sts {ioports.UDR0}, r16
    inc r16
    dec r20
    brne send
    break
"""


def compute_src(outer: int = 4, inner: int = 200) -> str:
    """A bounded nested accumulate loop — pure local compute."""
    if not (1 <= outer <= 255 and 1 <= inner <= 255):
        raise ReproError("compute loop bounds must be in 1..255")
    return f"""
main:
    ldi r21, {outer}
    ldi r24, 0
outer:
    ldi r20, {inner}
inner:
    add r24, r20
    eor r24, r21
    dec r20
    brne inner
    dec r21
    brne outer
    break
"""


def source_of(topology: Topology) -> str:
    """The flood/route source: the first node of the topology."""
    return topology.nodes[0].name


def sink_of(topology: Topology) -> str:
    """The hop-farthest node from the source (first-found at the
    maximum BFS depth — deterministic for a fixed link order)."""
    root = source_of(topology)
    depth = topology.bfs_order(root)
    if len(depth) != len(topology.nodes):
        missing = sorted(set(topology.names) - set(depth))
        raise ReproError(
            f"topology is not connected from {root!r}: "
            f"unreachable {missing[:4]}...")
    best = root
    for name in topology.names:
        if depth[name] > depth[best]:
            best = name
    return best


def build_programs(topology: Topology, workload: str,
                   count: int = 8,
                   compute_outer: int = 4) -> Tuple[
                       ProgramMap, Dict[str, str]]:
    """Assign a program to every node; returns (programs, roles)."""
    if count < 1 or count > 200:
        raise ReproError("byte count must be in 1..200")
    source = source_of(topology)
    roles: Dict[str, str] = {}
    programs: ProgramMap = {}
    if workload == "flood":
        for name in topology.names:
            if name == source:
                roles[name] = "source"
                programs[name] = (("sender", sender_src(count)),)
            else:
                roles[name] = "relay"
                programs[name] = (("relay", relay_src(count)),)
    elif workload == "relay":
        sink = sink_of(topology)
        path = topology.bfs_path(source, sink)
        on_path = set(path)
        for name in topology.names:
            if name == source:
                roles[name] = "source"
                programs[name] = (("sender", sender_src(count)),)
            elif name == sink:
                roles[name] = "sink"
                programs[name] = (("receiver", receiver_src(count)),)
            elif name in on_path:
                roles[name] = "relay"
                programs[name] = (("relay", relay_src(count)),)
            else:
                roles[name] = "compute"
                programs[name] = (
                    ("compute", compute_src(outer=compute_outer)),)
    elif workload == "attack":
        from ..adversary.attacks import VICTIM_HEAP
        sink = sink_of(topology)
        path = topology.bfs_path(source, sink)
        on_path = set(path)
        # The frame on the air is length byte + count payload bytes.
        frame = count + 1
        for name in topology.names:
            if name == source:
                roles[name] = "mallory"
                programs[name] = (("mallory", mallory_src(count)),)
            elif name == sink:
                roles[name] = "victim"
                programs[name] = (("victim", VICTIM_HEAP),)
            elif name in on_path:
                roles[name] = "relay"
                programs[name] = (("relay", relay_src(frame)),)
            else:
                roles[name] = "compute"
                programs[name] = (
                    ("compute", compute_src(outer=compute_outer)),)
    else:
        raise ReproError(f"unknown workload {workload!r} "
                         "(expected 'flood', 'relay' or 'attack')")
    return programs, roles
