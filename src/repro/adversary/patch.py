"""Live over-the-air hot-patching of a running task.

The scenario: ``alpha`` runs a beacon task (periodic radio TX into a
3-node relay chain alpha -> bravo -> charlie) beside a ``worker`` task
at version 1.  An ``updater`` node streams the version-2 image over a
*corrupting* radio link as checksummed, sequence-numbered frames; the
node's reprogramming service (host-side, like
:class:`~repro.kernel.loader.DynamicLoader` itself) reassembles the
transfer, discards damaged frames, and — once every frame has arrived
intact — pauses the worker (``unload``), installs version 2 (``load``,
which compacts and physically relocates every resident region: stack
relocation exercised mid-update), and resumes.  The relay chain keeps
delivering beacons throughout; nothing else on the node stops.

Verification is differential: the patched worker's heap digest must
match a cold-booted node running version 2 from power-on, and the
relay link must show beacon arrivals both before and after the patch
cycle.

The transfer payload is the version-2 *source text* — the simulated
reprogramming service compiles on the node exactly as
``DynamicLoader.load`` does, so shipping source is the faithful
equivalent of shipping an image for this codebase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..avr import ioports
from ..errors import KernelError
from ..fingerprint import content_key
from ..kernel import KernelConfig, SensorNode
from ..net.network import Network
from .attacks import DEFAULT_SEED, _IO_ROUTINES, attacker_src

#: Frame layout: MAGIC seq len payload... cksum.  The checksum keeps
#: bit 7 clear so a magic byte can only be a frame start (or a radio
#: corruption, which the resync scan absorbs).
FRAME_MAGIC = 0xA5
FRAME_PAYLOAD = 24
#: Sequence number of the END-of-transfer frame; its payload is
#: (frame count, whole-transfer checksum).
END_SEQ = 0x7E

#: Corruption rate (permille) on the updater -> alpha link: enough for
#: the fixed LFSR stream to damage at least one frame per session —
#: proving the reject/retransmit path — while redundant passes still
#: complete the transfer.
PATCH_CORRUPT_PERMILLE = 8

#: Cycles between host-side drains of alpha's RX queue.
DRAIN_STEP = 50_000

#: Post-patch run window: long enough for the patched worker to fill
#: its heap and for several more beacons to cross the relay chain.
POST_CYCLES = 500_000
SESSION_MAX_CYCLES = 6_000_000

BEACON_TIMER_TICKS = 12_000   # x8 prescaler = 96k cycles per beacon
WORKER_BYTES = 16

BEACON_SRC = f"""
.bss seq, 4
main:
    ldi r24, 1
    ldi r16, hi8({BEACON_TIMER_TICKS})
    sts {ioports.OCR3AH}, r16
    ldi r16, lo8({BEACON_TIMER_TICKS})
    sts {ioports.OCR3AL}, r16
loop:
    sleep
    mov r16, r24
    call send_byte
    ldi r26, lo8(seq)
    ldi r27, hi8(seq)
    st X, r24
    subi r24, 255
    rjmp loop
{_IO_ROUTINES}
"""

RELAY_SRC = f"""
main:
loop:
    call read_byte
    call send_byte
    rjmp loop
{_IO_ROUTINES}
"""

RECEIVER_SRC = f"""
.bss count, 2
main:
    ldi r24, 0
    ldi r26, lo8(count)
    ldi r27, hi8(count)
loop:
    call read_byte
    subi r24, 255
    st X, r24
    rjmp loop
{_IO_ROUTINES}
"""


def _worker_src(fill_start: int, fill_step: int,
                timer_ticks: int = 8192) -> str:
    return f"""
.bss state, {WORKER_BYTES}
main:
    ldi r26, lo8(state)
    ldi r27, hi8(state)
    ldi r20, {WORKER_BYTES}
    ldi r16, {fill_start}
fill:
    st X+, r16
    subi r16, {(256 - fill_step) & 0xFF}
    dec r20
    brne fill
    ldi r16, hi8({timer_ticks})
    sts {ioports.OCR3AH}, r16
    ldi r16, lo8({timer_ticks})
    sts {ioports.OCR3AL}, r16
park:
    sleep
    rjmp park
"""


WORKER_V1 = _worker_src(0xA0, 1)
WORKER_V2 = _worker_src(0x5A, 5)

WORKER_V1_PATTERN = bytes((0xA0 + i) & 0xFF for i in range(WORKER_BYTES))
WORKER_V2_PATTERN = bytes((0x5A + 5 * i) & 0xFF for i in range(WORKER_BYTES))


# -- framing -------------------------------------------------------------------------


def _cksum(seq: int, payload: bytes) -> int:
    return (seq + len(payload) + sum(payload)) & 0x7F


def make_frames(source: str) -> List[bytes]:
    """Split *source* into checksummed frames plus the END frame."""
    data = source.encode("ascii")
    frames = []
    for seq, start in enumerate(range(0, len(data), FRAME_PAYLOAD)):
        payload = data[start:start + FRAME_PAYLOAD]
        frames.append(bytes([FRAME_MAGIC, seq, len(payload)])
                      + payload + bytes([_cksum(seq, payload)]))
    end_payload = bytes([len(frames), sum(data) & 0x7F])
    frames.append(bytes([FRAME_MAGIC, END_SEQ, len(end_payload)])
                  + end_payload + bytes([_cksum(END_SEQ, end_payload)]))
    return frames


class PatchSession:
    """Host-side reassembly of a chunked OTA transfer.

    Feeds on the raw RX byte stream; resynchronizes on the frame magic
    after a damaged frame, rejects checksum failures, and deduplicates
    retransmitted sequence numbers.
    """

    def __init__(self):
        self.buffer = bytearray()
        self.frames: Dict[int, bytes] = {}
        self.expected: Optional[int] = None
        self.total_cksum: Optional[int] = None
        self.rejected = 0
        self.duplicates = 0
        self.garbage = 0

    def feed(self, data: bytes) -> None:
        self.buffer.extend(data)
        self._parse()

    def _parse(self) -> None:
        buf = self.buffer
        while buf:
            if buf[0] != FRAME_MAGIC:
                del buf[0]
                self.garbage += 1
                continue
            if len(buf) < 3:
                return  # header still in flight
            seq, length = buf[1], buf[2]
            end = 3 + length + 1
            if length > FRAME_PAYLOAD or seq > END_SEQ:
                # A corrupted header: drop the magic and resync.
                del buf[0]
                self.rejected += 1
                continue
            if len(buf) < end:
                return  # body still in flight
            payload = bytes(buf[3:3 + length])
            if buf[end - 1] != _cksum(seq, payload):
                del buf[0]
                self.rejected += 1
                continue
            del buf[:end]
            if seq == END_SEQ:
                self.expected, self.total_cksum = payload[0], payload[1]
            elif seq in self.frames:
                self.duplicates += 1
            else:
                self.frames[seq] = payload

    @property
    def complete(self) -> bool:
        if self.expected is None:
            return False
        if any(seq not in self.frames for seq in range(self.expected)):
            return False
        return sum(self.assembled) & 0x7F == self.total_cksum

    @property
    def assembled(self) -> bytes:
        return b"".join(self.frames[seq]
                        for seq in sorted(self.frames))


def _shuffled(items: List[bytes], rng) -> List[bytes]:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def updater_payload(source: str, passes: int, seed: int) -> bytes:
    """The full byte stream the updater clocks out: every frame,
    *passes* times over, later passes in seeded-shuffled order (the
    reassembler must not depend on arrival order)."""
    from ..faults.rng import XorShift32
    frames = make_frames(source)
    stream = bytearray()
    for run in range(passes):
        ordered = frames if run == 0 else _shuffled(
            frames, XorShift32(seed).derive(f"patch/pass/{run}"))
        for frame in ordered:
            stream.extend(frame)
    return bytes(stream)


# -- the campaign --------------------------------------------------------------------


@dataclass
class PatchReport:
    """Outcome of one live hot-patch session."""

    ok: bool
    failure: str = ""
    frames_unique: int = 0
    frames_rejected: int = 0
    frames_duplicate: int = 0
    passes: int = 0
    link_corrupted: int = 0
    patch_cycle: int = 0
    flash_words: int = 0
    ram_bytes_moved: int = 0
    beacons_before: int = 0
    beacons_after: int = 0
    worker_digest: str = ""
    cold_digest: str = ""

    @property
    def network_alive(self) -> bool:
        return self.beacons_before > 0 and self.beacons_after > 0

    @property
    def digest(self) -> str:
        return content_key(
            self.ok, self.failure, self.frames_unique,
            self.frames_rejected, self.frames_duplicate,
            self.link_corrupted, self.patch_cycle, self.flash_words,
            self.ram_bytes_moved, self.beacons_before,
            self.beacons_after, self.worker_digest, self.cold_digest)

    def render(self) -> str:
        lines = [
            f"hot-patch worker v1 -> v2 "
            f"({'ok' if self.ok else 'FAILED: ' + self.failure})",
            f"transfer: {self.frames_unique} frames x {self.passes} "
            f"passes, {self.frames_rejected} rejected "
            f"({self.link_corrupted} bytes corrupted on air), "
            f"{self.frames_duplicate} duplicates dropped",
            f"patch at cycle {self.patch_cycle}: +{self.flash_words} "
            f"flash words, {self.ram_bytes_moved} RAM bytes relocated",
            f"relay chain: {self.beacons_before} beacons before patch, "
            f"{self.beacons_after} after "
            f"({'alive' if self.network_alive else 'DEAD'})",
            f"differential digest: patched {self.worker_digest} vs "
            f"cold-boot {self.cold_digest} "
            f"({'match' if self.worker_digest == self.cold_digest else 'MISMATCH'})",
        ]
        return "\n".join(lines)


def _worker_heap(node: SensorNode, task=None) -> bytes:
    # After a hot patch the unloaded v1 task is still in the kernel's
    # task table under the same name; callers pass the live v2 task.
    task = task if task is not None else node.task_named("worker")
    region = node.kernel.regions.maybe_by_task(task.task_id)
    if region is None:
        return b""
    return bytes(node.cpu.mem.data[region.p_l:region.p_l + WORKER_BYTES])


def cold_digest(source: str = WORKER_V2, **tier) -> str:
    """Heap digest of *source* booted cold on a single-task node."""
    node = SensorNode.from_sources(
        [("worker", source)],
        **{k: v for k, v in tier.items() if v is not None})
    node.run(max_cycles=200_000)
    return content_key(_worker_heap(node))


def run_patch(quick: bool = False, seed: int = DEFAULT_SEED,
              fuse: Optional[bool] = None) -> PatchReport:
    """Run the live hot-patch scenario end to end.

    The tier override (*fuse*; see
    :meth:`~repro.kernel.node.SensorNode.from_sources`) applies to every
    node but the updater.
    """
    tier = {} if fuse is None else dict(fuse=fuse)
    passes = 2 if quick else 3
    post_cycles = 300_000 if quick else POST_CYCLES

    alpha = SensorNode.from_sources(
        [("beacon", BEACON_SRC), ("worker", WORKER_V1)], **tier)
    bravo = SensorNode.from_sources([("relay", RELAY_SRC)], **tier)
    charlie = SensorNode.from_sources([("receiver", RECEIVER_SRC)],
                                      **tier)
    updater = SensorNode.from_sources(
        [("updater",
          attacker_src(updater_payload(WORKER_V2, passes, seed)))])

    net = Network()
    for name, node in (("alpha", alpha), ("bravo", bravo),
                       ("charlie", charlie), ("updater", updater)):
        net.add_node(name, node)
    net.connect("updater", "alpha", latency_cycles=1_500,
                corrupt_permille=PATCH_CORRUPT_PERMILLE)
    net.connect("alpha", "bravo", latency_cycles=2_000)
    net.connect("bravo", "charlie", latency_cycles=2_000)

    report = PatchReport(ok=False, passes=passes)
    session = PatchSession()
    horizon = 0
    while not session.complete:
        horizon += DRAIN_STEP
        if horizon > SESSION_MAX_CYCLES:
            report.failure = "transfer never completed"
            return report
        net.run(max_cycles=horizon)
        rx = alpha.radio.rx_queue
        chunk = bytes(rx)
        rx.clear()
        session.feed(chunk)

    report.frames_unique = len(session.frames)
    report.frames_rejected = session.rejected
    report.frames_duplicate = session.duplicates
    uplink = net.link_between("updater", "alpha")
    report.link_corrupted = uplink.corrupted
    patch_cycle = alpha.cpu.cycles
    report.patch_cycle = patch_cycle

    source = session.assembled.decode("ascii")
    loader = alpha.kernel.loader
    try:
        loader.unload("worker")
        load = loader.load("worker", source)
    except KernelError as error:
        report.failure = f"load rejected: {error}"
        return report
    report.flash_words = load.flash_words
    report.ram_bytes_moved = load.ram_bytes_moved

    net.run(max_cycles=patch_cycle + post_cycles)
    net.settle_inboxes()

    downlink = net.link_between("bravo", "charlie")
    report.beacons_before = sum(1 for c in downlink.arrival_cycles
                                if c <= patch_cycle)
    report.beacons_after = sum(1 for c in downlink.arrival_cycles
                               if c > patch_cycle)
    worker = load.task
    report.worker_digest = content_key(_worker_heap(alpha, worker))
    report.cold_digest = cold_digest(source, **tier)

    if not worker.alive:
        report.failure = f"patched worker died: {worker.exit_reason}"
    elif report.worker_digest != report.cold_digest:
        report.failure = "digest mismatch"
    elif not report.network_alive:
        report.failure = "relay chain stalled"
    elif report.frames_rejected == 0:
        report.failure = "corruption never exercised the reject path"
    else:
        report.ok = True
    return report
