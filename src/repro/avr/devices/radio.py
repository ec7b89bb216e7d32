"""Byte-oriented radio device standing in for the mote radio path.

On a MICA2 the CC1000 radio is fed byte-by-byte; the behaviourally
relevant properties for OS benchmarks are a data register with ready
flags and a per-byte latency.  Transmitted bytes are logged *with their
TX cycle* so the network simulator can compute exact arrival times;
received bytes are injected from the host side (``deliver``), which is
how multi-node setups wire one node's TX log into another's RX queue.

The TX log is a bounded ring (``tx_log_limit`` entries, default 64 Ki):
long network runs keep a window of recent traffic instead of growing
without bound.  Every byte still gets a monotonically increasing
sequence number (``tx_seq`` counts all bytes ever clocked out), so the
network ferry reads incrementally with :meth:`tx_since` and can tell
when eviction outran its cursor; ``tx_log_dropped`` counts evictions.

Each byte written while ready schedules a one-shot "transmitter idle"
event on the CPU's event queue, so a node sleeping through a TX
completes it at the exact cycle instead of at a polling boundary.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, List, Tuple

from .. import ioports

#: CPU cycles to clock one byte out at ~38.4 kbaud on a 7.37 MHz MCU.
DEFAULT_BYTE_CYCLES = 1920

#: Retained TX log entries before the ring starts evicting.
DEFAULT_TX_LOG_LIMIT = 1 << 16

#: UCSR0A bit signalling a received byte is waiting (real AVR: RXC).
RXC = 7


class Radio:
    """Radio front end mapped at UDR0/UCSR0A (TX ring + RX queue)."""

    def __init__(self, byte_cycles: int = DEFAULT_BYTE_CYCLES,
                 tx_log_limit: int = DEFAULT_TX_LOG_LIMIT):
        self.byte_cycles = byte_cycles
        self.tx_log_limit = tx_log_limit
        #: (sequence, value, tx_cycle), oldest first, bounded.
        self._tx_ring: Deque[Tuple[int, int, int]] = \
            deque(maxlen=tx_log_limit)
        self.tx_seq = 0          # bytes ever transmitted
        self.tx_log_dropped = 0  # entries evicted from the ring
        self.rx_queue: Deque[int] = deque()
        self._cpu = None
        self._busy_until = None
        self._event = None

    def attach(self, cpu) -> None:
        """Claim UCSR0A (status) and UDR0 (TX on write, RX on read).

        UCSR0A is stable: its bits change only at the TX-done event, at
        a network arrival (an event) or host :meth:`deliver`, and on a
        UDR0 access.  UDR0 is not: a read pops the RX queue.
        """
        self._cpu = cpu
        cpu.io_read[ioports.UCSR0A] = self._read_status
        cpu.io_stable.add(ioports.UCSR0A)
        cpu.io_write[ioports.UDR0] = self._write_data
        cpu.io_read[ioports.UDR0] = self._read_data

    def deliver(self, payload: bytes) -> None:
        """Host-side injection: queue *payload* for the node to read."""
        self.rx_queue.extend(payload)

    # -- TX log ---------------------------------------------------------------

    def tx_since(self, seq: int) -> Tuple[List[Tuple[int, int, int]], int]:
        """Log entries with sequence >= *seq*, oldest first.

        Returns ``(entries, missed)`` where each entry is
        ``(sequence, value, tx_cycle)`` and *missed* counts bytes the
        ring evicted before the caller got to them (0 while the reader
        keeps up).  Advance the cursor to :attr:`tx_seq` after reading.
        """
        oldest = self.tx_seq - len(self._tx_ring)
        start = max(seq, oldest)
        fresh = list(islice(self._tx_ring, start - oldest, None))
        return fresh, start - seq

    @property
    def transmitted(self) -> List[int]:
        """Values still in the TX ring (the full log while it fits)."""
        return [value for _, value, _ in self._tx_ring]

    @property
    def tx_cycles(self) -> List[int]:
        """TX cycle of each retained log entry."""
        return [cycle for _, _, cycle in self._tx_ring]

    @property
    def packets(self) -> bytes:
        return bytes(value for _, value, _ in self._tx_ring)

    # -- register hooks -------------------------------------------------------

    def _ready(self) -> bool:
        return self._busy_until is None or \
            self._cpu.cycles >= self._busy_until

    def _read_status(self, address: int) -> int:
        status = 0
        if self._ready():
            status |= (1 << ioports.UDRE) | (1 << ioports.TXC)
        if self.rx_queue:
            status |= 1 << RXC
        return status

    def _write_data(self, address: int, value: int) -> None:
        # Writes while busy are dropped, as on real hardware.
        if not self._ready():
            return
        if len(self._tx_ring) == self.tx_log_limit:
            self.tx_log_dropped += 1  # deque maxlen evicts the oldest
        self._tx_ring.append((self.tx_seq, value, self._cpu.cycles))
        self.tx_seq += 1
        self._busy_until = self._cpu.cycles + self.byte_cycles
        self._cpu.events.cancel(self._event)
        self._event = self._cpu.events.schedule(self._busy_until,
                                                self._tx_done)

    def _tx_done(self) -> None:
        self._busy_until = None
        self._event = None

    def _read_data(self, address: int) -> int:
        if self.rx_queue:
            return self.rx_queue.popleft()
        return 0
