"""Program (flash) and data (SRAM) memory for the simulated mote."""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence

from ..errors import MemoryFault
from ..fingerprint import blake2b_hex
from . import ioports
from .encoding import instruction_words


class Flash:
    """128 KB program memory, addressed in 16-bit words.

    Flash contents are immutable during execution (paper assumption
    III-A: application code does not modify itself), which lets the CPU
    pre-decode words into executable closures.  The words are packed
    in an ``array("H")`` (2 bytes each), so building a node and hashing
    its image cost a buffer copy, not a walk over 64K Python ints.
    """

    def __init__(self, words: Optional[Sequence[int]] = None,
                 size_words: int = ioports.FLASH_WORDS):
        self.size_words = size_words
        self._words = array("H", [0xFFFF]) * size_words
        self._burn_listeners: List = []
        #: The fingerprint memo, a one-item list (``[None]`` until it is
        #: computed) that flashes holding the same words may share.
        self._fingerprint: List[Optional[str]] = [None]
        #: True until the first :meth:`load`.
        self.blank = True
        if words is not None:
            self.load(0, words)

    def add_burn_listener(self, listener) -> None:
        """Call *listener()* after every :meth:`load` (re-burn).

        Attached CPUs use this to drop decoded thunks and compiled
        traces whose flash words just changed.
        """
        self._burn_listeners.append(listener)

    def load(self, word_address: int, words: Iterable[int]) -> None:
        """Burn *words* into flash starting at *word_address*.

        All or nothing: a burn that would not fit in flash raises
        :class:`MemoryFault` before any word, the fingerprint or a burn
        listener changes.
        """
        words = array("H", [word & 0xFFFF for word in words])
        if not 0 <= word_address <= self.size_words - len(words):
            raise MemoryFault(word_address, "program burn")
        self._words[word_address:word_address + len(words)] = words
        self._fingerprint = [None]
        self.blank = False
        for listener in self._burn_listeners:
            listener()

    def fingerprint(self) -> str:
        """Content hash of the full image, computed lazily per burn
        (once for every flash that shares this one's memo).

        Keys the process-wide trace cache: nodes whose flash hashes
        equal share compiled traces (N identical nodes in a network
        compile each hot trace once).
        """
        memo = self._fingerprint
        if memo[0] is None:
            memo[0] = blake2b_hex(self._words.tobytes())
        return memo[0]

    def share_fingerprint(self, memo: List[Optional[str]]) -> None:
        """Keep the fingerprint in *memo*, a one-item list shared by
        flashes that hold the same words as this one, so that the first
        of them to be fingerprinted hashes for all.  The next
        :meth:`load` gives this flash a memo of its own again."""
        self._fingerprint = memo

    def word(self, word_address: int) -> int:
        if not 0 <= word_address < self.size_words:
            raise MemoryFault(word_address, "program fetch")
        return self._words[word_address]

    def byte(self, byte_address: int) -> int:
        """Byte-wise read, as performed by ``LPM`` (little-endian words)."""
        word = self.word(byte_address >> 1)
        return (word >> 8) & 0xFF if byte_address & 1 else word & 0xFF

    def instruction_size(self, word_address: int) -> int:
        """Words (1 or 2) occupied by the instruction at *word_address*."""
        return instruction_words(self.word(word_address))

    def as_words(self, start: int = 0,
                 count: Optional[int] = None) -> List[int]:
        end = self.size_words if count is None else start + count
        return self._words[start:end].tolist()


class DataMemory:
    """The 4 KB data space as plain bytes, with bounds-checked access.

    Layout (ATmega128L):

    * ``0x000-0x01F``  register file (the CPU's ``r``; not stored here)
    * ``0x020-0x0FF``  I/O and extended I/O registers
    * ``0x100-0x10FF`` internal SRAM

    Who serves an address below ``RAM_START`` is decided by the CPU's
    routing tables (:class:`~repro.avr.cpu.AvrCpu` ``io_read`` /
    ``io_write``), not here.  I/O addresses no device claims stay plain
    bytes of :attr:`data`, so programs can use them as scratch space, as
    real firmware sometimes does.
    """

    def __init__(self, size: int = ioports.DATA_SIZE):
        self.size = size
        self.data = bytearray(size)

    def read(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise MemoryFault(address, "read")
        return self.data[address]

    def write(self, address: int, value: int) -> None:
        if not 0 <= address < self.size:
            raise MemoryFault(address, "write")
        self.data[address] = value & 0xFF

    # -- bulk helpers used by the kernel's stack relocation ------------------

    def read_block(self, address: int, length: int) -> bytes:
        if address < 0 or address + length > self.size:
            raise MemoryFault(address, f"block read of {length}")
        return bytes(self.data[address:address + length])

    def write_block(self, address: int, payload: bytes) -> None:
        if address < 0 or address + len(payload) > self.size:
            raise MemoryFault(address, f"block write of {len(payload)}")
        self.data[address:address + len(payload)] = payload

    def move_block(self, src: int, dst: int, length: int) -> None:
        """Overlap-safe byte move, the primitive behind stack relocation."""
        block = self.read_block(src, length)
        self.write_block(dst, block)
