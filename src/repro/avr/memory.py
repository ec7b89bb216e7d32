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
        self._fingerprint: Optional[str] = None
        if words is not None:
            self.load(0, words)

    def add_burn_listener(self, listener) -> None:
        """Call *listener()* after every :meth:`load` (re-burn).

        Attached CPUs use this to drop decoded thunks and fused
        superblocks whose flash words just changed.
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
        self._fingerprint = None
        for listener in self._burn_listeners:
            listener()

    def fingerprint(self) -> str:
        """Content hash of the full image, computed lazily per burn.

        Keys the process-wide superblock translation cache: nodes whose
        flash hashes equal share compiled superblocks (N identical nodes
        in a network compile each hot block once).
        """
        if self._fingerprint is None:
            self._fingerprint = blake2b_hex(self._words.tobytes())
        return self._fingerprint

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
    """The 4 KB SRAM plus register/I-O mapping of the data address space.

    Layout (ATmega128L):

    * ``0x000-0x01F``  register file (handled by the CPU, not stored here)
    * ``0x020-0x0FF``  I/O and extended I/O registers
    * ``0x100-0x10FF`` internal SRAM

    Device registers install read/write hooks; un-hooked I/O addresses
    behave as plain bytes so programs can use them as scratch space, as
    real firmware sometimes does.
    """

    def __init__(self, size: int = ioports.DATA_SIZE):
        self.size = size
        self.data = bytearray(size)
        self._read_hooks = {}
        self._write_hooks = {}

    def install_read_hook(self, address: int, hook) -> None:
        """``hook() -> int`` services reads of *address*."""
        self._read_hooks[address] = hook

    def install_write_hook(self, address: int, hook) -> None:
        """``hook(value: int) -> None`` services writes to *address*."""
        self._write_hooks[address] = hook

    def remove_hooks(self, address: int) -> None:
        self._read_hooks.pop(address, None)
        self._write_hooks.pop(address, None)

    def read(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise MemoryFault(address, "read")
        if address < ioports.RAM_START:
            hook = self._read_hooks.get(address)
            if hook is not None:
                return hook() & 0xFF
        return self.data[address]

    def write(self, address: int, value: int) -> None:
        if not 0 <= address < self.size:
            raise MemoryFault(address, "write")
        if address < ioports.RAM_START:
            hook = self._write_hooks.get(address)
            if hook is not None:
                hook(value & 0xFF)
                return
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
