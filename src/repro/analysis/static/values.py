"""Abstract values for the dataflow engine (paper Section IV-A's
"whole-program characteristics", taken further).

The domain has four components per abstract state:

* **register bytes** — each of r0..r31 is an :class:`Interval` over
  [0, 255], one of the symbolic markers :data:`SPL_BYTE` /
  :data:`SPH_BYTE` (the task's *logical* stack-pointer halves as read
  via ``IN rd, SPL/SPH``), or ⊤ (``None``);
* **register pairs** — 16-bit facts over even register pairs kept
  precisely across ``MOVW``/``ADIW``/``SBIW``/``LPM`` chains.  A
  :class:`Word` is either absolute (``base="abs"``) or *region
  relative* (``base="sp"``: logical stack pointer plus an offset
  interval — the ``Y = task_stack_base + [0, k]`` shape);
* **stack depth** — an :class:`Interval` of bytes pushed since task
  entry (⊤ once the program writes SP directly);
* **SREG flags** — the individually known-constant flags, everything
  else unknown.

Byte facts and pair facts are kept mutually consistent: writing a byte
kills the covering pair, writing a pair re-derives the bytes.  All
operations are total — anything the transfer functions cannot model
precisely degrades to ⊤, never raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

BYTE_MAX = 0xFF
WORD_MAX = 0xFFFF
#: Widest representable SP-relative offset (offsets may go negative
#: when code addresses below the live stack top).
OFF_MIN, OFF_MAX = -WORD_MAX, WORD_MAX

#: Marker bytes: the register holds the low/high half of the *current*
#: logical stack pointer.  Invalidated by anything that moves SP.
SPL_BYTE = "spl"
SPH_BYTE = "sph"


@dataclass(frozen=True)
class Interval:
    """A non-empty inclusive integer interval."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, new: "Interval", lo_cap: int,
              hi_cap: int) -> "Interval":
        """Classic interval widening: a bound that grew jumps to the
        domain extreme, so loops converge in O(1) iterations."""
        lo = self.lo if new.lo >= self.lo else lo_cap
        hi = self.hi if new.hi <= self.hi else hi_cap
        return Interval(lo, hi)

    def add(self, k: int, lo_cap: int = 0,
            hi_cap: int = WORD_MAX) -> Optional["Interval"]:
        """Shift by *k*; ``None`` (⊤) when the result could leave
        [lo_cap, hi_cap] — modular wraparound loses the interval."""
        lo, hi = self.lo + k, self.hi + k
        if lo < lo_cap or hi > hi_cap:
            return None
        return Interval(lo, hi)


#: A byte fact: interval, SP-half marker, or ⊤.
ByteValue = Union[Interval, str, None]

TOP_BYTE: ByteValue = None
BYTE_FULL = Interval(0, BYTE_MAX)


@dataclass(frozen=True)
class Word:
    """A 16-bit fact: ``abs`` interval or SP-relative offset interval."""

    base: str  # "abs" | "sp"
    iv: Interval

    def add(self, k: int) -> Optional["Word"]:
        if self.base == "abs":
            iv = self.iv.add(k, 0, WORD_MAX)
        else:
            iv = self.iv.add(k, OFF_MIN, OFF_MAX)
        return Word(self.base, iv) if iv is not None else None

    def join(self, other: Optional["Word"]) -> Optional["Word"]:
        if other is None or other.base != self.base:
            return None
        return Word(self.base, self.iv.join(other.iv))


def join_bytes(a: ByteValue, b: ByteValue) -> ByteValue:
    if a is None or b is None:
        return None
    if isinstance(a, str) or isinstance(b, str):
        return a if a == b else None
    return a.join(b)


class AbsState:
    """One abstract machine state (mutable; copy before transfer)."""

    __slots__ = ("regs", "pairs", "depth", "flags")

    def __init__(self, regs: Optional[List[ByteValue]] = None,
                 pairs: Optional[Dict[int, Word]] = None,
                 depth: Optional[Interval] = Interval(0, 0),
                 flags: Optional[Dict[int, int]] = None):
        self.regs: List[ByteValue] = list(regs) if regs is not None \
            else [TOP_BYTE] * 32
        self.pairs: Dict[int, Word] = dict(pairs) if pairs else {}
        self.depth: Optional[Interval] = depth
        self.flags: Dict[int, int] = dict(flags) if flags else {}

    @classmethod
    def top(cls, depth: Optional[Interval] = None) -> "AbsState":
        """All-⊤ registers (the task-entry state: nothing is assumed
        about boot register contents)."""
        return cls(depth=depth)

    def copy(self) -> "AbsState":
        return AbsState(self.regs, self.pairs, self.depth, self.flags)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbsState) and \
            self.regs == other.regs and self.pairs == other.pairs and \
            self.depth == other.depth and self.flags == other.flags

    def __hash__(self):  # pragma: no cover - states are not dict keys
        raise TypeError("AbsState is unhashable")

    # -- byte / pair consistency ---------------------------------------------

    def set_byte(self, reg: int, value: ByteValue) -> None:
        """Write one register byte, killing any covering pair fact."""
        self.regs[reg] = value
        self.pairs.pop(reg & ~1, None)

    def get_word(self, base: int) -> Optional[Word]:
        """16-bit fact for the even pair at *base*: the tracked pair
        fact if any, else a sound hull derived from the byte facts."""
        fact = self.pairs.get(base)
        if fact is not None:
            return fact
        lo, hi = self.regs[base], self.regs[base + 1]
        if lo == SPL_BYTE and hi == SPH_BYTE:
            return Word("sp", Interval(0, 0))
        if isinstance(lo, Interval) and isinstance(hi, Interval):
            return Word("abs", Interval((hi.lo << 8) + lo.lo,
                                        (hi.hi << 8) + lo.hi))
        return None

    def set_word(self, base: int, word: Optional[Word]) -> None:
        """Write a pair fact and re-derive consistent byte facts."""
        if word is None:
            self.regs[base] = self.regs[base + 1] = TOP_BYTE
            self.pairs.pop(base, None)
            return
        self.pairs[base] = word
        if word.base == "abs":
            if (word.iv.lo >> 8) == (word.iv.hi >> 8):
                self.regs[base] = Interval(word.iv.lo & 0xFF,
                                           word.iv.hi & 0xFF)
                self.regs[base + 1] = Interval(word.iv.hi >> 8,
                                               word.iv.hi >> 8)
            else:
                self.regs[base] = self.regs[base + 1] = TOP_BYTE
        elif word.iv == Interval(0, 0):
            self.regs[base] = SPL_BYTE
            self.regs[base + 1] = SPH_BYTE
        else:
            self.regs[base] = self.regs[base + 1] = TOP_BYTE

    # -- stack-pointer motion --------------------------------------------------

    def shift_sp(self, delta: int) -> None:
        """SP moved by *-delta* bytes (``delta=+1`` for a PUSH): every
        SP-relative offset shifts, and raw SPL/SPH marker bytes go
        stale (they hold the pre-move value)."""
        for base, word in list(self.pairs.items()):
            if word.base == "sp":
                shifted = word.add(delta)
                if shifted is None:
                    del self.pairs[base]
                    self.regs[base] = self.regs[base + 1] = TOP_BYTE
                else:
                    self.pairs[base] = shifted
                    if self.regs[base] == SPL_BYTE:
                        self.regs[base] = self.regs[base + 1] = TOP_BYTE
        for reg in range(32):
            if self.regs[reg] in (SPL_BYTE, SPH_BYTE) and \
                    (reg & ~1) not in self.pairs:
                self.regs[reg] = TOP_BYTE

    def drop_sp_facts(self) -> None:
        """SP changed by an unknown amount (direct SP write, or a call
        whose net stack effect is not tracked here)."""
        for base, word in list(self.pairs.items()):
            if word.base == "sp":
                del self.pairs[base]
                self.regs[base] = self.regs[base + 1] = TOP_BYTE
        for reg in range(32):
            if self.regs[reg] in (SPL_BYTE, SPH_BYTE):
                self.regs[reg] = TOP_BYTE

    # -- lattice operations -----------------------------------------------------

    def join(self, other: "AbsState") -> "AbsState":
        regs = [join_bytes(a, b) for a, b in zip(self.regs, other.regs)]
        pairs: Dict[int, Word] = {}
        for base, word in self.pairs.items():
            joined = word.join(other.get_word(base))
            if joined is not None:
                pairs[base] = joined
        for base, word in other.pairs.items():
            if base not in pairs:
                joined = word.join(self.get_word(base))
                if joined is not None:
                    pairs[base] = joined
        depth = self.depth.join(other.depth) \
            if self.depth is not None and other.depth is not None else None
        flags = {bit: v for bit, v in self.flags.items()
                 if other.flags.get(bit) == v}
        return AbsState(regs, pairs, depth, flags)

    def widen(self, new: "AbsState") -> "AbsState":
        """Widen ``self`` (the old state) against *new* at a loop head."""
        regs: List[ByteValue] = []
        for a, b in zip(self.regs, new.regs):
            if isinstance(a, Interval) and isinstance(b, Interval):
                regs.append(a.widen(b, 0, BYTE_MAX))
            else:
                regs.append(a if a == b else None)
        pairs: Dict[int, Word] = {}
        for base, word in self.pairs.items():
            other = new.get_word(base)
            if other is not None and other.base == word.base:
                lo_cap, hi_cap = (0, WORD_MAX) if word.base == "abs" \
                    else (OFF_MIN, OFF_MAX)
                pairs[base] = Word(word.base,
                                   word.iv.widen(other.iv, lo_cap, hi_cap))
        if self.depth is not None and new.depth is not None:
            depth: Optional[Interval] = self.depth.widen(
                new.depth, 0, WORD_MAX)
        else:
            depth = None
        flags = {bit: v for bit, v in self.flags.items()
                 if new.flags.get(bit) == v}
        return AbsState(regs, pairs, depth, flags)
