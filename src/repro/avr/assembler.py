"""Two-pass assembler for the AVR subset.

This is the "compiler" front end of the reproduction's toolchain: mote
programs are written in AVR assembly, and assembling one produces both
the binary image and the memory-usage information (the *symbol list*)
that SenSmart's base-station rewriter consumes (paper Figure 1).

Syntax
------
::

    ; line comment
    .equ  TICKS = 0x40 * 2      ; constant definition
    .org  0x0010                ; set flash word address
    .bss  buffer, 32            ; reserve 32 bytes of SRAM (heap area)
    .dw   0x1234, label         ; literal flash words
    .db   1, 2, 3               ; literal flash bytes (word padded)

    main:                        ; label = flash word address
        ldi   r16, lo8(buffer)   ; expressions, lo8/hi8 operators
        ldi   r17, hi8(buffer)
        ld    r0, X+             ; pointer modes X X+ -X Y+ -Y Z+ -Z
        ldd   r4, Y+3            ; displacement addressing
        std   Z+5, r2
        breq  main               ; branch targets are labels/expressions

``.bss`` reservations start at SRAM base (0x100) and grow upward; their
total defines the program's heap size in the symbol list.  Plain ``Y``/
``Z`` loads/stores canonicalize to ``LDD``/``STD`` with displacement 0
and ``TST/CLR/LSL/ROL``, branch aliases (``BREQ`` ...) and SREG aliases
(``SEI`` ...) canonicalize exactly like avr-as.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import AssemblerError
from . import ioports
from .encoding import encode
from .instruction import DataWord, Instruction
from .isa import (BRANCH_ALIASES, OPCODES, PTR_MODES, SREG_ALIASES,
                  SYNTH_R2, Format)

_TOKEN_RE = re.compile(
    r"\s*(0[xX][0-9a-fA-F]+|0[bB][01]+|\d+|[A-Za-z_.$][\w.$]*"
    r"|<<|>>|[()+\-*/%&|^~])")

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_REG_RE = re.compile(r"^[rR](\d{1,2})$")


class _Expr:
    """Tiny recursive-descent expression evaluator."""

    def __init__(self, text: str, symbols: Dict[str, int]):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.symbols = symbols

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        tokens, pos = [], 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            match = _TOKEN_RE.match(text, pos)
            if not match:
                raise AssemblerError(f"bad expression near {text[pos:]!r}")
            tokens.append(match.group(1))
            pos = match.end()
        return tokens

    def _peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise AssemblerError("unexpected end of expression")
        self.pos += 1
        return token

    def parse(self) -> int:
        value = self._or()
        if self._peek() is not None:
            raise AssemblerError(f"trailing tokens in expression: "
                                 f"{self.tokens[self.pos:]}")
        return value

    def _or(self) -> int:
        value = self._xor()
        while self._peek() == "|":
            self._next()
            value |= self._xor()
        return value

    def _xor(self) -> int:
        value = self._and()
        while self._peek() == "^":
            self._next()
            value ^= self._and()
        return value

    def _and(self) -> int:
        value = self._shift()
        while self._peek() == "&":
            self._next()
            value &= self._shift()
        return value

    def _shift(self) -> int:
        value = self._sum()
        while self._peek() in ("<<", ">>"):
            op = self._next()
            rhs = self._sum()
            value = value << rhs if op == "<<" else value >> rhs
        return value

    def _sum(self) -> int:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> int:
        value = self._atom()
        while self._peek() in ("*", "/", "%"):
            op = self._next()
            rhs = self._atom()
            if op == "*":
                value *= rhs
            elif op == "/":
                value //= rhs
            else:
                value %= rhs
        return value

    def _atom(self) -> int:
        token = self._next()
        if token == "-":
            return -self._atom()
        if token == "~":
            return ~self._atom()
        if token == "(":
            value = self._or()
            if self._next() != ")":
                raise AssemblerError("missing ')' in expression")
            return value
        if token in ("lo8", "hi8"):
            if self._next() != "(":
                raise AssemblerError(f"{token} requires parentheses")
            value = self._or()
            if self._next() != ")":
                raise AssemblerError("missing ')' in expression")
            return value & 0xFF if token == "lo8" else (value >> 8) & 0xFF
        if token[0].isdigit():
            try:
                return int(token, 0)
            except ValueError:
                raise AssemblerError(f"bad number {token!r}") from None
        if token in self.symbols:
            return self.symbols[token]
        raise AssemblerError(f"undefined symbol {token!r}")


@dataclass
class AsmProgram:
    """Output of :func:`assemble`: binary plus symbol information."""

    name: str
    words: List[int]
    origin: int
    items: List[Union[Instruction, DataWord]]
    labels: Dict[str, int]
    bss_symbols: Dict[str, int]
    heap_size: int
    entry: int

    @property
    def size_words(self) -> int:
        return len(self.words)

    @property
    def size_bytes(self) -> int:
        return 2 * len(self.words)

    @property
    def instructions(self) -> List[Instruction]:
        return [item for item in self.items if isinstance(item, Instruction)]


@dataclass
class _Statement:
    kind: str  # "op", "dw", "db"
    mnemonic: str = ""
    operand_text: str = ""
    values: Tuple = ()
    address: int = 0
    words: int = 1
    line: int = 0
    source: str = ""


class Assembler:
    """Two-pass assembler producing an :class:`AsmProgram`."""

    def __init__(self, ram_start: int = ioports.RAM_START):
        self.ram_start = ram_start

    def assemble(self, source: str, name: str = "program",
                 origin: int = 0) -> AsmProgram:
        statements, labels, bss, heap_size, equates = \
            self._first_pass(source, origin)
        symbols = dict(equates)
        symbols.update(bss)
        symbols.update(labels)
        items: List[Union[Instruction, DataWord]] = []
        word_map: Dict[int, int] = {}
        for statement in statements:
            try:
                emitted = self._emit(statement, symbols)
            except AssemblerError as error:
                raise AssemblerError(
                    str(error), statement.line, statement.source) from None
            for item in emitted:
                items.append(item)
                if isinstance(item, Instruction):
                    for offset, word in enumerate(encode(item)):
                        word_map[item.address + offset] = word
                else:
                    word_map[item.address] = item.value & 0xFFFF
        # Flatten to a contiguous image from the origin; ``.org`` gaps are
        # padded with NOPs so the image stays linearly decodable.
        top = max(word_map) + 1 if word_map else origin
        words = [word_map.get(address, 0x0000)
                 for address in range(origin, top)]
        entry = labels.get("main", origin)
        return AsmProgram(name=name, words=words, origin=origin, items=items,
                          labels=labels, bss_symbols=bss,
                          heap_size=heap_size, entry=entry)

    # -- pass 1: sizes, labels, directives ---------------------------------

    def _first_pass(self, source: str, origin: int):
        statements: List[_Statement] = []
        labels: Dict[str, int] = {}
        bss: Dict[str, int] = {}
        equates: Dict[str, int] = {}
        address = origin
        bss_cursor = self.ram_start

        for line_number, raw in enumerate(source.splitlines(), start=1):
            line = raw.split(";", 1)[0].strip()
            if not line:
                continue
            match = _LABEL_RE.match(line)
            if match:
                label = match.group(1)
                if label in labels:
                    raise AssemblerError(f"duplicate label {label!r}",
                                         line_number, raw)
                labels[label] = address
                line = line[match.end():].strip()
                if not line:
                    continue
            if line.startswith("."):
                directive, _, rest = line.partition(" ")
                directive = directive.lower()
                rest = rest.strip()
                # Directive expressions may reference earlier equates
                # and .bss symbols (e.g. .equ POOL_END = pool + SIZE).
                known = {**bss, **equates}
                if directive == ".equ":
                    name, _, expr = rest.partition("=")
                    if not expr:
                        raise AssemblerError(".equ needs NAME = EXPR",
                                             line_number, raw)
                    equates[name.strip()] = _Expr(expr, known).parse()
                elif directive == ".org":
                    address = _Expr(rest, known).parse()
                elif directive == ".bss":
                    name, _, size_expr = rest.partition(",")
                    if not size_expr:
                        raise AssemblerError(".bss needs NAME, SIZE",
                                             line_number, raw)
                    size = _Expr(size_expr, known).parse()
                    bss[name.strip()] = bss_cursor
                    bss_cursor += size
                elif directive == ".dw":
                    count = len(rest.split(","))
                    statements.append(_Statement(
                        "dw", operand_text=rest, address=address,
                        words=count, line=line_number, source=raw))
                    address += count
                elif directive == ".db":
                    count = len(rest.split(","))
                    words = (count + 1) // 2
                    statements.append(_Statement(
                        "db", operand_text=rest, address=address,
                        words=words, line=line_number, source=raw))
                    address += words
                else:
                    raise AssemblerError(f"unknown directive {directive!r}",
                                         line_number, raw)
                continue
            mnemonic, _, operand_text = line.partition(" ")
            mnemonic = mnemonic.upper()
            canonical = self._canonical_mnemonic(mnemonic)
            if canonical not in OPCODES:
                raise AssemblerError(f"unknown mnemonic {mnemonic!r}",
                                     line_number, raw)
            size = OPCODES[canonical].words
            statements.append(_Statement(
                "op", mnemonic=mnemonic, operand_text=operand_text.strip(),
                address=address, words=size, line=line_number, source=raw))
            address += size
        if bss_cursor > ioports.RAM_END + 1:
            raise AssemblerError(
                f".bss reservations overflow SRAM by "
                f"{bss_cursor - ioports.RAM_END - 1} bytes")
        heap_size = bss_cursor - self.ram_start
        return statements, labels, bss, heap_size, equates

    @staticmethod
    def _canonical_mnemonic(mnemonic: str) -> str:
        if mnemonic in BRANCH_ALIASES:
            return BRANCH_ALIASES[mnemonic][0]
        if mnemonic in SREG_ALIASES:
            return SREG_ALIASES[mnemonic][0]
        if mnemonic in SYNTH_R2:
            return SYNTH_R2[mnemonic]
        if mnemonic in ("LD", "ST"):
            return mnemonic  # may still canonicalize to LDD/STD in pass 2
        return mnemonic

    # -- pass 2: operand resolution and encoding -----------------------------

    def _emit(self, st: _Statement, symbols: Dict[str, int]):
        if st.kind == "dw":
            values = [
                _Expr(part, symbols).parse() & 0xFFFF
                for part in st.operand_text.split(",")]
            return [DataWord(v, st.address + i) for i, v in enumerate(values)]
        if st.kind == "db":
            data = [
                _Expr(part, symbols).parse() & 0xFF
                for part in st.operand_text.split(",")]
            if len(data) % 2:
                data.append(0)
            return [DataWord(data[i] | (data[i + 1] << 8),
                             st.address + i // 2)
                    for i in range(0, len(data), 2)]
        return [self._emit_op(st, symbols)]

    def _emit_op(self, st: _Statement,
                 symbols: Dict[str, int]) -> Instruction:
        mnemonic = st.mnemonic
        parts = [p.strip() for p in st.operand_text.split(",")] \
            if st.operand_text else []

        if mnemonic in BRANCH_ALIASES:
            base, bit = BRANCH_ALIASES[mnemonic]
            self._arity(st, parts, 1)
            offset = self._branch_offset(parts[0], st, symbols, bits=7)
            return Instruction(base, (bit, offset), st.address)
        if mnemonic in SREG_ALIASES:
            base, bit = SREG_ALIASES[mnemonic]
            self._arity(st, parts, 0)
            return Instruction(base, (bit,), st.address)
        if mnemonic in SYNTH_R2:
            self._arity(st, parts, 1)
            d = self._register(parts[0])
            return Instruction(SYNTH_R2[mnemonic], (d, d), st.address)

        spec = OPCODES.get(mnemonic)
        if spec is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}")
        fmt = spec.fmt

        if fmt in (Format.R2, Format.MUL, Format.MOVW):
            self._arity(st, parts, 2)
            return Instruction(
                mnemonic,
                (self._register(parts[0]), self._register(parts[1])),
                st.address)
        if fmt is Format.RD:
            self._arity(st, parts, 1)
            return Instruction(mnemonic, (self._register(parts[0]),),
                               st.address)
        if fmt in (Format.IMM8, Format.ADIW):
            self._arity(st, parts, 2)
            return Instruction(
                mnemonic,
                (self._register(parts[0]), _Expr(parts[1], symbols).parse()),
                st.address)
        if fmt is Format.LDST_PTR:
            return self._emit_ldst(mnemonic, parts, st, symbols)
        if fmt is Format.LDST_DISP:
            return self._emit_ldst_disp(mnemonic, parts, st, symbols)
        if fmt is Format.LDST_DIRECT:
            self._arity(st, parts, 2)
            if mnemonic == "LDS":
                d, addr = self._register(parts[0]), \
                    _Expr(parts[1], symbols).parse()
            else:
                addr, d = _Expr(parts[0], symbols).parse(), \
                    self._register(parts[1])
            return Instruction(mnemonic, (d, addr), st.address)
        if fmt is Format.PUSHPOP:
            self._arity(st, parts, 1)
            return Instruction(mnemonic, (self._register(parts[0]),),
                               st.address)
        if fmt is Format.LPM:
            if not parts or parts == [""]:
                return Instruction("LPM", (0, "LEGACY"), st.address)
            self._arity(st, parts, 2)
            mode = parts[1].upper()
            if mode not in ("Z", "Z+"):
                raise AssemblerError(f"bad LPM mode {parts[1]!r}")
            return Instruction("LPM", (self._register(parts[0]), mode),
                               st.address)
        if fmt is Format.IO:
            self._arity(st, parts, 2)
            if mnemonic == "IN":
                return Instruction(
                    "IN",
                    (self._register(parts[0]),
                     _Expr(parts[1], symbols).parse()),
                    st.address)
            return Instruction(
                "OUT",
                (_Expr(parts[0], symbols).parse(),
                 self._register(parts[1])),
                st.address)
        if fmt is Format.IOBIT:
            self._arity(st, parts, 2)
            return Instruction(
                mnemonic,
                (_Expr(parts[0], symbols).parse(),
                 _Expr(parts[1], symbols).parse()),
                st.address)
        if fmt is Format.REL12:
            self._arity(st, parts, 1)
            offset = self._branch_offset(parts[0], st, symbols, bits=12)
            return Instruction(mnemonic, (offset,), st.address)
        if fmt is Format.BRANCH:
            self._arity(st, parts, 2)
            bit = _Expr(parts[0], symbols).parse()
            offset = self._branch_offset(parts[1], st, symbols, bits=7)
            return Instruction(mnemonic, (bit, offset), st.address)
        if fmt in (Format.SKIP_REG, Format.TFLAG):
            self._arity(st, parts, 2)
            return Instruction(
                mnemonic,
                (self._register(parts[0]),
                 _Expr(parts[1], symbols).parse()),
                st.address)
        if fmt is Format.JMPCALL:
            self._arity(st, parts, 1)
            return Instruction(
                mnemonic, (_Expr(parts[0], symbols).parse(),), st.address)
        if fmt is Format.SREG_OP:
            self._arity(st, parts, 1)
            return Instruction(
                mnemonic, (_Expr(parts[0], symbols).parse(),), st.address)
        if fmt is Format.IMPLIED:
            self._arity(st, parts, 0)
            return Instruction(mnemonic, (), st.address)
        raise AssemblerError(f"unhandled format {fmt}")  # pragma: no cover

    def _emit_ldst(self, mnemonic: str, parts: List[str], st: _Statement,
                   symbols: Dict[str, int]) -> Instruction:
        self._arity(st, parts, 2)
        if mnemonic == "LD":
            d, mode = self._register(parts[0]), parts[1].upper()
        else:
            mode, d = parts[0].upper(), self._register(parts[1])
        if mode in ("Y", "Z"):  # canonicalize to displacement-0 LDD/STD
            base = "LDD" if mnemonic == "LD" else "STD"
            return Instruction(base, (d, mode, 0), st.address)
        if mode not in PTR_MODES:
            raise AssemblerError(f"bad pointer mode {mode!r}")
        return Instruction(mnemonic, (d, mode), st.address)

    def _emit_ldst_disp(self, mnemonic: str, parts: List[str],
                        st: _Statement,
                        symbols: Dict[str, int]) -> Instruction:
        self._arity(st, parts, 2)
        if mnemonic == "LDD":
            d, ptr_text = self._register(parts[0]), parts[1]
        else:
            ptr_text, d = parts[0], self._register(parts[1])
        match = re.match(r"^([YZyz])\s*\+\s*(.+)$", ptr_text.strip())
        if not match:
            raise AssemblerError(f"bad displacement operand {ptr_text!r}")
        ptr = match.group(1).upper()
        q = _Expr(match.group(2), symbols).parse()
        return Instruction(mnemonic, (d, ptr, q), st.address)

    def _branch_offset(self, text: str, st: _Statement,
                       symbols: Dict[str, int], bits: int) -> int:
        target = _Expr(text, symbols).parse()
        offset = target - (st.address + 1)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        if not lo <= offset <= hi:
            raise AssemblerError(
                f"branch target out of range: offset {offset} words")
        return offset

    @staticmethod
    def _register(text: str) -> int:
        match = _REG_RE.match(text.strip())
        if not match:
            raise AssemblerError(f"expected register, got {text!r}")
        value = int(match.group(1))
        if value > 31:
            raise AssemblerError(f"no such register r{value}")
        return value

    @staticmethod
    def _arity(st: _Statement, parts: List[str], expected: int) -> None:
        actual = 0 if parts in ([], [""]) else len(parts)
        if actual != expected:
            raise AssemblerError(
                f"{st.mnemonic} expects {expected} operand(s), got {actual}")


def assemble(source: str, name: str = "program",
             origin: int = 0) -> AsmProgram:
    """Assemble *source* with default settings."""
    return Assembler().assemble(source, name=name, origin=origin)
