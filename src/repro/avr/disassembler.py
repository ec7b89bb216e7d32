"""Linear disassembler for flash images.

Used by diagnostics, the rewriter's listings, and tests that check the
naturalized binary against expectations.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .encoding import EncodingError, decode
from .instruction import Instruction
from .isa import Format


def iter_instructions(words: Sequence[int], origin: int = 0,
                      ) -> Iterator[Tuple[int, Optional[Instruction], int]]:
    """Yield ``(word_address, instruction_or_None, raw_word)`` tuples.

    Words that do not decode yield ``None`` for the instruction (data
    words, trampoline metadata, erased flash).
    """
    index = 0
    while index < len(words):
        address = origin + index
        word = words[index]
        next_word = words[index + 1] if index + 1 < len(words) else None
        try:
            instruction = decode(word, next_word, address)
        except EncodingError:
            yield address, None, word
            index += 1
            continue
        yield address, instruction, word
        index += instruction.words


def disassemble(words: Sequence[int], origin: int = 0) -> List[str]:
    """Render *words* as an assembly listing, one line per entry."""
    lines = []
    for address, instruction, word in iter_instructions(words, origin):
        if instruction is None:
            lines.append(f"{address:#06x}: .dw {word:#06x}")
        else:
            lines.append(f"{address:#06x}: {format_instruction(instruction)}")
    return lines


def format_instruction(ins: Instruction) -> str:
    """Pretty-print one instruction in assembler syntax."""
    m, ops = ins.mnemonic, ins.operands
    fmt = ins.opspec.fmt
    if fmt in (Format.R2, Format.MUL, Format.MOVW):
        return f"{m} r{ops[0]}, r{ops[1]}"
    if fmt in (Format.RD, Format.PUSHPOP):
        return f"{m} r{ops[0]}"
    if fmt in (Format.IMM8, Format.ADIW):
        return f"{m} r{ops[0]}, {ops[1]:#04x}"
    if fmt is Format.LDST_DISP:
        if m == "LDD":
            return f"LDD r{ops[0]}, {ops[1]}+{ops[2]}"
        return f"STD {ops[1]}+{ops[2]}, r{ops[0]}"
    if fmt is Format.LDST_PTR:
        if m == "LD":
            return f"LD r{ops[0]}, {ops[1]}"
        return f"ST {ops[1]}, r{ops[0]}"
    if fmt is Format.LDST_DIRECT:
        if m == "LDS":
            return f"LDS r{ops[0]}, {ops[1]:#06x}"
        return f"STS {ops[1]:#06x}, r{ops[0]}"
    if fmt is Format.LPM:
        if ops[1] == "LEGACY":
            return "LPM"
        return f"LPM r{ops[0]}, {ops[1]}"
    if fmt is Format.IO:
        if m == "IN":
            return f"IN r{ops[0]}, {ops[1]:#04x}"
        return f"OUT {ops[0]:#04x}, r{ops[1]}"
    if fmt is Format.IOBIT:
        return f"{m} {ops[0]:#04x}, {ops[1]}"
    if fmt is Format.REL12:
        suffix = f"  ; -> {ins.branch_target():#06x}" if ins.address >= 0 \
            else ""
        return f"{m} .{ops[0]:+d}{suffix}"
    if fmt is Format.BRANCH:
        suffix = f"  ; -> {ins.branch_target():#06x}" if ins.address >= 0 \
            else ""
        return f"{m} {ops[0]}, .{ops[1]:+d}{suffix}"
    if fmt in (Format.SKIP_REG, Format.TFLAG):
        return f"{m} r{ops[0]}, {ops[1]}"
    if fmt is Format.JMPCALL:
        return f"{m} {ops[0]:#06x}"
    if fmt is Format.SREG_OP:
        return f"{m} {ops[0]}"
    return m
