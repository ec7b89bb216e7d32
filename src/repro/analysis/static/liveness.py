"""SREG read/write effects per instruction, for flag liveness.

:func:`sreg_effects` gives the eight AVR status flags an instruction
reads and writes.  Its one consumer is the trace compiler
(:mod:`repro.avr.trace`): a backward pass over the handful of blocks in
a trace (``_Emitter._decide``) uses these masks to elide flag
computation that no successor inside the trace (and no trace exit) can
observe.

Everything unknown is conservative: an unrecognized mnemonic *reads*
all eight flags and writes none, and calls and returns read all flags,
so liveness computed from these masks can only over-approximate.
"""

from __future__ import annotations

from typing import Dict, Tuple

# SREG flag masks, identical to repro.avr.cpu's.
C, Z, N, V, S, H, T, I = (1 << b for b in range(8))
ALL_FLAGS = 0xFF
_ARITH = C | Z | N | V | S | H
_LOGIC = Z | N | V | S
_SHIFT = C | Z | N | V | S

#: SREG I/O address (``OUT 0x3F``/``IN r, 0x3F`` move the whole register).
_SREG_IO = 0x3F

#: mnemonic -> (reads, writes); mnemonics absent here are conservative.
_EFFECTS: Dict[str, Tuple[int, int]] = {
    "ADD": (0, _ARITH), "ADC": (C, _ARITH),
    "SUB": (0, _ARITH), "SUBI": (0, _ARITH),
    "CP": (0, _ARITH), "CPI": (0, _ARITH), "NEG": (0, _ARITH),
    "SBC": (C | Z, _ARITH), "SBCI": (C | Z, _ARITH),
    "CPC": (C | Z, _ARITH),
    "AND": (0, _LOGIC), "ANDI": (0, _LOGIC),
    "OR": (0, _LOGIC), "ORI": (0, _LOGIC), "EOR": (0, _LOGIC),
    "INC": (0, _LOGIC), "DEC": (0, _LOGIC),
    "COM": (0, _SHIFT), "LSR": (0, _SHIFT), "ASR": (0, _SHIFT),
    "ROR": (C, _SHIFT),
    "ADIW": (0, _SHIFT), "SBIW": (0, _SHIFT),
    "MUL": (0, C | Z), "MULS": (0, C | Z), "MULSU": (0, C | Z),
    "FMUL": (0, C | Z), "FMULS": (0, C | Z), "FMULSU": (0, C | Z),
    "BST": (0, T), "BLD": (T, 0),
    "RETI": (0, I),
    "CPSE": (0, 0), "SBRC": (0, 0), "SBRS": (0, 0),
    "SBIC": (0, 0), "SBIS": (0, 0), "SBI": (0, 0), "CBI": (0, 0),
    "MOV": (0, 0), "MOVW": (0, 0), "LDI": (0, 0), "SWAP": (0, 0),
    "LD": (0, 0), "ST": (0, 0), "LDD": (0, 0), "STD": (0, 0),
    "LDS": (0, 0), "STS": (0, 0), "LPM": (0, 0),
    "PUSH": (0, 0), "POP": (0, 0),
    "NOP": (0, 0), "WDR": (0, 0), "SLEEP": (0, 0), "BREAK": (0, 0),
    "RJMP": (0, 0), "JMP": (0, 0), "IJMP": (0, 0),
}

#: Control transfers whose continuation is outside the local analysis
#: (the callee / caller / unknown code may read anything).
_LEAKS_ALL = frozenset({"CALL", "RCALL", "ICALL", "RET", "RETI"})


def sreg_effects(mnemonic: str, operands: Tuple = ()) -> Tuple[int, int]:
    """``(reads, writes)`` SREG bit masks for one instruction.

    Conservative: unknown mnemonics read every flag and write none, so
    liveness computed from these masks can only over-approximate.
    """
    if mnemonic in ("BSET", "BCLR"):
        return 0, 1 << operands[0]
    if mnemonic in ("BRBS", "BRBC"):
        return 1 << operands[0], 0
    if mnemonic == "OUT" and operands and operands[0] == _SREG_IO:
        return 0, ALL_FLAGS
    if mnemonic == "IN" and len(operands) > 1 and operands[1] == _SREG_IO:
        return ALL_FLAGS, 0
    if mnemonic in _LEAKS_ALL:
        return ALL_FLAGS, 0
    effects = _EFFECTS.get(mnemonic)
    if effects is None:
        return ALL_FLAGS, 0
    return effects
