"""Instruction-set specification for the ATmega128L subset.

The simulator implements a faithful subset of the 8-bit AVR instruction
set — the instructions avr-gcc actually emits for C code on a MICA2 mote,
plus the CPU-control instructions SenSmart's rewriter cares about.  Each
mnemonic is described by an :class:`OpSpec` giving its encoding *format*,
its base cycle count on an ATmega128, and its *kind* — the classification
the binary rewriter uses to decide whether (and how) a site must be
patched (paper Section IV-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

#: Number of general-purpose registers (r0..r31).
NUM_REGS = 32

#: Pointer-register pairs, by conventional name.
REG_X = 26  # XL:XH = r26:r27
REG_Y = 28  # YL:YH = r28:r29
REG_Z = 30  # ZL:ZH = r30:r31

#: I/O-space addresses (0..63) of the stack pointer and status register.
IO_SPL = 0x3D
IO_SPH = 0x3E
IO_SREG = 0x3F

#: SREG flag bit numbers.
FLAG_C, FLAG_Z, FLAG_N, FLAG_V, FLAG_S, FLAG_H, FLAG_T, FLAG_I = range(8)


class Format(enum.Enum):
    """Binary encoding format families (see ``encoding.py``)."""

    R2 = "r2"            # Rd, Rr               (ADD, MOV, CP, ...)
    RD = "rd"            # Rd                   (COM, INC, LSR, ...)
    IMM8 = "imm8"        # Rd (16-31), K8       (LDI, CPI, SUBI, ...)
    MOVW = "movw"        # even Rd, even Rr
    MUL = "mul"          # Rd, Rr
    LDST_DISP = "disp"   # Rd, Y/Z, q0-63       (LDD, STD)
    LDST_PTR = "ptr"     # Rd, ptr mode         (LD/ST with X/Y/Z +/-)
    LDST_DIRECT = "lds"  # Rd, k16 — 32-bit     (LDS, STS)
    PUSHPOP = "pushpop"  # Rr                   (PUSH, POP)
    LPM = "lpm"          # Rd, Z or Z+          (LPM forms)
    IO = "io"            # Rd, A0-63            (IN, OUT)
    IOBIT = "iobit"      # A0-31, b             (CBI, SBI, SBIC, SBIS)
    REL12 = "rel12"      # k ±2047 words        (RJMP, RCALL)
    BRANCH = "branch"    # s, k ±63 words       (BRBS, BRBC)
    SKIP_REG = "skipreg"  # Rr, b               (SBRC, SBRS)
    TFLAG = "tflag"      # Rd, b                (BLD, BST)
    ADIW = "adiw"        # Rd in {24,26,28,30}, K0-63
    JMPCALL = "jmpcall"  # k 22-bit — 32-bit    (JMP, CALL)
    SREG_OP = "sregop"   # s                    (BSET, BCLR)
    IMPLIED = "implied"  # no operands          (NOP, RET, SLEEP, ...)


class Kind(enum.Flag):
    """Semantic classification used by the rewriter.

    A single instruction may carry several kinds, e.g. ``PUSH`` is both a
    data-memory access and a stack-pointer mutation.
    """

    NONE = 0
    ALU = enum.auto()            # pure register computation
    DATA_MEM = enum.auto()       # reads or writes data memory
    STACK_MUT = enum.auto()      # implicitly changes SP
    PROG_MEM = enum.auto()       # reads program memory as data (LPM)
    BRANCH = enum.auto()         # may change PC (direct target)
    INDIRECT = enum.auto()       # target depends on runtime register state
    SKIP = enum.auto()           # conditionally skips the next instruction
    IO_ACCESS = enum.auto()      # IN/OUT-style I/O space access
    CPU_CTRL = enum.auto()       # SLEEP, WDR, BREAK
    CALL = enum.auto()           # pushes a return address
    RETURN = enum.auto()         # pops a return address


@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    fmt: Format
    cycles: int
    kind: Kind
    words: int = 1  # size in 16-bit flash words

    @property
    def size_bytes(self) -> int:
        return self.words * 2


def _spec(mnemonic: str, fmt: Format, cycles: int, kind: Kind,
          words: int = 1) -> Tuple[str, OpSpec]:
    return mnemonic, OpSpec(mnemonic, fmt, cycles, kind, words)


#: The instruction table.  Cycle counts follow the ATmega128 datasheet;
#: conditional extra cycles (taken branches, skips, pointer pre/post ops)
#: are applied by the CPU at execution time.
OPCODES: Dict[str, OpSpec] = dict([
    # --- two-register ALU -------------------------------------------------
    _spec("ADD", Format.R2, 1, Kind.ALU),
    _spec("ADC", Format.R2, 1, Kind.ALU),
    _spec("SUB", Format.R2, 1, Kind.ALU),
    _spec("SBC", Format.R2, 1, Kind.ALU),
    _spec("AND", Format.R2, 1, Kind.ALU),
    _spec("OR", Format.R2, 1, Kind.ALU),
    _spec("EOR", Format.R2, 1, Kind.ALU),
    _spec("CP", Format.R2, 1, Kind.ALU),
    _spec("CPC", Format.R2, 1, Kind.ALU),
    _spec("MOV", Format.R2, 1, Kind.ALU),
    _spec("CPSE", Format.R2, 1, Kind.ALU | Kind.SKIP),
    _spec("MUL", Format.MUL, 2, Kind.ALU),
    _spec("MOVW", Format.MOVW, 1, Kind.ALU),
    # --- single-register ALU ----------------------------------------------
    _spec("COM", Format.RD, 1, Kind.ALU),
    _spec("NEG", Format.RD, 1, Kind.ALU),
    _spec("SWAP", Format.RD, 1, Kind.ALU),
    _spec("INC", Format.RD, 1, Kind.ALU),
    _spec("ASR", Format.RD, 1, Kind.ALU),
    _spec("LSR", Format.RD, 1, Kind.ALU),
    _spec("ROR", Format.RD, 1, Kind.ALU),
    _spec("DEC", Format.RD, 1, Kind.ALU),
    # --- register-immediate ALU (Rd = r16..r31) ----------------------------
    _spec("CPI", Format.IMM8, 1, Kind.ALU),
    _spec("SBCI", Format.IMM8, 1, Kind.ALU),
    _spec("SUBI", Format.IMM8, 1, Kind.ALU),
    _spec("ORI", Format.IMM8, 1, Kind.ALU),
    _spec("ANDI", Format.IMM8, 1, Kind.ALU),
    _spec("LDI", Format.IMM8, 1, Kind.ALU),
    # --- word arithmetic on pointer pairs ----------------------------------
    _spec("ADIW", Format.ADIW, 2, Kind.ALU),
    _spec("SBIW", Format.ADIW, 2, Kind.ALU),
    # --- data memory -------------------------------------------------------
    _spec("LD", Format.LDST_PTR, 2, Kind.DATA_MEM),
    _spec("ST", Format.LDST_PTR, 2, Kind.DATA_MEM),
    _spec("LDD", Format.LDST_DISP, 2, Kind.DATA_MEM),
    _spec("STD", Format.LDST_DISP, 2, Kind.DATA_MEM),
    _spec("LDS", Format.LDST_DIRECT, 2, Kind.DATA_MEM, words=2),
    _spec("STS", Format.LDST_DIRECT, 2, Kind.DATA_MEM, words=2),
    _spec("PUSH", Format.PUSHPOP, 2, Kind.DATA_MEM | Kind.STACK_MUT),
    _spec("POP", Format.PUSHPOP, 2, Kind.DATA_MEM | Kind.STACK_MUT),
    _spec("LPM", Format.LPM, 3, Kind.PROG_MEM),
    # --- I/O space ----------------------------------------------------------
    _spec("IN", Format.IO, 1, Kind.IO_ACCESS),
    _spec("OUT", Format.IO, 1, Kind.IO_ACCESS),
    _spec("CBI", Format.IOBIT, 2, Kind.IO_ACCESS),
    _spec("SBI", Format.IOBIT, 2, Kind.IO_ACCESS),
    _spec("SBIC", Format.IOBIT, 1, Kind.IO_ACCESS | Kind.SKIP),
    _spec("SBIS", Format.IOBIT, 1, Kind.IO_ACCESS | Kind.SKIP),
    # --- control flow --------------------------------------------------------
    _spec("RJMP", Format.REL12, 2, Kind.BRANCH),
    _spec("RCALL", Format.REL12, 3,
          Kind.BRANCH | Kind.CALL | Kind.DATA_MEM | Kind.STACK_MUT),
    _spec("JMP", Format.JMPCALL, 3, Kind.BRANCH, words=2),
    _spec("CALL", Format.JMPCALL, 4,
          Kind.BRANCH | Kind.CALL | Kind.DATA_MEM | Kind.STACK_MUT, words=2),
    _spec("IJMP", Format.IMPLIED, 2, Kind.BRANCH | Kind.INDIRECT),
    _spec("ICALL", Format.IMPLIED, 3,
          Kind.BRANCH | Kind.INDIRECT | Kind.CALL | Kind.DATA_MEM
          | Kind.STACK_MUT),
    _spec("RET", Format.IMPLIED, 4,
          Kind.BRANCH | Kind.RETURN | Kind.DATA_MEM | Kind.STACK_MUT),
    _spec("RETI", Format.IMPLIED, 4,
          Kind.BRANCH | Kind.RETURN | Kind.DATA_MEM | Kind.STACK_MUT),
    _spec("BRBS", Format.BRANCH, 1, Kind.BRANCH),
    _spec("BRBC", Format.BRANCH, 1, Kind.BRANCH),
    _spec("SBRC", Format.SKIP_REG, 1, Kind.SKIP),
    _spec("SBRS", Format.SKIP_REG, 1, Kind.SKIP),
    # --- flag / bit manipulation ---------------------------------------------
    _spec("BSET", Format.SREG_OP, 1, Kind.ALU),
    _spec("BCLR", Format.SREG_OP, 1, Kind.ALU),
    _spec("BLD", Format.TFLAG, 1, Kind.ALU),
    _spec("BST", Format.TFLAG, 1, Kind.ALU),
    # --- CPU control -----------------------------------------------------------
    _spec("NOP", Format.IMPLIED, 1, Kind.NONE),
    _spec("SLEEP", Format.IMPLIED, 1, Kind.CPU_CTRL),
    _spec("WDR", Format.IMPLIED, 1, Kind.CPU_CTRL),
    _spec("BREAK", Format.IMPLIED, 1, Kind.CPU_CTRL),
])


#: Pointer addressing modes for Format.LDST_PTR, as (name, base register).
#: Plain ``Y``/``Z`` accesses are canonicalized by the assembler to
#: ``LDD/STD`` with displacement 0, exactly as avr-gcc's assembler does.
PTR_MODES = ("X", "X+", "-X", "Y+", "-Y", "Z+", "-Z")
PTR_BASE = {"X": REG_X, "X+": REG_X, "-X": REG_X,
            "Y+": REG_Y, "-Y": REG_Y,
            "Z+": REG_Z, "-Z": REG_Z,
            "Y": REG_Y, "Z": REG_Z}


def written_registers(ins) -> Tuple[int, ...]:
    """Registers *ins* may write (the syntactic clobber set), including
    the pointer pair a ``+``/``-`` mode or ``LPM …, Z+`` moves."""
    mnemonic, ops = ins.mnemonic, ins.operands
    fmt = ins.opspec.fmt
    if fmt is Format.R2:
        return () if mnemonic in ("CP", "CPC", "CPSE") else (ops[0],)
    if fmt is Format.MUL:
        return (0, 1)
    if fmt in (Format.MOVW, Format.ADIW):
        return (ops[0], ops[0] + 1)
    if fmt is Format.RD:
        return (ops[0],)
    if fmt is Format.IMM8:
        return () if mnemonic == "CPI" else (ops[0],)
    if fmt is Format.LDST_PTR:
        base = PTR_BASE[ops[1]]
        regs = (base, base + 1) if ops[1] != ops[1].strip("+-") else ()
        return regs + ((ops[0],) if mnemonic == "LD" else ())
    if fmt is Format.LPM:
        return (ops[0],) + ((REG_Z, REG_Z + 1) if ops[1] == "Z+" else ())
    if mnemonic in ("LDD", "LDS", "POP", "IN", "BLD"):
        return (ops[0],)
    return ()


#: Branch aliases: mnemonic -> (base mnemonic, SREG bit).
#: ``BRBS s,k`` branches when SREG bit *s* is set, ``BRBC`` when clear.
BRANCH_ALIASES = {
    "BRCS": ("BRBS", FLAG_C), "BRLO": ("BRBS", FLAG_C),
    "BRCC": ("BRBC", FLAG_C), "BRSH": ("BRBC", FLAG_C),
    "BREQ": ("BRBS", FLAG_Z), "BRNE": ("BRBC", FLAG_Z),
    "BRMI": ("BRBS", FLAG_N), "BRPL": ("BRBC", FLAG_N),
    "BRVS": ("BRBS", FLAG_V), "BRVC": ("BRBC", FLAG_V),
    "BRLT": ("BRBS", FLAG_S), "BRGE": ("BRBC", FLAG_S),
    "BRHS": ("BRBS", FLAG_H), "BRHC": ("BRBC", FLAG_H),
    "BRTS": ("BRBS", FLAG_T), "BRTC": ("BRBC", FLAG_T),
    "BRIE": ("BRBS", FLAG_I), "BRID": ("BRBC", FLAG_I),
}

#: SREG set/clear aliases: mnemonic -> (base mnemonic, SREG bit).
SREG_ALIASES = {
    "SEC": ("BSET", FLAG_C), "CLC": ("BCLR", FLAG_C),
    "SEZ": ("BSET", FLAG_Z), "CLZ": ("BCLR", FLAG_Z),
    "SEN": ("BSET", FLAG_N), "CLN": ("BCLR", FLAG_N),
    "SEV": ("BSET", FLAG_V), "CLV": ("BCLR", FLAG_V),
    "SES": ("BSET", FLAG_S), "CLS": ("BCLR", FLAG_S),
    "SEH": ("BSET", FLAG_H), "CLH": ("BCLR", FLAG_H),
    "SET": ("BSET", FLAG_T), "CLT": ("BCLR", FLAG_T),
    "SEI": ("BSET", FLAG_I), "CLI": ("BCLR", FLAG_I),
}

#: Other pseudo-instructions the assembler canonicalizes:
#:   TST Rd -> AND Rd,Rd;  CLR Rd -> EOR Rd,Rd;  LSL Rd -> ADD Rd,Rd;
#:   ROL Rd -> ADC Rd,Rd.
SYNTH_R2 = {"TST": "AND", "CLR": "EOR", "LSL": "ADD", "ROL": "ADC"}


def spec(mnemonic: str) -> OpSpec:
    """Return the :class:`OpSpec` for *mnemonic* (must be canonical)."""
    return OPCODES[mnemonic]
