"""Instruction classification: what must be patched, and why.

Implements the paper's Section IV-A taxonomy:

* instructions affecting CPU control flow (backward branches so the OS
  "frequently takes over CPU", plus ``SLEEP``-style CPU control);
* direct and indirect memory accesses and stack-pointer operations,
  patched to cooperate with memory management;
* accesses to OS-reserved resources (the Timer3 register block).

``RET``/``RETI`` execute natively: they only shrink the stack and their
popped return addresses are already naturalized program addresses pushed
by (patched) calls.  ``IN``/``OUT`` to ordinary I/O registers likewise
run natively — the I/O area is identity-mapped and shared (Figure 2).
"""

from __future__ import annotations

import enum
from typing import Optional

from ..avr import ioports
from ..avr.instruction import Instruction
from ..avr.isa import IO_SPL, IO_SPH
from ..errors import RewriteError

#: Extended-addressing instructions (EIND/RAMPZ-relative control flow and
#: program-memory reads beyond 128 KB).  The shift-table translation and
#: the trampoline families only model 16-bit program addresses, so these
#: must never slip through as silently-native instructions — the rewriter
#: rejects the program instead.
UNSUPPORTED_EXTENDED = frozenset({"EIJMP", "EICALL", "ELPM"})


class PatchKind(enum.Enum):
    """Why a site is patched; selects the trampoline family."""

    NONE = "none"
    MEM_INDIRECT = "mem-indirect"     # LD/ST/LDD/STD via pointer register
    MEM_DIRECT = "mem-direct"         # LDS/STS with a static address
    STACK_PUSH = "stack-push"         # PUSH
    STACK_POP = "stack-pop"           # POP
    SP_READ = "sp-read"               # IN Rd, SPL/SPH
    SP_WRITE = "sp-write"             # OUT SPL/SPH, Rr
    BRANCH_BACKWARD = "branch-back"   # backward RJMP/JMP/BRxx
    CALL_DIRECT = "call-direct"       # CALL/RCALL (stack check + push)
    INDIRECT_JUMP = "indirect-jump"   # IJMP (shift-table lookup)
    INDIRECT_CALL = "indirect-call"   # ICALL
    PROG_MEM = "prog-mem"             # LPM (program-memory data access)
    SLEEP = "sleep"                   # SLEEP (yield to kernel)
    TASK_EXIT = "task-exit"           # BREAK (terminate task)
    TIMER3_IO = "timer3-io"           # access to the reserved Timer3 block

    #: Members key the per-kind trap counts every trap updates, and
    #: ``Enum.__hash__`` is a Python-level call.  Members are singletons
    #: compared by identity, so the C identity hash keys them the same.
    __hash__ = object.__hash__


def _static_data_address(instruction: Instruction) -> Optional[int]:
    """Data-space address accessed, when statically known."""
    m = instruction.mnemonic
    if m in ("LDS", "STS"):
        return instruction.operands[1]
    if m == "IN":
        return ioports.io_to_data(instruction.operands[1])
    if m == "OUT":
        return ioports.io_to_data(instruction.operands[0])
    if m in ("SBI", "CBI", "SBIC", "SBIS"):
        return ioports.io_to_data(instruction.operands[0])
    return None


def classify(instruction: Instruction) -> PatchKind:
    """Return the patch kind for *instruction* (NONE if it runs natively).

    Raises :class:`~repro.errors.RewriteError` for instructions the
    trampoline families cannot represent soundly (extended-indirect
    addressing, or a conditional *skip* over an OS-reserved register —
    a skip's two resume points do not fit a single-``JMP`` patch).
    """
    m = instruction.mnemonic

    if m in UNSUPPORTED_EXTENDED:
        raise RewriteError(
            f"unsupported extended-indirect instruction {m} at "
            f"{instruction.address:#06x}: EIND/RAMPZ addressing is not "
            f"modeled by the shift-table translation")

    # OS-reserved resource accesses take precedence over other rules.
    static_address = _static_data_address(instruction)
    if static_address is not None and \
            static_address in ioports.TIMER3_ADDRESSES:
        if m in ("SBIC", "SBIS"):
            raise RewriteError(
                f"cannot patch skip instruction {m} over reserved Timer3 "
                f"register {static_address:#06x} at "
                f"{instruction.address:#06x}: a skip has two resume "
                f"points and no sound single-JMP trampoline")
        return PatchKind.TIMER3_IO

    if m in ("LD", "ST", "LDD", "STD"):
        return PatchKind.MEM_INDIRECT
    if m in ("LDS", "STS"):
        return PatchKind.MEM_DIRECT
    if m == "PUSH":
        return PatchKind.STACK_PUSH
    if m == "POP":
        return PatchKind.STACK_POP
    if m == "IN" and instruction.operands[1] in (IO_SPL, IO_SPH):
        return PatchKind.SP_READ
    if m == "OUT" and instruction.operands[0] in (IO_SPL, IO_SPH):
        return PatchKind.SP_WRITE
    if m in ("CALL", "RCALL"):
        return PatchKind.CALL_DIRECT
    if m == "IJMP":
        return PatchKind.INDIRECT_JUMP
    if m == "ICALL":
        return PatchKind.INDIRECT_CALL
    if m == "LPM":
        return PatchKind.PROG_MEM
    if m == "SLEEP":
        return PatchKind.SLEEP
    if m == "BREAK":
        return PatchKind.TASK_EXIT
    if m in ("RJMP", "JMP", "BRBS", "BRBC") and \
            instruction.is_backward_branch():
        return PatchKind.BRANCH_BACKWARD
    return PatchKind.NONE
