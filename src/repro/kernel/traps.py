"""Trampoline trap handlers: the kernel runtime's entry points.

Every patched site's ``JMP`` lands here.  Each handler performs the
original instruction's semantics under logical addressing, charges the
Table II cycle cost on top of the instruction's native cost, and
resumes the task (or switches away from it).
"""

from __future__ import annotations

from typing import Tuple

from ..avr import ioports
from ..errors import TaskFault
from ..rewriter.classify import PatchKind
from . import costs
from .termination import TerminationReason
from .translation import AccessClass

#: LD/ST pointer-mode base registers.
_PTR_BASE = {"X": 26, "X+": 26, "-X": 26, "Y": 28, "Y+": 28, "-Y": 28,
             "Z": 30, "Z+": 30, "-Z": 30}

#: SP_READ/SP_WRITE params name the byte; the kernel's SP entries take
#: its data-space address.
_SP_BYTE = {"SPL": ioports.SPL, "SPH": ioports.SPH}

#: Indirect-translation charge per access class.
_INDIRECT_CHARGE = {
    AccessClass.IO: costs.MEM_INDIRECT_IO,
    AccessClass.HEAP: costs.MEM_INDIRECT_HEAP,
    AccessClass.STACK: costs.MEM_INDIRECT_STACK_FRAME,
}


class TrapHandlers:
    """Dispatch table bound to one kernel instance."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._table = {
            PatchKind.MEM_INDIRECT: self.mem_indirect,
            PatchKind.MEM_DIRECT: self.mem_direct,
            PatchKind.STACK_PUSH: self.stack_push,
            PatchKind.STACK_POP: self.stack_pop,
            PatchKind.SP_READ: self.sp_read,
            PatchKind.SP_WRITE: self.sp_write,
            PatchKind.BRANCH_BACKWARD: self.branch_backward,
            PatchKind.CALL_DIRECT: self.call_direct,
            PatchKind.INDIRECT_JUMP: self.indirect_jump,
            PatchKind.INDIRECT_CALL: self.indirect_call,
            PatchKind.PROG_MEM: self.prog_mem,
            PatchKind.SLEEP: self.sleep,
            PatchKind.TASK_EXIT: self.task_exit,
            PatchKind.TIMER3_IO: self.timer3_io,
        }

    # -- dispatch -----------------------------------------------------------------

    def dispatch(self, cpu, site: int, target: int, is_call: bool) -> None:
        kernel = self.kernel
        trampoline = kernel.trampolines.get(target)
        if trampoline is None or site < 0:
            kernel.fault_current(TerminationReason.KERNEL_ESCAPE)
            return
        resume = site + 2
        counts = kernel.stats.trap_counts
        counts[trampoline.kind] = counts.get(trampoline.kind, 0) + 1
        try:
            self._table[trampoline.kind](cpu, trampoline.params, resume)
        except TaskFault as fault:
            kernel.terminate_task(kernel.current, TerminationReason.FAULT,
                                  fault.reason)

    def thunk_factory(self, cpu, site: int, target: int, is_call: bool):
        """Specialized trap thunk for a patched site, or None.

        The CPU resolves patched ``JMP``/``CALL`` sites through this at
        decode time, so the per-trap trampoline lookup, stats update and
        handler-table indexing of :meth:`dispatch` happen once per site
        instead of once per execution.  Unpatched entries (``site < 0``,
        or a target without a trampoline — execution escaping into the
        kernel region) fall back to :meth:`dispatch`.
        """
        if site < 0:
            return None
        trampoline = self.kernel.trampolines.get(target)
        if trampoline is None:
            return None
        kernel = self.kernel
        handler = self._table[trampoline.kind]
        params = trampoline.params
        kind = trampoline.kind
        counts = kernel.stats.trap_counts
        resume = site + 2

        def run():
            counts[kind] = counts.get(kind, 0) + 1
            try:
                handler(cpu, params, resume)
            except TaskFault as fault:
                kernel.terminate_task(kernel.current,
                                      TerminationReason.FAULT,
                                      fault.reason)
        return run

    # -- data memory ---------------------------------------------------------------

    def _translate(self, logical: int) -> Tuple[int, AccessClass]:
        kernel = self.kernel
        region = kernel.region_of_current()
        return kernel.translator.to_physical(region, logical,
                                             kernel.current.task_id)

    def _load(self, logical: int) -> Tuple[int, AccessClass]:
        physical, access = self._translate(logical)
        return self.kernel.cpu.data_read(physical), access

    def _store(self, logical: int, value: int) -> AccessClass:
        physical, access = self._translate(logical)
        self.kernel.cpu.data_write(physical, value)
        return access

    def mem_indirect(self, cpu, params, resume: int) -> None:
        mnemonic, reg, mode, grouped = params
        r = cpu.r
        if mnemonic in ("LD", "ST"):
            base = _PTR_BASE[mode]
            logical = r[base] | (r[base + 1] << 8)
            if mode.startswith("-"):
                logical = (logical - 1) & 0xFFFF
            if mnemonic == "ST":
                access = self._store(logical, r[reg])
            else:
                r[reg], access = self._load(logical)
            if mode.endswith("+"):
                updated = (logical + 1) & 0xFFFF
            elif mode.startswith("-"):
                updated = logical
            else:
                updated = None
            if updated is not None:
                r[base] = updated & 0xFF
                r[base + 1] = updated >> 8
        else:  # LDD / STD
            ptr, displacement = mode
            base = _PTR_BASE[ptr]
            logical = ((r[base] | (r[base + 1] << 8)) + displacement) \
                & 0xFFFF
            if mnemonic == "STD":
                access = self._store(logical, r[reg])
            else:
                r[reg], access = self._load(logical)
        overhead = costs.MEM_GROUPED_FOLLOWER if grouped \
            else _INDIRECT_CHARGE[access]
        self.kernel.charge(2 + overhead)
        cpu.pc = resume

    def mem_direct(self, cpu, params, resume: int) -> None:
        mnemonic, reg, logical = params
        if mnemonic == "STS":
            access = self._store(logical, cpu.r[reg])
        else:
            cpu.r[reg], access = self._load(logical)
        overhead = costs.MEM_DIRECT_IO if access is AccessClass.IO \
            else costs.MEM_DIRECT_OTHER
        self.kernel.charge(2 + overhead)
        cpu.pc = resume

    # -- stack ------------------------------------------------------------------------

    def stack_push(self, cpu, params, resume: int) -> None:
        (reg,) = params
        if not self.kernel.ensure_stack_room(1):
            return  # the push terminated the task; a new one now runs
        cpu.mem.data[cpu.sp] = cpu.r[reg]
        cpu.sp -= 1
        self.kernel.charge(2 + costs.STACK_OP)
        cpu.pc = resume

    def stack_pop(self, cpu, params, resume: int) -> None:
        (reg,) = params
        region = self.kernel.region_of_current()
        if cpu.sp + 1 >= region.p_u:
            raise TaskFault(self.kernel.current.task_id,
                            "POP from an empty stack")
        cpu.sp += 1
        cpu.r[reg] = cpu.mem.data[cpu.sp]
        self.kernel.charge(2 + costs.STACK_OP)
        cpu.pc = resume

    def sp_read(self, cpu, params, resume: int) -> None:
        reg, which = params
        cpu.r[reg] = self.kernel.read_sp(_SP_BYTE[which])
        self.kernel.charge(1 + costs.GET_SP)
        cpu.pc = resume

    def sp_write(self, cpu, params, resume: int) -> None:
        reg, which = params
        self.kernel.write_sp(_SP_BYTE[which], cpu.r[reg])
        self.kernel.charge(1 + costs.SET_SP)
        cpu.pc = resume

    # -- control flow -------------------------------------------------------------------

    def branch_backward(self, cpu, params, resume: int) -> None:
        bit, branch_if_set, nat_target = params
        kernel = self.kernel
        if bit is None:
            taken = True
            native = 2  # RJMP/JMP
        else:
            taken = bool(cpu.sreg & (1 << bit)) == branch_if_set
            native = 2 if taken else 1
        cpu.pc = nat_target if taken else resume
        kernel.charge(native + costs.BRANCH_COUNTER_INLINE)
        task = kernel.current
        task.branch_counter -= 1
        if task.branch_counter <= 0:
            task.branch_counter = kernel.config.branch_trap_period
            kernel.scheduler_tick()

    def call_direct(self, cpu, params, resume: int) -> None:
        (nat_target,) = params
        kernel = self.kernel
        if not kernel.ensure_stack_room(2):
            return  # the call terminated the task; a new one now runs
        cpu.mem.data[cpu.sp] = resume & 0xFF
        cpu.sp -= 1
        cpu.mem.data[cpu.sp] = (resume >> 8) & 0xFF
        cpu.sp -= 1
        cpu.pc = nat_target
        kernel.charge(4 + costs.CALL_TRAMPOLINE)

    def _indirect_target(self, cpu) -> int:
        """Translate the Z register (original address) to naturalized."""
        kernel = self.kernel
        task = kernel.current
        original = cpu.r[30] | (cpu.r[31] << 8)
        natural_program = task.image.natural
        program = natural_program.program
        if not program.origin <= original < \
                program.origin + program.size_words:
            raise TaskFault(task.task_id,
                            f"indirect branch to {original:#06x} outside "
                            f"the task's program")
        return natural_program.shift_table.to_naturalized(original)

    def indirect_jump(self, cpu, params, resume: int) -> None:
        cpu.pc = self._indirect_target(cpu)
        self.kernel.charge(2 + costs.PROG_MEM_TRANSLATION)

    def indirect_call(self, cpu, params, resume: int) -> None:
        kernel = self.kernel
        target = self._indirect_target(cpu)
        if not kernel.ensure_stack_room(2):
            return  # the call terminated the task; a new one now runs
        cpu.mem.data[cpu.sp] = resume & 0xFF
        cpu.sp -= 1
        cpu.mem.data[cpu.sp] = (resume >> 8) & 0xFF
        cpu.sp -= 1
        cpu.pc = target
        kernel.charge(3 + costs.PROG_MEM_TRANSLATION)

    def prog_mem(self, cpu, params, resume: int) -> None:
        reg, mode = params
        kernel = self.kernel
        task = kernel.current
        z = cpu.r[30] | (cpu.r[31] << 8)
        original_word = z >> 1
        natural_program = task.image.natural
        program = natural_program.program
        if not program.origin <= original_word < \
                program.origin + program.size_words:
            raise TaskFault(task.task_id,
                            f"LPM from {z:#06x} outside the task's program")
        natural_word = natural_program.shift_table.to_naturalized(
            original_word)
        byte_address = (natural_word << 1) | (z & 1)
        cpu.r[0 if mode == "LEGACY" else reg] = cpu.flash.byte(byte_address)
        if mode == "Z+":
            z = (z + 1) & 0xFFFF
            cpu.r[30] = z & 0xFF
            cpu.r[31] = z >> 8
        kernel.charge(3 + costs.LPM_TRANSLATION)
        cpu.pc = resume

    # -- CPU control ----------------------------------------------------------------------

    def sleep(self, cpu, params, resume: int) -> None:
        kernel = self.kernel
        kernel.charge(1 + costs.SLEEP_TRAP)
        cpu.pc = resume
        kernel.sleep_current()

    def task_exit(self, cpu, params, resume: int) -> None:
        kernel = self.kernel
        kernel.charge(costs.TASK_EXIT)
        kernel.terminate_task(kernel.current, TerminationReason.EXIT)

    # -- OS-reserved resources -----------------------------------------------------------

    def timer3_io(self, cpu, params, resume: int) -> None:
        mnemonic, operands = params
        kernel = self.kernel
        if mnemonic == "LDS":
            cpu.r[operands[0]] = cpu.data_read(operands[1])
        elif mnemonic == "STS":
            cpu.data_write(operands[1], cpu.r[operands[0]])
        elif mnemonic == "IN":
            cpu.r[operands[0]] = cpu.data_read(
                ioports.io_to_data(operands[1]))
        elif mnemonic == "OUT":
            cpu.data_write(ioports.io_to_data(operands[0]),
                           cpu.r[operands[1]])
        elif mnemonic in ("SBI", "CBI"):
            address = ioports.io_to_data(operands[0])
            mask = 1 << operands[1]
            value = cpu.data_read(address)
            cpu.data_write(address, (value | mask) if mnemonic == "SBI"
                           else (value & ~mask))
        else:
            raise TaskFault(kernel.current.task_id,
                            f"unsupported Timer3 access {mnemonic}")
        kernel.charge(2 + costs.TIMER3_VIRTUAL)
        cpu.pc = resume
