"""Logical addressing: the core of SenSmart's memory isolation.

Every task sees a logical memory space as large as physical memory
(paper Section IV-C2).  Valid data accesses fall into three classes —
I/O, heap, stack — and translate as:

* I/O (``addr < RAM_START``): identity-mapped and shared; the reserved
  registers (SP, SREG, Timer3) are virtualized separately.
* heap (``RAM_START <= addr < RAM_START + heap_size``): displaced by
  ``p_l``; checked against ``p_h``.
* stack (everything above the heap): displaced by ``p_u - M``; checked
  to fall in ``[p_h, p_u)``.

Out-of-region accesses are treated as invalid instructions and
terminate the task.
"""

from __future__ import annotations

import enum
from typing import Tuple

from ..errors import TaskFault
from .config import KernelConfig
from .regions import MemoryRegion


class AccessClass(enum.Enum):
    IO = "io"
    HEAP = "heap"
    STACK = "stack"

    #: Keys the per-access charge lookup; see ``PatchKind.__hash__``.
    __hash__ = object.__hash__


class AddressTranslator:
    """Per-node translation logic parameterized by the kernel config."""

    def __init__(self, config: KernelConfig):
        self.config = config
        self.ram_start = config.ram_start
        self.memory_size = config.memory_size

    def to_physical(self, region: MemoryRegion, logical: int,
                    task_id: int) -> Tuple[int, AccessClass]:
        """Translate a logical data address; raises TaskFault when the
        access leaves the task's region."""
        if logical < 0 or logical >= self.memory_size:
            raise TaskFault(task_id,
                            f"logical address {logical:#06x} out of space")
        if logical < self.ram_start:
            return logical, AccessClass.IO
        if logical < self.ram_start + region.heap_size:
            physical = region.p_l + (logical - self.ram_start)
            if not region.p_l <= physical < region.p_h:
                raise TaskFault(
                    task_id, f"heap access {logical:#06x} beyond heap")
            return physical, AccessClass.HEAP
        physical = logical + (region.p_u - self.memory_size)
        if not region.p_h <= physical < region.p_u:
            raise TaskFault(
                task_id,
                f"stack access {logical:#06x} outside region "
                f"(physical {physical:#06x})")
        return physical, AccessClass.STACK

    def to_logical(self, region: MemoryRegion, physical: int,
                   task_id: int) -> int:
        """Inverse translation (used for SP reads and diagnostics)."""
        if physical < self.ram_start:
            return physical
        if region.p_l <= physical < region.p_h:
            return self.ram_start + (physical - region.p_l)
        if region.p_h <= physical <= region.p_u:
            # p_u itself maps to M: the logical SP of an empty stack is
            # RAM_END, i.e. physical p_u - 1.
            return physical - (region.p_u - self.memory_size)
        raise TaskFault(task_id,
                        f"physical address {physical:#06x} not owned")

    # -- stack-pointer views --------------------------------------------------

    def sp_to_logical(self, region: MemoryRegion, physical_sp: int) -> int:
        """The logical SP the application observes via IN SPL/SPH."""
        return physical_sp - (region.p_u - self.memory_size)

    def sp_to_physical(self, region: MemoryRegion, logical_sp: int) -> int:
        return logical_sp + (region.p_u - self.memory_size)

    def initial_sp(self, region: MemoryRegion) -> int:
        """Physical SP of a fresh task: empty stack at the region top."""
        return region.p_u - 1
