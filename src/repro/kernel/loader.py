"""Dynamic task loading — reprogramming as an OS service.

The paper's Section III-A notes that while *application* code never
modifies itself, "reprogramming can be performed as an OS service".
This module provides that service for the simulated node: a new
application can be compiled, naturalized and installed while the node
runs, and existing tasks' memory regions are compacted to make room —
transparently, thanks to logical addressing.

Flash placement appends the new naturalized program and its trampoline
region after the existing image (internal self-programming time is
charged per page).  RAM placement computes each resident task's true
need (heap + live stack + margin), redistributes the remaining free
space evenly, and physically re-packs the regions — the same move
machinery stack relocation uses, exercised wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import (AssemblerError, EncodingError, LinkError, LoadError,
                      OutOfMemory, RewriteError)
from ..pipeline.stages import naturalize_at
from ..rewriter.rewriter import Rewriter
from ..rewriter.trampoline import TrampolinePool
from ..toolchain.image import TaskImage
from . import costs
from .regions import MemoryRegion
from .task import Task, TaskState
from .termination import TerminationReason

#: Internal flash self-programming: ~4.5 ms per 128-word page at
#: 7.3728 MHz (SPM erase + program).
SPM_PAGE_WORDS = 128
SPM_PAGE_CYCLES = 33_000

#: Bytes of live stack headroom each resident task keeps through a
#: compaction.
COMPACTION_MARGIN = 16


@dataclass
class LoadReport:
    """What installing a task cost."""

    task: Task
    flash_words: int
    flash_cycles: int
    ram_bytes_moved: int
    ram_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.flash_cycles + self.ram_cycles


class DynamicLoader:
    """Installs and removes tasks on a live kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        # First free flash word after the linked image.
        self.flash_cursor = kernel.image.trap_region[1]
        self.rewriter = Rewriter()

    # -- public API -------------------------------------------------------------

    def load(self, name: str, source: str,
             min_stack: Optional[int] = None) -> LoadReport:
        """Compile, naturalize, burn and start *source* as a new task.

        A malformed or truncated *source*, or one that does not fit in
        the flash left, raises :class:`LoadError`, and one whose RAM
        need the resident tasks leave no room for raises
        :class:`~repro.errors.OutOfMemory` — both *before* anything is
        installed: the validation pass is charged (a real bootloader
        walks the whole transfer before deciding), but flash,
        trampolines, the trap-region list and the region map are
        untouched — every running task continues bit-identically.
        """
        kernel = self.kernel
        natural, pool, trap_lo, trap_hi = self._place_flash(name, source)
        flash_words = trap_hi - self.flash_cursor
        flash_pages = -(-flash_words // SPM_PAGE_WORDS)
        flash_cycles = flash_pages * SPM_PAGE_CYCLES

        task_id = max(kernel.tasks, default=-1) + 1
        stack_need = min_stack if min_stack is not None \
            else kernel.config.min_stack_size
        try:
            moved = self._make_room(task_id, natural.heap_size,
                                    stack_need)
        except OutOfMemory:
            self._charge_validation(source)
            raise
        self._burn_flash(natural, pool, trap_lo, trap_hi)
        region = kernel.regions.by_task(task_id)

        task = Task(task_id=task_id,
                    image=TaskImage(name=name, natural=natural))
        task.context.pc = natural.entry
        task.context.sp = kernel.translator.initial_sp(region)
        task.branch_counter = kernel.config.branch_trap_period
        kernel.tasks[task_id] = task
        kernel.scheduler.enqueue(task)
        # Loading onto an idle node must revive the scheduler — both
        # the halted case (every prior task exited) and the parked case
        # (all tasks blocked, CPU left "sleeping" between runs; without
        # the unpark the fresh task would sit READY under a sleeping
        # CPU until some timer fired).
        if kernel._parked:
            kernel._unpark()
        elif kernel.current is None:
            kernel.cpu.halted = False
            if kernel._booted:
                kernel._dispatch_next()

        ram_cycles = costs.STACK_RELOCATION + \
            costs.RELOCATION_PER_BYTE * moved
        kernel.charge(flash_cycles + ram_cycles)
        return LoadReport(task=task, flash_words=flash_words,
                          flash_cycles=flash_cycles,
                          ram_bytes_moved=moved, ram_cycles=ram_cycles)

    def unload(self, name: str) -> None:
        """Terminate and reclaim a task by name (flash is not GC'd)."""
        kernel = self.kernel
        for task in kernel.tasks.values():
            if task.name == name and task.alive:
                kernel.terminate_task(task, TerminationReason.UNLOADED)
                return
        raise KeyError(f"no live task named {name!r}")

    # -- flash installation --------------------------------------------------------

    def _charge_validation(self, source: str) -> None:
        self.kernel.charge(costs.LOAD_VALIDATE_BASE
                           + costs.LOAD_VALIDATE_PER_BYTE * len(source))

    def _place_flash(self, name: str, source: str):
        """Compile and naturalize *source* at the flash cursor and place
        its trampolines: ``(natural, pool, trap_lo, trap_hi)``.  Touches
        no node state; a refusal is charged and raised as
        :class:`LoadError`."""
        base = self.flash_cursor
        pool = TrampolinePool()
        cpu = self.kernel.cpu
        # Through the pipeline's work functions, so the process-wide
        # stage counters account for dynamic loads exactly like linked
        # images (a warm serve path must show zero of either).
        try:
            natural = naturalize_at(name, source, base, pool,
                                    self.rewriter)
            trap_lo = base + natural.size_words
            trap_hi = pool.place(trap_lo)
            if trap_hi > cpu.flash.size_words:
                raise LinkError(f"does not fit in flash: needs words "
                                f"{base}-{trap_hi - 1} of "
                                f"{cpu.flash.size_words}")
        except (AssemblerError, EncodingError, LinkError,
                RewriteError) as error:
            self._charge_validation(source)
            raise LoadError(name, str(error)) from error
        natural.resolve(pool)
        return natural, pool, trap_lo, trap_hi

    def _burn_flash(self, natural, pool, trap_lo: int,
                    trap_hi: int) -> None:
        """Burn a placed program and its trap region, and register its
        trampolines."""
        kernel = self.kernel
        cpu = kernel.cpu
        cpu.flash.load(self.flash_cursor, natural.words)
        cpu.flash.load(trap_lo, [0x9598] * (trap_hi - trap_lo))
        kernel.trampolines.update(pool.by_address())
        cpu.add_trap_region(trap_lo, trap_hi)
        self.flash_cursor = trap_hi

    # -- RAM compaction ---------------------------------------------------------------

    def _make_room(self, task_id: int, heap_size: int,
                   stack_need: int) -> int:
        """Re-pack regions and append one for the new task.

        Returns bytes physically moved.  Raises OutOfMemory when the
        resident tasks' live needs leave no room, before it moves or
        registers anything.
        """
        kernel = self.kernel
        table = kernel.regions
        regions = table.regions
        config = kernel.config

        needs: List[int] = []
        snapshots = []
        for region in regions:
            sp = kernel._sp_of(region.task_id)
            used_stack = region.p_u - (sp + 1)
            keep_stack = used_stack + COMPACTION_MARGIN
            needs.append(region.heap_size + keep_stack)
            memory = kernel.cpu.mem
            snapshots.append((
                region.task_id,
                region.heap_size,
                bytes(memory.data[region.p_l:region.p_h]),
                bytes(memory.data[sp + 1:region.p_u]),
            ))
        new_need = heap_size + max(stack_need, config.min_stack_size)
        total = table.hi - table.lo
        free = total - sum(needs) - new_need
        if free < 0:
            raise OutOfMemory(
                f"loading needs {new_need} bytes; resident tasks hold "
                f"{sum(needs)} of {total}")
        share = free // (len(regions) + 1)

        moved = 0
        cursor = table.lo
        new_regions: List[MemoryRegion] = []
        for (tid, heap, heap_bytes, stack_bytes), need in \
                zip(snapshots, needs):
            size = need + share
            region = MemoryRegion(task_id=tid, p_l=cursor,
                                  p_h=cursor + heap, p_u=cursor + size)
            memory = kernel.cpu.mem
            memory.data[region.p_l:region.p_h] = heap_bytes
            memory.data[region.p_u - len(stack_bytes):region.p_u] = \
                stack_bytes
            moved += len(heap_bytes) + len(stack_bytes)
            new_sp = region.p_u - 1 - len(stack_bytes)
            self._set_sp(tid, new_sp)
            new_regions.append(region)
            cursor = region.p_u
        # The new task takes everything that remains (the rounding
        # remainder folds into its stack).
        new_region = MemoryRegion(task_id=task_id, p_l=cursor,
                                  p_h=cursor + heap_size, p_u=table.hi)
        new_regions.append(new_region)
        table.regions = new_regions
        table.check_invariants()
        # Every resident region's geometry just changed: retire any trap
        # code specialized against the old constants.
        for region in new_regions:
            kernel._on_region_change(region.task_id)
        return moved

    def _set_sp(self, task_id: int, physical_sp: int) -> None:
        kernel = self.kernel
        if kernel.current is not None and \
                kernel.current.task_id == task_id:
            kernel.cpu.sp = physical_sp
        else:
            kernel.tasks[task_id].context.sp = physical_sp
