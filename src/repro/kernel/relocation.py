"""Stack relocation: the versatile-stack mechanism (paper Section IV-C3).

When a stack check detects impending overflow, the kernel enumerates all
tasks, picks the one with the most surplus stack space, takes **half**
of that surplus, and slides the memory regions between donor and needy
so the needy task's stack area grows.  Tasks only ever use logical
addresses, so the moves are invisible to them.

The geometry (regions ascend in address; each region's heap sits at its
bottom and its stack hangs from its top):

* donor **above** needy: the donor's heap slides up by ``delta``, every
  region in between slides up wholly, and the needy task's used stack
  bytes slide up to the new region top.
* donor **below** needy: mirror image — the donor's used stack slides
  down, regions in between slide down, the needy task's heap slides
  down, and the needy stack area grows at its bottom (no stack bytes
  move).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..avr.memory import DataMemory
from . import costs
from .config import KernelConfig
from .regions import MemoryRegion, RegionTable


@dataclass
class RelocationResult:
    """Outcome of one relocation attempt."""

    moved: bool
    donor_task: int = -1
    delta: int = 0
    bytes_moved: int = 0
    cycles: int = 0


class StackRelocator:
    """Implements donor selection and the physical region slides."""

    def __init__(self, config: KernelConfig, memory: DataMemory,
                 regions: RegionTable,
                 sp_of: Callable[[int], int]):
        """*sp_of(task_id)* returns a task's current physical SP."""
        self.config = config
        self.memory = memory
        self.regions = regions
        self.sp_of = sp_of
        self.relocation_count = 0

    # -- surplus computation ----------------------------------------------------

    def surplus(self, region: MemoryRegion) -> int:
        """Free stack bytes a region could give away.

        The used stack occupies ``(sp, p_u)``; bytes in ``[p_h, sp]``
        are free.  A donor must keep ``min_donor_surplus`` for itself.
        """
        sp = self.sp_of(region.task_id)
        free = sp + 1 - region.p_h
        return free - self.config.min_donor_surplus

    def pick_donor(self, needy_task: int) -> Optional[MemoryRegion]:
        best: Optional[MemoryRegion] = None
        best_surplus = 0
        for region in self.regions.regions:
            if region.task_id == needy_task:
                continue
            value = self.surplus(region)
            if value > best_surplus:
                best, best_surplus = region, value
        return best

    # -- the relocation ------------------------------------------------------------

    def grow_stack(self, needy_task: int, needed: int) -> RelocationResult:
        """Try to give *needy_task* at least *needed* more stack bytes.

        Returns a result with ``moved=False`` when no donor has enough
        surplus — the caller then terminates a task (paper Section V-D).
        """
        donor_region = self.pick_donor(needy_task)
        if donor_region is None:
            return RelocationResult(moved=False)
        donor_surplus = self.surplus(donor_region)
        if donor_surplus < needed:
            return RelocationResult(moved=False)
        # "provides half of its available stack space" — but never less
        # than the requester actually needs.
        delta = min(donor_surplus, max(needed, donor_surplus // 2))

        needy_index = self.regions.index_of(needy_task)
        donor_index = self.regions.index_of(donor_region.task_id)
        if donor_index > needy_index:
            bytes_moved = self._slide_up(needy_index, donor_index, delta)
        else:
            bytes_moved = self._slide_down(needy_index, donor_index, delta)
        self.regions.check_invariants()
        self.relocation_count += 1
        cycles = costs.STACK_RELOCATION + \
            costs.RELOCATION_PER_BYTE * bytes_moved
        return RelocationResult(moved=True,
                                donor_task=donor_region.task_id,
                                delta=delta, bytes_moved=bytes_moved,
                                cycles=cycles)

    def _slide_up(self, needy_index: int, donor_index: int,
                  delta: int) -> int:
        """Donor above needy: intervening blocks move up by delta."""
        regions = self.regions.regions
        donor = regions[donor_index]
        needy = regions[needy_index]
        moved = 0

        # 1. Donor's heap slides up into its own free stack space.
        moved += self._move(donor.p_l, donor.p_l + delta, donor.heap_size)
        donor.p_l += delta
        donor.p_h += delta
        self.on_region_change(donor.task_id)

        # 2. Whole regions between donor and needy slide up (top first);
        #    their stacks move with them, so their SPs shift too.
        for index in range(donor_index - 1, needy_index, -1):
            region = regions[index]
            moved += self._move(region.p_l, region.p_l + delta, region.size)
            region.shift(delta)
            self._adjust_sp(region.task_id, delta)
            self.on_region_change(region.task_id)

        # 3. Needy's used stack slides up to hang from the new top.
        sp = self.sp_of(needy.task_id)
        used = needy.p_u - (sp + 1)
        moved += self._move(sp + 1, sp + 1 + delta, used)
        needy.p_u += delta
        self._adjust_sp(needy.task_id, delta)
        self.on_region_change(needy.task_id)
        return moved

    def _slide_down(self, needy_index: int, donor_index: int,
                    delta: int) -> int:
        """Donor below needy: intervening blocks move down by delta."""
        regions = self.regions.regions
        donor = regions[donor_index]
        needy = regions[needy_index]
        moved = 0

        # 1. Donor's used stack slides down onto its free space.
        sp = self.sp_of(donor.task_id)
        used = donor.p_u - (sp + 1)
        moved += self._move(sp + 1, sp + 1 - delta, used)
        donor.p_u -= delta
        self._adjust_sp(donor.task_id, -delta)
        self.on_region_change(donor.task_id)

        # 2. Whole regions between donor and needy slide down
        #    (bottom first); their SPs shift with them.
        for index in range(donor_index + 1, needy_index):
            region = regions[index]
            moved += self._move(region.p_l, region.p_l - delta, region.size)
            region.shift(-delta)
            self._adjust_sp(region.task_id, -delta)
            self.on_region_change(region.task_id)

        # 3. Needy's heap slides down; its stack area grows at the
        #    bottom (stack bytes stay put, SP unchanged).
        moved += self._move(needy.p_l, needy.p_l - delta, needy.heap_size)
        needy.p_l -= delta
        needy.p_h -= delta
        self.on_region_change(needy.task_id)
        return moved

    def _move(self, src: int, dst: int, length: int) -> int:
        if length > 0 and src != dst:
            self.memory.move_block(src, dst, length)
        return max(length, 0)

    def _adjust_sp(self, task_id: int, delta: int) -> None:
        """Inform the kernel that a task's physical SP moved."""
        # Implemented by the kernel via callback injection.
        self.on_sp_adjust(task_id, delta)

    #: Hook the kernel sets: ``on_sp_adjust(task_id, delta)``.
    on_sp_adjust: Callable[[int, int], None] = staticmethod(
        lambda task_id, delta: None)

    #: Hook the kernel sets: ``on_region_change(task_id)``, called once
    #: per region whose geometry (p_l/p_h/p_u) a slide changed.  The
    #: kernel bumps the task's ``region_epoch`` so trap code specialized
    #: against the old constants deoptimizes.
    on_region_change: Callable[[int], None] = staticmethod(
        lambda task_id: None)
