"""Memory regions: the application area partition.

Each task owns one region ``[p_l, p_u)`` with a fixed-size heap at the
bottom (``[p_l, p_h)``) and a variable-size stack at the top, growing
down from ``p_u`` (paper Figure 2).  Regions partition the application
area contiguously; stack relocation slides them around while preserving
every task's logical contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import KernelError, OutOfMemory
from .config import KernelConfig


@dataclass(frozen=True)
class ReleaseGrant:
    """What the kernel must do after a region release.

    Exactly one of the two fields is set:

    * ``heap_move``: the released region was the lowest; the region
      above absorbed it and its heap bytes must slide down —
      ``(src, dst, length)``.
    * ``stack_grant``: a region below absorbed the space by raising its
      ``p_u``; its live stack must slide up to hang from the new top
      and its SP must shift — ``(task_id, old_p_u, delta)``.

    ``task_id`` names the absorbing task in both cases: its region
    geometry changed, so the kernel must bump its ``region_epoch``.
    """

    heap_move: Optional[Tuple[int, int, int]] = None
    stack_grant: Optional[Tuple[int, int, int]] = None
    task_id: int = -1


@dataclass
class MemoryRegion:
    """One task's physical memory region."""

    task_id: int
    p_l: int  # lower bound (inclusive)
    p_h: int  # upper bound of the heap area (== p_l + heap size)
    p_u: int  # upper bound (exclusive); the stack bottom sits at p_u - 1

    @property
    def size(self) -> int:
        return self.p_u - self.p_l

    @property
    def heap_size(self) -> int:
        return self.p_h - self.p_l

    @property
    def stack_size(self) -> int:
        """Bytes currently assigned to the stack area."""
        return self.p_u - self.p_h

    def shift(self, delta: int) -> None:
        self.p_l += delta
        self.p_h += delta
        self.p_u += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Region task={self.task_id} [{self.p_l:#06x},"
                f"{self.p_h:#06x},{self.p_u:#06x})>")


class RegionTable:
    """Ordered, contiguous partition of the application area."""

    def __init__(self, config: KernelConfig):
        self.config = config
        self.lo = config.app_area.start
        self.hi = config.app_area.stop
        self.regions: List[MemoryRegion] = []  # ascending by address

    # -- allocation -----------------------------------------------------------

    def allocate_initial(self, heap_sizes: List[int],
                         task_ids: List[int]) -> List[MemoryRegion]:
        """Lay out one region per task, dividing free stack space.

        Every task gets its heap plus an initial stack: an equal share
        of the remaining space, or ``initial_stack_size`` bytes when
        ``KernelConfig.divide_stack_equally`` is off.  The last region
        takes whatever is left, so the regions always cover the whole
        application area.  Raises :class:`OutOfMemory` when any task's
        share falls below the configured minimum.
        """
        if len(heap_sizes) != len(task_ids):
            raise KernelError("heap_sizes and task_ids length mismatch")
        total = self.hi - self.lo
        heap_total = sum(heap_sizes)
        count = len(task_ids)
        stack_total = total - heap_total
        if count == 0:
            return []
        if self.config.divide_stack_equally:
            share = stack_total // count
        else:
            share = self.config.initial_stack_size
            if share * count > stack_total:
                raise OutOfMemory(
                    f"{count} tasks need {share * count} stack bytes, "
                    f"only {stack_total} available")
        if share < self.config.min_stack_size:
            raise OutOfMemory(
                f"per-task stack share {share} below minimum "
                f"{self.config.min_stack_size}")
        self.regions = []
        cursor = self.lo
        for index, (task_id, heap) in enumerate(zip(task_ids, heap_sizes)):
            top = cursor + heap + share
            if index == count - 1:
                top = self.hi  # last region absorbs the remainder
            if top > self.hi:
                raise OutOfMemory("initial layout exceeds application area")
            region = MemoryRegion(task_id=task_id, p_l=cursor,
                                  p_h=cursor + heap, p_u=top)
            self.regions.append(region)
            cursor = top
        self.check_invariants()
        return list(self.regions)

    # -- lookup ------------------------------------------------------------------

    def by_task(self, task_id: int) -> MemoryRegion:
        for region in self.regions:
            if region.task_id == task_id:
                return region
        raise KeyError(f"no region for task {task_id}")

    def index_of(self, task_id: int) -> int:
        for index, region in enumerate(self.regions):
            if region.task_id == task_id:
                return index
        raise KeyError(f"no region for task {task_id}")

    def maybe_by_task(self, task_id: int) -> Optional[MemoryRegion]:
        try:
            return self.by_task(task_id)
        except KeyError:
            return None

    # -- termination --------------------------------------------------------------

    def release(self, task_id: int) -> Optional[ReleaseGrant]:
        """Remove a task's region, granting the space to a neighbour.

        Logical stack addresses are anchored to ``p_u``, so whichever
        neighbour absorbs the space needs a physical fix-up: the region
        below must slide its live stack up to the new top (its
        ``p_u - M`` displacement changed), while a region above must
        slide its heap down.  The returned :class:`ReleaseGrant` tells
        the kernel which bytes to move; region bookkeeping is already
        updated when this returns.
        """
        index = self.index_of(task_id)
        region = self.regions.pop(index)
        grant = None
        if self.regions:
            if index > 0:
                below = self.regions[index - 1]
                old_p_u = below.p_u
                below.p_u = region.p_u
                grant = ReleaseGrant(stack_grant=(
                    below.task_id, old_p_u, region.p_u - old_p_u),
                    task_id=below.task_id)
            else:
                above = self.regions[0]
                heap = above.heap_size
                grant = ReleaseGrant(heap_move=(
                    above.p_l, region.p_l, heap), task_id=above.task_id)
                above.p_l = region.p_l
                above.p_h = region.p_l + heap
            self.check_invariants()
        return grant

    # -- invariants ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Regions are ordered, non-overlapping, and tile the app area."""
        if not self.regions:
            return
        if self.regions[0].p_l != self.lo:
            raise KernelError("first region does not start at app base")
        if self.regions[-1].p_u != self.hi:
            raise KernelError("last region does not end at app top")
        for region in self.regions:
            if not (region.p_l <= region.p_h <= region.p_u):
                raise KernelError(f"malformed region {region}")
        for lower, upper in zip(self.regions, self.regions[1:]):
            if lower.p_u != upper.p_l:
                raise KernelError(
                    f"regions not contiguous: {lower} then {upper}")
