"""Target image: kernel + naturalized programs + trampoline region."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..avr.memory import Flash
from ..rewriter.naturalized import NaturalizedProgram
from ..rewriter.trampoline import Trampoline, TrampolinePool

#: Flash word reserved for interrupt vectors and the kernel's own code.
#: The paper reports the kernel occupying <6% of the 128 KB program
#: memory; we reserve a matching region so application bases are
#: realistic.  (Kernel semantics execute in the host runtime — see
#: DESIGN.md — so the region's content is never fetched.)
KERNEL_CODE_WORDS = 0x0C00  # 6 KB


@dataclass
class TaskImage:
    """Per-task metadata the loader hands to the kernel."""

    name: str
    natural: NaturalizedProgram

    @property
    def base(self) -> int:
        return self.natural.base

    @property
    def entry(self) -> int:
        return self.natural.entry

    @property
    def heap_size(self) -> int:
        return self.natural.heap_size


@dataclass
class TargetImage:
    """Everything the loader burns into a node's flash."""

    tasks: List[TaskImage]
    pool: TrampolinePool
    trap_region: Tuple[int, int]  # [lo, hi) word addresses
    code_start: int = KERNEL_CODE_WORDS
    #: Flash size -> the fingerprint memo that :meth:`burn` hands to
    #: every blank flash of that size.
    _fingerprints: Dict[int, List[Optional[str]]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @property
    def trampolines_by_address(self) -> Dict[int, Trampoline]:
        return self.pool.by_address()

    @property
    def size_words(self) -> int:
        return self.trap_region[1]

    def burn(self, flash: Flash) -> None:
        """Write the image into *flash*.

        The trampoline region is filled with ``BREAK`` words so that a
        stray fetch outside kernel control is caught immediately.  A
        flash that nothing had loaded before ends up holding the same
        words on every burn, so those flashes share one fingerprint
        memo: a fleet of nodes booted from this image hashes 128 KB of
        flash once, not once per node.
        """
        blank = flash.blank
        for task in self.tasks:
            flash.load(task.natural.base, task.natural.words)
        lo, hi = self.trap_region
        flash.load(lo, [0x9598] * (hi - lo))
        if blank:
            flash.share_fingerprint(
                self._fingerprints.setdefault(flash.size_words, [None]))

    def task_for_address(self, address: int) -> TaskImage:
        for task in self.tasks:
            if task.natural.contains(address):
                return task
        raise KeyError(f"no task owns flash address {address:#06x}")
