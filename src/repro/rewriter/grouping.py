"""Grouped memory-access optimization (paper Section IV-C2).

"In most sensornet applications, 2 or 4 memory access instructions are
often performed together using the same indirect address registers to
fetch or store word or double-word data.  Thus the binary rewriter can
identify the instructions as a grouped memory access and only translate
the address once."

Within a basic block, a run of pointer-indirect accesses through the
same base register — with no intervening write to that register and no
pointer post-increment/pre-decrement crossing a word boundary group —
shares one address translation: the first access (the *leader*) pays the
full translation cost, followers pay a small incremental cost.

The pass returns the set of follower site addresses; the rewriter embeds
the flag in each site's trampoline parameters so the kernel's cost model
can charge accordingly.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..avr.instruction import Instruction
from ..avr.isa import PTR_BASE, written_registers
from .blocks import BasicBlock

#: Maximum accesses sharing one translation (word/double-word data).
MAX_GROUP = 4


def _pointer_base(instruction: Instruction) -> Optional[int]:
    """Base register of a pointer-indirect access, else None."""
    m = instruction.mnemonic
    if m in ("LD", "ST"):
        return PTR_BASE[instruction.operands[1]]
    if m in ("LDD", "STD"):
        return PTR_BASE[instruction.operands[1]]
    return None


def find_grouped_followers(blocks: List[BasicBlock]) -> Set[int]:
    """Site addresses whose translation is shared with a group leader."""
    followers: Set[int] = set()
    for block in blocks:
        active_base: Optional[int] = None
        group_len = 0
        for instruction in block.instructions:
            base = _pointer_base(instruction)
            if base is not None:
                displaced_only = instruction.mnemonic in ("LDD", "STD")
                same_group = (base == active_base and
                              group_len < MAX_GROUP and displaced_only)
                if same_group:
                    followers.add(instruction.address)
                    group_len += 1
                else:
                    active_base = base  # start a new group
                    group_len = 1
            # Any write to the base pair ends the group, the access's own
            # included: a post-inc/pre-dec mode moves the pointer, and a
            # load into the pair replaces it.
            if active_base is not None and \
                    {active_base, active_base + 1}.intersection(
                        written_registers(instruction)):
                active_base = None
                group_len = 0
        # Block boundary always ends the group (handled by loop scope).
    return followers
