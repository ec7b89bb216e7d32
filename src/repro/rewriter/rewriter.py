"""The binary rewriter: compiled program -> naturalized program.

Implements the base-station half of SenSmart (paper Section IV-A):

1. classify every instruction (:mod:`.classify`);
2. compute the naturalized layout — each patched 16-bit instruction
   inflates to a 32-bit ``JMP``, recorded in the shift table;
3. fix up every un-patched direct branch for the shifted layout;
4. replace each patched site with a ``JMP`` into a (merged) trampoline.

The rewriting preserves the paper's *approximate linearity*: instruction
count in the body is unchanged, and original addresses map to
naturalized ones through the shift table alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set, Tuple

from ..avr.encoding import encode
from ..avr.instruction import DataWord, Instruction
from ..avr.isa import Format
from ..errors import RewriteError

if TYPE_CHECKING:  # avoid a circular import with the toolchain package
    from ..toolchain.program import Program
from .blocks import build_blocks
from .classify import PatchKind, classify
from .grouping import find_grouped_followers
from .naturalized import NaturalizedProgram, Site
from .shift_table import ShiftTable
from .trampoline import TrampolinePool


class Rewriter:
    """Configurable binary rewriter.

    *enable_grouping* toggles the grouped-memory-access optimization
    (Section IV-C2); disabling it is used by the ablation benchmarks.
    *classify_fn* overrides which sites get patched — the t-kernel
    baseline uses a lighter classification (writes only, asymmetric
    protection) through the same machinery.
    """

    def __init__(self, enable_grouping: bool = True, classify_fn=None):
        self.enable_grouping = enable_grouping
        self.classify = classify_fn if classify_fn is not None else classify

    # -- sizing (used by the linker before bases are known) ------------------

    def measure_words(self, program: "Program") -> int:
        """Naturalized body size in words (classification is
        placement-independent)."""
        total = 0
        for item in program.items:
            if isinstance(item, Instruction) and \
                    self.classify(item) is not PatchKind.NONE:
                total += 2
            else:
                total += item.words
        return total

    # -- the rewrite proper ----------------------------------------------------

    def rewrite(self, program: "Program",
                pool: TrampolinePool) -> NaturalizedProgram:
        """Naturalize *program* (compiled at its final base) into *pool*.

        The returned program still has unresolved trampoline ``JMP``
        targets; call :meth:`NaturalizedProgram.resolve` after the pool
        has been placed.
        """
        base = program.origin
        grouped = self._grouped_sites(program)
        mapping, shift_table = self._layout(program, base)

        natural = NaturalizedProgram(
            name=program.name, base=base, program=program,
            shift_table=shift_table)
        stats = natural.stats
        stats.native_bytes = program.size_bytes
        trampoline_bytes_before = pool.size_bytes
        pool_indices_before = pool.count

        for item in program.items:
            nat_address = mapping[item.address]
            if isinstance(item, DataWord):
                natural.items.append(DataWord(item.value, nat_address))
                natural.words.append(item.value & 0xFFFF)
                continue
            kind = self.classify(item)
            if kind is PatchKind.NONE:
                fixed = self._fixup(item, nat_address, mapping)
                natural.items.append(fixed)
                natural.words.extend(encode(fixed))
                continue
            params = self._params(item, kind, mapping,
                                  grouped=item.address in grouped)
            pool_index = pool.request(kind, params)
            site = Site(address=nat_address, kind=kind,
                        pool_index=pool_index, original=item, params=params)
            natural.sites[nat_address] = site
            placeholder = Instruction("JMP", (0,), nat_address)
            natural.items.append(placeholder)
            word_offset = nat_address - base
            natural.unresolved.append((word_offset, pool_index))
            natural.words.extend(encode(placeholder))
            stats.patched_sites += 1
            if item.address in grouped:
                stats.grouped_sites += 1

        stats.rewritten_bytes = 2 * len(natural.words)
        stats.shift_table_bytes = shift_table.size_bytes
        stats.trampoline_bytes = pool.size_bytes - trampoline_bytes_before
        if pool.count == pool_indices_before and stats.patched_sites:
            stats.trampoline_bytes = 0  # everything merged with earlier work
        return natural

    # -- helpers ---------------------------------------------------------------

    def _grouped_sites(self, program: "Program") -> Set[int]:
        if not self.enable_grouping:
            return set()
        return find_grouped_followers(build_blocks(program.items))

    def _layout(self, program: "Program",
                base: int) -> Tuple[Dict[int, int], ShiftTable]:
        """Original address -> naturalized address, plus the shift table."""
        mapping: Dict[int, int] = {}
        shift_table = ShiftTable(base=base)
        cursor = base
        for item in program.items:
            mapping[item.address] = cursor
            if isinstance(item, Instruction) and \
                    self.classify(item) is not PatchKind.NONE:
                if item.words == 1:
                    shift_table.add(item.address)
                cursor += 2
            else:
                cursor += item.words
        return mapping, shift_table

    @staticmethod
    def _fixup(item: Instruction, nat_address: int,
               mapping: Dict[int, int]) -> Instruction:
        """Re-target an unpatched direct branch for the shifted layout."""
        fmt = item.opspec.fmt
        if fmt in (Format.REL12, Format.BRANCH):
            target = item.branch_target()
            nat_target = mapping.get(target)
            if nat_target is None:
                raise RewriteError(
                    f"{item} targets {target:#06x}, outside the program")
            words = item.words
            offset = nat_target - (nat_address + words)
            bits = 12 if fmt is Format.REL12 else 7
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            if not lo <= offset <= hi:
                raise RewriteError(
                    f"inflation pushed branch at {item.address:#06x} out of "
                    f"range (offset {offset}); restructure the code")
            if fmt is Format.REL12:
                return Instruction(item.mnemonic, (offset,), nat_address)
            return Instruction(item.mnemonic, (item.operands[0], offset),
                               nat_address)
        if fmt is Format.JMPCALL:
            target = item.operands[0]
            nat_target = mapping.get(target)
            if nat_target is None:
                raise RewriteError(
                    f"{item} targets {target:#06x}, outside the program")
            return Instruction(item.mnemonic, (nat_target,), nat_address)
        return Instruction(item.mnemonic, item.operands, nat_address)

    @staticmethod
    def _params(item: Instruction, kind: PatchKind,
                mapping: Dict[int, int], grouped: bool) -> Tuple:
        """Build the trampoline parameter tuple for a patched site."""
        m, ops = item.mnemonic, item.operands
        if kind is PatchKind.MEM_INDIRECT:
            if m in ("LD", "ST"):
                return (m, ops[0], ops[1], grouped)
            return (m, ops[0], (ops[1], ops[2]), grouped)
        if kind is PatchKind.MEM_DIRECT:
            return (m, ops[0], ops[1])
        if kind in (PatchKind.STACK_PUSH, PatchKind.STACK_POP):
            return (ops[0],)
        if kind is PatchKind.SP_READ:
            return (ops[0], "SPL" if ops[1] == 0x3D else "SPH")
        if kind is PatchKind.SP_WRITE:
            return (ops[1], "SPL" if ops[0] == 0x3D else "SPH")
        if kind is PatchKind.BRANCH_BACKWARD:
            nat_target = mapping[item.branch_target()]
            if m in ("RJMP", "JMP"):
                return (None, None, nat_target)
            branch_if_set = m == "BRBS"
            return (ops[0], branch_if_set, nat_target)
        if kind is PatchKind.CALL_DIRECT:
            nat_target = mapping.get(item.branch_target())
            if nat_target is None:
                raise RewriteError(
                    f"{item} calls outside the program; inter-program "
                    f"calls are not allowed under memory isolation")
            return (nat_target,)
        if kind in (PatchKind.INDIRECT_JUMP, PatchKind.INDIRECT_CALL,
                    PatchKind.SLEEP, PatchKind.TASK_EXIT):
            return ()
        if kind is PatchKind.PROG_MEM:
            return (ops[0], ops[1])
        if kind is PatchKind.TIMER3_IO:
            return (m, ops)
        raise RewriteError(f"unhandled patch kind {kind}")
