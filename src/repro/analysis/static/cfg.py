"""Control-flow and call-graph construction over decoded programs.

Builds on the rewriter's basic blocks (:mod:`repro.rewriter.blocks`) but
adds the edges the rewriter never needed: branch targets, fall-throughs,
skip shadows, call edges, and a one-pass, heuristic resolution of
indirect control flow.  ``IJMP``/``ICALL`` targets are resolved from

1. a block-local ``LDI r30/r31`` constant pair reaching the site (no
   instruction between it and the site writes Z, by
   :func:`~repro.avr.isa.written_registers`), else
2. the program-wide *address pool*: every ``LDI`` lo8/hi8 pair loading
   the Z registers anywhere, plus every ``.dw`` data word whose value is
   an instruction address (function-pointer tables), else
3. every label in the symbol list (the site is then reported in
   :attr:`ControlFlowGraph.unresolved_indirect`).

The pool assumes that indirect targets are ``LDI``-loaded Z constants
or ``.dw`` words: arithmetic on Z (a computed jump into the middle of a
routine) is outside the model, and its real target may be missing from
the candidate set.

The pool / label fallbacks additionally drop *data-only* labels —
``.dw`` table entries never named by direct control flow — at sites
that cannot be reading a table (no ``LPM`` in their block): those
entries are already consumed as function-pointer tables by the
dispatch sites proper, and keeping them everywhere only inflates the
candidate sets (and with them the worst-case stack bounds).

The same builder works on a naturalized program's item list: patched
sites are 32-bit ``JMP``\\ s whose trampoline targets fall outside the
body and are recorded as *external* edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...avr.instruction import DataWord, Instruction
from ...avr.isa import Kind, written_registers
from ...rewriter.blocks import BasicBlock, build_blocks

@dataclass
class CfgNode:
    """One basic block plus its outgoing edges."""

    block: BasicBlock
    successors: Tuple[int, ...] = ()      # start addresses of successors
    calls: Tuple[Tuple[int, int], ...] = ()  # (call-site address, callee)
    external: Tuple[int, ...] = ()        # targets outside the item list
    indirect_site: Optional[int] = None   # IJMP/ICALL address, if any

    @property
    def start(self) -> int:
        return self.block.start


@dataclass
class ControlFlowGraph:
    """CFG + call edges for one program's item list."""

    entry: int
    nodes: Dict[int, CfgNode] = field(default_factory=dict)
    labels: Dict[str, int] = field(default_factory=dict)
    #: IJMP/ICALL sites whose targets fell back to the all-labels set.
    unresolved_indirect: List[int] = field(default_factory=list)

    @property
    def instructions(self) -> Dict[int, Instruction]:
        table: Dict[int, Instruction] = {}
        for node in self.nodes.values():
            for instruction in node.block.instructions:
                table[instruction.address] = instruction
        return table

    def node_containing(self, address: int) -> Optional[CfgNode]:
        for node in self.nodes.values():
            if node.block.start <= address < node.block.end:
                return node
        return None

    def function_entries(self) -> Set[int]:
        """The program entry plus every (direct or resolved indirect)
        call target."""
        entries = {self.entry}
        for node in self.nodes.values():
            entries.update(callee for _, callee in node.calls)
        return entries


def _split_blocks(blocks: List[BasicBlock],
                  extra_leaders: Set[int]) -> List[BasicBlock]:
    """Split blocks at *extra_leaders* (skip-shadow targets are leaders
    for CFG purposes even though the rewriter's grouping pass does not
    need the cut)."""
    result: List[BasicBlock] = []
    for block in blocks:
        current = BasicBlock(start=block.start)
        result.append(current)
        for instruction in block.instructions:
            if instruction.address in extra_leaders and \
                    current.instructions:
                current = BasicBlock(start=instruction.address)
                result.append(current)
            current.instructions.append(instruction)
    return [block for block in result if block.instructions]


def _address_pool(items: Sequence, addresses: Set[int]) -> Set[int]:
    """Program-wide indirect-target candidates: LDI-loaded Z constants
    and ``.dw`` words that name instruction addresses."""
    pool: Set[int] = set()
    lo: Optional[int] = None
    hi: Optional[int] = None
    for item in items:
        if isinstance(item, DataWord):
            if item.value in addresses:
                pool.add(item.value)
            continue
        if item.mnemonic == "LDI" and item.operands[0] in (30, 31):
            if item.operands[0] == 30:
                lo = item.operands[1]
            else:
                hi = item.operands[1]
            if lo is not None and hi is not None:
                candidate = lo | (hi << 8)
                if candidate in addresses:
                    pool.add(candidate)
    return pool


def _local_z_value(block: BasicBlock) -> Optional[int]:
    """The Z value reaching *block*'s last instruction, when an LDI pair
    in the block fully determines it and nothing after it writes Z."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    for instruction in block.instructions[:-1]:
        if instruction.mnemonic == "LDI" and \
                instruction.operands[0] in (30, 31):
            if instruction.operands[0] == 30:
                lo = instruction.operands[1]
            else:
                hi = instruction.operands[1]
        elif {30, 31}.intersection(written_registers(instruction)):
            lo = hi = None
    return lo | (hi << 8) if lo is not None and hi is not None else None


def build_cfg(items: Sequence, entry: int,
              labels: Optional[Dict[str, int]] = None) -> ControlFlowGraph:
    """Build the CFG for an item list (compiled or naturalized)."""
    labels = labels or {}
    instructions = [item for item in items if isinstance(item, Instruction)]
    by_address = {ins.address: ins for ins in instructions}
    addresses = set(by_address)

    blocks = build_blocks(items)
    # Skip shadows: the instruction *after* the skipped one is a CFG
    # leader (it may sit mid-block in the rewriter's partition).
    skip_targets: Set[int] = set()
    for ins in instructions:
        if ins.kind & Kind.SKIP:
            shadow = by_address.get(ins.next_address)
            if shadow is not None and shadow.next_address in addresses:
                skip_targets.add(shadow.next_address)
    pool = _address_pool(items, addresses)
    all_labels = {address for address in labels.values()
                  if address in addresses}
    # Data-only labels: function-pointer-table entries (``.dw`` words
    # naming code) never reached by direct control flow.  They stay
    # candidates at table-reading sites (any block with an LPM) but are
    # dropped from the pool / all-labels fallback everywhere else.
    dw_targets = {item.value for item in items
                  if isinstance(item, DataWord) and item.value in addresses}
    direct_targets: Set[int] = set()
    for ins in instructions:
        if ins.mnemonic in ("RJMP", "JMP", "BRBS", "BRBC",
                            "CALL", "RCALL"):
            direct_targets.add(ins.branch_target())
    data_only = dw_targets - direct_targets - {entry}
    # Indirect-branch candidates and skip shadows must start blocks, and
    # an ICALL must *end* one so the edge builder sees it last (the
    # rewriter's partition never needed those cuts: ICALL falls through).
    icall_splits = {ins.next_address for ins in instructions
                    if ins.mnemonic == "ICALL"
                    and ins.next_address in addresses}
    starts = {block.start for block in blocks}
    blocks = _split_blocks(
        blocks, (skip_targets | pool | all_labels | icall_splits) - starts)

    cfg = ControlFlowGraph(entry=entry, labels=dict(labels))
    for block in blocks:
        node = CfgNode(block=block)
        cfg.nodes[block.start] = node
        last = block.instructions[-1]
        mnemonic = last.mnemonic
        successors: List[int] = []
        calls: List[Tuple[int, int]] = []
        external: List[int] = []
        fallthrough = last.next_address \
            if last.next_address in addresses else None

        def to(target: int) -> None:
            (successors if target in addresses else external).append(target)

        if mnemonic in ("RET", "RETI", "BREAK"):
            pass
        elif mnemonic in ("RJMP", "JMP"):
            to(last.branch_target())
        elif mnemonic in ("BRBS", "BRBC"):
            to(last.branch_target())
            if fallthrough is not None:
                successors.append(fallthrough)
        elif mnemonic in ("CALL", "RCALL"):
            target = last.branch_target()
            if target in addresses:
                calls.append((last.address, target))
            else:
                external.append(target)
            if fallthrough is not None:
                successors.append(fallthrough)
        elif mnemonic in ("IJMP", "ICALL"):
            node.indirect_site = last.address
            local = _local_z_value(block)
            if local is not None and local in addresses:
                candidates: Set[int] = {local}
            else:
                if pool:
                    candidates = set(pool)
                else:
                    candidates = set(all_labels)
                    cfg.unresolved_indirect.append(last.address)
                # A block with no LPM cannot be dispatching through a
                # ``.dw`` table, so table-only entries are noise here.
                reads_table = any(ins.mnemonic == "LPM"
                                  for ins in block.instructions)
                if not reads_table and candidates - data_only:
                    candidates -= data_only
            if mnemonic == "IJMP":
                successors.extend(sorted(candidates))
            else:
                calls.extend((last.address, target)
                             for target in sorted(candidates))
                if fallthrough is not None:
                    successors.append(fallthrough)
        elif last.kind & Kind.SKIP:
            if fallthrough is not None:
                successors.append(fallthrough)
                shadow = by_address[fallthrough]
                if shadow.next_address in addresses:
                    successors.append(shadow.next_address)
        elif fallthrough is not None:
            successors.append(fallthrough)

        node.successors = tuple(dict.fromkeys(successors))
        node.calls = tuple(calls)
        node.external = tuple(external)
    return cfg
