"""Forward abstract interpretation over the basic-block CFG.

The engine propagates the :mod:`values` domain — byte intervals,
16-bit pair facts (absolute and SP-relative), a stack-depth interval
and known-constant SREG flags — through every reachable block,
interprocedurally, with widening at re-visited joins.  Its consumer is
**CFG tightening** (:func:`resolve_indirect_targets`): an
``IJMP``/``ICALL`` whose Z fact is a small absolute interval gets
exactly those targets instead of the pool / all-labels fallback.
:func:`analyze_image` reports the resolution quality per task (the
``sensmart analyze`` data).

Soundness note: the engine never assumes boot register contents (task
entry is all-⊤), never assumes an ABI (call clobbers are the callee
closure's syntactic may-write set), and treats everything it cannot
model as ⊤.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...avr.instruction import DataWord, Instruction
from ...avr.isa import (FLAG_C, FLAG_Z, IO_SPH, IO_SPL, IO_SREG,
                        PTR_BASE, Format)
from .cfg import ControlFlowGraph, build_cfg
from .liveness import sreg_effects
from .values import (AbsState, Interval, BYTE_MAX, WORD_MAX, SPL_BYTE,
                     SPH_BYTE, TOP_BYTE)

#: Joins at one block before widening kicks in.
WIDEN_AFTER = 3
#: Hard per-block visit cap (drops to ⊤ — a total-analysis backstop).
VISIT_CAP = 60
#: Widest Z interval an indirect site may resolve through.
NARROW_MAX = 8

_ALL_REGS_MASK = (1 << 32) - 1


def _flash_bytes(items: Sequence) -> Dict[int, int]:
    """Byte-addressed flash contents of the ``.dw``/``.db`` data words
    (the only flash an ``LPM`` chain meaningfully reads)."""
    flash: Dict[int, int] = {}
    for item in items:
        if isinstance(item, DataWord):
            flash[2 * item.address] = item.value & 0xFF
            flash[2 * item.address + 1] = (item.value >> 8) & 0xFF
    return flash


def _written_regs(ins: Instruction) -> Tuple[int, ...]:
    """Registers *ins* may write (the syntactic clobber set)."""
    mnemonic, ops = ins.mnemonic, ins.operands
    fmt = ins.opspec.fmt
    if fmt is Format.R2:
        if mnemonic in ("CP", "CPC", "CPSE"):
            return ()
        return (ops[0],)
    if fmt is Format.MUL:
        return (0, 1)
    if fmt is Format.MOVW:
        return (ops[0], ops[0] + 1)
    if fmt is Format.RD:
        return (ops[0],)
    if fmt is Format.IMM8:
        return () if mnemonic == "CPI" else (ops[0],)
    if fmt is Format.ADIW:
        return (ops[0], ops[0] + 1)
    if fmt is Format.LDST_PTR:
        base = PTR_BASE[ops[1].strip("+-")]
        regs = (base, base + 1) if ops[1] != ops[1].strip("+-") else ()
        return regs + ((ops[0],) if mnemonic == "LD" else ())
    if fmt is Format.LDST_DISP:
        return (ops[0],) if mnemonic == "LDD" else ()
    if fmt is Format.LDST_DIRECT:
        return (ops[0],) if mnemonic == "LDS" else ()
    if fmt is Format.PUSHPOP:
        return (ops[0],) if mnemonic == "POP" else ()
    if fmt is Format.LPM:
        return (ops[0],) + ((30, 31) if ops[1] == "Z+" else ())
    if fmt is Format.IO:
        return (ops[0],) if mnemonic == "IN" else ()
    if fmt is Format.TFLAG:
        return (ops[0],) if mnemonic == "BLD" else ()
    return ()


def _sub_interval(iv: Interval, k: int) -> Optional[Interval]:
    """(x - k) mod 256 as an interval, when the wrap is uniform."""
    lo, hi = iv.lo - k, iv.hi - k
    if lo >= 0:
        return Interval(lo, hi)
    if hi < 0:
        return Interval(lo + 256, hi + 256)
    return None


def transfer(state: AbsState, ins: Instruction,
             flash: Dict[int, int]) -> None:
    """Apply one instruction's register/depth/flag effect in place.

    Control flow (branches, calls, skips) is the engine's concern; this
    covers data effects only.
    """
    mnemonic, ops = ins.mnemonic, ins.operands
    # Flags first: drop everything the instruction may write, then add
    # back the few facts modelled precisely below.
    _, writes = sreg_effects(mnemonic, ops)
    if writes:
        for bit in range(8):
            if writes & (1 << bit):
                state.flags.pop(bit, None)

    if mnemonic == "LDI":
        state.set_byte(ops[0], Interval(ops[1], ops[1]))
    elif mnemonic == "MOV":
        state.set_byte(ops[0], state.regs[ops[1]])
    elif mnemonic == "MOVW":
        word = state.get_word(ops[1])
        if word is not None:
            state.set_word(ops[0], word)
        else:
            state.set_byte(ops[0], state.regs[ops[1]])
            state.set_byte(ops[0] + 1, state.regs[ops[1] + 1])
    elif mnemonic == "EOR" and ops[0] == ops[1]:
        state.set_byte(ops[0], Interval(0, 0))
        state.flags[FLAG_Z] = 1
    elif mnemonic == "ADD":
        a, b = state.regs[ops[0]], state.regs[ops[1]]
        if isinstance(a, Interval) and isinstance(b, Interval) \
                and a.hi + b.hi <= BYTE_MAX:
            result: Optional[Interval] = Interval(a.lo + b.lo, a.hi + b.hi)
        else:
            result = None
        state.set_byte(ops[0], result)
    elif mnemonic == "SUB":
        a, b = state.regs[ops[0]], state.regs[ops[1]]
        if isinstance(a, Interval) and isinstance(b, Interval) \
                and a.lo - b.hi >= 0:
            result = Interval(a.lo - b.hi, a.hi - b.lo)
        else:
            result = None
        state.set_byte(ops[0], result)
    elif mnemonic in ("AND", "OR"):
        state.set_byte(ops[0], None)
    elif mnemonic in ("ADC", "SBC", "EOR", "COM", "NEG", "SWAP",
                      "ASR", "ROR", "BLD"):
        state.set_byte(ops[0], None)
    elif mnemonic == "LSR":
        a = state.regs[ops[0]]
        state.set_byte(ops[0], Interval(a.lo >> 1, a.hi >> 1)
                       if isinstance(a, Interval) else None)
    elif mnemonic in ("INC", "DEC"):
        a = state.regs[ops[0]]
        delta = 1 if mnemonic == "INC" else -1
        result = a.add(delta, 0, BYTE_MAX) \
            if isinstance(a, Interval) else None
        state.set_byte(ops[0], result)
        if result is not None:
            if result.is_const:
                state.flags[FLAG_Z] = 1 if result.lo == 0 else 0
            elif result.lo > 0:
                state.flags[FLAG_Z] = 0
    elif mnemonic == "CPI":
        a, k = state.regs[ops[0]], ops[1]
        if isinstance(a, Interval):
            if a.is_const:
                state.flags[FLAG_Z] = 1 if a.lo == k else 0
                state.flags[FLAG_C] = 1 if a.lo < k else 0
            elif not (a.lo <= k <= a.hi):
                state.flags[FLAG_Z] = 0
    elif mnemonic == "CP":
        a, b = state.regs[ops[0]], state.regs[ops[1]]
        if isinstance(a, Interval) and isinstance(b, Interval) \
                and a.is_const and b.is_const:
            state.flags[FLAG_Z] = 1 if a.lo == b.lo else 0
            state.flags[FLAG_C] = 1 if a.lo < b.lo else 0
    elif mnemonic == "SUBI":
        a = state.regs[ops[0]]
        result = _sub_interval(a, ops[1]) \
            if isinstance(a, Interval) else None
        state.set_byte(ops[0], result)
        if result is not None and result.is_const:
            state.flags[FLAG_Z] = 1 if result.lo == 0 else 0
    elif mnemonic == "SBCI":
        state.set_byte(ops[0], None)
    elif mnemonic == "ANDI":
        a = state.regs[ops[0]]
        hi = min(a.hi, ops[1]) if isinstance(a, Interval) else ops[1]
        state.set_byte(ops[0], Interval(0, hi))
    elif mnemonic == "ORI":
        a = state.regs[ops[0]]
        lo = max(a.lo, ops[1]) if isinstance(a, Interval) else ops[1]
        state.set_byte(ops[0], Interval(lo, BYTE_MAX))
    elif mnemonic in ("ADIW", "SBIW"):
        word = state.get_word(ops[0])
        k = ops[1] if mnemonic == "ADIW" else -ops[1]
        state.set_word(ops[0], word.add(k) if word is not None else None)
    elif mnemonic == "MUL":
        state.set_byte(0, None)
        state.set_byte(1, None)
    elif mnemonic in ("LD", "ST"):
        mode = ops[1]
        base = PTR_BASE[mode.strip("+-")]
        if mode.startswith("-"):
            word = state.get_word(base)
            state.set_word(base, word.add(-1) if word is not None else None)
        if mnemonic == "LD":
            state.set_byte(ops[0], None)
        if mode.endswith("+"):
            word = state.get_word(base)
            state.set_word(base, word.add(1) if word is not None else None)
    elif mnemonic == "LDD":
        state.set_byte(ops[0], None)
    elif mnemonic in ("STD", "STS", "OUT"):
        if mnemonic == "OUT":
            if ops[0] in (IO_SPL, IO_SPH):
                state.depth = None
                state.drop_sp_facts()
            elif ops[0] == IO_SREG:
                state.flags.clear()
    elif mnemonic == "LDS":
        state.set_byte(ops[0], None)
    elif mnemonic == "LPM":
        dest, mode = ops
        word = state.get_word(30)
        if mode != "LEGACY" or dest == 0:
            if word is not None and word.base == "abs" \
                    and word.iv.is_const and word.iv.lo in flash:
                value = flash[word.iv.lo]
                state.set_byte(dest, Interval(value, value))
            else:
                state.set_byte(dest, None)
        if mode == "Z+":
            word = state.get_word(30)
            state.set_word(30, word.add(1) if word is not None else None)
    elif mnemonic == "IN":
        if ops[1] == IO_SPL:
            state.set_byte(ops[0], SPL_BYTE)
        elif ops[1] == IO_SPH:
            state.set_byte(ops[0], SPH_BYTE)
        else:
            state.set_byte(ops[0], None)
    elif mnemonic == "PUSH":
        state.depth = state.depth.add(1, 0, WORD_MAX) \
            if state.depth is not None else None
        state.shift_sp(1)
    elif mnemonic == "POP":
        state.set_byte(ops[0], None)
        if state.depth is not None:
            state.depth = Interval(max(0, state.depth.lo - 1),
                                   max(0, state.depth.hi - 1))
        state.shift_sp(-1)
    elif mnemonic == "BSET":
        state.flags[ops[0]] = 1
    elif mnemonic == "BCLR":
        state.flags[ops[0]] = 0
    # Everything else (branches, calls, NOP, SLEEP, WDR, BREAK, BST,
    # CBI/SBI, SBIC/SBIS, SBRC/SBRS) has no register/depth effect here.


@dataclass
class _Flows:
    """Outcome of walking one block from one entry state."""

    succs: List[Tuple[Tuple[int, int], AbsState]] = field(
        default_factory=list)
    calls: List[Tuple[int, AbsState]] = field(default_factory=list)
    ret_state: Optional[AbsState] = None
    #: Callee whose exit depth the fallthrough flow is still waiting on.
    pending: Optional[Tuple[int, ...]] = None


class DataflowAnalysis:
    """The whole-program abstract interpreter (one program's items)."""

    def __init__(self, items: Sequence, entry: int,
                 labels: Optional[Dict[str, int]] = None):
        self.items = list(items)
        self.entry = entry
        self.labels = dict(labels or {})
        self.cfg: ControlFlowGraph = build_cfg(
            self.items, entry, self.labels, dataflow=False)
        self.addresses = {item.address for item in self.items
                          if isinstance(item, Instruction)}
        self.flash = _flash_bytes(self.items)
        #: Conservative candidate targets per indirect site.
        self.base_targets: Dict[int, Tuple[int, ...]] = {}
        for node in self.cfg.nodes.values():
            site = node.indirect_site
            if site is None:
                continue
            last = node.block.instructions[-1]
            if last.mnemonic == "IJMP":
                self.base_targets[site] = tuple(node.successors)
            else:
                self.base_targets[site] = tuple(
                    callee for _, callee in node.calls)
        self.clobbers = self._clobber_masks()
        #: (function entry, block start) -> entry invariant.
        self.invariants: Dict[Tuple[int, int], AbsState] = {}
        #: Indirect sites whose final target set beats the candidates.
        self.indirect_targets: Dict[int, Tuple[int, ...]] = {}
        self._ran = False

    # -- call-clobber summaries ---------------------------------------------------

    def _clobber_masks(self) -> Dict[int, int]:
        """May-write register mask per function entry, closed over the
        (conservative) call graph; recursion converges by union."""
        local: Dict[int, Tuple[int, Set[int]]] = {}
        for fn in self.cfg.function_entries():
            mask, callees = 0, set()
            for start in self.cfg.reachable_blocks(fn):
                node = self.cfg.nodes[start]
                for ins in node.block.instructions:
                    for reg in _written_regs(ins):
                        mask |= 1 << reg
                callees.update(callee for _, callee in node.calls)
            local[fn] = (mask, callees)
        masks = {fn: mask for fn, (mask, _) in local.items()}
        changed = True
        while changed:
            changed = False
            for fn, (_, callees) in local.items():
                merged = masks[fn]
                for callee in callees:
                    merged |= masks.get(callee, _ALL_REGS_MASK)
                if merged != masks[fn]:
                    masks[fn] = merged
                    changed = True
        return masks

    # -- block walk ---------------------------------------------------------------

    def _narrow_indirect(self, node, state: AbsState) \
            -> Tuple[Tuple[int, ...], bool]:
        """Targets of *node*'s indirect terminator under *state*."""
        candidates = self.base_targets.get(node.indirect_site, ())
        word = state.get_word(30)
        if word is not None and word.base == "abs" \
                and word.iv.width < NARROW_MAX:
            targets = tuple(sorted(
                address for address in range(word.iv.lo, word.iv.hi + 1)
                if address in self.addresses))
            if targets and all(t in self.cfg.nodes for t in targets):
                return targets, True
        return candidates, False

    def _post_call(self, state: AbsState, callees: Sequence[int]) \
            -> Tuple[Optional[AbsState], Optional[Tuple[int, ...]]]:
        """Caller state after a call returns, or (None, pending) while
        no callee exit is known yet."""
        depths = []
        returning = False
        for callee in callees:
            exit_iv = self._exit_depth(callee)
            if exit_iv == "missing":
                continue
            returning = True
            if exit_iv is None:
                depths = None
                break
            depths.append(Interval(max(0, exit_iv.lo - 2),
                                   max(0, exit_iv.hi - 2)))
        if not returning:
            return None, tuple(callees)
        post = state.copy()
        mask = 0
        for callee in callees:
            mask |= self.clobbers.get(callee, _ALL_REGS_MASK)
        for reg in range(32):
            if mask & (1 << reg):
                post.set_byte(reg, TOP_BYTE)
        post.drop_sp_facts()
        post.flags.clear()
        if depths is None:
            post.depth = None
        else:
            post.depth = depths[0]
            for iv in depths[1:]:
                post.depth = post.depth.join(iv)
        return post, None

    def _block_flows(self, fn: int, node, entry_state: AbsState) -> _Flows:
        """Walk one block: apply transfers, then compute the out-flows
        the terminator induces."""
        state = entry_state.copy()
        flows = _Flows()
        for ins in node.block.instructions:
            transfer(state, ins, self.flash)
        last = node.block.instructions[-1]
        mnemonic = last.mnemonic
        if mnemonic in ("RET", "RETI"):
            flows.ret_state = state
            return flows
        if mnemonic == "IJMP":
            targets, _ = self._narrow_indirect(node, state)
            for target in targets:
                flows.succs.append(((fn, target), state))
            return flows
        if mnemonic in ("CALL", "RCALL", "ICALL"):
            if mnemonic == "ICALL":
                callees, _ = self._narrow_indirect(node, state)
            else:
                callees = tuple(callee for _, callee in node.calls)
            entry = state.copy()
            entry.shift_sp(2)
            entry.depth = entry.depth.add(2, 0, WORD_MAX) \
                if entry.depth is not None else None
            for callee in callees:
                if callee in self.cfg.nodes:
                    flows.calls.append((callee, entry))
            fallthrough = node.successors
            if callees:
                post, pending = self._post_call(state, callees)
            else:  # call outside the item list: assume nothing
                post, pending = AbsState.top(depth=None), None
            if post is not None:
                for succ in fallthrough:
                    flows.succs.append(((fn, succ), post))
            else:
                flows.pending = pending
            return flows
        if mnemonic in ("BRBS", "BRBC"):
            taken = last.branch_target()
            fallthrough = last.next_address
            known = state.flags.get(last.operands[0])
            for succ in node.successors:
                if known is not None:
                    branch = (known == 1) if mnemonic == "BRBS" \
                        else (known == 0)
                    if branch and succ == fallthrough and succ != taken:
                        continue
                    if not branch and succ == taken and \
                            succ != fallthrough:
                        continue
                flows.succs.append(((fn, succ), state))
            return flows
        for succ in node.successors:
            flows.succs.append(((fn, succ), state))
        return flows

    # -- the fixpoint -------------------------------------------------------------

    def run(self) -> "DataflowAnalysis":
        if self._ran:
            return self
        self._ran = True
        if self.entry not in self.cfg.nodes:
            return self
        inv = self.invariants
        visits: Dict[Tuple[int, int], int] = {}
        queued: Set[Tuple[int, int]] = set()
        work = deque()
        #: Caller blocks to requeue when a function's invariants move
        #: (their fallthrough depth depends on the callee's RET depth).
        ret_deps: Dict[int, Set[Tuple[int, int]]] = {}

        def push(key: Tuple[int, int], state: AbsState) -> None:
            old = inv.get(key)
            if old is None:
                new = state.copy()
            else:
                new = old.join(state)
                count = visits.get(key, 0)
                if count >= VISIT_CAP:
                    new = AbsState.top(depth=None)
                elif count >= WIDEN_AFTER:
                    new = old.widen(new)
                if new == old:
                    return
            inv[key] = new
            visits[key] = visits.get(key, 0) + 1
            if key not in queued:
                queued.add(key)
                work.append(key)
            # A moved invariant can move the function's RET depth.
            for dep in ret_deps.get(key[0], ()):
                if dep not in queued and dep in inv:
                    queued.add(dep)
                    work.append(dep)

        push((self.entry, self.entry), AbsState.top(Interval(0, 0)))
        while work:
            key = work.popleft()
            queued.discard(key)
            fn, start = key
            node = self.cfg.nodes.get(start)
            if node is None:
                continue
            flows = self._block_flows(fn, node, inv[key])
            # Register return dependencies *before* pushing the callee
            # entries, so the callee's very first invariant already
            # requeues this block for its fallthrough flow.
            for callee, _ in flows.calls:
                ret_deps.setdefault(callee, set()).add(key)
            for callee in flows.pending or ():
                ret_deps.setdefault(callee, set()).add(key)
            for target, state in flows.succs:
                push(target, state)
            for callee, state in flows.calls:
                push((callee, callee), state)

        self._collect_targets()
        return self

    def _collect_targets(self) -> None:
        """One pass over the stable invariants: the final narrowed
        indirect-target sets."""
        final_targets: Dict[int, Set[int]] = {}
        narrowed_sites: Set[int] = set()
        for (fn, start), state in self.invariants.items():
            node = self.cfg.nodes[start]
            site = node.indirect_site
            if site is not None:
                walk = state.copy()
                for ins in node.block.instructions[:-1]:
                    transfer(walk, ins, self.flash)
                targets, narrowed = self._narrow_indirect(node, walk)
                final_targets.setdefault(site, set()).update(targets)
                if narrowed:
                    narrowed_sites.add(site)
        for site, targets in final_targets.items():
            if site in narrowed_sites and \
                    set(self.base_targets.get(site, ())) != targets:
                self.indirect_targets[site] = tuple(sorted(targets))

    def _exit_depth(self, callee: int):
        """*callee*'s stack depth at its RETs under the current
        invariants: "missing" while no RET block has one, None (⊤), or
        an Interval."""
        found = False
        joined: Optional[Interval] = None
        for (fn, start), state in self.invariants.items():
            if fn != callee:
                continue
            node = self.cfg.nodes.get(start)
            if node is None or \
                    node.block.instructions[-1].mnemonic not in \
                    ("RET", "RETI"):
                continue
            walk = state.copy()
            for ins in node.block.instructions:
                transfer(walk, ins, self.flash)
            found = True
            if walk.depth is None:
                return None
            joined = walk.depth if joined is None \
                else joined.join(walk.depth)
        return joined if found else "missing"


def resolve_indirect_targets(items: Sequence, entry: int,
                             labels: Optional[Dict[str, int]] = None) \
        -> Dict[int, Tuple[int, ...]]:
    """Dataflow-narrowed targets for indirect sites (cfg consumer)."""
    return DataflowAnalysis(items, entry, labels).run().indirect_targets


def analyze_image(image) -> List[dict]:
    """Per-task dataflow summary rows (the ``sensmart analyze`` data):
    patched sites and indirect-control resolution quality."""
    rows: List[dict] = []
    for task in image.tasks:
        program = task.natural.program
        analysis = DataflowAnalysis(program.items, program.entry,
                                    program.symbols.labels).run()
        indirect = len(analysis.base_targets)
        unresolved = len(analysis.cfg.unresolved_indirect)
        narrowed = len(analysis.indirect_targets)
        resolved_after = len(set(analysis.cfg.unresolved_indirect)
                             - set(analysis.indirect_targets))
        rows.append({
            "program": task.name,
            "sites": len(task.natural.sites),
            "indirect_sites": indirect,
            "dataflow_narrowed": narrowed,
            "unresolved_indirect": resolved_after,
        })
    return rows
