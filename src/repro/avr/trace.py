"""Trace JIT: the CPU's one fused code generator.

With ``fuse=True`` every dispatch entry of :meth:`AvrCpu._fuse_block`
is a trace compiled here, once its head is hot: a head runs on the
stepwise oracle (``AvrCpu.step``) until its ``TIER_UP``-th dispatch
(:meth:`TraceCompiler.hot`), unless a cached trace can serve it at
once.  A trace is the head block plus the blocks its direct
transfers chain into (unconditional jumps, conditional branches,
``SBRS``/``SBRC`` skips, and the specialized trap fast paths), as one
compiled function, so a hot loop executes with locals-only state:

* ``cy``/``n``/``sr`` shadow ``cycles``/``instret``/``sreg``;
* every *seam* between chained blocks replicates the dispatch loop's
  exact-stop check (``da``/``mi``/``mc``), so limits, due events and
  ``until()`` observe bit-identical boundaries;
* specialized trap sites (site facts from :class:`~repro.kernel
  .specialize.TrapSpecializer`) chain through their fast arms; a slow
  arm exits, with the pc on its trap site, to the generic dispatch;
* every exit sets ``xk`` and breaks out of the trace loop to one
  epilogue, which writes the locals back once and picks the exit's
  resume pc, branch-counter step and slow call by ``xk``;
* one task/epoch guard is hoisted to trace entry (all chained sites
  belong to one task, and nothing mid-trace can retire the task or move
  a region), deoptimizing to a generic execution of the head block;
* a backward-branch trap that targets its own block start is
  *strip-mined*: the iteration count to the next observable boundary is
  computed up front and the loop body runs that many times with no
  per-iteration limit checks at all.  When no member of such a loop
  reads SREG, its last member's flag update runs only at the strip's
  exits (the strip rule, :meth:`_Emitter._decide`); every other member
  updates ``sr`` where it runs, as its stepwise closure does;
* an idle poll loop is *fast-forwarded*: when an iteration of a loop
  that stores nothing left its registers and SREG unchanged and every
  port it read is stable (``AvrCpu.io_stable``), the iterations up to
  the next observable boundary are skipped in closed form.

A trace may be a single block.  Its head may also end where no later
block could: a *thunk* head ends in a terminator the chain cannot take
(``RET``/``RETI``, indirect jumps and calls, ``IN``/``OUT``, ``CPSE``/
``SBIC``/``SBIS``, ``SLEEP``, ``BREAK``, ``SEI``, a trap without trace
facts) and runs it through its decoded thunk after writing the
members' state back; a *cut* head stops at the member cap, before a
trap-region word or before an undecodable word, and exits to the next
unexecuted word.  A block after the head that ends either way is not
chained: the trace exits before it.

Mid-trace safety rests on one invariant: members never touch I/O, SP
(outside specialized trap code), or the I flag.  The one device access
a trace makes is an I/O-class direct (``LDS``/``STS``) trap site.  When
its block has members, it first exits at the site if an event fell due
during them, so the event fires before the access as it does stepwise;
it publishes ``cy``/``n`` before the access (device hooks read the
clock) and re-reads the event horizon after it (hooks schedule and
cancel events), forcing an exit at the next seam once an interrupt is
pending.  So every device access and every seam sees the exact next
due event.  Direct accesses to SP or SREG (which the trace shadows in
``sr``) end a trace like any other unchainable terminator.

Compiled traces are shared across CPUs through the in-process
:class:`~repro.avr.cpu.SuperblockCache`, keyed by flash fingerprint,
memory size, trap ranges and head pc, with one variant per composite
specialization key.  A CPU binds a cached trace by building a function
of its code object over the CPU's namespace: no ``exec``.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass
from types import FunctionType
from typing import Dict, List, Optional, Set, Tuple

from ..errors import InvalidInstruction, MemoryFault
from . import ioports
from .cpu import (_ASR_TABLE, _DEC_TABLE, _INC_TABLE, _LOGIC_TABLE,
                  _LSR_TABLE, _NEG_TABLE, _ROR_TABLES, _CachedBlock)
from .isa import written_registers

#: Maximum chained blocks per trace (bounds compile time and the code
#: size of the generated closure; loops longer than this still trace —
#: the tail exit re-enters the dispatch loop, which starts a new trace).
#: Not in the shared cache's key, like ``cpu._MAX_BLOCK``: a test that
#: sets it must use a private cache.
_MAX_TRACE_BLOCKS = 8

#: Strip-mining cap: bounds a single uninterrupted run of a self-loop
#: (16M iterations) so ``im`` stays a small int even under infinite run
#: limits.
_MAX_STRIP = 16_777_216

#: Tier-up threshold: a trace head runs on the stepwise oracle for its
#: first ``TIER_UP - 1`` dispatches and compiles on dispatch number
#: ``TIER_UP`` (1 compiles every head on first sight).  One constant,
#: set by tests; picked by a sweep over 64/128/256 (INTERNALS.md §11).
TIER_UP = 64

#: Heat of a head that got a trace under a private cache: it stays hot,
#: so a deopt or a new spec-key variant recompiles at once.
_HOT = float("inf")

#: The key of every trace with no trap site: it bakes no site facts.
_SITELESS = ((), None, None, None)

#: I/O addresses a direct access to which ends the trace: SREG lives in
#: the ``sr`` local, and an SP write may raise ``TaskFault``, which only
#: the dispatch path turns into a task kill (as for SP_READ/SP_WRITE).
_SHADOWED_IO = frozenset({ioports.SPL, ioports.SPH, ioports.SREG})


@dataclass
class TraceStats:
    """Observability for tests, benchmarks and ``sensmart run --stats``."""

    compiled: int = 0      # traces compiled from scratch (hot heads)
    declined: int = 0      # always 0: every hot head compiles to a trace
    cache_hits: int = 0    # rebinds served by the in-process cache
    lines: int = 0         # generated source lines of the compiled traces
    stepped: int = 0       # dispatches of cold heads, served by step()


def _base_ns(cpu) -> dict:
    """The CPU's part of the namespace every trace function runs in
    (with the builtins, which Python 3.9 reads from a function's
    globals)."""
    return {
        "__builtins__": builtins,
        "cpu": cpu, "r": cpu.r, "mem": cpu.mem.data, "flash": cpu.flash,
        "io_rd": cpu.io_read, "io_wr": cpu.io_write, "io_st": cpu.io_stable,
        "lf": _LOGIC_TABLE, "incf": _INC_TABLE, "decf": _DEC_TABLE,
        "lsrf": _LSR_TABLE, "asrf": _ASR_TABLE, "negf": _NEG_TABLE,
        "rorf0": _ROR_TABLES[0], "rorf1": _ROR_TABLES[1],
    }


def _ind(lines, depth: int = 1) -> List[str]:
    pad = "    " * depth
    return [pad + line for line in lines]


def _pick(values) -> str:
    """One epilogue constant over a trace's exits: the value itself when
    every exit it applies to (the non-None entries) agrees, else a
    per-exit tuple indexed by ``xk`` (no exit past its last non-None
    entry reads it)."""
    used = {value for value in values if value is not None}
    if len(used) == 1:
        return repr(used.pop())
    while values[-1] is None:
        values = values[:-1]
    return f"({', '.join(map(repr, values))})[xk]"


def _among(indices, total: int) -> Optional[str]:
    """Test for ``xk`` being one of *indices*; None when they are all
    *total* exits, so no test is needed."""
    if len(indices) == total:
        return None
    if len(indices) == 1:
        return f"xk == {indices[0]}"
    return f"xk in {tuple(indices)}"


class _Member:
    """One fused instruction inside a trace node."""

    __slots__ = ("effect", "flags", "cycles", "reads", "preds", "touches",
                 "ins")

    def __init__(self, effect, flags, cycles, reads, preds, ins):
        self.ins = ins          # the decoded instruction
        self.effect = effect    # register/memory effect lines
        self.flags = flags      # separable SREG update lines
        self.cycles = cycles
        self.reads = reads      # SREG bits the template reads
        self.preds = preds      # flag-bit mask -> predicate expression
        self.touches = bool(flags or reads)  # a line references sr


class _Node:
    """One chained block: members plus a classified terminator."""

    __slots__ = ("start", "members", "count", "cost", "kind", "facts",
                 "cont", "bit", "reg", "branch_if_set", "taken", "fall",
                 "target", "jcycles", "nat_target", "strip", "strip_elide",
                 "access", "kind_index", "step")

    def __init__(self, start, members):
        self.start = start
        self.members = members
        self.count = len(members)
        self.cost = sum(m.cycles for m in members)
        self.kind = None        # "brcond" | "skip" | "jmp" | "trap", or
                                # a head-only "thunk" | "cut"
        self.facts = None       # TraceFacts for trap terminators
        self.cont = None        # in-trace successor address, or None
        self.bit = None         # SREG bit tested; register bit for skips
        self.reg = None         # register a skip tests
        self.branch_if_set = False
        self.taken = None
        self.fall = None
        self.target = None      # jmp target; thunk terminator address;
                                # cut resume address
        self.jcycles = 0        # terminator cycles when taken
        self.nat_target = None
        self.strip = False       # self-looping branch trap: strip-mine
        self.strip_elide = False  # last member's flags at strip exits
        self.access = None       # direct_access() of a MEM_DIRECT site
        self.kind_index = None   # index into the per-kind count locals
        self.step = None         # (cycles, kernel cycles) of the arm
                                 # that continues to ``cont``


class TraceCompiler:
    """Assembles, compiles, caches and rebinds traces.

    Installed on the CPU via :meth:`AvrCpu.set_tracer` (a bare CPU
    builds one without a specializer on first use).  ``_fuse_block``
    asks :meth:`hot` first; for a hot head, :meth:`entry_for` returns a
    ``(closure, icount, cost)`` dispatch entry: the head block's counts,
    so the dispatch-loop exact-stop check covers the head and seams
    cover the rest.
    """

    def __init__(self, cpu, specializer=None):
        self.cpu = cpu
        self.specializer = specializer
        self.stats = TraceStats()
        #: Start of every block chained behind the head of a trace this
        #: compiler built: the pcs a seam exit can leave the dispatch
        #: loop at, mid-loop (cache priming fuses them ahead of time).
        self.chained: Set[int] = set()
        #: Heat scope under a private cache (``block_cache=False``): pc
        #: -> cold dispatches, ``_HOT`` once it got a trace.  A shared
        #: cache keeps its heat per image base instead.
        self._heat: Dict[int, float] = {}
        #: Owner task id (None: no trap site) -> the namespace this
        #: CPU's traces of that owner are bound against.
        self._namespaces: Dict[Optional[int], dict] = {}

    # -- entry point --------------------------------------------------------------

    def hot(self, pc: int) -> bool:
        """Whether the dispatch at *pc* gets a trace entry now.

        Heat gates compilation only, never a bind: a head with a group
        in the shared cache is hot at once.  Otherwise the dispatch
        counts toward ``TIER_UP``; a cold one returns False, counts in
        ``stats.stepped`` and runs on the stepwise oracle.  A head that
        got a trace stays hot: on a shared cache its group says so (a
        head whose group the FIFO bound evicts warms up again), on a
        private one its heat turns ``_HOT``.  Cold dispatches stay
        outside :meth:`entry_for`, which is called only when a bind or
        a compile follows.
        """
        base = self.cpu._cache_base()
        if base is None:
            heat, key = self._heat, pc
        else:
            cache = self.cpu._block_cache
            key = (base, pc)
            if key in cache.groups:
                return True
            heat = cache.heat
        count = heat.get(key, 0) + 1
        if count < TIER_UP:
            self.stats.stepped += 1
            if base is None:
                heat[key] = count
            else:
                cache.warm(key, count)
            return False
        if base is None:
            heat[key] = _HOT
        else:
            heat.pop(key, None)  # the group entry_for stores marks it
        return True

    def entry_for(self, pc: int):
        cpu = self.cpu
        mem_base = cpu._cache_base()
        if mem_base is not None:
            cache = cpu._block_cache
            group = cache.groups.get((mem_base, pc))
            if group:
                found = self._match(group)
                if found is not None:
                    cache.hits += 1
                    self.stats.cache_hits += 1
                    block, task = found
                    return self._rebind(block, self._namespace(task),
                                        block.consts)
            cache.misses += 1
        return self._compile(pc, mem_base)

    # -- cache plumbing -----------------------------------------------------------

    def _match(self, group):
        """``(variant, owner task)`` for the first variant of *group*
        whose key this node composes now, or None.

        A variant with no trap site bakes no site facts, and every node
        may bind it.  One with sites first needs the node to map every
        chained target to a trampoline equal to the recorded one (one
        C-level pass).  A mismatch means some site's kind or params
        differ (a trampoline's address is its target), so its key would
        too.  Then the owner, found once per head from its code base,
        composes the key with the recorded site heads.
        """
        spec = self.specializer
        base = owner = None
        for block in group.values():
            if not block.trap:
                return block, None
            if spec is None or tuple(map(spec.kernel.trampolines.get,
                                         block.trap)) != block.trampolines:
                continue
            if block.owner != base:
                base, owner = block.owner, spec.owner(block.owner)
            if owner is not None and spec.trace_key(
                    block.spec_key[0], block.branch, block.regional,
                    owner) == block.spec_key:
                return block, owner[0]
        return None

    def _namespace(self, task) -> dict:
        """The namespace this CPU binds every trace of *task* against
        (None: a trace with no trap site), built at the first bind.
        Nothing reassigns an object it binds once the node runs (the
        register file, the routing tables, ``kernel.stats``,
        ``cpu._blocks``, ...), so it never goes stale."""
        key = None if task is None else task.task_id
        ns = self._namespaces.get(key)
        if ns is None:
            ns = self._namespaces[key] = _base_ns(self.cpu)
            if task is not None:
                ns.update(self.specializer.bindings(self.cpu, task))
        return ns

    def _rebind(self, block: _CachedBlock, ns: dict, consts: dict):
        """The dispatch entry of *block* on this CPU: its code as a
        function over *ns*, this CPU's namespace for the trace's owner,
        plus *consts*, the trace's own names, as :meth:`_compile` builds
        it.  No ``exec``: the code object is the trace function's own."""
        return (FunctionType(block.code, {**ns, **consts}),
                block.icount, block.cost)

    # -- compilation --------------------------------------------------------------

    def _compile(self, pc: int, mem_base):
        consts: dict = {}
        nodes, tail = self._assemble(pc, consts)
        source = _Emitter(nodes, tail).source()
        # The module defines one function: keep that function's code.
        code = compile(source, f"<trace@{pc:#06x}>", "exec").co_consts[0]
        self.stats.lines += source.count("\n") + 1
        facts = [node.facts for node in nodes if node.facts is not None]
        kinds = dict.fromkeys(f.kind for f in facts)
        consts.update((f"kk{i}", kind) for i, kind in enumerate(kinds))
        head = nodes[0]
        # A cut head has no terminator: it retires its members only.
        icount = head.count if head.kind == "cut" else head.count + 1
        ns = self._namespace(facts[0].task if facts else None)
        entry = (FunctionType(code, {**ns, **consts}), icount, head.cost)
        self.stats.compiled += 1
        self.chained.update(node.start for node in nodes[1:])
        if facts:
            # Each chained site is a specialization this trace replaces.
            self.specializer.stats.compiled += len(facts)
        if mem_base is not None:
            self.cpu._block_cache.store(mem_base, pc, self._cached(
                code, consts, icount, head.cost, facts))
        return entry

    def _cached(self, code, consts, icount, cost, facts) -> _CachedBlock:
        """The cache variant of a trace compiled from *facts*, its
        chained sites' facts: what its key needs, then the key this
        node composes for it, as :meth:`_match` composes it later."""
        if not facts:
            return _CachedBlock(code, consts, icount, cost, (), (), False,
                                False, None, _SITELESS)
        heads = tuple((f.kind.name, f.params) for f in facts)
        branch = any(name == "BRANCH_BACKWARD" for name, _ in heads)
        regional = any(name != "BRANCH_BACKWARD" for name, _ in heads)
        base = facts[0].task.image.base
        spec = self.specializer
        key = spec.trace_key(heads, branch, regional, spec.owner(base))
        return _CachedBlock(code, consts, icount, cost,
                            tuple(f.target for f in facts),
                            tuple(f.trampoline for f in facts),
                            branch, regional, base, key)

    def _assemble(self, head: int, consts: dict):
        """Walk the chain of blocks starting at *head*.

        Returns ``(nodes, tail)``.  ``tail`` is ``("backedge",)`` when
        the walk closed a loop back to *head*, ``("exit", addr)`` when it
        stopped at an unchainable block, the block cap, or an inner
        join, and ``("end",)`` when the last node's arms all resolve
        internally (always so after a thunk or cut head).
        """
        nodes: List[_Node] = []
        starts: Dict[int, int] = {}
        task = None
        uid = [0]
        cur = head
        while True:
            if cur in starts:
                tail = ("backedge",) if cur == head else ("exit", cur)
                break
            if len(nodes) >= _MAX_TRACE_BLOCKS:
                tail = ("exit", cur)
                break
            node = self._build_node(cur, consts, uid, not nodes)
            if node is None:
                tail = ("exit", cur)
                break
            if node.facts is not None:
                if task is None:
                    task = node.facts.task
                elif node.facts.task is not task:
                    tail = ("exit", cur)  # one guard covers one task
                    break
            starts[cur] = len(nodes)
            nodes.append(node)
            if node.cont is None:
                tail = ("end",)
                break
            cur = node.cont
        return nodes, tail

    def _build_node(self, start: int, consts: dict, uid, head: bool):
        """Fuse members from *start* and classify the terminator.

        A block that cannot be chained (terminator with dynamic or
        out-of-model control flow, trap the specializer declines, decode
        error, member cap, trap-region boundary) is None, unless it is
        the *head*: that becomes a thunk or cut node.  An undecodable
        head word raises, as it would stepwise.
        """
        cpu = self.cpu
        members: List[_Member] = []
        cur = start
        while len(members) < cpu._max_block:
            if cpu.in_trap_region(cur):
                break
            try:
                ins = cpu._decode_instruction(cur)
            except (InvalidInstruction, MemoryFault):
                if head and cur == start:
                    raise
                break
            parts = cpu._member_parts(ins, consts, uid[0])
            if parts is None:
                node = self._classify(ins, start, members)
                if node is None and head:
                    node = _Node(start, members)
                    node.kind = "thunk"
                    node.target = ins.address
                return node
            uid[0] += 1
            members.append(_Member(*parts, ins))
            cur = ins.next_address
        if not head:
            return None
        node = _Node(start, members)
        node.kind = "cut"
        node.target = cur
        return node

    def _classify(self, ins, start: int, members):
        cpu = self.cpu
        m = ins.mnemonic
        node = _Node(start, members)
        if m in ("JMP", "CALL") and cpu.in_trap_region(ins.operands[0]):
            if self.specializer is None:
                return None
            facts = self.specializer.trace_facts(
                ins.address, ins.operands[0], m == "CALL")
            if facts is None:
                return None
            return self._classify_trap(node, facts)
        if m in ("BRBS", "BRBC"):
            s, k = ins.operands
            node.kind = "brcond"
            node.bit = s
            node.branch_if_set = m == "BRBS"
            node.taken = ins.next_address + k
            node.fall = ins.next_address
            node.jcycles = 2
            node.cont = node.fall
            return node
        if m in ("SBRS", "SBRC"):
            # The skipped (naturalized) instruction's size fixes both
            # the taken target and its extra cycles; flash only changes
            # by a re-burn, which drops every compiled trace.
            try:
                size = cpu.flash.instruction_size(ins.next_address)
            except MemoryFault:
                return None
            node.kind = "skip"
            node.reg, node.bit = ins.operands
            node.branch_if_set = m == "SBRS"
            node.taken = ins.next_address + size
            node.fall = ins.next_address
            node.jcycles = 1 + size
            node.cont = node.fall
            return node
        if m == "RJMP":
            target = ins.next_address + ins.operands[0]
            if cpu.in_trap_region(target):
                return None
            node.kind = "jmp"
            node.target = target
            node.jcycles = 2
            node.cont = target
            return node
        if m == "JMP":
            node.kind = "jmp"
            node.target = ins.operands[0]
            node.jcycles = 3
            node.cont = node.target
            return node
        # RET/RETI, indirect transfers, CPSE/SBIC/SBIS, IN/OUT, SLEEP,
        # BREAK, undecodable: the trace ends before this block.
        return None

    def _classify_trap(self, node: _Node, facts):
        node.kind = "trap"
        node.facts = facts
        name = facts.kind.name
        resume = facts.site + 2
        if name == "BRANCH_BACKWARD":
            bit, _branch_if_set, nat_target = facts.params
            node.bit = bit
            node.branch_if_set = facts.params[1]
            node.nat_target = nat_target
            if nat_target == node.start:
                node.strip = True
                node.cont = None if bit is None else resume
            elif bit is None:
                node.cont = None  # backedge or exit, resolved internally
            else:
                node.cont = resume
            return node
        if name == "MEM_DIRECT":
            from ..kernel.specialize import direct_access
            if facts.params[2] not in _SHADOWED_IO:
                node.access = direct_access(facts.params, facts.region,
                                            facts.config)
            if node.access is None:
                return None  # SP/SREG, or faults at this geometry
            node.cont = resume
            return node
        if name in ("MEM_INDIRECT", "STACK_PUSH", "STACK_POP"):
            node.cont = resume
            return node
        if name == "CALL_DIRECT":
            node.cont = facts.params[0]
            return node
        return None


class _Emitter:
    """Generates the closure source for one assembled trace."""

    def __init__(self, nodes: List[_Node], tail: Tuple):
        self.nodes = nodes
        self.tail = tail
        self.head_addr = nodes[0].start
        trap_facts = [n.facts for n in nodes if n.facts is not None]
        self.has_trap = bool(trap_facts)
        self.has_branch_trap = any(
            f.kind.name == "BRANCH_BACKWARD" for f in trap_facts)
        self.period = (trap_facts[0].config.branch_trap_period
                       if self.has_branch_trap else 0)
        self.kind_order: List[str] = []
        for node in nodes:
            if node.facts is not None:
                name = node.facts.kind.name
                if name not in self.kind_order:
                    self.kind_order.append(name)
                node.kind_index = self.kind_order.index(name)
        self._decide(nodes)
        self.uses_sr = self._uses_sr(nodes)
        self.idle = self._idle_loop(nodes)
        self.skips = False  # a backedge emitted the idle-loop skip
        #: (pc, check, slow) -> xk, one entry per distinct exit.
        self.exits: Dict[Tuple, int] = {}

    # -- idle-loop fast-forward ---------------------------------------------------

    @staticmethod
    def _idle_loop(nodes):
        """``(registers, ports)`` when a loop of this trace may be
        fast-forwarded, else None.

        It qualifies when it reads at least one I/O port with a direct
        load, stores nothing (no ``STS`` member, no storing, pointer,
        stack or call trap) and strip-mines nothing.  *registers* is
        every register the trace writes (member clobbers and ``LDS``
        destinations), *ports* every I/O address it loads.
        """
        from ..kernel.translation import AccessClass
        regs: Set[int] = set()
        ports: Set[int] = set()
        for node in nodes:
            for member in node.members:
                if member.ins.mnemonic == "STS":
                    return None
                regs.update(written_registers(member.ins))
            if node.strip:
                return None
            if node.facts is None:
                continue
            name = node.facts.kind.name
            if name == "MEM_DIRECT":
                mnemonic, reg, address = node.facts.params
                if mnemonic == "STS":
                    return None
                regs.add(reg)
                if node.access[0] is AccessClass.IO:
                    ports.add(address)
            elif name != "BRANCH_BACKWARD":
                return None
        if not ports:
            return None
        return tuple(sorted(regs)), tuple(sorted(ports))

    @staticmethod
    def _clear_iterations(cycles: int, count: int, branches: int,
                          look_n: int, look_c: int) -> str:
        """Expression: how many more iterations of a loop, each advancing
        ``cy`` by *cycles*, ``n`` by *count* and taking *branches* off
        the branch counter, end before the next observable boundary.

        A boundary is the counter reaching zero (the 1-in-256 ``k_sched``
        entry), the next due event (``da``), or a run limit: after each
        counted iteration a block of *look_n* instructions and *look_c*
        member cycles must still fit under ``mi`` and ``mc``.  The count
        is capped at ``_MAX_STRIP``; infinite ``da``/``mi``/``mc`` give
        NaN terms, which never win the ``min`` after the integer cap.
        """
        terms = [str(_MAX_STRIP)]
        if branches:
            terms.append(f"(tb - 1) // {branches}")
        terms += [f"(da - cy - 1) // {cycles}",
                  f"(mi - n - {look_n}) // {count}",
                  f"(mc - cy - {look_c + 1}) // {cycles}"]
        return f"min({', '.join(terms)})"

    def _idle_skip(self, node: _Node, step) -> List[str]:
        """Fast-forward at a backedge from *node*, whose looping arm
        costs *step* ``(cycles, kernel cycles)``.

        The loop stores nothing, so an iteration reads only registers,
        SREG, SRAM and the ports it loads.  When the iteration just run
        left every register it writes and SREG as they were at the loop
        head, and every port it read is stable until ``da`` on this CPU
        (traces are shared across device sets, so that is tested here,
        at run time), the next iterations repeat it exactly: the same
        path and the same per-iteration deltas.  Skip every one of them
        that ends before the next observable boundary; the iteration
        that meets it runs for real, so stops, traps and ``k_sched``
        land where stepwise execution puts them.  ``da`` is -1 under
        ``until()`` and once an interrupt is pending: no skip.
        """
        path = self.nodes[:self.nodes.index(node)]
        cycles = sum(p.step[0] for p in path) + step[0]
        kernel = sum(p.step[1] for p in path) + step[1]
        path.append(node)
        count = sum(p.count + 1 for p in path)
        traps = [p for p in path if p.facts is not None]
        branches = sum(p.facts.kind.name == "BRANCH_BACKWARD"
                       for p in traps)
        regs, ports = self.idle
        head = self.nodes[0]
        test = [f"r[{reg}] == q{reg}" for reg in regs]
        if self.uses_sr:
            test.append("sr == qs")
        test.append("da >= 0")
        test += [f"{port} in io_st" for port in ports]
        deltas = [("cy +=", cycles), ("n +=", count), ("kc +=", kernel),
                  ("tb -=", branches)]
        deltas += [(f"c{i} +=", sum(p.kind_index == i for p in traps))
                   for i in range(len(self.kind_order))]
        advance = ["qk = int(qk)"]
        advance += [f"{target} qk * {per}" for target, per in deltas if per]
        self.skips = True
        return ([f"if {' and '.join(test)}:",
                 "    qk = " + self._clear_iterations(
                     cycles, count, branches, head.count + 1, head.cost),
                 "    if qk > 0:"]
                + _ind(advance, 2))

    def _snapshot(self) -> List[str]:
        """Loop-head copies of what an idle iteration must leave as is."""
        regs, _ = self.idle
        lines = [f"q{reg} = r[{reg}]" for reg in regs]
        if self.uses_sr:
            lines.append("qs = sr")
        return lines

    # -- the strip rule -----------------------------------------------------------

    @staticmethod
    def _decide(nodes) -> None:
        """The strip rule: a strip loop none of whose members reads SREG
        runs its last member's flag update only at the strip's exits
        (``strip_elide``).  A conditional strip also needs that member's
        predicate for the tested bit, which the loop test reads instead;
        an unconditional one needs no earlier member to write flags."""
        for node in nodes:
            members = node.members
            if not (node.strip and members and members[-1].flags
                    and not any(m.reads for m in members)):
                continue
            if node.bit is None:
                node.strip_elide = not any(m.flags for m in members[:-1])
            else:
                node.strip_elide = (1 << node.bit) in members[-1].preds

    @staticmethod
    def _uses_sr(nodes) -> bool:
        """Whether the trace shadows SREG: a member uses ``sr``, or a
        node tests an SREG bit."""
        for node in nodes:
            if any(m.touches for m in node.members):
                return True
            if node.kind in ("brcond", "trap") and node.bit is not None:
                return True
        return False

    # -- shared emission helpers --------------------------------------------------

    @staticmethod
    def _member_lines(node: _Node) -> List[str]:
        """Every member's effect and flag lines, in order, but for the
        flag lines the strip rule moves to a strip's exits."""
        lines: List[str] = []
        moved = node.members[-1] if node.strip_elide else None
        for member in node.members:
            lines += member.effect
            if member is not moved:
                lines += member.flags
        return lines

    def _exit(self, pc: int, check: bool = False, mats=(),
              slow=None) -> List[str]:
        """An exit: run *mats* (a strip exit's moved flag lines), then
        leave the trace loop for the shared epilogue (:meth:`_epilogue`) with
        ``xk`` naming what this exit resumes with: the pc, whether the
        branch counter may be spent (*check*: at ``tb <= 0`` it resets
        and enters the scheduler) and the *slow* dispatch to run after
        the write-back — a trap site's ``(site, target, is_call)`` for
        ``k_slow``, or a thunk head's call.  Exits that resume alike
        share one index."""
        key = (pc, check, slow)
        index = self.exits.setdefault(key, len(self.exits))
        return list(mats) + [f"xk = {index}", "break"]

    def _epilogue(self) -> List[str]:
        """The one write-back every exit breaks to: the shadowed state,
        the trap counters, the exit's resume pc, then (order matters)
        the branch-counter/scheduler step and any slow dispatch — both
        may preempt and must observe exactly the state a stand-alone
        specialized block would have left.  What differs between exits
        is picked by ``xk`` from per-trace constant tuples."""
        exits = list(self.exits)
        lines = ["cpu.sreg = sr"] if self.uses_sr else []
        lines += ["cpu.cycles = cy", "cpu.instret = n"]
        for i in range(len(self.kind_order)):
            lines.append(f"if c{i}: k_counts[kk{i}] = "
                         f"k_counts.get(kk{i}, 0) + c{i}")
        if self.has_trap:
            lines += ["k_stats.kernel_cycles += kc",
                      "k_task.kernel_cycles += kc"]
        lines.append(f"cpu.pc = {_pick([pc for pc, _, _ in exits])}")
        if self.has_branch_trap:
            checks = [k for k, (_, check, _) in enumerate(exits) if check]
            if checks:
                among = _among(checks, len(exits))
                lines += [f"if tb <= 0{' and ' + among if among else ''}:",
                          f"    k_task.branch_counter = {self.period}",
                          "    k_sched()",
                          "else:",
                          "    k_task.branch_counter = tb"]
            else:
                lines.append("k_task.branch_counter = tb")
        calls = [slow for _, _, slow in exits]
        slows = [k for k, call in enumerate(calls) if call is not None]
        if slows:
            call = calls[slows[0]]
            if not isinstance(call, str):  # k_slow arguments, per exit
                call = self._slow_call(*(
                    _pick([None if c is None else c[i] for c in calls])
                    for i in range(3)))
            among = _among(slows, len(exits))
            tail = [call, "cpu.instret += 1"]
            lines += ([f"if {among}:"] + _ind(tail)) if among else tail
        return lines

    def _seam(self, target: _Node) -> List[str]:
        """Dispatch-boundary check before re-entering *target* inside
        the trace: replicates ``_run_fused``'s event/limit gate, exiting
        when the next block may not start."""
        return ([f"if cy >= da or n + {target.count + 1} > mi "
                 f"or cy + {target.cost} >= mc:"]
                + _ind(self._exit(target.start)))

    def _backedge(self, node: _Node, step) -> List[str]:
        """Close the loop from *node*, whose looping arm costs *step*."""
        lines = self._seam(self.nodes[0])
        if self.idle is not None:
            lines += self._idle_skip(node, step)
        return lines + ["continue"]

    # -- per-node bodies ----------------------------------------------------------

    def _node_body(self, node: _Node) -> List[str]:
        if node.kind in ("brcond", "skip"):
            return self._two_way_body(node)
        if node.kind == "jmp":
            return self._jmp_body(node)
        if node.kind == "thunk":
            return self._thunk_body(node)
        if node.kind == "cut":
            return self._trap_prologue(node) + self._exit(node.target)
        name = node.facts.kind.name
        if name == "BRANCH_BACKWARD":
            if node.strip:
                return self._strip_body(node)
            return self._branch_trap_body(node)
        if name == "MEM_INDIRECT":
            return self._mem_indirect_body(node)
        if name == "MEM_DIRECT":
            return self._mem_direct_body(node)
        if name == "STACK_PUSH":
            return self._stack_push_body(node)
        if name == "STACK_POP":
            return self._stack_pop_body(node)
        return self._call_direct_body(node)

    @staticmethod
    def _taken_test(node: _Node, flags: str = "sr") -> str:
        """The taken condition of a two-way node: a register bit for a
        skip, else an SREG bit of *flags*, the SREG holder (the deopt
        path may name ``cpu.sreg``)."""
        if node.kind == "skip":
            expr = f"r[{node.reg}] & {1 << node.bit}"
        else:
            expr = f"{flags} & {1 << node.bit}"
        return expr if node.branch_if_set else f"not ({expr})"

    def _two_way_body(self, node: _Node) -> List[str]:
        """A native conditional branch or an SBRS/SBRC skip: the taken
        arm exits (or closes the loop), the fall-through continues."""
        lines = self._member_lines(node)
        lines.append(f"n += {node.count + 1}")
        taken_cycles = node.cost + node.jcycles
        taken = [f"cy += {taken_cycles}"]
        if node.taken == self.head_addr:
            taken += self._backedge(node, (taken_cycles, 0))
        else:
            taken += self._exit(node.taken)
        lines.append(f"if {self._taken_test(node)}:")
        lines += _ind(taken)
        node.step = (node.cost + 1, 0)
        lines.append(f"cy += {node.step[0]}")
        return lines

    def _jmp_body(self, node: _Node) -> List[str]:
        node.step = (node.cost + node.jcycles, 0)
        lines = self._member_lines(node)
        lines += [f"cy += {node.step[0]}",
                  f"n += {node.count + 1}"]
        return lines

    def _trap_prologue(self, node: _Node) -> List[str]:
        """Members plus their accounting: member cycles land before the
        terminator (trap code or thunk) runs, as they do stepwise."""
        lines = self._member_lines(node)
        if node.cost:
            lines.append(f"cy += {node.cost}")
        if node.count:
            lines.append(f"n += {node.count}")
        return lines

    def _thunk_body(self, node: _Node) -> List[str]:
        """A thunk head: the members, an exit that puts the pc on the
        terminator (where stepwise execution has it: a trap handler that
        ends the last task leaves it there), then the terminator's
        decoded thunk."""
        address = node.target
        call = f"(cpu._exec.get({address}) or cpu._decode_at({address}))()"
        return self._trap_prologue(node) + self._exit(address, slow=call)

    @staticmethod
    def _slow_call(site, target, is_call) -> str:
        return f"k_slow(cpu, {site}, {target}, {is_call})"

    def _slow_exit(self, facts) -> List[str]:
        """The exit of a trap whose fast arm does not apply: the pc on
        the trap site, then the generic dispatch."""
        return self._exit(facts.site,
                          slow=(facts.site, facts.target, facts.is_call))

    def _mem_indirect_body(self, node: _Node) -> List[str]:
        from ..kernel import costs
        facts = node.facts
        mnemonic, reg, mode, grouped = facts.params
        region = facts.region
        config = facts.config
        rs = config.ram_start
        mem_size = config.memory_size
        heap_high = rs + region.heap_size
        heap_disp = region.p_l - rs
        stack_disp = region.p_u - mem_size
        ptr_base = {"X": 26, "Y": 28, "Z": 30}
        if mnemonic in ("LD", "ST"):
            base = ptr_base[mode.strip("+-")]
            addr = [f"ta = r[{base}] | (r[{base + 1}] << 8)"]
            if mode.startswith("-"):
                addr.append("ta = (ta - 1) & 0xFFFF")
            if mode.endswith("+"):
                post = ["tu = (ta + 1) & 0xFFFF",
                        f"r[{base}] = tu & 0xFF",
                        f"r[{base + 1}] = tu >> 8"]
            elif mode.startswith("-"):
                post = [f"r[{base}] = ta & 0xFF",
                        f"r[{base + 1}] = ta >> 8"]
            else:
                post = []
            store = mnemonic == "ST"
        else:  # LDD / STD
            ptr, displacement = mode
            base = ptr_base[ptr]
            addr = [f"ta = ((r[{base}] | (r[{base + 1}] << 8))"
                    f" + {displacement}) & 0xFFFF"]
            post = []
            store = mnemonic == "STD"
        overhead_heap = costs.MEM_GROUPED_FOLLOWER if grouped \
            else costs.MEM_INDIRECT_HEAP
        overhead_stack = costs.MEM_GROUPED_FOLLOWER if grouped \
            else costs.MEM_INDIRECT_STACK_FRAME
        charge_heap = 2 + overhead_heap
        charge_stack = 2 + overhead_stack
        counter = f"c{node.kind_index}"
        eff_heap = f"mem[ta + {heap_disp}] = r[{reg}]" if store \
            else f"r[{reg}] = mem[ta + {heap_disp}]"
        eff_stack = f"mem[tp] = r[{reg}]" if store \
            else f"r[{reg}] = mem[tp]"
        arm_heap = [f"{counter} += 1", eff_heap,
                    f"cy += {charge_heap}", f"kc += {charge_heap}"] \
            + post + ["n += 1"]
        arm_stack = [f"{counter} += 1", eff_stack,
                     f"cy += {charge_stack}", f"kc += {charge_stack}"] \
            + post + ["n += 1"]
        lines = self._trap_prologue(node)
        lines += addr
        slow = self._slow_exit(facts)
        lines.append(f"if {rs} <= ta < {heap_high}:")
        lines += _ind(arm_heap)
        lines.append(f"elif {heap_high} <= ta < {mem_size}:")
        lines.append(f"    tp = ta + ({stack_disp})")
        lines.append(f"    if tp >= {region.p_h}:")
        lines += _ind(arm_stack, 2)
        lines.append("    else:")
        lines += _ind(slow, 2)
        lines.append("else:")
        lines += _ind(slow)
        return lines

    def _mem_direct_body(self, node: _Node) -> List[str]:
        from ..kernel.translation import AccessClass
        facts = node.facts
        access, effect, charge = node.access
        lines = self._trap_prologue(node)
        if access is AccessClass.IO and node.cost:
            # An event due by the end of the members fires before the
            # access, as it does stepwise: exit to the dispatch loop at
            # the site, which runs the event and re-enters at a trace
            # headed by the access itself.
            lines.append("if cy >= da:")
            lines += _ind(self._exit(facts.site))
        lines.append(f"c{node.kind_index} += 1")
        if access is AccessClass.IO:
            # Device hooks read the clock and may schedule or cancel
            # events: publish cy/n first, then re-read the horizon
            # (keeping until()'s -1.0 pin) so the next seam exits on
            # time — and at once if an interrupt became pending.
            lines += ["cpu.cycles = cy", "cpu.instret = n", effect,
                      "if da >= 0: da = -1.0 if cpu._pending_irqs "
                      "else cpu.events.next_due"]
        else:
            lines.append(effect)
        lines += [f"cy += {charge}", f"kc += {charge}", "n += 1"]
        node.step = (node.cost + charge, charge)
        return lines

    def _stack_push_body(self, node: _Node) -> List[str]:
        from ..kernel import costs
        facts = node.facts
        (reg,) = facts.params
        region = facts.region
        floor = region.p_h + facts.config.stack_margin
        charge = 2 + costs.STACK_OP
        fast = [f"c{node.kind_index} += 1",
                "if tsp < k_task.min_sp_seen: k_task.min_sp_seen = tsp",
                f"td = {region.p_u} - tsp",
                "if td > k_task.max_stack_used: "
                "k_task.max_stack_used = td",
                f"mem[tsp] = r[{reg}]",
                "cpu.sp = tsp - 1",
                f"cy += {charge}", f"kc += {charge}", "n += 1"]
        lines = self._trap_prologue(node)
        lines += ["tsp = cpu.sp", f"if tsp >= {floor}:"]
        lines += _ind(fast)
        lines.append("else:")
        lines += _ind(self._slow_exit(facts))
        return lines

    def _stack_pop_body(self, node: _Node) -> List[str]:
        from ..kernel import costs
        facts = node.facts
        (reg,) = facts.params
        region = facts.region
        charge = 2 + costs.STACK_OP
        fast = [f"c{node.kind_index} += 1",
                "cpu.sp = tsp",
                f"r[{reg}] = mem[tsp]",
                f"cy += {charge}", f"kc += {charge}", "n += 1"]
        lines = self._trap_prologue(node)
        lines.append("tsp = cpu.sp + 1")
        lines.append(f"if tsp < {region.p_u}:")
        lines += _ind(fast)
        lines.append("else:")
        lines += _ind(self._slow_exit(facts))
        return lines

    def _call_direct_body(self, node: _Node) -> List[str]:
        from ..kernel import costs
        facts = node.facts
        (nat_target,) = facts.params
        region = facts.region
        resume = facts.site + 2
        floor = region.p_h + facts.config.stack_margin
        charge = 4 + costs.CALL_TRAMPOLINE
        fast = [f"c{node.kind_index} += 1",
                "if tsp < k_task.min_sp_seen: k_task.min_sp_seen = tsp",
                f"td = {region.p_u + 1} - tsp",
                "if td > k_task.max_stack_used: "
                "k_task.max_stack_used = td",
                f"mem[tsp] = {resume & 0xFF}",
                f"mem[tsp - 1] = {(resume >> 8) & 0xFF}",
                "cpu.sp = tsp - 2",
                f"cy += {charge}", f"kc += {charge}", "n += 1"]
        lines = self._trap_prologue(node)
        lines += ["tsp = cpu.sp", f"if tsp - 1 >= {floor}:"]
        lines += _ind(fast)
        lines.append("else:")
        lines += _ind(self._slow_exit(facts))
        return lines

    def _branch_trap_body(self, node: _Node) -> List[str]:
        from ..kernel import costs
        facts = node.facts
        inline = costs.BRANCH_COUNTER_INLINE
        resume = facts.site + 2
        counter = f"c{node.kind_index}"
        lines = self._member_lines(node)
        lines += [f"n += {node.count + 1}", f"{counter} += 1",
                  "tb -= 1"]
        taken_step = (node.cost + 2 + inline, 2 + inline)
        taken = [f"cy += {taken_step[0]}", f"kc += {taken_step[1]}"]
        if node.nat_target == self.head_addr:
            taken.append("if tb <= 0:")
            taken += _ind(self._exit(node.nat_target, check=True))
            taken += self._backedge(node, taken_step)
        else:
            taken += self._exit(node.nat_target, check=True)
        if node.bit is None:
            return lines + taken
        lines.append(f"if {self._taken_test(node)}:")
        lines += _ind(taken)
        node.step = (node.cost + 1 + inline, 1 + inline)
        lines += [f"cy += {node.step[0]}",
                  f"kc += {node.step[1]}",
                  "if tb <= 0:"]
        lines += _ind(self._exit(resume, check=True))
        return lines

    def _strip_body(self, node: _Node) -> List[str]:
        """Strip-mined self-looping backward-branch trap.

        ``im`` is the largest iteration count that provably cannot cross
        any observable boundary — the branch counter, the next due
        event, and both run limits — so the strip body runs with *no*
        per-iteration checks; the post-strip check then trips on exactly
        the iteration stepwise execution would have stopped at.  A
        pending ``until()`` (``da == -1.0``) degenerates to one
        iteration per dispatch, matching the specializer's full-body
        loop.
        """
        from ..kernel import costs
        facts = node.facts
        inline = costs.BRANCH_COUNTER_INLINE
        resume = facts.site + 2
        counter = f"c{node.kind_index}"
        iter_count = node.count + 1
        taken_cycles = node.cost + 2 + inline
        taken_kernel = 2 + inline
        inloop = self._member_lines(node)
        mats = list(node.members[-1].flags) if node.strip_elide else []
        # The iterations that end before every boundary, plus the one
        # that may meet it: the exit check below sees that one.
        bounds = "im = " + _Emitter._clear_iterations(
            taken_cycles, iter_count, 1, iter_count, node.cost) + " + 1"
        account = [f"cy += im * {taken_cycles}",
                   f"n += im * {iter_count}",
                   "tb -= im",
                   f"kc += im * {taken_kernel}",
                   f"{counter} += im"]
        exit_check = (f"if tb <= 0 or cy >= da or n + {iter_count} > mi "
                      f"or cy + {node.cost} >= mc:")
        exit_lines = _ind(self._exit(node.start, check=True, mats=mats))
        lines = ["while True:"]
        inner = [bounds, "im = 1 if im < 1 else int(im)"]
        if node.bit is None:
            if inloop:
                inner.append("for j in range(im):")
                inner += _ind(inloop)
            inner += account
            inner.append(exit_check)
            inner += exit_lines
            lines += _ind(inner)
            # The strip loop ends only through its exit: pass it on.
            return lines + ["break"]
        if node.strip_elide:
            pred = node.members[-1].preds[1 << node.bit]
            fall_test = f"not ({pred})" if node.branch_if_set else pred
        else:
            mask = 1 << node.bit
            fall_test = f"not (sr & {mask})" if node.branch_if_set \
                else f"sr & {mask}"
        inner.append("for j in range(1, im + 1):")
        inner += _ind(inloop + [f"if {fall_test}:", "    break"])
        inner.append("else:")
        inner += _ind(account + [exit_check] + exit_lines
                      + ["continue"])
        inner += [f"cy += j * {taken_cycles} - 1",
                  f"n += j * {iter_count}",
                  "tb -= j",
                  f"kc += j * {taken_kernel} - 1",
                  f"{counter} += j",
                  "break"]
        lines += _ind(inner)
        # An exit breaks out of the strip loop only: pass it on.
        lines.append("if xk >= 0: break")
        lines += mats
        lines.append("if tb <= 0:")
        lines += _ind(self._exit(resume, check=True))
        return lines

    # -- guard / deopt ------------------------------------------------------------

    def _guard_lines(self) -> List[str]:
        facts = [n.facts for n in self.nodes if n.facts is not None]
        guard = (f"if k_task is not k_kernel.current "
                 f"or k_task.region_epoch != {facts[0].epoch}:")
        return [guard] + _ind(self._deopt_lines())

    def _deopt_lines(self) -> List[str]:
        """Guard-failure arm: retire this trace's cache slot and execute
        the head block generically (full flags, generic trap dispatch),
        mirroring what a deoptimized fused block would do."""
        head = self.nodes[0]
        lines = ["k_spec.deopts += 1", f"k_bl[{head.start}] = None"]
        touches = any(m.touches for m in head.members)
        if touches:
            lines.append("sr = cpu.sreg")
        for member in head.members:
            lines += member.effect
            lines += member.flags
        if touches:
            lines.append("cpu.sreg = sr")
        if head.kind == "trap":
            if head.cost:
                lines.append(f"cpu.cycles += {head.cost}")
            if head.count:
                lines.append(f"cpu.instret += {head.count}")
            lines += [f"cpu.pc = {head.facts.site}",
                      self._slow_call(head.facts.site, head.facts.target,
                                      head.facts.is_call),
                      "cpu.instret += 1"]
        elif head.kind in ("brcond", "skip"):
            test = self._taken_test(head, "sr" if touches else "cpu.sreg")
            lines += [f"if {test}:",
                      f"    cpu.pc = {head.taken}",
                      f"    cpu.cycles += {head.cost + head.jcycles}",
                      "else:",
                      f"    cpu.pc = {head.fall}",
                      f"    cpu.cycles += {head.cost + 1}",
                      f"cpu.instret += {head.count + 1}"]
        else:  # jmp
            lines += [f"cpu.pc = {head.target}",
                      f"cpu.cycles += {head.cost + head.jcycles}",
                      f"cpu.instret += {head.count + 1}"]
        lines.append("return")
        return lines

    # -- whole-closure assembly ---------------------------------------------------

    def source(self) -> str:
        body: List[str] = []
        if self.has_trap:
            body += self._guard_lines()
        if self.uses_sr:
            body.append("sr = cpu.sreg")
        body += ["cy = cpu.cycles",
                 "n = cpu.instret",
                 # Only I/O sites can move next_due mid-trace, and
                 # they re-read it; -1.0 forces an exit at the first
                 # seam when until() must be evaluated per dispatch.
                 "da = -1.0 if cpu._run_until is not None "
                 "else cpu.events.next_due",
                 "mi = cpu._run_mi",
                 "mc = cpu._run_mc"]
        if self.has_branch_trap:
            body.append("tb = k_task.branch_counter")
        if self.has_trap:
            body.append("kc = 0")
        for i in range(len(self.kind_order)):
            body.append(f"c{i} = 0")
        if any(node.strip and node.bit is not None for node in self.nodes):
            body.append("xk = -1")  # no exit yet: see _strip_body
        body.append("while True:")
        inner: List[str] = []
        for i, node in enumerate(self.nodes):
            if i > 0:
                inner += self._seam(node)
            inner += self._node_body(node)
        if self.tail == ("backedge",):
            last = self.nodes[-1]
            inner += self._backedge(last, last.step)
        elif self.tail[0] == "exit":
            inner += self._exit(self.tail[1])
        # ("end",): the last node resolved every arm internally.
        if self.skips:
            inner = self._snapshot() + inner
        if len(self.exits) == 1:
            # One exit (every thunk and cut head): the epilogue names
            # its constants directly, so nothing reads xk.
            inner = [line for line in inner if line.strip() != "xk = 0"]
        body += _ind(inner)
        body += self._epilogue()
        return "def _blk():\n" + "\n".join(_ind(body))
