"""Trace JIT: the CPU's one fused code generator.

With ``fuse=True`` every dispatch entry of :meth:`AvrCpu._fuse_block`
is a trace compiled here, once its head is hot: a head runs on the
stepwise oracle (``AvrCpu.step``) until its ``TIER_UP``-th dispatch
(:meth:`TraceCompiler.hot`), unless a cached or stored trace can serve
it at once.  A trace is the head block plus the blocks its direct
transfers chain into (unconditional jumps, conditional branches,
``SBRS``/``SBRC`` skips, and the specialized trap fast paths), as one
``exec``-compiled closure, so a hot loop executes with locals-only
state:

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
  per-iteration limit checks at all;
* an idle poll loop is *fast-forwarded*: when an iteration of a loop
  that stores nothing left its registers and SREG unchanged and every
  port it read is stable (``AvrCpu.io_stable``), the iterations up to
  the next observable boundary are skipped in closed form;
* SREG liveness (per-mnemonic masks from
  :mod:`repro.analysis.static.liveness`) elides flag computation that no
  successor inside the trace can observe, and defers a branch-feeding
  member's flags past the branch test — the test reads the result
  predicate directly and the flag lines materialize only on trace exits
  that did not kill them.

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
:class:`~repro.avr.cpu.SuperblockCache` (key-prefixed ``"trace"``) and,
when a :class:`TraceStore` is configured, persisted to disk as *source*
plus the per-site specialization keys — never code objects — keyed by
flash fingerprint, memory size and trap ranges.  A warm process compiles
nothing: it recompiles the stored source, which is cheap and versioned;
corrupt, stale or mismatched entries fall back to a clean recompile.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.static.dataflow import _written_regs
from ..analysis.static.liveness import sreg_effects
from ..fingerprint import content_key
from ..errors import InvalidInstruction, MemoryFault
from . import ioports
from .cpu import (_ASR_TABLE, _DEC_TABLE, _INC_TABLE, _LOGIC_TABLE,
                  _LSR_TABLE, _NEG_TABLE, _ROR_TABLES, _CachedBlock,
                  _add_table, _sub_row, _sub_table)

#: Maximum chained blocks per trace (bounds compile time and the code
#: size of the generated closure; loops longer than this still trace —
#: the tail exit re-enters the dispatch loop, which starts a new trace).
_MAX_TRACE_BLOCKS = 8

#: Strip-mining cap: bounds a single uninterrupted run of a self-loop
#: (16M iterations) so ``im`` stays a small int even under infinite run
#: limits.
_MAX_STRIP = 16_777_216

#: On-disk artifact format version; any change to the generated source
#: conventions or the artifact schema must bump this.
STORE_VERSION = 6

#: Tier-up threshold: a trace head runs on the stepwise oracle for its
#: first ``TIER_UP - 1`` dispatches and compiles on dispatch number
#: ``TIER_UP`` (1 compiles every head on first sight).  One constant,
#: set by tests; picked by a sweep over 64/128/256 (INTERNALS.md §11).
TIER_UP = 64

#: Heat of a head that got a trace under a private cache: it stays hot,
#: so a deopt or a new spec-key variant recompiles at once.
_HOT = float("inf")

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
    store_hits: int = 0    # recompiles served by the persistent store
    store_misses: int = 0  # store lookups that found no usable artifact
                           # (one per compile under a store)
    lines: int = 0         # generated source lines of the compiled traces
    stepped: int = 0       # dispatches of cold heads, served by step()


def _base_ns(cpu) -> dict:
    """The namespace every generated trace closure is exec'd against."""
    return {
        "cpu": cpu, "r": cpu.r, "mem": cpu.mem.data, "flash": cpu.flash,
        "io_rd": cpu.io_read, "io_wr": cpu.io_write, "io_st": cpu.io_stable,
        "lf": _LOGIC_TABLE, "incf": _INC_TABLE, "decf": _DEC_TABLE,
        "lsrf": _LSR_TABLE, "asrf": _ASR_TABLE, "negf": _NEG_TABLE,
        "rorf0": _ROR_TABLES[0], "rorf1": _ROR_TABLES[1],
    }


#: Flag tables a fused member binds, by mnemonic -> (prefix, kind, cin).
#: SUBI/CPI/SBCI also need the immediate operand and are handled apart.
_TABLE_MNEMONICS = {
    "ADD": (("t", "add", 0),),
    "ADC": (("t", "add", 0), ("u", "add", 1)),
    "SUB": (("t", "sub", 0),),
    "CP": (("t", "sub", 0),),
    "SBC": (("t", "sub", 0), ("u", "sub", 1)),
    "CPC": (("t", "sub", 0), ("u", "sub", 1)),
}


def _build_tables(manifest) -> dict:
    """Rebuild the site-specific flag tables named by a stored artifact."""
    tables = {}
    for entry in manifest:
        name, kind = entry[0], entry[1]
        if kind == "add":
            tables[name] = _add_table(entry[2])
        elif kind == "sub":
            tables[name] = _sub_table(entry[2])
        elif kind == "subrow":
            tables[name] = _sub_row(entry[2], entry[3])
        else:
            raise ValueError(f"unknown table kind {kind!r}")
    return tables


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

    __slots__ = ("effect", "flags", "cycles", "touches", "preds",
                 "reads", "writes", "elided", "ins")

    def __init__(self, effect, flags, cycles, touches, preds, reads,
                 writes, ins):
        self.ins = ins          # the decoded instruction
        self.effect = effect    # register/memory effect lines
        self.flags = flags      # separable SREG update lines
        self.cycles = cycles
        self.touches = touches  # any line references the sr local
        self.preds = preds      # flag-bit mask -> predicate expression
        self.reads = reads      # architectural SREG read mask
        self.writes = writes    # architectural SREG write mask
        self.elided = False     # flag lines dropped (dead inside node)


class _Node:
    """One chained block: members plus a classified terminator."""

    __slots__ = ("start", "members", "count", "cost", "kind", "facts",
                 "cont", "bit", "reg", "branch_if_set", "taken", "fall",
                 "target", "jcycles", "nat_target", "strip", "deferred",
                 "strip_elide", "kind_index", "step")

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
        self.deferred = False    # last member's flags deferred past test
        self.strip_elide = False
        self.kind_index = None   # index into the per-kind count locals
        self.step = None         # (cycles, kernel cycles) of the arm
                                 # that continues to ``cont``


#: Default cap on files a :class:`TraceStore` directory may hold; the
#: ``SENSMART_TRACE_STORE_MAX`` environment variable overrides it.
_DEFAULT_STORE_MAX_FILES = 256


@dataclass
class TraceStoreStats:
    """On-disk store traffic, shown by ``sensmart run --stats``."""

    writes: int = 0     # files written (one per image, rewritten per put)
    evictions: int = 0  # files removed to enforce the size bound
    corrupt: int = 0    # files present but unusable (bad JSON, version
                        # or fingerprint mismatch) — served as misses


class TraceStore:
    """Persistent compiled-trace artifacts, one JSON file per image.

    Artifacts are generated Python *source* plus the data needed to
    rebind it (flag-table manifest, chained trap sites, composite spec
    key) — never pickled code objects, so the store is portable across
    Python versions and a stale or corrupt file can always be ignored.
    Writes are atomic (temp file + ``os.replace``) and best-effort: an
    unwritable store degrades to a per-process compile, never an error.

    The directory is bounded: at most *max_files* image files live in
    it, evicted LRU-ish by modification time (every load of a file
    refreshes its mtime, so hot images survive and the fleet's
    long-dead images age out).
    """

    def __init__(self, path: str, max_files: Optional[int] = None):
        self.path = path
        if max_files is None:
            try:
                max_files = int(os.environ.get(
                    "SENSMART_TRACE_STORE_MAX", _DEFAULT_STORE_MAX_FILES))
            except ValueError:
                max_files = _DEFAULT_STORE_MAX_FILES
        self.max_files = max_files
        self.stats = TraceStoreStats()
        self._cache: Dict[str, dict] = {}  # filename -> traces dict

    def _file_for(self, base) -> str:
        fingerprint, mem_size, trap_ranges = base
        tag = content_key(trap_ranges, digest_size=6)
        return os.path.join(self.path,
                            f"{fingerprint[:24]}_{mem_size}_{tag}.json")

    def load(self, base) -> dict:
        """``{str(pc): {repr(spec_key): artifact}}`` for *base* (may be
        empty).  Any read error — missing file, bad JSON, version or
        fingerprint mismatch — is a miss, never an exception."""
        filename = self._file_for(base)
        traces = self._cache.get(filename)
        if traces is None:
            traces = self._read(filename, base)
            self._cache[filename] = traces
            try:
                os.utime(filename)  # LRU touch: this image is in use
            except OSError:
                pass
        return traces

    def _read(self, filename: str, base) -> dict:
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return {}
        except ValueError:
            self.stats.corrupt += 1
            return {}
        if not isinstance(payload, dict) \
                or payload.get("version") != STORE_VERSION \
                or payload.get("fingerprint") != base[0]:
            # The filename truncates the fingerprint, so it is verified
            # here; a mismatch of any part means the file is unusable.
            self.stats.corrupt += 1
            return {}
        traces = payload.get("traces")
        return traces if isinstance(traces, dict) else {}

    def put(self, base, pc: int, key_repr: str, artifact: dict) -> None:
        traces = self.load(base)
        traces.setdefault(str(pc), {})[key_repr] = artifact
        payload = {"version": STORE_VERSION, "fingerprint": base[0],
                   "traces": traces}
        filename = self._file_for(base)
        try:
            os.makedirs(self.path, exist_ok=True)
            tmp = filename + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, filename)
            self.stats.writes += 1
            self._evict(keep=filename)
        except OSError:
            pass  # best-effort: a read-only store still serves loads

    def _evict(self, keep: str) -> None:
        """Drop the oldest files once the directory exceeds the bound
        (never the file just written)."""
        try:
            entries = [os.path.join(self.path, name)
                       for name in os.listdir(self.path)
                       if name.endswith(".json")]
            if len(entries) <= self.max_files:
                return
            entries.sort(key=lambda p: (p != keep, -os.path.getmtime(p)))
            for victim in entries[self.max_files:]:
                os.remove(victim)
                self._cache.pop(victim, None)
                self.stats.evictions += 1
        except OSError:
            pass


class TraceCompiler:
    """Assembles, compiles, caches and rebinds traces.

    Installed on the CPU via :meth:`AvrCpu.set_tracer` (a bare CPU
    builds one without a specializer on first use).  ``_fuse_block``
    asks :meth:`hot` first; for a hot head, :meth:`entry_for` returns a
    ``(closure, icount, cost)`` dispatch entry: the head block's counts,
    so the dispatch-loop exact-stop check covers the head and seams
    cover the rest.
    """

    def __init__(self, cpu, specializer=None, store: Optional[TraceStore]
                 = None, max_blocks: int = _MAX_TRACE_BLOCKS):
        self.cpu = cpu
        self.specializer = specializer
        self.store = store
        self.stats = TraceStats()
        self.max_blocks = max_blocks
        #: Start of every block chained behind the head of a trace this
        #: compiler built: the pcs a seam exit can leave the dispatch
        #: loop at, mid-loop (cache priming fuses them ahead of time).
        self.chained: Set[int] = set()
        #: Heat scope under a private cache (``block_cache=False``): pc
        #: -> cold dispatches, ``_HOT`` once it got a trace.  A shared
        #: cache keeps its heat per image base instead.
        self._heat: Dict[int, float] = {}

    # -- entry point --------------------------------------------------------------

    def hot(self, pc: int) -> bool:
        """Whether the dispatch at *pc* gets a trace entry now.

        Heat gates compilation only, never a bind: a head with a group
        in the shared cache, or one whose first dispatch in its heat
        scope finds a matching store artifact, is hot at once.
        Otherwise the dispatch counts toward ``TIER_UP``; a cold one
        returns False, counts in ``stats.stepped`` and runs on the
        stepwise oracle.  A head that got a trace stays hot: on a
        shared cache its group says so (a head whose group the FIFO
        bound evicts warms up again), on a private one its heat turns
        ``_HOT``.  Cold dispatches stay outside :meth:`entry_for`,
        which is called only when a bind or a compile follows.
        """
        base = self.cpu._cache_base()
        if base is None:
            heat, key = self._heat, pc
        else:
            cache = self.cpu._block_cache
            key = (("trace",) + base, pc)
            if key in cache.groups:
                return True
            heat = cache.heat
        count = heat.get(key, 0) + 1
        if count < TIER_UP and not (count == 1 and self.store is not None
                                    and self._stored(pc)):
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
            group = cache.groups.get((("trace",) + mem_base, pc))
            if group:
                for block in group.values():
                    resolved = self._resolve_sites(block.trap)
                    if resolved is None or resolved[0] != block.spec_key:
                        continue
                    cache.hits += 1
                    self.stats.cache_hits += 1
                    _, task, kinds = resolved
                    return self._rebind(block, task, kinds)
            cache.misses += 1
        if self.store is not None:
            entry = self._from_store(pc, mem_base)
            if entry is not None:
                return entry
        return self._compile(pc, mem_base)

    # -- cache / store plumbing ---------------------------------------------------

    def _store_base(self):
        """Store key: computed fresh so the persistent store works even
        when in-process block sharing is disabled."""
        cpu = self.cpu
        return (cpu.flash.fingerprint(), cpu.mem.size,
                tuple(cpu._trap_ranges))

    def _resolve_sites(self, sites):
        """Current ``(composite_key, owner, kinds)`` for a stored site
        list, or None when any site can no longer be specialized the
        same way (kind retired, task dead, region gone, owner mismatch).

        The composite key appends the owner task's region epoch even
        when no chained site bakes region constants: a trace hoists
        every site under one entry guard, and guarding (and keying) the
        epoch uniformly means any externally-forced region change
        retires all of the owning task's traces through the normal
        deopt-then-recompile path.
        """
        if not sites:
            return ((), None), None, ()
        if self.specializer is None:
            return None
        return self.specializer.trace_key(sites)

    def _bind(self, ns: dict, task, kinds) -> None:
        """Namespace bindings for the chained sites: the owner's kernel
        objects plus ``kk{i}`` per distinct trap kind, in first-occurrence
        order over the chain (the emitter numbers its count locals the
        same way)."""
        if task is None:
            return
        ns.update(self.specializer.bindings(self.cpu, task))
        seen: List[object] = []
        for kind in kinds:
            if kind not in seen:
                ns[f"kk{len(seen)}"] = kind
                seen.append(kind)

    def _rebind(self, block: _CachedBlock, task, kinds):
        ns = _base_ns(self.cpu)
        ns.update(block.tables)
        self._bind(ns, task, kinds)
        exec(block.code, ns)
        return (ns["_blk"], block.icount, block.cost)

    def _stored_traces(self, pc: int) -> dict:
        """The store's ``{repr(spec_key): artifact}`` for *pc*."""
        return self.store.load(self._store_base()).get(str(pc)) or {}

    def _stored(self, pc: int) -> bool:
        """Whether the store holds an artifact for *pc* that matches
        the current specialization constants."""
        return any(self._match(key_repr, artifact) is not None
                   for key_repr, artifact
                   in self._stored_traces(pc).items())

    def _from_store(self, pc: int, mem_base):
        for key_repr, artifact in self._stored_traces(pc).items():
            entry = self._load_artifact(pc, mem_base, key_repr, artifact)
            if entry is not None:
                return entry
        self.stats.store_misses += 1
        return None

    def _match(self, key_repr, artifact):
        """``(sites, key, task, kinds)`` when *artifact* was compiled
        under the current specialization constants, else None (also
        when its site list is corrupt)."""
        try:
            sites = tuple((int(s), int(t), bool(c))
                          for s, t, c in artifact["sites"])
            resolved = self._resolve_sites(sites)
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        if resolved is None or repr(resolved[0]) != key_repr:
            return None
        return (sites,) + resolved

    def _load_artifact(self, pc, mem_base, key_repr, artifact):
        """Recompile one stored artifact, or None when it does not match
        the current specialization constants or is corrupt in any way."""
        matched = self._match(key_repr, artifact)
        if matched is None:
            return None
        sites, key, task, kinds = matched
        try:
            tables = _build_tables(artifact["tables"])
            source = artifact["source"]
            if not isinstance(source, str):
                return None
            icount = int(artifact["icount"])
            cost = int(artifact["cost"])
            code = compile(source, f"<trace@{pc:#06x}>", "exec")
            ns = _base_ns(self.cpu)
            ns.update(tables)
            self._bind(ns, task, kinds)
            exec(code, ns)
            entry = (ns["_blk"], icount, cost)
        except (KeyError, IndexError, TypeError, ValueError,
                SyntaxError):
            return None  # corrupt artifact: fall back to a recompile
        self.stats.store_hits += 1
        if mem_base is not None:
            self.cpu._block_cache.store(
                ("trace",) + mem_base, pc,
                _CachedBlock(code=code, tables=tables, icount=icount,
                             cost=cost, trap=sites, spec_key=key))
        return entry

    # -- compilation --------------------------------------------------------------

    def _compile(self, pc: int, mem_base):
        ns = _base_ns(self.cpu)
        manifest: List[list] = []
        nodes, tail = self._assemble(pc, ns, manifest)
        source = _Emitter(nodes, tail).source()
        sites = tuple((node.facts.site, node.facts.target,
                       node.facts.is_call)
                      for node in nodes if node.facts is not None)
        # The same resolution re-entry uses, so the stored key is the
        # one a later rebind or store load composes for these sites.
        key, task, kinds = self._resolve_sites(sites)
        code = compile(source, f"<trace@{pc:#06x}>", "exec")
        self.stats.lines += source.count("\n") + 1
        self._bind(ns, task, kinds)
        exec(code, ns)
        head = nodes[0]
        # A cut head has no terminator: it retires its members only.
        icount = head.count if head.kind == "cut" else head.count + 1
        entry = (ns["_blk"], icount, head.cost)
        self.stats.compiled += 1
        self.chained.update(node.start for node in nodes[1:])
        if self.specializer is not None and sites:
            # Each chained site is a specialization this trace replaces.
            self.specializer.stats.compiled += len(sites)
        tables = {name: value for name, value in ns.items()
                  if name[0] in "tu" and name[1:].isdigit()}
        if mem_base is not None:
            self.cpu._block_cache.store(
                ("trace",) + mem_base, pc,
                _CachedBlock(code=code, tables=tables, icount=icount,
                             cost=head.cost, trap=sites, spec_key=key))
        if self.store is not None:
            artifact = {"source": source, "icount": icount,
                        "cost": head.cost,
                        "sites": [list(site) for site in sites],
                        "tables": manifest}
            self.store.put(self._store_base(), pc, repr(key), artifact)
        return entry

    def _assemble(self, head: int, ns: dict, manifest):
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
            if len(nodes) >= self.max_blocks:
                tail = ("exit", cur)
                break
            node = self._build_node(cur, ns, manifest, uid, not nodes)
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

    def _build_node(self, start: int, ns: dict, manifest, uid,
                    head: bool):
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
            parts = cpu._member_parts(ins, ns, uid[0])
            if parts is None:
                node = self._classify(ins, start, members)
                if node is None and head:
                    node = _Node(start, members)
                    node.kind = "thunk"
                    node.target = ins.address
                return node
            effect, flags, cycles, touches, preds = parts
            reads, writes = sreg_effects(ins.mnemonic, ins.operands)
            self._note_tables(ins, uid[0], manifest)
            uid[0] += 1
            members.append(_Member(effect, flags, cycles, touches,
                                   preds, reads, writes, ins))
            cur = ins.next_address
        if not head:
            return None
        node = _Node(start, members)
        node.kind = "cut"
        node.target = cur
        return node

    @staticmethod
    def _note_tables(ins, uid: int, manifest) -> None:
        m = ins.mnemonic
        entries = _TABLE_MNEMONICS.get(m)
        if entries is not None:
            for prefix, kind, cin in entries:
                manifest.append([f"{prefix}{uid}", kind, cin])
        elif m in ("SUBI", "CPI"):
            manifest.append([f"t{uid}", "subrow", ins.operands[1], 0])
        elif m == "SBCI":
            manifest.append([f"t{uid}", "subrow", ins.operands[1], 0])
            manifest.append([f"u{uid}", "subrow", ins.operands[1], 1])

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
            if facts.params[2] in _SHADOWED_IO or direct_access(
                    facts.params, facts.region, facts.config) is None:
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
        from ..kernel.specialize import direct_access
        from ..kernel.translation import AccessClass
        regs: Set[int] = set()
        ports: Set[int] = set()
        for node in nodes:
            for member in node.members:
                if member.ins.mnemonic == "STS":
                    return None
                regs.update(_written_regs(member.ins))
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
                access = direct_access(node.facts.params,
                                       node.facts.region, node.facts.config)
                if access[0] is AccessClass.IO:
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

    # -- liveness decisions -------------------------------------------------------

    @staticmethod
    def _decide(nodes) -> None:
        """Per-node flag-deferral and strip-elision decisions, then the
        intra-node dead-flag elision pass."""
        for node in nodes:
            members = node.members
            last = members[-1] if members else None
            conditional = (node.kind == "brcond"
                           or (node.kind == "trap" and node.facts
                               .kind.name == "BRANCH_BACKWARD"))
            if node.strip and last is not None and last.flags \
                    and all(m.reads == 0 for m in members):
                if node.bit is None:
                    node.strip_elide = all(not m.flags
                                           for m in members[:-1])
                else:
                    node.strip_elide = (1 << node.bit) in last.preds
            elif conditional and node.bit is not None \
                    and last is not None and last.flags \
                    and (1 << node.bit) in last.preds and not node.strip:
                node.deferred = True
            # Intra-node elision: a member's flag lines are dead when a
            # later member in the same node rewrites every bit before
            # anything (including the node's own test and every exit,
            # conservatively live-out = all flags) can read them.  The
            # deferred / strip-elided last member stays un-elided — its
            # lines move to the exit materializations — but its writes
            # still kill.
            excluded = last if (node.deferred or node.strip_elide) \
                else None
            live = 0xFF
            for member in reversed(members):
                member.elided = False
                if member is not excluded and member.flags \
                        and not (member.writes & live):
                    member.elided = True
                    live |= member.reads
                else:
                    live = (live & ~member.writes) | member.reads

    def _uses_sr(self, nodes) -> bool:
        for node in nodes:
            if any(m.touches for m in node.members):
                return True
            if node.kind == "brcond" and not node.deferred:
                return True
            if node.kind == "trap" and node.bit is not None \
                    and not node.deferred and not node.strip_elide \
                    and node.facts.kind.name == "BRANCH_BACKWARD":
                return True
        return False

    @staticmethod
    def _safe_entry(node: _Node) -> int:
        """Flag bits *node* is guaranteed to rewrite before anything can
        observe them — a predecessor's deferred materialization of those
        bits may be skipped on the continue edge into *node*.

        A bit counts as killed once an inline member writes it, or once
        the node's own deferred/strip-elided last member writes it (its
        materialization runs on every exit, and continue edges apply
        this same rule to the next node — sound by induction).  A bit is
        observed by a member's architectural read or by a non-deferred
        sr-based branch test.
        """
        read = 0
        killed = 0
        last = node.members[-1] if node.members else None
        excluded_kills = node.deferred or node.strip_elide
        for member in node.members:
            read |= member.reads & ~killed
            if not member.elided or (excluded_kills and member is last):
                killed |= member.writes
        tests_sr = ((node.kind == "brcond" and not node.deferred)
                    or (node.kind == "trap" and node.bit is not None
                        and node.facts.kind.name == "BRANCH_BACKWARD"
                        and not node.deferred and not node.strip_elide))
        if tests_sr:
            read |= (1 << node.bit) & ~killed
        return killed & ~read

    # -- shared emission helpers --------------------------------------------------

    def _member_lines(self, node: _Node) -> List[str]:
        lines: List[str] = []
        last = node.members[-1] if node.members else None
        skip_last = node.deferred or node.strip_elide
        for member in node.members:
            lines += member.effect
            if member.elided:
                continue
            if skip_last and member is last:
                continue
            lines += member.flags
        return lines

    def _pending(self, node: _Node):
        """(materialization lines, written mask) for a deferring node."""
        if not node.deferred:
            return None
        last = node.members[-1]
        return (last.flags, last.writes)

    def _exit(self, pc: int, check: bool = False, mats=(),
              slow=None) -> List[str]:
        """An exit: materialize this exit's deferred flags, then leave
        the trace loop for the shared epilogue (:meth:`_epilogue`) with
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

    def _seam(self, target: _Node, pending) -> List[str]:
        """Dispatch-boundary check before re-entering *target* inside
        the trace: replicates ``_run_fused``'s event/limit gate, exiting
        when the next block may not start."""
        mats = pending[0] if pending else ()
        lines = [f"if cy >= da or n + {target.count + 1} > mi "
                 f"or cy + {target.cost} >= mc:"]
        lines += _ind(self._exit(target.start, mats=mats))
        if pending and pending[1] & ~self._safe_entry(target):
            lines += pending[0]
        return lines

    def _backedge(self, pending, node: _Node, step) -> List[str]:
        """Close the loop from *node*, whose looping arm costs *step*."""
        lines = self._seam(self.nodes[0], pending)
        if self.idle is not None:
            if pending and not pending[1] & ~self._safe_entry(
                    self.nodes[0]):
                lines += pending[0]  # the skip compares SREG in full
            lines += self._idle_skip(node, step)
        return lines + ["continue"]

    # -- per-node bodies ----------------------------------------------------------

    def _node_body(self, node: _Node):
        if node.kind in ("brcond", "skip"):
            return self._two_way_body(node)
        if node.kind == "jmp":
            return self._jmp_body(node)
        if node.kind == "thunk":
            return self._thunk_body(node), None
        if node.kind == "cut":
            return (self._trap_prologue(node)
                    + self._exit(node.target)), None
        name = node.facts.kind.name
        if name == "BRANCH_BACKWARD":
            if node.strip:
                return self._strip_body(node), None
            return self._branch_trap_body(node)
        if name == "MEM_INDIRECT":
            return self._mem_indirect_body(node), None
        if name == "MEM_DIRECT":
            return self._mem_direct_body(node), None
        if name == "STACK_PUSH":
            return self._stack_push_body(node), None
        if name == "STACK_POP":
            return self._stack_pop_body(node), None
        return self._call_direct_body(node), None

    @staticmethod
    def _taken_test(node: _Node, flags: Optional[str] = None) -> str:
        """The taken condition of a two-way node: a register bit for a
        skip, else an SREG bit.  *flags* names the SREG holder on the
        deopt path; inside the trace (None) a deferring node tests its
        result predicate instead of ``sr``."""
        if node.kind == "skip":
            expr = f"r[{node.reg}] & {1 << node.bit}"
        elif flags is None and node.deferred:
            expr = node.members[-1].preds[1 << node.bit]
        else:
            expr = f"{flags or 'sr'} & {1 << node.bit}"
        return expr if node.branch_if_set else f"not ({expr})"

    def _two_way_body(self, node: _Node):
        """A native conditional branch or an SBRS/SBRC skip: the taken
        arm exits (or closes the loop), the fall-through continues."""
        lines = self._member_lines(node)
        pending = self._pending(node)
        test = self._taken_test(node)
        mats = pending[0] if pending else ()
        lines.append(f"n += {node.count + 1}")
        taken_cycles = node.cost + node.jcycles
        taken = [f"cy += {taken_cycles}"]
        if node.taken == self.head_addr:
            taken += self._backedge(pending, node, (taken_cycles, 0))
        else:
            taken += self._exit(node.taken, mats=mats)
        lines.append(f"if {test}:")
        lines += _ind(taken)
        node.step = (node.cost + 1, 0)
        lines.append(f"cy += {node.step[0]}")
        return lines, pending

    def _jmp_body(self, node: _Node):
        node.step = (node.cost + node.jcycles, 0)
        lines = self._member_lines(node)
        lines += [f"cy += {node.step[0]}",
                  f"n += {node.count + 1}"]
        return lines, None

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
        call = f"(cpu._exec[{address}] or cpu._decode_at({address}))()"
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
        from ..kernel.specialize import direct_access
        from ..kernel.translation import AccessClass
        facts = node.facts
        access, effect, charge = direct_access(facts.params, facts.region,
                                               facts.config)
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

    def _branch_trap_body(self, node: _Node):
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
        if node.bit is None:
            lines += taken
            if node.nat_target == self.head_addr:
                lines.append("if tb <= 0:")
                lines += _ind(self._exit(node.nat_target, check=True))
                lines += self._backedge(None, node, taken_step)
            else:
                lines += self._exit(node.nat_target, check=True)
            return lines, None
        pending = self._pending(node)
        test = self._taken_test(node)
        mats = pending[0] if pending else ()
        if node.nat_target == self.head_addr:
            taken.append("if tb <= 0:")
            taken += _ind(self._exit(node.nat_target, check=True,
                                     mats=mats))
            taken += self._backedge(pending, node, taken_step)
        else:
            taken += self._exit(node.nat_target, check=True, mats=mats)
        lines.append(f"if {test}:")
        lines += _ind(taken)
        node.step = (node.cost + 1 + inline, 1 + inline)
        lines += [f"cy += {node.step[0]}",
                  f"kc += {node.step[1]}",
                  "if tb <= 0:"]
        lines += _ind(self._exit(resume, check=True, mats=mats))
        return lines, pending

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
        pending = None
        for i, node in enumerate(self.nodes):
            if i > 0:
                inner += self._seam(node, pending)
            node_lines, pending = self._node_body(node)
            inner += node_lines
        if self.tail == ("backedge",):
            last = self.nodes[-1]
            inner += self._backedge(pending, last, last.step)
        elif self.tail[0] == "exit":
            mats = pending[0] if pending else ()
            inner += self._exit(self.tail[1], mats=mats)
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
