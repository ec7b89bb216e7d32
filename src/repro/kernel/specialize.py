"""Task-specialized trap compilation: the trap JIT.

The generic trap path (:class:`~.traps.TrapHandlers`) re-derives, on
*every* access, facts that are constant for as long as a task's region
geometry stands still: the heap displacement ``p_l - ram_start``, the
stack displacement ``p_u - M``, the region bounds, the stack-check
floor.  This module compiles those constants into the trap code itself:
given a patched site, it emits Python source with the displacements
baked in as integer literals, so an in-region heap store becomes::

    mem[ta + 1843] = r[24]

instead of a ``dispatch`` -> handler -> ``region_of_current`` ->
``to_physical`` call chain.

Two consumers share one source generator:

* :meth:`TrapSpecializer.thunk_factory` wraps the source in a
  standalone ``def`` — the CPU's per-site decode cache uses it for
  stepwise execution and the exact-stop fallback;
* :meth:`TrapSpecializer.inline_source` hands the raw statement list to
  the superblock compiler (``AvrCpu._fuse_block``), which splices it in
  as the block terminator, eliminating even the thunk call.

Correctness rests on three facts:

1. **Sites are task-private.**  Every task's naturalized code occupies
   its own flash range and indirect branches are bounds-checked to the
   owning program, so a given site only ever executes as one task.  The
   specialization therefore guards on ``kernel.current is task``.
2. **Region constants are epoch-versioned.**  Whatever moves a region
   (stack relocation, a released neighbour's grant, loader compaction)
   bumps the owning task's ``region_epoch``; specialized code checks it
   on entry and deoptimizes — invalidating its own cache slot so the
   next decode re-specializes against the new constants — when stale.
3. **Everything else falls back.**  Accesses that leave the region
   (task-kill), IO-class pointer targets, relocating pushes, SP
   get/set, and every kind this module does not specialize run the
   generic ``dispatch`` path, bit-identical to a non-specializing
   kernel (``tests/test_trapspec.py`` proves it differentially).

The generated source's ``spec_key`` — every runtime constant baked into
it — doubles as the third component of the cross-node superblock cache
key (see :class:`repro.avr.cpu.SuperblockCache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..rewriter.classify import PatchKind
from . import costs
from .translation import AccessClass

#: LD/ST pointer-mode base registers (mode stripped of +/-).
_PTR_BASE = {"X": 26, "Y": 28, "Z": 30}

#: Shared statement: per-execution trap count, identical to dispatch's.
_COUNT = "k_counts[k_kind] = k_counts.get(k_kind, 0) + 1"


def direct_access(params, region, config):
    """The one derivation of a direct (``LDS``/``STS``) access site.

    Returns ``(access, effect, charge)``: the access class, the statement
    performing the access (I/O through ``k_ioread``/``k_iowrite``, heap
    and stack at the physical address baked for *region*), and the cycles
    the trap charges — or None where the access faults (a stack address
    outside the region at this geometry, or beyond logical space).
    """
    mnemonic, reg, logical = params
    rs = config.ram_start
    store = mnemonic == "STS"
    if logical < rs:
        effect = f"k_iowrite({logical}, r[{reg}])" if store \
            else f"r[{reg}] = k_ioread({logical})"
        return AccessClass.IO, effect, 2 + costs.MEM_DIRECT_IO
    if logical < rs + region.heap_size:
        access = AccessClass.HEAP
        physical = region.p_l + (logical - rs)
    elif logical < config.memory_size:
        access = AccessClass.STACK
        physical = logical + (region.p_u - config.memory_size)
        if not region.p_h <= physical < region.p_u:
            return None
    else:
        return None
    effect = f"mem[{physical}] = r[{reg}]" if store \
        else f"r[{reg}] = mem[{physical}]"
    return access, effect, 2 + costs.MEM_DIRECT_OTHER


@dataclass
class SpecializerStats:
    """Observability for tests and benchmarks."""

    compiled: int = 0   # specialized thunks / inline terminators built
    deopts: int = 0     # epoch/task guard failures (stale code retired)
    declined: int = 0   # sites left on the generic path


@dataclass
class TraceFacts:
    """Everything the trace compiler needs to chain one patched site.

    A read-only snapshot of the specialization inputs for *site* at
    compile time: the trampoline kind and params, the owning task, its
    region (None for region-free kinds) and region epoch, and the kernel
    config.  The trace's cache key comes from
    :meth:`TrapSpecializer.trace_key`, which composes the same per-site
    keys :meth:`TrapSpecializer.inline_source` bakes.
    """

    site: int
    target: int
    is_call: bool
    kind: "PatchKind"
    params: Tuple
    task: object
    region: object
    epoch: int
    config: object
    #: Validated elision claim for the site ("heap"/"stack"/"pop"), or
    #: None.  When set, the emitters drop the corresponding bound guard
    #: (the certificate proves the fast arm is always taken); the claim
    #: is part of ``spec_key`` so cached code never crosses settings.
    elide: Optional[str] = None


class _SiteStatics:
    """The facts of one patched site that hold for as long as the
    kernel maps its target to the same trampoline: kind, params, the
    validated elision claim, and every part of the site's ``spec_key``
    except the owner's region constants."""

    __slots__ = ("trampoline", "kind", "params", "claim", "needs_region",
                 "_head", "_tail")

    def __init__(self, trampoline, claim: Optional[str], config):
        self.trampoline = trampoline
        self.kind = trampoline.kind
        self.params = trampoline.params
        self.claim = claim
        self.needs_region = self.kind is not PatchKind.BRANCH_BACKWARD
        self._head = (self.kind.name, self.params)
        self._tail = () if claim is None else (("elide", claim),)
        if not self.needs_region:
            # Region-free: the key is fixed for the kernel's lifetime.
            self._head += (config.branch_trap_period,)

    def spec_key(self, region_key: Optional[Tuple]) -> Optional[Tuple]:
        """Every runtime constant the site's emitted code bakes in, given
        the owner's region key from :meth:`TrapSpecializer._region`, or
        None when the kind needs a region and the owner has none."""
        if not self.needs_region:
            return self._head
        if region_key is None:
            return None
        return self._head + region_key + self._tail


class TrapSpecializer:
    """Compiles per-site trap code against a task's region constants."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.stats = SpecializerStats()
        self._gen: Dict[PatchKind, Callable] = {
            PatchKind.MEM_INDIRECT: self._mem_indirect,
            PatchKind.MEM_DIRECT: self._mem_direct,
            PatchKind.STACK_PUSH: self._stack_push,
            PatchKind.STACK_POP: self._stack_pop,
            PatchKind.CALL_DIRECT: self._call_direct,
            PatchKind.BRANCH_BACKWARD: self._branch_backward,
        }
        #: site -> owning task, re-checked on every hit (see _owner).
        self._owners: Dict[int, object] = {}
        #: site -> _SiteStatics, trusted only while the kernel still
        #: maps the site's target to the memoized trampoline object.
        self._statics: Dict[int, _SiteStatics] = {}

    # -- entry points ------------------------------------------------------------

    def thunk_factory(self, cpu, site: int, target: int, is_call: bool):
        """Drop-in for ``TrapHandlers.thunk_factory``.

        Returns a specialized standalone thunk for the site when the
        kind/geometry allows, else the generic pre-bound thunk.
        """
        result = self.inline_source(cpu, site, target, is_call,
                                    invalidate=f"k_ex[{site}] = None")
        if result is None:
            return self.kernel.handlers.thunk_factory(cpu, site, target,
                                                      is_call)
        lines, bindings, _, _ = result
        ns = dict(bindings)
        ns["cpu"] = cpu
        ns["r"] = cpu.r
        ns["mem"] = cpu.mem.data
        source = "def _spec():\n" + "\n".join(
            "    " + line for line in lines)
        exec(compile(source, f"<trapspec@{site:#06x}>", "exec"), ns)
        self.stats.compiled += 1
        return ns["_spec"]

    def inline_source(self, cpu, site: int, target: int, is_call: bool,
                      invalidate: str, block=None):
        """Specialized source for a patched site, or None.

        Returns ``(lines, bindings, spec_key, full_body)``: flat
        statements (with relative indentation), the names they expect in
        the namespace, a hashable key of every runtime constant baked
        into them, and whether the statements form a complete closure
        body (the caller must then not emit its own member/terminator
        code).  *invalidate* is the statement the guard-failure branch
        runs to retire the caller's cache slot (``k_ex[site] = None``
        for thunks, ``k_bl[pc] = None`` for fused blocks).

        *block*, when given as ``(start, member_lines, cost, count,
        uses_sreg)``, describes the fused block the trap terminates;
        a backward branch whose target is the block start then compiles
        to a self-looping full body (see :meth:`_branch_backward_loop`).
        The returned ``spec_key`` never depends on *block* — the block
        shape is determined by ``(flash, pc)``, which already keys the
        superblock cache group.
        """
        derived = self._derive(site, target)
        if derived is None:
            return None
        statics, task, region, spec_key = derived
        slow = f"k_slow(cpu, {site}, {target}, {is_call})"
        bindings = self.bindings(cpu, task)
        bindings["k_kind"] = statics.kind
        if not statics.needs_region and block is not None:
            loop = self._branch_backward_loop(
                statics.params, site, block, invalidate, slow)
            if loop is not None:
                return loop, bindings, spec_key, True
        body = self._gen[statics.kind](statics.params, site, region, slow,
                                       statics.claim)
        if body is None:
            self.stats.declined += 1
            return None
        if statics.needs_region:
            guard = (f"if k_task is not k_kernel.current "
                     f"or k_task.region_epoch != {task.region_epoch}:")
        else:
            guard = "if k_task is not k_kernel.current:"
        lines = [guard,
                 "    k_spec.deopts += 1",
                 f"    {invalidate}",
                 f"    {slow}",
                 "else:"]
        lines.extend("    " + line for line in body)
        return lines, bindings, spec_key, False

    def trace_facts(self, site: int, target: int,
                    is_call: bool) -> Optional[TraceFacts]:
        """Specialization facts for chaining *site* into a trace.

        Declines exactly where :meth:`inline_source` does (both read
        :meth:`_derive`), so every chained trap is one the specializer
        could also have compiled stand-alone.  Emission itself lives in
        :mod:`repro.avr.trace`.
        """
        derived = self._derive(site, target)
        if derived is None:
            return None
        statics, task, region, _ = derived
        return TraceFacts(site=site, target=target, is_call=is_call,
                          kind=statics.kind, params=statics.params,
                          task=task,
                          region=region if statics.needs_region else None,
                          epoch=task.region_epoch, config=self.kernel.config,
                          elide=statics.claim)

    def trace_key(self, sites):
        """``(key, task, kinds)`` for a stored trace's chained *sites*
        (``(site, target, is_call)`` triples) under the current
        constants, or None when any site can no longer be specialized
        the same way (kind retired, task dead, region gone, owner
        mismatch).

        ``key`` is ``(site spec_keys, owner epoch)``, each site's key the
        one :meth:`inline_source` bakes for it; ``kinds`` lists each
        site's trap kind in chain order.  The cost is one owner lookup
        per trace rather than one per site: alive tasks own disjoint
        contiguous code ranges, so the owner of the lowest site that
        also owns the highest one owns every site in between, and no
        other alive task owns any of them.
        """
        task = self._owner(min(sites)[0])
        if task is None or not task.owns_code(max(sites)[0]):
            return None
        _, region_key = self._region(task)
        keys = []
        kinds = []
        for site, target, _ in sites:
            statics = self._site_statics(site, target)
            key = None if statics is None else statics.spec_key(region_key)
            if key is None:
                return None
            keys.append(key)
            kinds.append(statics.kind)
        return (tuple(keys), task.region_epoch), task, kinds

    def bindings(self, cpu, task) -> Dict[str, object]:
        """The namespace names specialized code for *task* expects."""
        kernel = self.kernel
        return {
            "k_kernel": kernel,
            "k_task": task,
            "k_counts": kernel.stats.trap_counts,
            "k_stats": kernel.stats,
            "k_spec": self.stats,
            "k_slow": kernel.handlers.dispatch,
            "k_sched": kernel.scheduler_tick,
            "k_ioread": kernel.io_read,
            "k_iowrite": kernel.io_write,
            "k_ex": cpu._exec,
            "k_bl": cpu._blocks,
        }

    # -- site facts --------------------------------------------------------------

    def _derive(self, site: int, target: int):
        """The one derivation of a site's specialization facts:
        ``(statics, task, region, spec_key)``, or None when the site
        stays on the generic path (no trampoline, an unspecialized kind,
        no live owner, or a region-bound kind whose owner has no
        region)."""
        statics = self._site_statics(site, target)
        if statics is None:
            return None
        task = self._owner(site)
        if task is None:
            return None
        region, region_key = self._region(task)
        spec_key = statics.spec_key(region_key)
        if spec_key is None:
            return None
        return statics, task, region, spec_key

    def _site_statics(self, site: int, target: int):
        """Memoized :class:`_SiteStatics` for *site*, or None when its
        target is no trampoline of a kind this module specializes."""
        trampoline = self.kernel.trampolines.get(target)
        if trampoline is None:
            return None
        statics = self._statics.get(site)
        if statics is not None and statics.trampoline is trampoline:
            return statics
        if site < 0 or trampoline.kind not in self._gen:
            return None
        statics = _SiteStatics(trampoline,
                               self._claim(site, trampoline.kind),
                               self.kernel.config)
        self._statics[site] = statics
        return statics

    def _region(self, task):
        """*task*'s region and the part of a region-bound site's key that
        depends on it, or ``(None, None)`` when the task has no region."""
        region = self.kernel.regions.maybe_by_task(task.task_id)
        if region is None:
            return None, None
        config = self.kernel.config
        return region, (task.region_epoch, region.p_l, region.p_h,
                        region.p_u, config.ram_start, config.memory_size,
                        config.stack_margin)

    #: Which claim may elide which trampoline kind's guard.
    _ELIDABLE = {PatchKind.MEM_INDIRECT: ("heap", "stack"),
                 PatchKind.STACK_POP: ("pop",)}

    def _claim(self, site: int, kind: "PatchKind") -> Optional[str]:
        """The validated elision claim for *site*, when it matches the
        trampoline *kind* (None = keep every guard)."""
        claim = self.kernel.elisions.get(site)
        if claim is not None and claim in self._ELIDABLE.get(kind, ()):
            return claim
        return None

    def _owner(self, site: int):
        """The alive task whose code holds *site*, or None.  A memo hit
        is re-checked with the scan's own predicate before it is
        trusted; a miss or a failed check rescans the task table."""
        task = self._owners.get(site)
        if task is not None and task.alive and task.owns_code(site):
            return task
        for task in self.kernel.tasks.values():
            if task.alive and task.owns_code(site):
                self._owners[site] = task
                return task
        return None

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _charge(cycles: int) -> List[str]:
        """Inlined ``kernel.charge`` (current task known non-None)."""
        return [f"cpu.cycles += {cycles}",
                f"k_stats.kernel_cycles += {cycles}",
                f"k_task.kernel_cycles += {cycles}"]

    # -- per-kind generators -----------------------------------------------------
    #
    # Each returns the fast-path statement list (the guard's else arm)
    # or None to decline.  The accounting mirrors traps.py exactly:
    # counts bump only on the committed fast path (slow-path arms call
    # dispatch, which counts itself), charges land after the memory
    # effect, and the high-water updates replicate ensure_stack_room.

    def _mem_indirect(self, params, site: int, region, slow: str,
                       claim=None):
        mnemonic, reg, mode, grouped = params
        resume = site + 2
        config = self.kernel.config
        rs = config.ram_start
        m = config.memory_size
        hh = rs + region.heap_size          # heap top, logical
        dh = region.p_l - rs                # heap displacement
        ds = region.p_u - m                 # stack displacement (<= 0)
        if mnemonic in ("LD", "ST"):
            base = _PTR_BASE[mode.strip("+-")]
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
            base = _PTR_BASE[ptr]
            addr = [f"ta = ((r[{base}] | (r[{base + 1}] << 8))"
                    f" + {displacement}) & 0xFFFF"]
            post = []
            store = mnemonic == "STD"
        overhead_heap = costs.MEM_GROUPED_FOLLOWER if grouped \
            else costs.MEM_INDIRECT_HEAP
        overhead_stack = costs.MEM_GROUPED_FOLLOWER if grouped \
            else costs.MEM_INDIRECT_STACK_FRAME
        eff_heap = f"mem[ta + {dh}] = r[{reg}]" if store \
            else f"r[{reg}] = mem[ta + {dh}]"
        eff_stack = f"mem[tp] = r[{reg}]" if store \
            else f"r[{reg}] = mem[tp]"
        arm_heap = [_COUNT, eff_heap] + self._charge(2 + overhead_heap) \
            + post + [f"cpu.pc = {resume}"]
        arm_stack = [_COUNT, eff_stack] + self._charge(2 + overhead_stack) \
            + post + [f"cpu.pc = {resume}"]
        if claim == "heap":
            # Certificate: ta is always inside the logical heap — the
            # range checks can never fail, so the arm runs unguarded
            # (same effects, counters and charges, no branches).
            return addr + arm_heap
        if claim == "stack":
            # Certificate: ta is always a live in-stack address.
            return addr + [f"tp = ta + ({ds})"] + arm_stack
        body = addr
        body.append(f"if {rs} <= ta < {hh}:")
        body.extend("    " + line for line in arm_heap)
        body.append(f"elif {hh} <= ta < {m}:")
        body.append(f"    tp = ta + ({ds})")
        body.append(f"    if tp >= {region.p_h}:")
        body.extend("        " + line for line in arm_stack)
        body.append("    else:")
        body.append(f"        {slow}")  # out of region: fault path
        body.append("else:")
        body.append(f"    {slow}")      # IO class or out of space
        return body

    def _mem_direct(self, params, site: int, region, slow: str,
                     claim=None):
        access = direct_access(params, region, self.kernel.config)
        if access is None:
            return None  # faults at this geometry: stay generic
        _, effect, cycles = access
        return [_COUNT, effect] + self._charge(cycles) \
            + [f"cpu.pc = {site + 2}"]

    def _stack_push(self, params, site: int, region, slow: str,
                     claim=None):
        (reg,) = params
        resume = site + 2
        floor = region.p_h + self.kernel.config.stack_margin
        fast = [_COUNT,
                "if tsp < k_task.min_sp_seen: k_task.min_sp_seen = tsp",
                f"td = {region.p_u} - tsp",
                "if td > k_task.max_stack_used: "
                "k_task.max_stack_used = td",
                f"mem[tsp] = r[{reg}]",
                "cpu.sp = tsp - 1"] \
            + self._charge(2 + costs.STACK_OP) + [f"cpu.pc = {resume}"]
        body = ["tsp = cpu.sp", f"if tsp >= {floor}:"]
        body.extend("    " + line for line in fast)
        body.append("else:")
        body.append(f"    {slow}")  # needs relocation or overflows
        return body

    def _stack_pop(self, params, site: int, region, slow: str,
                    claim=None):
        (reg,) = params
        resume = site + 2
        fast = [_COUNT,
                "cpu.sp = tsp",
                f"r[{reg}] = mem[tsp]"] \
            + self._charge(2 + costs.STACK_OP) + [f"cpu.pc = {resume}"]
        if claim == "pop":
            # Certificate: stack depth >= 1 at this POP for every
            # reachable state — it cannot underflow.
            return ["tsp = cpu.sp + 1"] + fast
        body = ["tsp = cpu.sp + 1", f"if tsp < {region.p_u}:"]
        body.extend("    " + line for line in fast)
        body.append("else:")
        body.append(f"    {slow}")  # POP from an empty stack: fault
        return body

    def _call_direct(self, params, site: int, region, slow: str,
                      claim=None):
        (nat_target,) = params
        resume = site + 2
        floor = region.p_h + self.kernel.config.stack_margin
        fast = [_COUNT,
                "if tsp < k_task.min_sp_seen: k_task.min_sp_seen = tsp",
                f"td = {region.p_u + 1} - tsp",
                "if td > k_task.max_stack_used: "
                "k_task.max_stack_used = td",
                f"mem[tsp] = {resume & 0xFF}",
                f"mem[tsp - 1] = {(resume >> 8) & 0xFF}",
                "cpu.sp = tsp - 2",
                f"cpu.pc = {nat_target}"] \
            + self._charge(4 + costs.CALL_TRAMPOLINE)
        body = ["tsp = cpu.sp", f"if tsp - 1 >= {floor}:"]
        body.extend("    " + line for line in fast)
        body.append("else:")
        body.append(f"    {slow}")  # needs relocation or overflows
        return body

    def _branch_backward_loop(self, params, site: int, block,
                              invalidate: str, slow: str):
        """Complete closure body for a self-looping backward-branch trap.

        When the fused block's trap terminator branches back to the
        block's own start, the whole loop iterates *inside* the closure:
        cycles, instret, SREG, the trap count and the branch counter all
        live in locals until exit, so each iteration pays neither the
        dispatch overhead nor the attribute traffic of the generic trap
        path.  Exit conditions replicate ``AvrCpu._self_loop_body`` (the
        run-loop's per-dispatch event/limit/until checks) plus the
        branch-counter reaching zero — the loop flushes all state before
        ``scheduler_tick`` runs, so a preemption observes exactly what
        stepwise execution would.  The task/guard check runs once at
        entry: nothing inside the fast loop can retire the task or move
        a region.  Returns None when the branch does not target the
        block start.
        """
        bit, branch_if_set, nat_target = params
        start, members, cost, count, uses_sreg = block
        if nat_target != start:
            return None
        resume = site + 2
        inline = costs.BRANCH_COUNTER_INLINE
        period = self.kernel.config.branch_trap_period
        # Guard failure replicates the generic fused block verbatim:
        # members, member accounting, then the slow trap dispatch.
        deopt = ["k_spec.deopts += 1", invalidate]
        if uses_sreg:
            deopt.append("sr = cpu.sreg")
        deopt.extend(members)
        if uses_sreg:
            deopt.append("cpu.sreg = sr")
        if cost:
            deopt.append(f"cpu.cycles += {cost}")
        if count:
            deopt.append(f"cpu.instret += {count}")
        deopt.append(slow)
        deopt.append("cpu.instret += 1")

        fast = []
        if uses_sreg:
            fast.append("sr = cpu.sreg")
        fast += ["cy = cpu.cycles",
                 "n = cpu.instret",
                 "da = -1.0 if cpu._run_until is not None "
                 "else cpu.events.next_due",
                 "mi = cpu._run_mi",
                 "mc = cpu._run_mc",
                 "tb = k_task.branch_counter",
                 "it = 0",
                 "kc = 0",
                 "while True:"]
        inner = list(members)
        inner += ["it += 1",
                  f"n += {count + 1}",
                  "tb -= 1"]
        taken_arm = [f"cy += {cost + 2 + inline}",
                     f"kc += {2 + inline}",
                     f"if tb <= 0 or cy >= da or n + {count + 1} > mi "
                     f"or cy + {cost} >= mc:",
                     f"    cpu.pc = {start}",
                     "    break"]
        if bit is None:  # unconditional backward RJMP/JMP
            inner += taken_arm
        else:
            mask = 1 << bit
            flags = "sr" if uses_sreg else "cpu.sreg"
            test = f"{flags} & {mask}" if branch_if_set \
                else f"not ({flags} & {mask})"
            inner += ([f"if {test}:"]
                      + ["    " + line for line in taken_arm]
                      + ["else:",
                         f"    cpu.pc = {resume}",
                         f"    cy += {cost + 1 + inline}",
                         f"    kc += {1 + inline}",
                         "    break"])
        fast += ["    " + line for line in inner]
        if uses_sreg:
            fast.append("cpu.sreg = sr")
        fast += ["cpu.cycles = cy",
                 "cpu.instret = n",
                 "k_counts[k_kind] = k_counts.get(k_kind, 0) + it",
                 "k_stats.kernel_cycles += kc",
                 "k_task.kernel_cycles += kc",
                 "if tb <= 0:",
                 f"    k_task.branch_counter = {period}",
                 "    k_sched()",
                 "else:",
                 "    k_task.branch_counter = tb"]

        body = ["if k_task is not k_kernel.current:"]
        body += ["    " + line for line in deopt]
        body.append("else:")
        body += ["    " + line for line in fast]
        return body

    def _branch_backward(self, params, site: int, region, slow: str,
                          claim=None):
        bit, branch_if_set, nat_target = params
        resume = site + 2
        inline = costs.BRANCH_COUNTER_INLINE
        if bit is None:  # unconditional backward RJMP/JMP
            body = [_COUNT, f"cpu.pc = {nat_target}"] \
                + self._charge(2 + inline)
        else:
            mask = 1 << bit
            test = f"cpu.sreg & {mask}" if branch_if_set \
                else f"not (cpu.sreg & {mask})"
            body = [_COUNT, f"if {test}:", f"    cpu.pc = {nat_target}"]
            body.extend("    " + line for line in self._charge(2 + inline))
            body.append("else:")
            body.append(f"    cpu.pc = {resume}")
            body.extend("    " + line for line in self._charge(1 + inline))
        body.append("tb = k_task.branch_counter - 1")
        body.append("if tb <= 0:")
        body.append(f"    k_task.branch_counter = "
                    f"{self.kernel.config.branch_trap_period}")
        body.append("    k_sched()")
        body.append("else:")
        body.append("    k_task.branch_counter = tb")
        return body
