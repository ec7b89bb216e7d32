"""Trap site facts for the trace JIT.

The generic trap path (:class:`~.traps.TrapHandlers`) re-derives, on
*every* access, facts that are constant for as long as a task's region
geometry stands still: the heap displacement ``p_l - ram_start``, the
stack displacement ``p_u - M``, the region bounds, the stack-check
floor.  This module derives those facts once per patched site —
:class:`TraceFacts` for the trace compiler, which bakes them into its
generated code as integer literals, so an in-region heap store becomes::

    mem[ta + 1843] = r[24]

instead of a ``dispatch`` -> handler -> ``region_of_current`` ->
``to_physical`` call chain.  Specialized code lives only in traces
(:mod:`repro.avr.trace`); a trap executed outside one (stepwise, or by
the exact-stop fallback) runs the generic pre-bound thunk of
:meth:`~.traps.TrapHandlers.thunk_factory`.

Correctness rests on three facts:

1. **Sites are task-private.**  Every task's naturalized code occupies
   its own flash range and indirect branches are bounds-checked to the
   owning program, so a given site only ever executes as one task.  The
   specialization therefore guards on ``kernel.current is task``.
2. **Region constants are epoch-versioned.**  Whatever moves a region
   (stack relocation, a released neighbour's grant, loader compaction)
   bumps the owning task's ``region_epoch``; specialized code checks it
   on entry and deoptimizes — invalidating its own cache slot so the
   next dispatch re-specializes against the new constants — when stale.
3. **Everything else falls back.**  Accesses that leave the region
   (task-kill), IO-class pointer targets, relocating pushes, SP
   get/set, and every kind this module does not specialize run the
   generic ``dispatch`` path, bit-identical to stepwise execution
   (``tests/test_trapspec.py`` proves it differentially).

Every runtime constant a trace bakes in is part of its key in the
cross-node trace cache (:meth:`TrapSpecializer.trace_key`; see
:class:`repro.avr.cpu.SuperblockCache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import TaskFault
from ..rewriter.classify import PatchKind
from . import costs
from .translation import AccessClass, AddressTranslator

#: The trap kinds traces chain through their fast arms.
_CHAINABLE = frozenset({
    PatchKind.MEM_INDIRECT, PatchKind.MEM_DIRECT, PatchKind.STACK_PUSH,
    PatchKind.STACK_POP, PatchKind.CALL_DIRECT, PatchKind.BRANCH_BACKWARD,
})


def direct_access(params, region, config):
    """The one derivation of a direct (``LDS``/``STS``) access site.

    Returns ``(access, effect, charge)``: the access class and physical
    address :meth:`AddressTranslator.to_physical` gives for *region*, the
    statement performing the access (an I/O address through the CPU's
    routing tables ``io_rd``/``io_wr``, heap and stack at the baked
    physical address), and the cycles the trap charges — or None where
    the access faults at this geometry.
    """
    mnemonic, reg, logical = params
    try:
        physical, access = AddressTranslator(config).to_physical(
            region, logical, -1)
    except TaskFault:
        return None
    store = mnemonic == "STS"
    if access is AccessClass.IO:
        effect = f"io_wr[{physical}]({physical}, r[{reg}])" if store \
            else f"r[{reg}] = io_rd[{physical}]({physical})"
        return access, effect, 2 + costs.MEM_DIRECT_IO
    effect = f"mem[{physical}] = r[{reg}]" if store \
        else f"r[{reg}] = mem[{physical}]"
    return access, effect, 2 + costs.MEM_DIRECT_OTHER


@dataclass
class SpecializerStats:
    """Observability for tests and benchmarks."""

    compiled: int = 0   # trap sites chained into compiled traces
    deopts: int = 0     # epoch/task guard failures (stale code retired)


@dataclass
class TraceFacts:
    """Everything the trace compiler needs to chain one patched site.

    A read-only snapshot of the specialization inputs for *site* at
    compile time: the trampoline the kernel maps its target to (kind
    and params), the owning task, its region (None for region-free
    kinds) and region epoch, and the kernel config.  The trace's cache
    key comes from :meth:`TrapSpecializer.trace_key`.
    """

    site: int
    target: int
    is_call: bool
    trampoline: object
    task: object
    region: object
    epoch: int
    config: object

    @property
    def kind(self) -> "PatchKind":
        return self.trampoline.kind

    @property
    def params(self) -> Tuple:
        return self.trampoline.params


class TrapSpecializer:
    """Derives per-site trap facts against a task's region constants."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.stats = SpecializerStats()
        #: Owner code base -> ``(task, region key, epoch)``, trusted while
        #: the task is alive at that epoch (see :meth:`owner`).
        self._owners: Dict[int, Tuple] = {}

    # -- entry points ------------------------------------------------------------

    def trace_facts(self, site: int, target: int,
                    is_call: bool) -> Optional[TraceFacts]:
        """The one derivation of a site's specialization facts, for
        chaining *site* into a trace, or None where the site stays on
        the generic path: no trampoline, an unspecialized kind, no live
        owner, or a region-bound kind whose owner has no region.
        Emission lives in :mod:`repro.avr.trace`.
        """
        trampoline = self.kernel.trampolines.get(target)
        if trampoline is None or site < 0 \
                or trampoline.kind not in _CHAINABLE:
            return None
        task = next((task for task in self.kernel.tasks.values()
                     if task.alive and task.owns_code(site)), None)
        if task is None:
            return None
        region = None
        if trampoline.kind is not PatchKind.BRANCH_BACKWARD:
            region = self.kernel.regions.maybe_by_task(task.task_id)
            if region is None:
                return None
        return TraceFacts(site=site, target=target, is_call=is_call,
                          trampoline=trampoline, task=task, region=region,
                          epoch=task.region_epoch, config=self.kernel.config)

    def owner(self, base: int):
        """``(task, region key, epoch)`` for the alive task whose code
        starts at flash word *base*, or None.

        Memoized per node by the int *base*: no two tasks of a node
        share a code base, and a task's code never moves.  A hit is
        trusted while its task is alive at the memoized epoch; every
        region move bumps the epoch, so the region key cannot have gone
        stale under it."""
        entry = self._owners.get(base)
        task = None if entry is None else entry[0]
        if task is None or not task.alive:
            task = next((task for task in self.kernel.tasks.values()
                         if task.alive and task.image.base == base), None)
            if task is None:
                return None
        elif task.region_epoch == entry[2]:
            return entry
        entry = self._owners[base] = (task, self._region_key(task),
                                      task.region_epoch)
        return entry

    def trace_key(self, heads: Tuple, branch: bool, regional: bool,
                  owner) -> Tuple:
        """The key of a trace whose chained sites have the key *heads*
        (``(kind name, params)`` each) on a node where *owner* (from
        :meth:`owner`) owns them: the heads, the branch-trap period if
        any site is a branch trap, the owner's region key if any site
        bakes region constants, and the owner's epoch.  It holds every
        runtime constant the trace bakes in, and the epoch even when no
        site bakes region constants: one entry guard covers every site,
        so any region change retires all of the owner's traces through
        the normal deopt-then-recompile path."""
        _, region_key, epoch = owner
        return (heads,
                self.kernel.config.branch_trap_period if branch else None,
                region_key if regional else None, epoch)

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
            "k_bl": cpu._blocks,
        }

    # -- owner facts -------------------------------------------------------------

    def _region_key(self, task) -> Optional[Tuple]:
        """The part of a region-bound site's key that depends on
        *task*'s region, or None when the task has no region."""
        region = self.kernel.regions.maybe_by_task(task.task_id)
        if region is None:
            return None
        config = self.kernel.config
        return (task.region_epoch, region.p_l, region.p_h, region.p_u,
                config.ram_start, config.memory_size, config.stack_margin)
