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

A site's ``spec_key`` — every runtime constant baked into its code —
is part of the trace's key in the cross-node trace cache (see
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
    compile time: the trampoline kind and params, the owning task, its
    region (None for region-free kinds) and region epoch, and the kernel
    config.  The trace's cache key comes from
    :meth:`TrapSpecializer.trace_key`, which composes the per-site keys
    of the chained sites.
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
    """Derives per-site trap facts against a task's region constants."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.stats = SpecializerStats()
        #: site -> owning task, re-checked on every hit (see _owner).
        self._owners: Dict[int, object] = {}
        #: site -> _SiteStatics, trusted only while the kernel still
        #: maps the site's target to the memoized trampoline object.
        self._statics: Dict[int, _SiteStatics] = {}

    # -- entry points ------------------------------------------------------------

    def trace_facts(self, site: int, target: int,
                    is_call: bool) -> Optional[TraceFacts]:
        """Specialization facts for chaining *site* into a trace, or
        None where :meth:`_derive` declines.  Emission lives in
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

        ``key`` is ``(site spec_keys, owner epoch)``, each site's key
        every constant the trace bakes for it; ``kinds`` lists each
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
        if site < 0 or trampoline.kind not in _CHAINABLE:
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
