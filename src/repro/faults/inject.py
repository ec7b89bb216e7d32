"""FaultInjector: lands planned faults as sim events on live nodes.

The injector binds a :class:`~.plan.FaultPlan` to one or more
:class:`~repro.kernel.SensorNode` instances.  Each planned action is
armed as an event on the node's own sim event queue, so it strikes at
a deterministic cycle boundary — the same boundary in stepwise, fused
and specialized execution modes.  Fault *targets* (which region, which
flash word, which bit) are drawn at fire time from the plan's per-node
target stream, because they must reflect machine state at the moment
of impact (regions move, tasks die).

Injected SRAM flips bump the owning task's ``region_epoch`` via
``SenSmartKernel._on_region_change`` — specialized trap code guards on
that epoch, so a flip landing under a specialized trace forces a deopt
back to generic dispatch instead of running stale assumptions.  Flash
flips go through ``Flash.load``, which fires the burn listeners and
drops decoded thunks/compiled traces covering the changed word.

Crashes halt the CPU; :meth:`FaultInjector.service` reboots crashed
nodes (cold restart, persisted network time), resets the TX cursors of
links sourced at the rebooted node (its radio log restarts from
sequence 0), and re-arms the node's remaining future faults on the
fresh event queue.  Actions whose time passed while the node was dark
are recorded as missed, not replayed.
"""

from __future__ import annotations

from typing import Dict, List

from .plan import (CRASH, DRIFT, FLASH_FLIP, SRAM_FLIP, FaultAction,
                   FaultPlan)
from .rng import XorShift32


class _Binding:
    """One node's live fault state."""

    __slots__ = ("name", "node", "rng", "actions", "fired")

    def __init__(self, name: str, node, rng: XorShift32,
                 actions: List[FaultAction]):
        self.name = name
        self.node = node
        self.rng = rng
        self.actions = actions
        self.fired = [False] * len(actions)


class FaultInjector:
    """Executes a :class:`FaultPlan` against attached nodes."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._bindings: Dict[str, _Binding] = {}
        self._network = None
        #: Human-readable fault log, in firing order.
        self.records: List[str] = []
        self.counts: Dict[str, int] = {
            SRAM_FLIP: 0, FLASH_FLIP: 0, CRASH: 0, DRIFT: 0,
            "load-flip": 0, "recovered": 0, "missed": 0,
        }

    # -- wiring -----------------------------------------------------------------

    def attach(self, name: str, node) -> None:
        """Bind *node* under *name*: load-time flips now, events armed."""
        if name in self._bindings:
            raise ValueError(f"node {name!r} already attached")
        binding = _Binding(name, node, self.plan.targets_rng(name),
                           self.plan.schedule_for(name))
        self._bindings[name] = binding
        if self.plan.targets(name):
            for _ in range(self.plan.flash_flips_at_load):
                self._flip_flash(binding, at_load=True)
        for index in range(len(binding.actions)):
            self._arm(binding, index)

    def attach_network(self, network) -> None:
        """Attach every node of *network* and remember its links."""
        self._network = network
        for name, node in network.nodes.items():
            self.attach(name, node)

    def _arm(self, binding: _Binding, index: int) -> None:
        action = binding.actions[index]
        binding.node.cpu.events.schedule(
            action.cycle,
            lambda binding=binding, index=index:
                self._fire(binding, index))

    # -- firing -----------------------------------------------------------------

    def _fire(self, binding: _Binding, index: int) -> None:
        if binding.fired[index]:
            return
        binding.fired[index] = True
        action = binding.actions[index]
        self.counts[action.kind] += 1
        if action.kind == SRAM_FLIP:
            self._flip_sram(binding)
        elif action.kind == FLASH_FLIP:
            self._flip_flash(binding)
        elif action.kind == CRASH:
            self._crash(binding)
        elif action.kind == DRIFT:
            self._drift(binding)

    def _record(self, binding: _Binding, text: str) -> None:
        self.records.append(
            f"{binding.node.cpu.cycles:>12} {binding.name:<8} {text}")

    def _flip_sram(self, binding: _Binding) -> None:
        kernel = binding.node.kernel
        regions = [r for r in kernel.regions.regions
                   if r.task_id in kernel.tasks
                   and kernel.tasks[r.task_id].alive]
        if not regions:
            self._record(binding, "sram-flip: no live region")
            return
        # Prefer regions with live stack bytes: SRAM cells that are
        # *read back* (return addresses, spilled registers) are the
        # ones whose flips the soft-error literature cares about; a
        # flip in an idle spin loop's empty region perturbs nothing.
        deep = [r for r in regions
                if kernel._sp_of(r.task_id) + 1 < r.p_u]
        pool = deep or regions
        region = pool[binding.rng.below(len(pool))]
        # Half the flips land in the live stack, the other half
        # anywhere in the region (heap, dead stack).
        sp = kernel._sp_of(region.task_id)
        stack_lo, stack_hi = sp + 1, region.p_u
        if binding.rng.below(2) == 0 and stack_lo < stack_hi:
            address = stack_lo + binding.rng.below(stack_hi - stack_lo)
        else:
            address = region.p_l + binding.rng.below(region.size)
        bit = binding.rng.below(8)
        kernel.cpu.mem.data[address] ^= 1 << bit
        # The flip is an *external* write into guarded memory: retire
        # any specialized code whose baked-in assumptions may now lie.
        kernel._on_region_change(region.task_id)
        self._record(binding,
                     f"sram-flip  @{address:#06x} bit {bit} "
                     f"(task {region.task_id})")

    def _flip_flash(self, binding: _Binding, at_load: bool = False) -> None:
        kernel = binding.node.kernel
        tasks = [t for t in kernel.tasks.values() if t.alive]
        if not tasks:
            self._record(binding, "flash-flip: no live task")
            return
        task = tasks[binding.rng.below(len(tasks))]
        program = task.image.natural
        address = program.base + binding.rng.below(len(program.words))
        bit = binding.rng.below(16)
        word = kernel.cpu.flash.word(address)
        kernel.cpu.flash.load(address, [word ^ (1 << bit)])
        if at_load:
            self.counts["load-flip"] += 1
        self._record(binding,
                     f"flash-flip @{address:#06x} bit {bit:>2} "
                     f"({'load' if at_load else 'run'}, "
                     f"task {task.task_id})")

    def _crash(self, binding: _Binding) -> None:
        binding.node.crash()
        self._record(binding, "crash")

    def _drift(self, binding: _Binding) -> None:
        binding.node.cpu.cycles += self.plan.drift_cycles
        self._record(binding, f"drift      +{self.plan.drift_cycles}")

    # -- test hooks: pin a single fault at an exact cycle -----------------------

    def schedule(self, name: str, kind: str, cycle: int) -> None:
        """Arm one extra *kind* fault on *name* at *cycle* (for tests)."""
        binding = self._bindings[name]
        binding.actions.append(FaultAction(cycle=cycle, kind=kind))
        binding.fired.append(False)
        self._arm(binding, len(binding.actions) - 1)

    def schedule_sram_flip(self, name: str, cycle: int) -> None:
        self.schedule(name, SRAM_FLIP, cycle)

    # -- recovery ----------------------------------------------------------------

    def service(self) -> int:
        """Reboot crashed nodes; returns how many came back.

        A reboot replaces the node's CPU (and thus its event queue and
        radio TX log), so the injector re-arms the node's remaining
        future faults on the fresh queue and asks the network to forget
        the node's in-flight traffic (pending inbox arrivals die with
        the old event queue; TX cursors rewind for the fresh radio).
        Faults whose time passed while the node was dark are counted as
        missed.
        """
        recovered = 0
        for binding in self._bindings.values():
            if not binding.node.crashed:
                continue
            binding.node.reboot()
            recovered += 1
            self.counts["recovered"] += 1
            self._record(binding, "reboot")
            if self._network is not None:
                self._network.reset_node_io(binding.name)
            now = binding.node.cpu.cycles
            for index, action in enumerate(binding.actions):
                if binding.fired[index]:
                    continue
                if action.cycle < now:
                    binding.fired[index] = True
                    self.counts["missed"] += 1
                    self._record(
                        binding, f"{action.kind}: missed while down")
                else:
                    self._arm(binding, index)
        return recovered

    # -- drivers ------------------------------------------------------------------

    def run(self, network, max_cycles: int = 20_000_000,
            step: int = 200_000) -> None:
        """Drive *network* to *max_cycles*, rebooting crashed nodes.

        ``network.run`` stops visiting a crashed (halted) node, so the
        co-simulation is advanced in bounded chunks with a
        :meth:`service` pass between chunks — a crashed node is dark
        for at most one chunk before its reboot."""
        if self._network is None:
            self.attach_network(network)
        target = min(step, max_cycles)
        while True:
            network.run(max_cycles=target)
            rebooted = self.service()
            if not rebooted:
                if target >= max_cycles:
                    return
                if all(node.finished
                       for node in network.nodes.values()):
                    return
            target = min(target + step, max_cycles)
