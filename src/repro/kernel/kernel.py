"""SenSmartKernel: boot, load, schedule, and account.

Ties together the pieces: the CPU executes naturalized code natively;
patched sites trap into :class:`~.traps.TrapHandlers`; this class owns
tasks, regions, the scheduler, the stack relocator, and the virtual
timer service, and keeps the statistics the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..avr import ioports
from ..avr.cpu import AvrCpu
from ..avr.memory import Flash
from ..errors import KernelError, OutOfMemory, SimulationError
from ..toolchain.image import TargetImage
from . import costs
from .config import KernelConfig
from .context import TaskContext
from .regions import MemoryRegion, RegionTable
from .relocation import StackRelocator
from .scheduler import RoundRobinScheduler
from .task import Task, TaskState
from .termination import TerminationReason, classify_fault_detail
from .translation import AddressTranslator
from .traps import TrapHandlers


@dataclass
class KernelStats:
    """Run statistics the experiments consume."""

    idle_cycles: int = 0
    kernel_cycles: int = 0
    context_switches: int = 0
    scheduler_checks: int = 0
    relocations: int = 0
    relocation_bytes: int = 0
    terminations: List[str] = field(default_factory=list)
    #: Restart-policy revivals, same "name: reason" rendering as
    #: ``terminations`` (every restart is also logged there first).
    restarts: List[str] = field(default_factory=list)
    #: Software-watchdog terminations (subset of ``terminations``).
    watchdog_fires: int = 0
    #: Kernel panics absorbed by the reboot path (see panic()).
    panics: int = 0
    #: Trap executions by PatchKind (the kernel-side profile).
    trap_counts: Dict = field(default_factory=dict)
    #: Terminations by TerminationReason name — the containment ledger
    #: survivability tables cross-check against (EXIT included, so the
    #: values sum to ``len(terminations)``).
    termination_counts: Dict = field(default_factory=dict)
    #: FAULT terminations by detail class ("oob" / "invalid-insn" /
    #: "other", see :func:`~.termination.classify_fault_detail`): how
    #: many faults were the bounds machinery saying no versus a wild
    #: jump decoding garbage.
    fault_kinds: Dict = field(default_factory=dict)

    def busy_cycles(self, total_cycles: int) -> int:
        return total_cycles - self.idle_cycles

    def utilization(self, total_cycles: int) -> float:
        if total_cycles == 0:
            return 0.0
        return self.busy_cycles(total_cycles) / total_cycles


class SenSmartKernel:
    """One simulated sensor node running SenSmart."""

    def __init__(self, image: TargetImage,
                 config: Optional[KernelConfig] = None,
                 devices=(), block_cache=None):
        """*block_cache* forwards to :class:`~..avr.cpu.AvrCpu`: None
        shares the process-wide trace cache, False disables it, or pass
        an explicit :class:`~..avr.cpu.SuperblockCache`."""
        self.config = config if config is not None else KernelConfig()
        self.image = image

        flash = Flash()
        image.burn(flash)
        self.cpu = AvrCpu(flash, clock_hz=self.config.clock_hz,
                          fuse=self.config.fuse, block_cache=block_cache,
                          max_block=self.config.max_block_members)
        for device in devices:
            self.cpu.attach_device(device)

        self.translator = AddressTranslator(self.config)
        self.regions = RegionTable(self.config)
        self.scheduler = RoundRobinScheduler(self.config)
        self.trampolines = image.trampolines_by_address
        #: Naturalized site -> proven claim ("heap"/"stack"/"pop") the
        #: JIT tiers may elide guards for.  Populated only under
        #: ``config.elide`` and only from certificates the independent
        #: lint checker re-validated against this node's geometry.
        self.elisions: Dict[int, str] = {}
        if self.config.elide:
            from ..analysis.static.dataflow import validated_elisions
            self.elisions = validated_elisions(image, self.config)
        self.handlers = TrapHandlers(self)
        self.cpu.set_trap_region(image.trap_region[0], image.trap_region[1],
                                 self.handlers.dispatch,
                                 thunk_factory=self.handlers.thunk_factory)
        self.specializer = None
        self.tracer = None
        if self.config.fuse:
            import os

            from ..avr.trace import TraceCompiler, TraceStore
            from .specialize import TrapSpecializer
            self.specializer = TrapSpecializer(self)
            store_path = self.config.trace_store or \
                os.environ.get("SENSMART_TRACE_STORE")
            store = TraceStore(store_path) if store_path else None
            self.tracer = TraceCompiler(self.cpu, self.specializer,
                                        store=store)
            self.cpu.set_tracer(self.tracer)

        self.tasks: Dict[int, Task] = {}
        self.current: Optional[Task] = None
        self.stats = KernelStats()
        self._booted = False
        self._account_from = 0
        #: True while the node is idle-parked: every task is blocked and
        #: the run budget ended before the earliest wake, so the kernel
        #: left the CPU "sleeping" with the pending virtual-timer events
        #: armed to un-park it (see _dispatch_next / _virtual_timer_fire).
        self._parked = False
        self._parked_from = 0
        #: Set by panic(): the kernel hit an unrecoverable error and
        #: halted; the node layer decides whether to reboot.
        self.panicked = False
        self.panic_reason = ""
        self._watchdog_event = None

        self._load_tasks()
        self.relocator = StackRelocator(
            self.config, self.cpu.mem, self.regions, self._sp_of)
        self.relocator.on_sp_adjust = self._on_sp_adjust
        self.relocator.on_region_change = self._on_region_change

    # -- loading ---------------------------------------------------------------

    def _load_tasks(self) -> None:
        task_ids = list(range(len(self.image.tasks)))
        heap_sizes = [t.heap_size for t in self.image.tasks]
        self.regions.allocate_initial(heap_sizes, task_ids)
        for task_id, task_image in zip(task_ids, self.image.tasks):
            task = Task(task_id=task_id, image=task_image)
            region = self.regions.by_task(task_id)
            task.context.pc = task_image.entry
            task.context.sp = self.translator.initial_sp(region)
            task.branch_counter = self.config.branch_trap_period
            self.tasks[task_id] = task
            self.scheduler.enqueue(task)

    # -- small accessors used by handlers -----------------------------------------

    def region_of_current(self) -> MemoryRegion:
        if self.current is None:
            raise KernelError("no current task")
        return self.regions.by_task(self.current.task_id)

    def _sp_of(self, task_id: int) -> int:
        if self.current is not None and self.current.task_id == task_id:
            return self.cpu.sp
        return self.tasks[task_id].context.sp

    def _on_sp_adjust(self, task_id: int, delta: int) -> None:
        if self.current is not None and self.current.task_id == task_id:
            self.cpu.sp += delta
        else:
            self.tasks[task_id].context.sp += delta

    def _on_region_change(self, task_id: int) -> None:
        """A task's region geometry moved: retire its specialized code.

        Traces bake the region constants of their chained trap sites in
        and guard on this epoch, so bumping it deoptimizes every stale
        trace on its next execution.
        """
        task = self.tasks.get(task_id)
        if task is not None:
            task.region_epoch += 1

    def charge(self, cycles: int) -> None:
        """Charge *cycles* to the clock and the kernel-overhead account."""
        self.cpu.cycles += cycles
        self.stats.kernel_cycles += cycles
        if self.current is not None:
            self.current.kernel_cycles += cycles

    # -- virtualized I/O (SP / SREG / Timer3) ----------------------------------------

    def io_read(self, address: int) -> int:
        cpu = self.cpu
        if address == ioports.SPL or address == ioports.SPH:
            region = self.region_of_current()
            logical = self.translator.sp_to_logical(region, cpu.sp)
            return logical & 0xFF if address == ioports.SPL \
                else (logical >> 8) & 0xFF
        if address == ioports.TCNT3L:
            ticks = cpu.cycles // self.config.timer3_prescaler
            self.current._timer_latch_high = (ticks >> 8) & 0xFF
            return ticks & 0xFF
        if address == ioports.TCNT3H:
            return self.current._timer_latch_high
        if address in (ioports.OCR3AL, ioports.OCR3AH, ioports.TCCR3B,
                       ioports.ETIFR):
            return self._virtual_timer_read(address)
        return cpu.data_read(address)

    def io_write(self, address: int, value: int) -> None:
        cpu = self.cpu
        value &= 0xFF
        if address in (ioports.SPL, ioports.SPH):
            # Indirect writes to the SP bytes follow SP-write semantics.
            region = self.region_of_current()
            logical = self.translator.sp_to_logical(region, cpu.sp)
            if address == ioports.SPL:
                logical = (logical & 0xFF00) | value
            else:
                logical = (value << 8) | (logical & 0x00FF)
            cpu.sp = self.translator.sp_to_physical(region, logical)
            return
        if address in ioports.TIMER3_ADDRESSES:
            self._virtual_timer_write(address, value)
            return
        cpu.data_write(address, value)

    # -- virtual timer service ------------------------------------------------------

    def _virtual_timer_read(self, address: int) -> int:
        task = self.current
        if address == ioports.OCR3AL:
            return (task.timer_period_cycles
                    // self.config.timer3_prescaler) & 0xFF
        if address == ioports.OCR3AH:
            return ((task.timer_period_cycles
                     // self.config.timer3_prescaler) >> 8) & 0xFF
        if address == ioports.ETIFR:
            return 1 if task.timer_pending else 0
        return 0

    def _virtual_timer_write(self, address: int, value: int) -> None:
        """ABI: write OCR3AH then OCR3AL; the low write arms a periodic
        virtual timer with the 16-bit tick period."""
        task = self.current
        if address == ioports.OCR3AH:
            task._timer_latch_high = value
            return
        if address == ioports.OCR3AL:
            ticks = (task._timer_latch_high << 8) | value
            task.timer_period_cycles = self.config.ticks_to_cycles(ticks)
            self.cpu.events.cancel(task._timer_event)
            task._timer_event = None
            if task.timer_period_cycles > 0:
                task.timer_next_fire = self.cpu.cycles + \
                    task.timer_period_cycles
                task.timer_pending = 0
                self._arm_virtual_timer(task)
            else:
                task.timer_next_fire = None
            return
        if address == ioports.ETIFR and value:
            task.timer_pending = 0
        # TCCR3B writes are accepted and ignored: virtual timers are
        # always armed by the OCR3A write in this ABI.

    def _arm_virtual_timer(self, task: Task) -> None:
        task._timer_event = self.cpu.events.schedule(
            task.timer_next_fire,
            lambda task=task: self._virtual_timer_fire(task))

    def _virtual_timer_fire(self, task: Task) -> None:
        """A task's periodic virtual timer came due (event callback).

        Fires ride the CPU's event queue, so they land at the exact due
        cycle (at the next instruction/superblock boundary) instead of
        waiting for a scheduler tick.  A fire wakes a blocked task — the
        fire is consumed by the wake-up itself — or accumulates in
        ``timer_pending`` for a running/ready one, then re-arms for the
        next period.
        """
        task._timer_event = None
        if not task.alive or task.timer_next_fire is None:
            return
        task.timer_next_fire += task.timer_period_cycles
        self._arm_virtual_timer(task)
        if task.state is TaskState.BLOCKED:
            task.wake_cycle = None
            self.scheduler.enqueue(task)
            if self._parked:
                self._unpark()
        else:
            task.timer_pending += 1

    # -- stack growth -------------------------------------------------------------------

    def ensure_stack_room(self, need_bytes: int) -> bool:
        """Make sure the current stack can take *need_bytes* more.

        Triggers stack relocation on impending overflow; on failure the
        current task is terminated and False is returned.
        """
        cpu = self.cpu
        region = self.region_of_current()
        task = self.current
        if cpu.sp < task.min_sp_seen:
            task.min_sp_seen = cpu.sp
        depth = region.p_u - 1 - (cpu.sp - need_bytes)
        if depth > task.max_stack_used:
            task.max_stack_used = depth
        floor = region.p_h + self.config.stack_margin
        if cpu.sp - need_bytes + 1 >= floor:
            return True
        if self.config.enable_relocation:
            deficit = floor - (cpu.sp - need_bytes + 1)
            result = self.relocator.grow_stack(self.current.task_id,
                                               deficit)
            if result.moved:
                self.charge(result.cycles)
                self.stats.relocations += 1
                self.stats.relocation_bytes += result.bytes_moved
                self.current.stack_grows += 1
                return True
        self.terminate_task(self.current, TerminationReason.STACK_OVERFLOW)
        return False

    # -- scheduling --------------------------------------------------------------------

    def scheduler_tick(self) -> None:
        """Kernel entry from the 1/256 backward-branch trap."""
        if not self.config.enable_scheduling:
            return  # protection-only configuration (Figure 5 series)
        self.charge(costs.SCHED_CHECK)
        self.stats.scheduler_checks += 1
        task = self.current
        if task is not None and \
                self.scheduler.slice_expired(task, self.cpu.cycles):
            self.preempt()

    def preempt(self) -> None:
        """Put the running task back on the ready queue and switch."""
        task = self.current
        if task is None:
            return
        if len(self.scheduler) == 0:
            # Nobody else to run: renew the slice without a switch.
            task.slice_start_cycle = self.cpu.cycles
            return
        self._account_current()
        task.state = TaskState.READY
        self.scheduler.enqueue(task)
        self.current = None
        self._switch_to(self.scheduler.pick(), charge=costs.FULL_SWITCH)

    def sleep_current(self) -> None:
        """Block the current task until its virtual timer fires."""
        task = self.current
        if task.timer_pending > 0:
            task.timer_pending -= 1
            return  # a period already elapsed; continue immediately
        if task.timer_next_fire is None:
            self.terminate_task(task, TerminationReason.SLEEP_NO_TIMER)
            return
        self._account_current()
        task.state = TaskState.BLOCKED
        task.wake_cycle = task.timer_next_fire
        self.current = None
        self._dispatch_next()

    def terminate_task(self, task: Task, reason: TerminationReason,
                       detail: str = "") -> None:
        """End *task* for *reason*; a restart policy may revive it.

        The reason is structured (:class:`TerminationReason`); the
        human-readable rendering in ``task.exit_reason`` and
        ``KernelStats.terminations`` matches the historical free-form
        strings exactly.
        """
        if task is None or not task.alive:
            return
        text = reason.describe(detail)
        task.state = TaskState.TERMINATED
        self.cpu.events.cancel(task._timer_event)
        task._timer_event = None
        task.timer_next_fire = None
        self.cpu.events.cancel(task._restart_event)
        task._restart_event = None
        task.exit_reason = text
        task.termination = reason
        self.stats.terminations.append(f"{task.name}: {text}")
        counts = self.stats.termination_counts
        counts[reason.name] = counts.get(reason.name, 0) + 1
        if reason is TerminationReason.FAULT:
            kind = classify_fault_detail(detail)
            kinds = self.stats.fault_kinds
            kinds[kind] = kinds.get(kind, 0) + 1
        self.scheduler.remove(task)
        was_current = self.current is task
        if was_current:
            self._account_current()
            self.current = None
        if reason.restartable and self._restart_allowed(task):
            self._restart_task(task)
        elif self.regions.maybe_by_task(task.task_id) is not None:
            grant = self.regions.release(task.task_id)
            self._apply_release_grant(grant)
        if was_current:
            self._dispatch_next()

    # -- restart policies ---------------------------------------------------------

    def _restart_policy_of(self, task: Task) -> str:
        return task.restart_policy if task.restart_policy is not None \
            else self.config.restart_policy

    def _restart_allowed(self, task: Task) -> bool:
        if self._restart_policy_of(task) == "never":
            return False
        cap = task.restart_max if task.restart_max is not None \
            else self.config.restart_max
        return task.restarts_used < cap

    def _restart_task(self, task: Task) -> None:
        """Cold-restart a dead task in place: wipe its region, reset
        its context to the entry point, and requeue it (immediately for
        "restart", after an exponential backoff for
        "restart-with-backoff").  The region geometry is untouched, so
        no neighbour moves and specialized code stays valid."""
        task.restarts_used += 1
        self.stats.restarts.append(f"{task.name}: {task.exit_reason}")
        region = self.regions.by_task(task.task_id)
        data = self.cpu.mem.data
        for address in range(region.p_l, region.p_u):
            data[address] = 0
        task.context = TaskContext()
        task.context.pc = task.image.entry
        task.context.sp = self.translator.initial_sp(region)
        task.branch_counter = self.config.branch_trap_period
        task.timer_period_cycles = 0
        task.timer_pending = 0
        task._timer_latch_high = 0
        task.wake_cycle = None
        self.charge(costs.TASK_RESTART)
        if self._restart_policy_of(task) == "restart-with-backoff":
            slices = self.config.restart_backoff_slices \
                * (1 << (task.restarts_used - 1))
            due = self.cpu.cycles + slices * self.config.time_slice_cycles
            task.state = TaskState.BLOCKED
            task.wake_cycle = due
            task._restart_event = self.cpu.events.schedule(
                due, lambda task=task: self._restart_wake(task))
        else:
            self.scheduler.enqueue(task)

    def _restart_wake(self, task: Task) -> None:
        """Backoff elapsed (event callback): requeue the revived task."""
        task._restart_event = None
        if task.state is not TaskState.BLOCKED:
            return
        task.wake_cycle = None
        self.scheduler.enqueue(task)
        if self._parked:
            self._unpark()

    # -- watchdog -------------------------------------------------------------------

    def _watchdog_period(self) -> int:
        return self.config.watchdog_slices * self.config.time_slice_cycles

    def _arm_watchdog(self) -> None:
        self._watchdog_event = self.cpu.events.schedule(
            self.cpu.cycles + self._watchdog_period(), self._watchdog_fire)

    def _watchdog_fire(self) -> None:
        """Periodic software watchdog (event callback).

        A healthy task renews its slice through the 1/256 backward-
        branch scheduler tick well inside one watchdog period; a task
        still current with a slice older than the whole period has made
        no scheduler progress (trap starvation — e.g. a corrupted
        branch counter) and is faulted.
        """
        self._watchdog_event = None
        task = self.current
        if task is not None and self.cpu.cycles - task.slice_start_cycle \
                >= self._watchdog_period():
            self.stats.watchdog_fires += 1
            self.terminate_task(task, TerminationReason.WATCHDOG)
        if not self.cpu.halted:
            self._arm_watchdog()

    def _apply_release_grant(self, grant) -> None:
        """Physically apply a region release (see ReleaseGrant)."""
        if grant is None:
            return
        self._on_region_change(grant.task_id)
        if grant.heap_move is not None:
            src, dst, length = grant.heap_move
            self.cpu.mem.move_block(src, dst, length)
        if grant.stack_grant is not None:
            # The absorbing region's logical->physical displacement
            # changed with its new p_u: slide its live stack up so
            # logical stack addresses keep resolving to the same bytes.
            task_id, old_p_u, delta = grant.stack_grant
            sp = self._sp_of(task_id)
            used = old_p_u - (sp + 1)
            if used > 0:
                self.cpu.mem.move_block(sp + 1, sp + 1 + delta, used)
            self._on_sp_adjust(task_id, delta)

    def fault_current(self, reason: TerminationReason,
                      detail: str = "") -> None:
        self.terminate_task(self.current, reason, detail)

    def panic(self, detail: str) -> None:
        """Unrecoverable kernel error: halt the node instead of raising.

        Only taken when ``config.panic_reboot`` is on; the node layer
        (SensorNode.run) notices ``panicked`` and cold-restarts through
        ``link_image``.  With the flag off, the error propagates to the
        host exactly as before.
        """
        self.stats.panics += 1
        self.panicked = True
        self.panic_reason = detail
        self.current = None
        self.cpu.halted = True

    def _dispatch_next(self) -> None:
        """Pick the next task; idle (advance time) when all are blocked.

        Idle time rides the event queue: the blocked tasks' virtual
        timers are scheduled events, so idling is a jump to the earliest
        wake followed by ``run_due``.  When the current run's cycle
        budget (``cpu._run_mc``, published by ``AvrCpu.run``) ends
        before the earliest wake, the node *parks*: it consumes the
        remaining budget as idle time and leaves the CPU sleeping with
        the events still armed.  A later run resumes the skip, and the
        eventual virtual-timer fire un-parks and dispatches — this is
        what lets the network co-simulator slice idle periods across
        nodes without busy-spinning anyone.
        """
        cpu = self.cpu
        while True:
            task = self.scheduler.pick()
            if task is not None:
                self._switch_to(task, charge=costs.CONTEXT_RESTORE)
                return
            wake_cycles = [t.wake_cycle for t in self.tasks.values()
                           if t.state is TaskState.BLOCKED
                           and t.wake_cycle is not None]
            if not wake_cycles:
                cpu.halted = True  # no runnable or wakeable task left
                return
            wake = min(wake_cycles)
            budget = cpu._run_mc
            if wake > budget:
                if budget > cpu.cycles:
                    self.stats.idle_cycles += int(budget) - cpu.cycles
                    cpu.cycles = int(budget)
                self._parked = True
                self._parked_from = cpu.cycles
                cpu.sleeping = True
                return
            if wake > cpu.cycles:
                self.stats.idle_cycles += wake - cpu.cycles
                cpu.cycles = wake
            cpu.events.run_due(cpu.cycles)

    def _unpark(self) -> None:
        """Resume from an idle park (called by the waking timer fire).

        The span the CPU slept through since parking is kernel idle
        time; account it, wake the CPU, and dispatch whatever the fire
        just enqueued.
        """
        self._parked = False
        if self.cpu.cycles > self._parked_from:
            self.stats.idle_cycles += self.cpu.cycles - self._parked_from
        self.cpu.sleeping = False
        self._dispatch_next()

    def _switch_to(self, task: Task, charge: int) -> None:
        if self.current is not None:
            self._account_current()
            self.current.context.save_from(self.cpu)
        task.context.restore_to(self.cpu)
        task.state = TaskState.RUNNING
        task.slice_start_cycle = self.cpu.cycles
        task.switches += 1
        self.current = task
        self.stats.context_switches += 1
        self.charge(charge)
        self._account_from = self.cpu.cycles

    def _account_current(self) -> None:
        if self.current is not None:
            self.current.context.save_from(self.cpu)
            self.current.cycles_used += self.cpu.cycles - self._account_from
            self._account_from = self.cpu.cycles

    # -- running ------------------------------------------------------------------------

    def boot(self) -> None:
        if self._booted:
            return
        self._booted = True
        self.charge(costs.SYSTEM_INIT)
        first = self.scheduler.pick()
        if first is None:
            raise KernelError("no tasks to run")
        first.context.restore_to(self.cpu)
        first.state = TaskState.RUNNING
        first.slice_start_cycle = self.cpu.cycles
        self.current = first
        self._account_from = self.cpu.cycles
        if self.config.watchdog_slices > 0:
            self._arm_watchdog()

    def run(self, max_cycles: Optional[int] = None,
            max_instructions: Optional[int] = None,
            until: Optional[Callable] = None) -> None:
        """Boot (if needed) and run until done or a limit is reached.

        A :class:`SimulationError` escaping the CPU while a task runs
        (undecodable word after flash corruption, a wild physical
        access) is that task's fault: the task is terminated and the
        run continues — isolation holds even for damage the rewriter
        could not have predicted.  Errors with no task to blame are a
        kernel panic: re-raised by default, absorbed into a node reboot
        under ``config.panic_reboot``.
        """
        self.boot()
        while True:
            try:
                self.cpu.run(max_cycles=max_cycles,
                             max_instructions=max_instructions,
                             until=until)
            except SimulationError as error:
                if self.current is not None:
                    self.terminate_task(self.current,
                                        TerminationReason.FAULT,
                                        str(error))
                    if not self.cpu.halted:
                        continue
                elif self.config.panic_reboot:
                    self.panic(str(error))
                else:
                    raise
            except KernelError as error:
                if not self.config.panic_reboot:
                    raise
                self.panic(str(error))
            break
        self._account_current()

    # -- dynamic loading (reprogramming service) --------------------------------------

    @property
    def loader(self):
        """Lazily-created :class:`~.loader.DynamicLoader`."""
        if not hasattr(self, "_loader"):
            from .loader import DynamicLoader
            self._loader = DynamicLoader(self)
        return self._loader

    def load_task(self, name: str, source: str, min_stack: int = None):
        """Install a new application on the running node."""
        return self.loader.load(name, source, min_stack=min_stack)

    def unload_task(self, name: str) -> None:
        """Terminate a task by name and reclaim its memory region."""
        self.loader.unload(name)

    # -- reporting ------------------------------------------------------------------------

    @property
    def alive_tasks(self) -> List[Task]:
        return [t for t in self.tasks.values() if t.alive]

    def snapshot(self) -> Dict:
        """Diagnostic view of the node: tasks, regions, statistics."""
        regions = {
            region.task_id: {
                "p_l": region.p_l, "p_h": region.p_h, "p_u": region.p_u,
                "heap": region.heap_size, "stack": region.stack_size,
            }
            for region in self.regions.regions}
        tasks = {}
        for task in self.tasks.values():
            tasks[task.task_id] = {
                "name": task.name,
                "state": task.state.value,
                "exit_reason": task.exit_reason,
                "pc": self.cpu.pc if task is self.current
                else task.context.pc,
                "sp": self._sp_of(task.task_id)
                if task.task_id in regions else None,
                "cycles_used": task.cycles_used,
                "kernel_cycles": task.kernel_cycles,
                "max_stack_used": task.max_stack_used,
                "region": regions.get(task.task_id),
            }
        return {
            "cycles": self.cpu.cycles,
            "instructions": self.cpu.instret,
            "current": self.current.task_id
            if self.current is not None else None,
            "tasks": tasks,
            "idle_cycles": self.stats.idle_cycles,
            "kernel_cycles": self.stats.kernel_cycles,
            "context_switches": self.stats.context_switches,
            "relocations": self.stats.relocations,
        }

    def features(self) -> Dict[str, bool]:
        """Capability flags cross-checked by the Table I experiment."""
        return {
            "preemptive_multitasking": self.config.enable_scheduling,
            "concurrent_applications": True,
            "interrupt_free_preemption": True,
            "memory_protection": True,
            "logical_memory_address": True,
            "automatic_memory_management": True,
            "stack_relocation": self.config.enable_relocation,
        }
