"""Fixed-stack multithreaded OS model (LiteOS / MANTIS style).

Traditional multithreading on motes allocates each thread a
*fixed-size* stack based on worst-case estimation, with no address
translation and no relocation (paper Sections I-II).  This model
reproduces the consequences Figure 8 measures:

* a static kernel data footprint (LiteOS: >2000 bytes);
* per-thread heaps placed at distinct physical addresses (no logical
  addressing) and per-thread fixed stacks;
* a thread whose stack outgrows its allocation is gone — the OS can
  only detect it at a context switch via bounds checks and stack
  canaries (no MMU), by which point the neighbour may be corrupted;
* the maximum number of schedulable threads is fixed by the static
  layout, however dynamic the actual stack usage is.

Scheduling is time-sliced round-robin driven by the hardware clock (we
enforce slices from the runner, standing in for the timer interrupt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..avr import ioports
from ..avr.cpu import AvrCpu
from ..avr.devices import Adc, Leds, Radio, Timer0
from ..avr.memory import Flash
from ..errors import MemoryFault, SimulationError
from ..toolchain.compile import compile_source

CANARY = 0xC5
CANARY_BYTES = 4


@dataclass
class ThreadSpec:
    """One thread: program source plus its fixed stack allocation."""

    name: str
    source: str
    stack_size: int


@dataclass
class ThreadState:
    spec: ThreadSpec
    entry: int = 0
    bss_base: int = 0
    heap_size: int = 0
    stack_lo: int = 0  # lowest legal stack byte
    stack_hi: int = 0  # initial SP (top byte)
    regs: bytearray = field(default_factory=lambda: bytearray(32))
    pc: int = 0
    sreg: int = 0
    sp: int = 0
    done: bool = False
    failed: str = ""
    wake_cycle: Optional[int] = None
    timer_period: int = 0
    timer_latch_high: int = 0
    cycles_used: int = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def runnable(self) -> bool:
        return not self.done and not self.failed


@dataclass
class FixedStackResult:
    schedulable: bool
    reason: str
    threads: List[ThreadState]
    cycles: int = 0

    @property
    def overflows(self) -> List[str]:
        return [t.name for t in self.threads if t.failed]


class FixedStackOS:
    """Round-robin multithreading with static stacks, no translation."""

    def __init__(self, threads: Sequence[ThreadSpec],
                 static_data_bytes: int = 2000,
                 slice_cycles: int = 73_728,
                 clock_hz: int = 7_372_800,
                 total_stack_budget: Optional[int] = None):
        """*total_stack_budget* optionally caps the combined stack space
        (used by Figure 8 to give SenSmart and LiteOS equal budgets)."""
        self.specs = list(threads)
        self.static_data_bytes = static_data_bytes
        self.slice_cycles = slice_cycles
        self.clock_hz = clock_hz
        self.total_stack_budget = total_stack_budget
        self.threads: List[ThreadState] = []
        self.cpu: Optional[AvrCpu] = None
        self._current: Optional[ThreadState] = None
        self._layout_error = ""

    # -- layout & loading ----------------------------------------------------------

    def load(self) -> bool:
        """Lay out memory and burn programs; False if it does not fit."""
        stack_total = sum(spec.stack_size for spec in self.specs)
        if self.total_stack_budget is not None and \
                stack_total > self.total_stack_budget:
            self._layout_error = (
                f"stack budget exceeded: {stack_total} > "
                f"{self.total_stack_budget}")
            return False
        cursor = ioports.RAM_START + self.static_data_bytes
        flash = Flash()
        code_cursor = 0x40  # leave room for vectors
        states: List[ThreadState] = []
        for spec in self.specs:
            program = compile_source(spec.source, name=spec.name,
                                     origin=code_cursor, bss_base=cursor)
            state = ThreadState(spec=spec, entry=program.entry,
                                bss_base=cursor,
                                heap_size=program.symbols.heap_size)
            cursor += program.symbols.heap_size
            flash.load(code_cursor, program.words)
            code_cursor += program.size_words
            states.append(state)
        for state in states:
            state.stack_lo = cursor
            cursor += state.spec.stack_size
            state.stack_hi = cursor - 1
            state.sp = state.stack_hi
            state.pc = state.entry
        if cursor > ioports.RAM_END + 1:
            self._layout_error = (
                f"layout needs {cursor - ioports.RAM_START} bytes, "
                f"only {ioports.RAM_END + 1 - ioports.RAM_START} available")
            return False
        self.threads = states
        self.cpu = AvrCpu(flash, clock_hz=self.clock_hz)
        for device in (Timer0(), Adc(), Radio(), Leds()):
            self.cpu.attach_device(device)
        self._claim_timer3()
        self._plant_canaries()
        return True

    def _plant_canaries(self) -> None:
        for state in self.threads:
            for offset in range(CANARY_BYTES):
                self.cpu.mem.data[state.stack_lo + offset] = CANARY

    def _claim_timer3(self) -> None:
        """Per-thread virtual clock, LiteOS-style system calls stand-in:
        claims OCR3AL/H writes and TCNT3L/H reads in the CPU's tables."""
        cpu = self.cpu
        cpu.io_write[ioports.OCR3AH] = self._write_ocr_high
        cpu.io_write[ioports.OCR3AL] = self._write_ocr_low
        cpu.io_read[ioports.TCNT3L] = lambda _: (cpu.cycles // 8) & 0xFF
        cpu.io_read[ioports.TCNT3H] = \
            lambda _: ((cpu.cycles // 8) >> 8) & 0xFF

    def _write_ocr_high(self, address: int, value: int) -> None:
        if self._current is not None:
            self._current.timer_latch_high = value

    def _write_ocr_low(self, address: int, value: int) -> None:
        thread = self._current
        if thread is None:
            return
        ticks = (thread.timer_latch_high << 8) | value
        thread.timer_period = ticks * 8

    # -- execution ---------------------------------------------------------------------

    def run(self, max_cycles: int = 200_000_000) -> FixedStackResult:
        if self.cpu is None and not self.load():
            return FixedStackResult(schedulable=False,
                                    reason=self._layout_error,
                                    threads=self.threads)
        cpu = self.cpu
        index = 0
        while cpu.cycles < max_cycles:
            runnable = [t for t in self.threads if t.runnable]
            if not runnable:
                break
            ready = [t for t in runnable
                     if t.wake_cycle is None or t.wake_cycle <= cpu.cycles]
            if not ready:
                cpu.cycles = min(t.wake_cycle for t in runnable
                                 if t.wake_cycle is not None)
                continue
            # Round-robin over ready threads.
            index += 1
            thread = ready[index % len(ready)]
            self._run_slice(thread, max_cycles)
            if self._check_corruption():
                break
        overflowed = any(t.failed for t in self.threads)
        reason = "; ".join(f"{t.name}: {t.failed}"
                           for t in self.threads if t.failed)
        return FixedStackResult(schedulable=not overflowed,
                                reason=reason or "ok",
                                threads=self.threads, cycles=cpu.cycles)

    def _run_slice(self, thread: ThreadState, max_cycles: int) -> None:
        cpu = self.cpu
        self._current = thread
        cpu.r[:] = thread.regs
        cpu.pc = thread.pc
        cpu.sreg = thread.sreg
        cpu.sp = thread.sp
        cpu.sleeping = False
        start = cpu.cycles
        deadline = min(start + self.slice_cycles, max_cycles)
        try:
            cpu.run(max_cycles=deadline,
                    until=lambda c: c.sleeping or c.halted)
        except MemoryFault as fault:
            thread.failed = f"memory fault: {fault}"
        except SimulationError as error:
            thread.failed = f"simulation error: {error}"
        thread.regs[:] = cpu.r
        thread.pc = cpu.pc
        thread.sreg = cpu.sreg
        thread.sp = cpu.sp
        thread.cycles_used += cpu.cycles - start
        if cpu.halted:
            thread.done = True
            cpu.halted = False
        elif cpu.sleeping:
            cpu.sleeping = False
            if thread.timer_period <= 0:
                thread.failed = "sleep with no timer armed"
            else:
                thread.wake_cycle = cpu.cycles + thread.timer_period
        # Bounds check at the switch — all a traditional mote OS can do.
        if not thread.failed and not thread.done and \
                not thread.stack_lo <= cpu.sp <= thread.stack_hi:
            thread.failed = (f"stack pointer {cpu.sp:#06x} left "
                             f"[{thread.stack_lo:#06x},"
                             f"{thread.stack_hi:#06x}]")
        self._current = None

    def _check_corruption(self) -> bool:
        """Canary scan: a chewed canary means a neighbour overflowed."""
        for thread in self.threads:
            for offset in range(CANARY_BYTES):
                if self.cpu.mem.data[thread.stack_lo + offset] != CANARY \
                        and not thread.failed and not thread.done:
                    # The thread just below overflowed into this stack,
                    # or this thread's own deep usage reached its floor.
                    thread.failed = "stack canary destroyed"
                    return True
        return False


def max_schedulable_threads(make_spec, static_data_bytes: int = 2000,
                            limit: int = 32,
                            total_stack_budget: Optional[int] = None,
                            max_cycles: int = 200_000_000,
                            extra_threads: Sequence[ThreadSpec] = (),
                            ) -> int:
    """Largest k such that k generated threads all run without failure.

    *make_spec(i)* returns the i-th :class:`ThreadSpec`.  Mirrors the
    paper's Figure 7/8 metric.
    """
    best = 0
    for count in range(1, limit + 1):
        specs = list(extra_threads) + [make_spec(i) for i in range(count)]
        os_model = FixedStackOS(specs,
                                static_data_bytes=static_data_bytes,
                                total_stack_budget=total_stack_budget)
        result = os_model.run(max_cycles=max_cycles)
        if not result.schedulable:
            break
        best = count
    return best
