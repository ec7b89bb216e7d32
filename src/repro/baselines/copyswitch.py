"""Copy-on-switch multitasking: the strawman the paper dismisses.

    "A simple copy-on-switch scheme appears to solve the problem by
    swapping one task's stack out to the external storage (FLASH on
    motes) and swapping it in when the task is activated again.
    However, writing the external FLASH takes more than 10 milliseconds
    on a MICA2 mote.  Such long context-switch delays, as well as other
    limitations (e.g., the erase cycle of FLASH chips), make the
    copy-on-switch scheme impractical for sensor nodes."  (Section I)

This model makes that argument measurable.  All tasks share a single
RAM stack area; at every context switch the outgoing task's live stack
is programmed to external flash and the incoming task's is read back.
The runtime is otherwise identical to a slice-based round-robin — so
the *only* difference from SenSmart's numbers is the swap cost and the
flash wear, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..avr import ioports
from ..avr.cpu import AvrCpu
from ..avr.devices import Adc, Leds, Radio, Timer0
from ..avr.devices.extflash import ExternalFlash
from ..avr.memory import Flash
from ..errors import SimulationError
from ..toolchain.compile import compile_source

#: Cycles for the register-context part of a switch (same work as any
#: multitasking kernel; SenSmart's Table II numbers).
CONTEXT_CYCLES = 2298


@dataclass
class SwapStats:
    switches: int = 0
    swap_cycles: int = 0
    context_cycles: int = 0
    worn_out: bool = False


@dataclass
class _SwapThread:
    name: str
    entry: int
    bss_base: int
    flash_pages: Tuple[int, int]  # (first page, page count)
    regs: bytearray = field(default_factory=lambda: bytearray(32))
    pc: int = 0
    sreg: int = 0
    sp: int = 0
    stack_image: bytes = b""
    done: bool = False
    cycles_used: int = 0


class CopyOnSwitchOS:
    """Round-robin multitasking with flash-swapped stacks."""

    def __init__(self, sources: Sequence[Tuple[str, str]],
                 stack_bytes: int = 512,
                 slice_cycles: int = 73_728,
                 clock_hz: int = 7_372_800):
        self.stack_bytes = stack_bytes
        self.slice_cycles = slice_cycles
        self.flash_device = ExternalFlash()
        self.stats = SwapStats()

        flash = Flash()
        code_cursor = 0x40
        data_cursor = ioports.RAM_START
        self.threads: List[_SwapThread] = []
        pages_per_stack = self.flash_device.pages_for(stack_bytes)
        for index, (name, source) in enumerate(sources):
            program = compile_source(source, name=name,
                                     origin=code_cursor,
                                     bss_base=data_cursor)
            flash.load(code_cursor, program.words)
            thread = _SwapThread(
                name=name, entry=program.entry, bss_base=data_cursor,
                flash_pages=(index * pages_per_stack, pages_per_stack))
            thread.pc = program.entry
            code_cursor += program.size_words
            data_cursor += program.symbols.heap_size
            self.threads.append(thread)
        # One shared stack area at the top of SRAM.
        self.stack_top = ioports.RAM_END
        self.stack_floor = self.stack_top - stack_bytes + 1
        if self.stack_floor <= data_cursor:
            raise SimulationError("heaps and the shared stack collide")
        for thread in self.threads:
            thread.sp = self.stack_top
            thread.stack_image = bytes(stack_bytes)

        self.cpu = AvrCpu(flash, clock_hz=clock_hz)
        for device in (Timer0(), Adc(), Radio(), Leds()):
            self.cpu.attach_device(device)

    # -- stack swapping ---------------------------------------------------------

    def _swap_out(self, thread: _SwapThread) -> None:
        """Program the outgoing task's live stack to external flash."""
        live = bytes(self.cpu.mem.data[self.stack_floor:
                                       self.stack_top + 1])
        first, _count = thread.flash_pages
        try:
            cycles = self.flash_device.write_blob(first, live)
        except SimulationError:
            self.stats.worn_out = True
            raise
        thread.stack_image = live
        self.cpu.cycles += cycles
        self.stats.swap_cycles += cycles

    def _swap_in(self, thread: _SwapThread) -> None:
        first, _count = thread.flash_pages
        _data, cycles = self.flash_device.read_blob(first,
                                                    self.stack_bytes)
        # The authoritative image is in the thread record (the flash
        # device stores the same bytes; reading charges the cycles).
        self.cpu.mem.data[self.stack_floor:self.stack_top + 1] = \
            thread.stack_image
        self.cpu.cycles += cycles
        self.stats.swap_cycles += cycles

    # -- execution -----------------------------------------------------------------

    def run(self, max_cycles: int = 2_000_000_000,
            max_switches: Optional[int] = None) -> SwapStats:
        cpu = self.cpu
        current: Optional[_SwapThread] = None
        index = 0
        while cpu.cycles < max_cycles:
            runnable = [t for t in self.threads if not t.done]
            if not runnable:
                break
            nxt = runnable[index % len(runnable)]
            index += 1
            if nxt is not current:
                if current is not None and not current.done:
                    self._save(current)
                    try:
                        self._swap_out(current)
                    except SimulationError:
                        break  # flash wore out: the scheme's end of life
                self._swap_in(nxt)
                self._restore(nxt)
                cpu.cycles += CONTEXT_CYCLES
                self.stats.context_cycles += CONTEXT_CYCLES
                self.stats.switches += 1
                current = nxt
                if max_switches is not None and \
                        self.stats.switches >= max_switches:
                    break
            start = cpu.cycles
            cpu.run(max_cycles=min(cpu.cycles + self.slice_cycles,
                                   max_cycles),
                    until=lambda c: c.halted)
            nxt.cycles_used += cpu.cycles - start
            if cpu.halted:
                self._save(nxt)
                nxt.done = True
                cpu.halted = False
                current = None
        return self.stats

    def _save(self, thread: _SwapThread) -> None:
        cpu = self.cpu
        thread.regs[:] = cpu.r
        thread.pc = cpu.pc
        thread.sreg = cpu.sreg
        thread.sp = cpu.sp

    def _restore(self, thread: _SwapThread) -> None:
        cpu = self.cpu
        cpu.r[:] = thread.regs
        cpu.pc = thread.pc
        cpu.sreg = thread.sreg
        cpu.sp = thread.sp
        cpu.sleeping = False


def switch_cost_cycles(stack_bytes: int = 512) -> int:
    """Modeled cost of one copy-on-switch context switch."""
    from ..avr.devices.extflash import (PAGE_READ_CYCLES,
                                        PAGE_WRITE_CYCLES)
    flash = ExternalFlash()
    pages = flash.pages_for(stack_bytes)
    return pages * (PAGE_WRITE_CYCLES + PAGE_READ_CYCLES) + CONTEXT_CYCLES
