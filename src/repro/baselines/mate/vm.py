"""The Maté-like interpreter.

Charges realistic MCU cycle counts per bytecode operation, which is all
Figure 6(c) needs: interpretation-based execution pays one-to-two orders
of magnitude over native for computation-heavy work, while I/O-bound
work hides the overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...errors import SimulationError
from .bytecode import DISPATCH_CYCLES, OP_CYCLES, Op, Program,\
    assemble_bytecode

#: Clock tick length in MCU cycles (matches the kernel's Timer3 setup).
TICK_CYCLES = 8


@dataclass
class VmStats:
    cycles: int = 0
    idle_cycles: int = 0
    ops_executed: int = 0

    @property
    def busy_cycles(self) -> int:
        return self.cycles - self.idle_cycles

    def utilization(self) -> float:
        return self.busy_cycles / self.cycles if self.cycles else 0.0


class MateVm:
    """A single execution context with a periodic clock."""

    def __init__(self, program: Program, heap_slots: int = 16,
                 adc_seed: int = 0xACE1):
        self.program = program.instructions
        self.heap: List[int] = [0] * heap_slots
        self.stack: List[int] = []
        self.pc = 0
        self.halted = False
        self.stats = VmStats()
        self.timer_period_cycles = 0
        self.timer_next_fire: Optional[int] = None
        self.transmitted: List[int] = []
        self._lfsr = adc_seed or 0xACE1

    # -- synthetic sensor (same generator family as the AVR ADC) -----------------

    def _sense(self) -> int:
        lfsr = self._lfsr
        bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
        self._lfsr = ((lfsr >> 1) | (bit << 15)) & 0xFFFF
        return self._lfsr & 0x3FF

    # -- execution ------------------------------------------------------------------

    def step(self) -> None:
        if self.halted:
            return
        if not 0 <= self.pc < len(self.program):
            raise SimulationError(f"VM pc {self.pc} out of program")
        op, operand = self.program[self.pc]
        self.pc += 1
        self.stats.cycles += DISPATCH_CYCLES + OP_CYCLES[op]
        self.stats.ops_executed += 1
        stack = self.stack

        if op is Op.PUSHC or op is Op.PUSH16:
            stack.append(operand & 0xFFFF)
        elif op is Op.POP:
            stack.pop()
        elif op is Op.ADD:
            b, a = stack.pop(), stack.pop()
            stack.append((a + b) & 0xFFFF)
        elif op is Op.SUB:
            b, a = stack.pop(), stack.pop()
            stack.append((a - b) & 0xFFFF)
        elif op is Op.INC:
            stack.append((stack.pop() + 1) & 0xFFFF)
        elif op is Op.DEC:
            stack.append((stack.pop() - 1) & 0xFFFF)
        elif op is Op.DUP:
            stack.append(stack[-1])
        elif op is Op.LOAD:
            stack.append(self.heap[operand])
        elif op is Op.STORE:
            self.heap[operand] = stack.pop()
        elif op is Op.JMP:
            self.pc = operand
        elif op is Op.JNZ:
            if stack.pop():
                self.pc = operand
        elif op is Op.SETTIMER:
            self.timer_period_cycles = operand * TICK_CYCLES
            self.timer_next_fire = self.stats.cycles + \
                self.timer_period_cycles
        elif op is Op.SLEEP:
            self._sleep()
        elif op is Op.SENSE:
            stack.append(self._sense())
        elif op is Op.SENDR:
            self.transmitted.append(stack.pop() & 0xFF)
        elif op is Op.HALT:
            self.halted = True
        else:  # pragma: no cover
            raise SimulationError(f"unhandled op {op}")

    def _sleep(self) -> None:
        if self.timer_next_fire is None:
            raise SimulationError("VM SLEEP with no timer armed")
        if self.stats.cycles < self.timer_next_fire:
            self.stats.idle_cycles += \
                self.timer_next_fire - self.stats.cycles
            self.stats.cycles = self.timer_next_fire
        # Catch up if computation overran one or more periods.
        while self.timer_next_fire <= self.stats.cycles:
            self.timer_next_fire += self.timer_period_cycles

    def run(self, max_ops: int = 100_000_000) -> VmStats:
        executed = 0
        while not self.halted and executed < max_ops:
            self.step()
            executed += 1
        return self.stats


def periodic_task_bytecode(compute_instructions: int,
                           activations: int,
                           period_ticks: int = 2048) -> Program:
    """The PeriodicTask equivalent in bytecode (Figure 6c).

    The native computation core retires ~2 instructions per loop
    iteration; the bytecode loop does the same logical work with
    DEC/DUP/JNZ per iteration, paying interpreter dispatch on each.
    """
    iterations = max(compute_instructions // 2, 1)
    listing = [
        (Op.SETTIMER, period_ticks),
        (Op.PUSH16, activations),
        (Op.STORE, 0),                 # heap[0] = remaining activations
        "activation:",
        Op.SLEEP,
        (Op.PUSH16, iterations),
        "work:",
        Op.DEC,
        Op.DUP,
        (Op.JNZ, "work"),
        Op.POP,
        (Op.LOAD, 1),                  # heap[1] = completed count
        Op.INC,
        (Op.STORE, 1),
        (Op.LOAD, 0),
        Op.DEC,
        Op.DUP,
        (Op.STORE, 0),
        (Op.JNZ, "activation"),
        Op.HALT,
    ]
    return assemble_bytecode(listing)
