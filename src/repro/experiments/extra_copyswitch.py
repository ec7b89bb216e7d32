"""Extra experiment: copy-on-switch vs SenSmart context switching.

Quantifies Section I's dismissal of the copy-on-switch strawman:
flash-swapped stacks make a context switch ~40x more expensive than
SenSmart's, collapse multitasking throughput, and wear out the swap
pages within hours at realistic switch rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..analysis.report import format_table
from ..avr.devices.extflash import PAGE_ENDURANCE
from ..baselines.copyswitch import CopyOnSwitchOS, switch_cost_cycles
from ..kernel import KernelConfig, SensorNode
from ..kernel import costs

CLOCK_HZ = 7_372_800

SPINNER = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 3
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""


@dataclass
class CopySwitchResult:
    sensmart_switch_cycles: int
    copyswitch_switch_cycles: int
    sensmart_total_cycles: int
    copyswitch_total_cycles: int
    copyswitch_switches: int
    lifetime_hours_at_100hz: float
    rows: List[List] = field(default_factory=list)

    def render(self) -> str:
        ratio = self.copyswitch_switch_cycles / \
            self.sensmart_switch_cycles
        micro = 1e6 / CLOCK_HZ
        rows = [
            ["context switch (cycles)", self.sensmart_switch_cycles,
             self.copyswitch_switch_cycles],
            ["context switch (us)",
             round(self.sensmart_switch_cycles * micro, 1),
             round(self.copyswitch_switch_cycles * micro, 1)],
            ["2 spinners to completion (cycles)",
             self.sensmart_total_cycles, self.copyswitch_total_cycles],
        ]
        footer = (f"\ncopy-on-switch pays {ratio:.0f}x per switch; at a "
                  f"100 Hz switch rate its swap pages wear out after "
                  f"~{self.lifetime_hours_at_100hz:.2f} hours "
                  f"({PAGE_ENDURANCE} erase cycles/page).")
        return format_table(
            ["metric", "SenSmart", "copy-on-switch"], rows,
            title="Extra: the copy-on-switch strawman (paper Section I)"
        ) + footer


def run(stack_bytes: int = 512) -> CopySwitchResult:
    # SenSmart: two CPU-bound spinners, small slices.
    config = KernelConfig(time_slice_cycles=20_000)
    node = SensorNode.from_sources(
        [("s1", SPINNER), ("s2", SPINNER)], config=config)
    node.run(max_instructions=30_000_000)
    assert node.finished

    # Copy-on-switch: the same two spinners, same slice length.
    os_model = CopyOnSwitchOS([("s1", SPINNER), ("s2", SPINNER)],
                              stack_bytes=stack_bytes,
                              slice_cycles=20_000)
    stats = os_model.run()
    per_switch = switch_cost_cycles(stack_bytes)

    # Endurance: one swap-out per switch; each page erased once per
    # swap.  At 100 switches/s the page hits its rating in:
    lifetime_hours = PAGE_ENDURANCE / 100 / 3600

    return CopySwitchResult(
        sensmart_switch_cycles=costs.FULL_SWITCH,
        copyswitch_switch_cycles=per_switch,
        sensmart_total_cycles=node.cpu.cycles,
        copyswitch_total_cycles=os_model.cpu.cycles,
        copyswitch_switches=stats.switches,
        lifetime_hours_at_100hz=lifetime_hours,
    )
