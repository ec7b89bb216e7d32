"""Shared test helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.avr import AvrCpu, Flash, assemble

#: ``--hypothesis-profile=long``: the differential loop family (which
#: takes half the profile's example count) runs 1000 examples
#: instead of tier-1's 50.  Tests with an explicit count keep it.
settings.register_profile("long", max_examples=2000)


def run_asm(source: str, max_instructions: int = 1_000_000,
            devices=(), origin: int = 0) -> AvrCpu:
    """Assemble *source*, run it natively until BREAK, return the CPU."""
    program = assemble(source, origin=origin)
    flash = Flash()
    flash.load(origin, program.words)
    cpu = AvrCpu(flash)
    cpu.pc = program.entry
    for device in devices:
        cpu.attach_device(device)
    cpu.run(max_instructions=max_instructions)
    assert cpu.halted, "program did not reach BREAK"
    return cpu


@pytest.fixture
def asm_runner():
    return run_asm
