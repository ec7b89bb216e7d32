"""Shared test helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.avr import AvrCpu, Flash, assemble, trace

#: ``--hypothesis-profile=long``: the differential loop family (which
#: takes half the profile's example count) runs 1000 examples
#: instead of tier-1's 50.  Tests with an explicit count keep it.
settings.register_profile("long", max_examples=2000)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "tier_up_at_once: compile every trace head on its "
        "first dispatch (trace.TIER_UP = 1)")


@pytest.fixture(autouse=True)
def tier_up_at_once(request):
    """Pin ``trace.TIER_UP`` to 1 for a test (or a parameter) marked
    ``tier_up_at_once``: it asserts that traces, specializations or
    seams exist, or it checks the traced tier against stepwise on code
    whose heads run too few times to get hot at the production
    threshold (such a test also asserts that traces ran).  Every other
    test runs at the production threshold."""
    if request.node.get_closest_marker("tier_up_at_once") is None:
        yield
        return
    saved, trace.TIER_UP = trace.TIER_UP, 1
    try:
        yield
    finally:
        trace.TIER_UP = saved


@pytest.fixture
def emitted_traces(monkeypatch):
    """``(emitter, source)`` of every trace compiled while the test
    runs, in compile order (rebinds emit nothing)."""
    captured = []
    source = trace._Emitter.source

    def capture(emitter):
        text = source(emitter)
        captured.append((emitter, text))
        return text

    monkeypatch.setattr(trace._Emitter, "source", capture)
    return captured


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
