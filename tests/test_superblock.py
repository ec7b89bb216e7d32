"""Fused execution must be observationally identical to stepwise.

The fused interpreter compiles instruction runs into traces (single
closures); these tests pin down the properties that make that
safe — identical architectural state in both modes, exact stop
semantics, cache invalidation on every path that re-burns flash or
extends the trap region, and device alarms that land mid-block being
serviced before the next dispatch.
"""

from __future__ import annotations

import pytest

from repro.avr import AvrCpu, Flash, assemble, ioports
from repro.avr.devices import Timer3
from repro.avr.trace import TraceCompiler
from repro.kernel import SensorNode

# Exercises every fused member template family: 8-bit ALU, immediates,
# 16-bit ADIW/SBIW, MUL, MOVW, shifts, bit ops, static SRAM LDS/STS,
# LPM, plus BRNE/RJMP terminators inlined into blocks.
_SOUP = """
.bss cells, 8
main:
    ldi r16, 0x3C
    ldi r17, 0xA5
    ldi r18, 0x0F
    ldi r19, 0x81
    ldi r24, 0xF0
    ldi r25, 0x02
    ldi r20, 5
loop:
    add r16, r17
    adc r17, r18
    sub r18, r19
    sbc r19, r16
    and r16, r18
    or r17, r19
    eor r18, r16
    subi r24, 3
    sbci r25, 0
    andi r16, 0xF7
    ori r17, 0x11
    cpi r18, 0x40
    inc r16
    dec r17
    com r18
    neg r19
    swap r16
    lsr r17
    asr r18
    ror r19
    adiw r24, 17
    sbiw r24, 5
    mul r16, r17
    movw r18, r0
    bst r16, 3
    bld r17, 6
    sts cells + 2, r16
    lds r21, cells + 2
    dec r20
    brne loop
    break
"""


def _state(cpu: AvrCpu):
    return (bytes(cpu.r), cpu.sreg, cpu.pc, cpu.sp, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data), cpu.halted)


def _run(source: str, fuse: bool, **kwargs) -> AvrCpu:
    program = assemble(source)
    flash = Flash()
    flash.load(0, program.words)
    cpu = AvrCpu(flash, fuse=fuse)
    cpu.pc = program.labels["main"]
    cpu.run(max_instructions=kwargs.pop("max_instructions", 1_000_000),
            **kwargs)
    return cpu


def test_fused_state_identical_to_stepwise():
    fused = _run(_SOUP, fuse=True)
    stepwise = _run(_SOUP, fuse=False)
    assert fused.halted and stepwise.halted
    assert _state(fused) == _state(stepwise)


def test_fused_max_cycles_stop_is_exact():
    source = "main:\n    rjmp main\n"
    fused = _run(source, fuse=True, max_cycles=1000)
    stepwise = _run(source, fuse=False, max_cycles=1000)
    assert not fused.halted
    assert fused.cycles == stepwise.cycles
    assert fused.instret == stepwise.instret


def test_fused_max_instructions_stop_is_exact():
    fused = _run(_SOUP, fuse=True, max_instructions=137)
    stepwise = _run(_SOUP, fuse=False, max_instructions=137)
    assert fused.instret == stepwise.instret == 137
    assert _state(fused) == _state(stepwise)


def test_profiling_counts_identical_across_modes():
    runs = []
    for fuse in (True, False):
        program = assemble(_SOUP)
        flash = Flash()
        flash.load(0, program.words)
        cpu = AvrCpu(flash, fuse=fuse)
        cpu.enable_profiling()
        cpu.pc = program.labels["main"]
        cpu.run(max_instructions=1_000_000)
        assert cpu.halted
        runs.append(cpu.profile)
    assert runs[0] == runs[1]


# -- cache invalidation --------------------------------------------------------

def _cached_blocks(cpu: AvrCpu) -> int:
    return sum(1 for entry in cpu._blocks if entry is not None)


def test_invalidate_decode_drops_fused_blocks():
    cpu = _run(_SOUP, fuse=True)
    assert _cached_blocks(cpu) > 0
    cpu.invalidate_decode()
    assert _cached_blocks(cpu) == 0


def test_trap_region_changes_drop_fused_blocks():
    cpu = _run(_SOUP, fuse=True)
    assert _cached_blocks(cpu) > 0
    cpu.set_trap_region(0x300, 0x310, lambda *args: None)
    assert _cached_blocks(cpu) == 0

    cpu.halted = False
    cpu.pc = 0
    cpu.run(max_instructions=50)  # repopulate the cache
    assert _cached_blocks(cpu) > 0
    cpu.add_trap_region(0x320, 0x330)
    assert _cached_blocks(cpu) == 0


def test_reburning_flash_drops_stale_blocks():
    """Dynamic loading re-burns flash; old fused blocks must not run."""
    first = assemble("main:\n    ldi r16, 1\n    ldi r17, 1\n    break\n")
    flash = Flash()
    flash.load(0, first.words)
    cpu = AvrCpu(flash, fuse=True)
    cpu.run(max_instructions=100)
    assert cpu.halted and cpu.r[16] == 1

    second = assemble("main:\n    ldi r16, 2\n    ldi r17, 2\n    break\n")
    flash.load(0, second.words)  # burn listener invalidates the caches
    cpu.halted = False
    cpu.pc = 0
    cpu.run(max_instructions=100)
    assert cpu.halted and cpu.r[16] == 2 and cpu.r[17] == 2


def test_trap_handler_may_invalidate_mid_run():
    """A trap handler that re-burns flash (dynamic task loading) must
    take effect immediately, even though ``run()`` is mid-flight."""
    source = """
main:
    ldi r16, 1
    jmp 0x200
"""
    program = assemble(source)
    flash = Flash()
    flash.load(0, program.words)
    cpu = AvrCpu(flash, fuse=True)
    continuation = assemble(
        "main:\n    ldi r17, 9\n    break\n", origin=0x100)

    def handler(cpu, site, target, is_call):
        # Load a fresh program past the region and resume there.
        flash.load(0x100, continuation.words)
        cpu.pc = 0x100

    cpu.set_trap_region(0x200, 0x210, handler)
    cpu.run(max_instructions=100)
    assert cpu.halted
    assert cpu.r[16] == 1 and cpu.r[17] == 9


# invalidate_decode() skips the clear when nothing was stored since the
# last one, so both writers of _exec/_blocks (_decode_at and the trace
# entry store of _fuse_block) must say that they stored.  Each case
# below makes exactly one store on a fresh CPU.

_LOOP = """
main:
    ldi r16, 5
loop:
    dec r16
    breq done
    inc r17
    rjmp loop
done:
    break
"""


def _loop_cpu(**kwargs):
    program = assemble(_LOOP)
    flash = Flash()
    flash.load(0, program.words)
    kwargs.setdefault("block_cache", False)
    return AvrCpu(flash, **kwargs), program.labels


def _decode_at():
    cpu, labels = _loop_cpu()
    cpu._decode_at(labels["loop"])
    return cpu


def _trace_entry():
    cpu, labels = _loop_cpu()
    tracer = TraceCompiler(cpu)
    cpu.set_tracer(tracer)
    cpu._fuse_block(labels["main"])
    assert tracer.stats.compiled == 1
    return cpu


def _stored(cpu: AvrCpu):
    return [(name, pc) for name, cache in (("exec", cpu._exec),
                                           ("blocks", cpu._blocks))
            for pc, entry in enumerate(cache) if entry is not None]


@pytest.mark.parametrize("writer", [_decode_at, _trace_entry],
                         ids=lambda writer: writer.__name__.strip("_"))
def test_reburn_clears_what_each_writer_stored(writer):
    cpu = writer()
    assert len(_stored(cpu)) == 1  # the writer's store is the only one
    cpu.flash.load(0, [cpu.flash.word(0)])
    assert _stored(cpu) == []


# -- events landing mid-block -------------------------------------------------

class _AlarmProbe:
    """Device that records the cycle at which its event finally fires."""

    def __init__(self, due: int):
        self.due = due
        self.serviced_at = None

    def attach(self, cpu) -> None:
        self._cpu = cpu
        cpu.events.schedule(self.due, self._fire)

    def _fire(self) -> None:
        if self.serviced_at is None:
            self.serviced_at = self._cpu.cycles


def test_alarm_due_mid_block_serviced_before_next_dispatch():
    # A long straight-line block looped forever: every event cycle falls
    # inside some fused block.
    body = "    add r16, r17\n" * 40
    source = "main:\n" + body + "    rjmp main\n"
    program = assemble(source)
    flash = Flash()
    flash.load(0, program.words)
    cpu = AvrCpu(flash, fuse=True)
    probe = _AlarmProbe(due=101)  # mid-block by construction
    cpu.attach_device(probe)
    cpu.run(max_cycles=1000)
    assert probe.serviced_at is not None
    # Serviced at the first block boundary after coming due — within one
    # block's worth of cycles, never deferred to the run's end.
    assert probe.serviced_at >= probe.due
    assert probe.serviced_at - probe.due <= 60


def test_timer_alarm_mid_block_fires_interrupt():
    """Regression: a Timer3 compare landing inside a fused block must
    still deliver its interrupt (the waiting loop fuses into a
    self-looping block; the alarm has to break it out)."""
    timer = Timer3(prescaler=1)
    source = f"""
.org {ioports.VECT_TIMER3_COMPA}
    jmp isr
.org 0x40
main:
    ldi r16, 0x00
    sts {ioports.OCR3AH}, r16
    ldi r16, 0x60
    sts {ioports.OCR3AL}, r16   ; compare at ~0x60 cycles
    ldi r16, 1
    sts {ioports.TCCR3B}, r16   ; enable compare interrupt
    sei
    ldi r20, 0
wait:
    add r17, r18
    add r17, r18
    add r17, r18
    add r17, r18
    cpi r20, 0xCC
    brne wait
    break
isr:
    ldi r20, 0xCC
    reti
"""
    program = assemble(source)
    results = []
    for fuse in (True, False):
        flash = Flash()
        flash.load(0, program.words)
        cpu = AvrCpu(flash, fuse=fuse)
        cpu.attach_device(Timer3(prescaler=1))
        cpu.pc = program.labels["main"]
        cpu.run(max_instructions=10_000)
        assert cpu.halted, "interrupt lost: wait loop never broke"
        assert cpu.r[20] == 0xCC
        results.append(cpu.instret)
    # Fused delivery happens at a block boundary, so it may retire a few
    # extra loop instructions — but never run away.
    assert abs(results[0] - results[1]) <= 50


# -- kernelized dual-mode ------------------------------------------------------

_SPIN = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 2
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""


def _kernel_state(node: SensorNode):
    cpu = node.cpu
    kernel = node.kernel
    return (bytes(cpu.r), cpu.sreg, cpu.pc, cpu.sp, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data),
            dict(kernel.stats.trap_counts),
            kernel.stats.context_switches, cpu.halted)


def test_kernel_bit_identical_across_modes():
    states = []
    for fuse in (True, False):
        node = SensorNode.from_sources([("spin", _SPIN)], fuse=fuse)
        node.run(max_instructions=10_000_000)
        assert node.finished
        states.append(_kernel_state(node))
    assert states[0] == states[1]
