"""Fused execution must be observationally identical to stepwise.

The fused interpreter compiles instruction runs into traces (single
closures); these tests pin down the properties that make that
safe — identical architectural state in both modes, every member
template computing what its stepwise closure does, exact stop
semantics, cache invalidation on every path that re-burns flash or
extends the trap region, and device alarms that land mid-block being
serviced before the next dispatch.
"""

from __future__ import annotations

import random

import pytest

from repro.avr import AvrCpu, Flash, Instruction, assemble, ioports, trace
from repro.avr.cpu import C, T, Z
from repro.avr.devices import Timer3
from repro.avr.trace import TraceCompiler
from repro.errors import MemoryFault
from repro.kernel import SensorNode

#: Every test here is about fused execution: compile each trace head on
#: its first dispatch, so short programs run traces, not just step().
pytestmark = pytest.mark.tier_up_at_once

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
    # _SPIN is also the native half of the dual-mode check that
    # test_kernel_bit_identical_across_modes makes kernelized.
    for source in (_SOUP, _SPIN):
        fused = _run(source, fuse=True)
        stepwise = _run(source, fuse=False)
        assert _cached_blocks(fused) > 0  # traces ran, not just step()
        assert fused.halted and stepwise.halted
        assert _state(fused) == _state(stepwise)


# -- member templates against their closures ------------------------------------

#: Starting SREGs: clear, the carry-chain inputs alone and together, T
#: alone, every flag but I, and all eight.
_SREGS = (0x00, C, Z, C | Z, T, 0x7F, 0xFF)


def _member_cases():
    """``(instruction, register assignments)`` for every template
    family: whole operand ranges where they are small, pairs around
    the 16-bit wrap points, a seeded sample of two-register operands."""
    every = [{16: v} for v in range(256)]
    for m in ("COM", "NEG", "SWAP", "INC", "DEC", "LSR", "ASR", "ROR"):
        yield Instruction(m, (16,), 0), every
    for m in ("SUBI", "SBCI", "CPI", "ANDI", "ORI"):
        for k in (0, 1, 0x0F, 0x10, 0x7F, 0x80, 0xFF):
            yield Instruction(m, (16, k), 0), every
    words = sorted({(base + d) & 0xFFFF for base in (0x0000, 0x8000, 0xFFFF)
                    for d in range(-64, 65)})
    pairs = [{24: w & 0xFF, 25: w >> 8} for w in words]
    for m in ("ADIW", "SBIW"):
        for k in (0, 1, 17, 63):
            yield Instruction(m, (24, k), 0), pairs
    for m in ("BST", "BLD"):
        for b in range(8):
            yield Instruction(m, (16, b), 0), [{16: v} for v in
                                               (0x00, 0xFF, 0x55, 0xAA)]
    for m in ("BSET", "BCLR"):
        for s in range(7):  # 7 (SEI/CLI) ends a block: no template
            yield Instruction(m, (s,), 0), [{}]
    rng = random.Random(2010)
    sample = [{r: rng.randrange(256) for r in range(16, 20)}
              for _ in range(256)]
    for m in ("ADD", "ADC", "SUB", "SBC", "CP", "CPC", "AND", "OR", "EOR",
              "MOV", "MUL"):
        for operands in ((16, 17), (17, 17)):
            yield Instruction(m, operands, 0), sample
    yield Instruction("MOVW", (16, 18), 0), sample


def _template(cpu: AvrCpu, ins: Instruction):
    """*ins*'s member template as a function on *cpu*: the effect lines,
    then the flag lines, on ``cpu.sreg``.  Returns the function, the
    template's cycles and its predicates' flag bits; the function
    returns the predicates' values, which hold after the effect
    lines."""
    ns = trace._base_ns(cpu)
    effect, flags, cycles, _, preds = cpu._member_parts(ins, ns, 0)
    body = ["sr = cpu.sreg", *effect, f"p = [{', '.join(preds.values())}]",
            *flags, "cpu.sreg = sr", "return p"]
    exec("def run():\n" + "\n".join("    " + line for line in body), ns)
    return ns["run"], cycles, list(preds)


def test_every_member_template_matches_its_closure():
    """Registers, SREG, cycles and every predicate of each template
    equal its stepwise closure's, from every starting SREG."""
    cpu = AvrCpu(Flash())
    base = bytes(range(0x40, 0x60))
    mismatches = []
    for ins, assignments in _member_cases():
        template, cycles, bits = _template(cpu, ins)
        closure = cpu._build(ins)
        for regs in assignments:
            for sreg in _SREGS:
                cpu.r[:] = base
                for reg, value in regs.items():
                    cpu.r[reg] = value
                start = bytes(cpu.r)
                cpu.sreg, cpu.cycles = sreg, 0
                closure()
                want = (bytes(cpu.r), cpu.sreg, cpu.cycles)
                cpu.r[:], cpu.sreg = start, sreg
                preds = template()
                if (bytes(cpu.r), cpu.sreg, cycles) != want or any(
                        bool(p) != bool(want[1] & bit)
                        for p, bit in zip(preds, bits)):
                    mismatches.append((ins.mnemonic, ins.operands, regs,
                                       hex(sreg)))
    assert mismatches == []


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
    assert _cached_blocks(fused) > 0
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
    """Trace entries stored; a deopt leaves None under its head pc."""
    return sum(1 for entry in cpu._blocks.values() if entry is not None)


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
    assert _cached_blocks(cpu) > 0  # a fused block to go stale

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
    assert cpu.halted and _cached_blocks(cpu) > 0
    assert cpu.r[16] == 1 and cpu.r[17] == 9


# A re-burn must drop what either writer of _exec/_blocks stored
# (_decode_at and the trace entry store of _fuse_block).  Each case
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
            for pc, entry in cache.items() if entry is not None]


@pytest.mark.parametrize("writer", [_decode_at, _trace_entry],
                         ids=lambda writer: writer.__name__.strip("_"))
def test_reburn_clears_what_each_writer_stored(writer):
    cpu = writer()
    assert len(_stored(cpu)) == 1  # the writer's store is the only one
    cpu.flash.load(0, [cpu.flash.word(0)])
    assert _stored(cpu) == []


# -- wild pcs --------------------------------------------------------------------

@pytest.mark.parametrize("tier_up", [1, 64])
@pytest.mark.parametrize("fuse", [False, True])
def test_pc_past_flash_is_a_wild_access(monkeypatch, fuse, tier_up):
    """An IJMP past the end of a short flash faults as a wild access in
    both modes, whether the head at the wild pc would be compiled at
    once (TIER_UP 1) or stepped while cold: the decode caches hold only
    what was decoded, so the decode paths check the pc themselves
    rather than reading flash there ("program fetch")."""
    monkeypatch.setattr(trace, "TIER_UP", tier_up)
    program = assemble("main:\n    ldi r30, 40\n    ldi r31, 0\n"
                       "    ijmp\n")
    cpu = AvrCpu(Flash(program.words, size_words=32), fuse=fuse,
                 block_cache=False)
    with pytest.raises(MemoryFault, match="wild access"):
        cpu.run(max_instructions=100)
    assert cpu.pc == 40 and cpu.instret == 3


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
    assert _cached_blocks(cpu) > 0
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
        assert (_cached_blocks(cpu) > 0) == fuse
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
