"""Data-memory access: pointer modes, stack, I/O mapping, LPM."""

from __future__ import annotations

import pytest

from repro.avr import AvrCpu, Flash, assemble
from repro.avr import ioports
from repro.errors import MemoryFault
from tests.conftest import run_asm


def test_ld_st_pointer_modes():
    cpu = run_asm("""
.bss area, 8
main:
    ldi r26, lo8(area)
    ldi r27, hi8(area)
    ldi r16, 0x11
    st  X+, r16          ; area[0], X -> area+1
    ldi r16, 0x22
    st  X, r16           ; area[1]
    ldi r28, lo8(area+4)
    ldi r29, hi8(area+4)
    ldi r16, 0x33
    st  -Y, r16          ; area[3], Y -> area+3
    ldi r16, 0x44
    std Y+2, r16         ; area[5]
    ldi r30, lo8(area)
    ldi r31, hi8(area)
    ldd r20, Z+1
    break
""")
    base = 0x100
    assert cpu.mem.data[base + 0] == 0x11
    assert cpu.mem.data[base + 1] == 0x22
    assert cpu.mem.data[base + 3] == 0x33
    assert cpu.mem.data[base + 5] == 0x44
    assert cpu.r[20] == 0x22


def test_lds_sts():
    cpu = run_asm("""
.bss cell, 2
main:
    ldi r16, 0xAB
    sts cell, r16
    lds r17, cell
    break
""")
    assert cpu.r[17] == 0xAB


def test_push_pop_and_sp():
    cpu = run_asm("""
main:
    ldi r16, 0xAA
    ldi r17, 0xBB
    push r16
    push r17
    pop r18
    pop r19
    break
""")
    assert cpu.r[18] == 0xBB
    assert cpu.r[19] == 0xAA
    assert cpu.sp == ioports.RAM_END


def test_sp_accessible_via_in_out():
    cpu = run_asm("""
main:
    in r16, 0x3D      ; SPL
    in r17, 0x3E      ; SPH
    ldi r18, 0x80
    out 0x3D, r18
    ldi r18, 0x05
    out 0x3E, r18
    break
""")
    assert cpu.r[16] == ioports.RAM_END & 0xFF
    assert cpu.r[17] == ioports.RAM_END >> 8
    assert cpu.sp == 0x0580


def test_register_file_visible_in_data_space():
    # Addresses 0..31 alias the register file, as on real AVR.
    cpu = run_asm("""
main:
    ldi r16, 0x5A
    ldi r26, 16       ; X = 16 -> r16
    ldi r27, 0
    ld  r20, X
    break
""")
    assert cpu.r[20] == 0x5A


def test_sreg_readable_in_data_space():
    cpu = run_asm("""
main:
    sec
    in r16, 0x3F
    break
""")
    assert cpu.r[16] & 1


def test_lpm_reads_program_memory():
    cpu = run_asm("""
main:
    ldi r30, lo8(table * 2)    ; LPM uses byte addresses
    ldi r31, hi8(table * 2)
    lpm r16, Z+
    lpm r17, Z+
    lpm r18, Z
    break
table:
    .db 0x10, 0x20, 0x30, 0x40
""")
    assert (cpu.r[16], cpu.r[17], cpu.r[18]) == (0x10, 0x20, 0x30)


def test_memory_fault_on_out_of_range_access():
    program = assemble("""
main:
    ldi r26, 0x00
    ldi r27, 0x20     ; X = 0x2000, beyond RAM_END
    ld r16, X
    break
""")
    flash = Flash()
    flash.load(0, program.words)
    cpu = AvrCpu(flash)
    with pytest.raises(MemoryFault):
        cpu.run(max_instructions=100)


def test_stack_grows_down_in_memory():
    cpu = run_asm("""
main:
    ldi r16, 0x77
    push r16
    break
""")
    assert cpu.mem.data[ioports.RAM_END] == 0x77
    assert cpu.sp == ioports.RAM_END - 1


def test_block_helpers_roundtrip():
    cpu = run_asm("main:\n    break\n")
    cpu.mem.write_block(0x200, b"hello")
    assert cpu.mem.read_block(0x200, 5) == b"hello"
    cpu.mem.move_block(0x200, 0x202, 5)  # overlapping move
    assert cpu.mem.read_block(0x202, 5) == b"hello"


@pytest.mark.parametrize("address, words", [
    (-1, [0x1111]),                 # a negative index would wrap
    (0xFFFF, [0x1234, 0x5678]),     # runs one word past the end
])
def test_out_of_range_burn_changes_nothing(address, words):
    """A burn that does not fit faults before touching flash: no word,
    no fingerprint and no burn listener sees a partial write."""
    flash = Flash()
    flash.load(0, [0x940C, 0x0000, 0xE011])
    calls = []
    flash.add_burn_listener(lambda: calls.append(1))
    before = flash.as_words()
    fingerprint = flash.fingerprint()
    with pytest.raises(MemoryFault) as info:
        flash.load(address, words)
    assert info.value.kind == "program burn"
    assert flash.as_words() == before
    assert flash.fingerprint() == fingerprint
    assert calls == []
