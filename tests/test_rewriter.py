"""Rewriter statics: classification, layout, shift table, trampolines."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.avr import Instruction, decode
from repro.avr import ioports
from repro.rewriter import (PatchKind, Rewriter, ShiftTable, TrampolinePool,
                            classify)
from repro.rewriter.blocks import build_blocks
from repro.rewriter.grouping import find_grouped_followers
from repro.toolchain import compile_source, link_image


# -- classification --------------------------------------------------------------

@pytest.mark.parametrize("instruction,expected", [
    (Instruction("ADD", (1, 2), 0), PatchKind.NONE),
    (Instruction("LDI", (16, 5), 0), PatchKind.NONE),
    (Instruction("LD", (0, "X+"), 0), PatchKind.MEM_INDIRECT),
    (Instruction("STD", (2, "Y", 1), 0), PatchKind.MEM_INDIRECT),
    (Instruction("LDS", (2, 0x200), 0), PatchKind.MEM_DIRECT),
    (Instruction("PUSH", (1,), 0), PatchKind.STACK_PUSH),
    (Instruction("POP", (1,), 0), PatchKind.STACK_POP),
    (Instruction("IN", (16, 0x3D), 0), PatchKind.SP_READ),
    (Instruction("OUT", (0x3E, 16), 0), PatchKind.SP_WRITE),
    (Instruction("IN", (16, 0x10), 0), PatchKind.NONE),
    (Instruction("CALL", (0x100,), 0), PatchKind.CALL_DIRECT),
    (Instruction("RCALL", (5,), 0), PatchKind.CALL_DIRECT),
    (Instruction("IJMP", (), 0), PatchKind.INDIRECT_JUMP),
    (Instruction("ICALL", (), 0), PatchKind.INDIRECT_CALL),
    (Instruction("LPM", (0, "Z"), 0), PatchKind.PROG_MEM),
    (Instruction("SLEEP", (), 0), PatchKind.SLEEP),
    (Instruction("BREAK", (), 0), PatchKind.TASK_EXIT),
    (Instruction("RET", (), 0), PatchKind.NONE),
    (Instruction("RETI", (), 0), PatchKind.NONE),
    # Backward vs forward branches.
    (Instruction("RJMP", (-3,), 10), PatchKind.BRANCH_BACKWARD),
    (Instruction("RJMP", (3,), 10), PatchKind.NONE),
    (Instruction("BRBC", (1, -2), 10), PatchKind.BRANCH_BACKWARD),
    (Instruction("BRBC", (1, 2), 10), PatchKind.NONE),
    (Instruction("JMP", (5,), 10), PatchKind.BRANCH_BACKWARD),
    (Instruction("JMP", (50,), 10), PatchKind.NONE),
    # Timer3 is OS-reserved.
    (Instruction("LDS", (2, ioports.TCNT3L), 0), PatchKind.TIMER3_IO),
    (Instruction("STS", (2, ioports.OCR3AH), 0), PatchKind.TIMER3_IO),
])
def test_classification(instruction, expected):
    assert classify(instruction) is expected


def test_self_loop_is_backward():
    # RJMP to itself (offset -1) must trap, or a tight loop never yields.
    assert classify(Instruction("RJMP", (-1,), 4)) is \
        PatchKind.BRANCH_BACKWARD


# -- shift table -----------------------------------------------------------------

def test_shift_table_mapping():
    table = ShiftTable(base=0)
    for address in (2, 5, 9):
        table.add(address)
    # Instructions before the first inflated site do not move.
    assert table.to_naturalized(0) == 0
    assert table.to_naturalized(2) == 2   # the site itself starts in place
    assert table.to_naturalized(3) == 4   # pushed down by site at 2
    assert table.to_naturalized(5) == 6
    assert table.to_naturalized(6) == 8
    assert table.to_naturalized(9) == 11
    assert table.to_naturalized(20) == 23
    assert table.size_bytes == 6


@given(st.sets(st.integers(0, 500), max_size=40),
       st.integers(0, 520))
def test_shift_table_roundtrip(entries, address):
    table = ShiftTable()
    for entry in sorted(entries):
        table.add(entry)
    natural = table.to_naturalized(address)
    assert table.to_original(natural) == address
    # Monotone: mapping preserves order.
    assert table.to_naturalized(address + 1) > natural


# -- trampoline pool ---------------------------------------------------------------

def test_pool_merges_identical_requests():
    pool = TrampolinePool()
    a = pool.request(PatchKind.STACK_PUSH, (16,))
    b = pool.request(PatchKind.STACK_PUSH, (16,))
    c = pool.request(PatchKind.STACK_PUSH, (17,))
    assert a == b != c
    assert pool.count == 2
    assert pool.requests == 3


def test_pool_merge_disabled():
    pool = TrampolinePool(merge=False)
    a = pool.request(PatchKind.STACK_PUSH, (16,))
    b = pool.request(PatchKind.STACK_PUSH, (16,))
    assert a != b
    assert pool.count == 2


def test_pool_placement_is_contiguous():
    pool = TrampolinePool()
    pool.request(PatchKind.STACK_PUSH, (16,))
    pool.request(PatchKind.SLEEP, ())
    end = pool.place(0x1000)
    trampolines = pool.trampolines
    assert trampolines[0].address == 0x1000
    assert trampolines[1].address == 0x1000 + trampolines[0].size_words
    assert end == 0x1000 + pool.size_words


# -- basic blocks and grouping ---------------------------------------------------

def test_blocks_split_at_branches():
    program = compile_source("""
main:
    ldi r16, 1
    breq skip
    ldi r17, 2
skip:
    ldi r18, 3
    rjmp main
""")
    blocks = build_blocks(program.items)
    starts = sorted(block.start for block in blocks)
    assert starts == [0, 2, 3]


def test_grouping_detects_word_access_pairs():
    program = compile_source("""
main:
    ld  r24, Z
    ldd r25, Z+1
    ldd r26, Z+2
    std Z+3, r24
    break
""")
    followers = find_grouped_followers(build_blocks(program.items))
    # First access leads; the next three share its translation.
    assert followers == {1, 2, 3}


def test_grouping_broken_by_pointer_write():
    program = compile_source("""
main:
    ld  r24, Z
    ldi r30, 0
    ldd r25, Z+1
    break
""")
    followers = find_grouped_followers(build_blocks(program.items))
    assert followers == set()


@pytest.mark.parametrize("body, expected", [
    ("ldd r30, Z+0\n    ldd r24, Z+2", set()),  # the load replaces Z
    ("ldd r28, Y+1\n    ldd r24, Y+2", set()),  # ... and here Y
    ("ldd r24, Z+0\n    ldd r25, Z+1", {1}),    # Z unchanged: grouped
], ids=["z-replaced", "y-replaced", "z-kept"])
def test_grouping_ends_when_an_access_writes_its_base(body, expected):
    program = compile_source(f"main:\n    {body}\n    break\n")
    followers = find_grouped_followers(build_blocks(program.items))
    assert followers == expected


def test_grouping_not_across_branches():
    program = compile_source("""
main:
    ld  r24, Z
    breq over
    ldd r25, Z+1
over:
    break
""")
    followers = find_grouped_followers(build_blocks(program.items))
    assert followers == set()


# -- end-to-end rewriting properties -------------------------------------------------

DEMO = """
.bss counter, 2
main:
    ldi r16, 5
loop:
    push r16
    pop r17
    dec r16
    brne loop
    sts counter, r17
    call helper
    break
helper:
    ldi r18, 1
    ret
"""


def test_instruction_count_preserved():
    image = link_image([("demo", DEMO)])
    natural = image.tasks[0].natural
    original_instructions = natural.program.instructions
    natural_instructions = [i for i in natural.items
                            if not hasattr(i, "value")]
    assert len(natural_instructions) == len(original_instructions)


def test_every_patched_site_is_a_jmp_into_the_trap_region():
    image = link_image([("demo", DEMO)])
    natural = image.tasks[0].natural
    lo, hi = image.trap_region
    for address, site in natural.sites.items():
        word_offset = address - natural.base
        word1 = natural.words[word_offset]
        word2 = natural.words[word_offset + 1]
        decoded = decode(word1, word2)
        assert decoded.mnemonic == "JMP"
        assert lo <= decoded.operands[0] < hi


def test_shift_table_matches_site_inflation():
    image = link_image([("demo", DEMO)])
    natural = image.tasks[0].natural
    one_word_patched = [site for site in natural.sites.values()
                        if site.original.words == 1]
    assert len(natural.shift_table) == len(one_word_patched)


def test_unpatched_branches_retargeted():
    image = link_image([("demo", DEMO)])
    natural = image.tasks[0].natural
    # The original BRNE targeted `loop`; after rewriting it must target
    # the naturalized address of `loop`.
    original = natural.program
    loop_orig = original.symbols.label("loop")
    loop_nat = natural.shift_table.to_naturalized(loop_orig)
    # BRNE is backward here, hence patched; its trampoline target param
    # must be the naturalized loop address.
    backward = [site for site in natural.sites.values()
                if site.kind is PatchKind.BRANCH_BACKWARD]
    assert backward[0].params[2] == loop_nat


def test_two_programs_share_mergeable_trampolines():
    image = link_image([("a", DEMO), ("b", DEMO)])
    # push/pop/sts/sleep-free: merged across programs; branch and call
    # targets differ, so those stay separate.
    assert image.pool.count < image.pool.requests


def test_trampoline_bytes_attributed_once():
    solo = link_image([("a", DEMO)])
    duo = link_image([("a", DEMO), ("b", DEMO)])
    first, second = (t.natural.stats for t in duo.tasks)
    assert first.trampoline_bytes == solo.tasks[0].natural.stats. \
        trampoline_bytes
    # The second program only pays for its unmerged (branch/call) slots.
    assert second.trampoline_bytes < first.trampoline_bytes


def test_inflation_ratio_reasonable():
    image = link_image([("demo", DEMO)])
    stats = image.tasks[0].natural.stats
    assert 1.0 < stats.inflation_ratio < 8.0


def test_naturalized_body_is_fully_decodable():
    """Every word of every naturalized workload decodes as a valid
    instruction walk (no stray data in the executable body)."""
    from repro.avr.disassembler import iter_instructions
    from repro.workloads.kernelbench import KERNEL_BENCHMARKS
    for name, generator in KERNEL_BENCHMARKS.items():
        image = link_image([(name, generator())])
        natural = image.tasks[0].natural
        decoded = list(iter_instructions(natural.words, natural.base))
        undecodable = [entry for entry in decoded
                       if entry[1] is None and entry[2] != 0xFFFF]
        # eventchain carries a .dw handler table; everything else in
        # every program must decode.
        data_words = sum(1 for item in natural.items
                         if hasattr(item, "value"))
        assert len(undecodable) <= data_words, name
