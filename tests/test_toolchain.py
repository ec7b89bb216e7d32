"""Toolchain: compile, link, image handling, edge cases."""

from __future__ import annotations

from array import array

import pytest

from repro.avr import memory
from repro.avr.memory import Flash
from repro.errors import LinkError, RewriteError
from repro.fingerprint import blake2b_hex
from repro.rewriter import Rewriter
from repro.toolchain import compile_source, link_image
from repro.toolchain.image import KERNEL_CODE_WORDS

TINY = """
main:
    ldi r16, 1
    break
"""

CALLS_OUT = """
main:
    call 0x0000      ; absolute call outside this program
    break
"""


def test_compile_source_records_symbols():
    program = compile_source("""
.bss table, 10
.bss cursor, 2
main:
    break
helper:
    ret
""")
    assert program.symbols.heap_size == 12
    assert program.symbols.data_address("table") == 0x100
    assert program.symbols.data_address("cursor") == 0x10A
    assert program.symbols.label("helper") == program.symbols.entry + 1


def test_compile_at_origin_shifts_labels():
    at_zero = compile_source(TINY, origin=0)
    at_base = compile_source(TINY, origin=0x400)
    assert at_base.entry == at_zero.entry + 0x400
    assert at_base.size_words == at_zero.size_words


def test_bss_base_relocates_data():
    program = compile_source(".bss cell, 2\nmain:\n    break\n",
                             bss_base=0x300)
    assert program.symbols.data_address("cell") == 0x300


def test_link_image_places_programs_consecutively():
    image = link_image([("a", TINY), ("b", TINY), ("c", TINY)])
    bases = [task.base for task in image.tasks]
    assert bases[0] == KERNEL_CODE_WORDS
    for first, second in zip(image.tasks, image.tasks[1:]):
        assert second.base == first.base + first.natural.size_words
    lo, hi = image.trap_region
    assert lo == image.tasks[-1].base + image.tasks[-1].natural.size_words
    assert hi > lo


def test_link_image_rejects_empty_input():
    with pytest.raises(LinkError):
        link_image([])


def test_inter_program_call_rejected():
    with pytest.raises(RewriteError):
        link_image([("bad", CALLS_OUT)])


def test_burn_fills_trap_region_with_breaks():
    image = link_image([("a", TINY)])
    flash = Flash()
    image.burn(flash)
    lo, hi = image.trap_region
    assert all(flash.word(address) == 0x9598 for address in range(lo, hi))


def _hash_of_words(flash: Flash) -> str:
    return blake2b_hex(array("H", flash.as_words()).tobytes())


def test_flash_loaded_before_or_after_a_burn_hashes_its_own_words():
    image = link_image([("a", TINY)])
    reference = Flash()
    image.burn(reference)
    reference.fingerprint()  # fills the image's memo
    loaded_before = Flash()
    loaded_before.load(0x10, [0x0000])
    image.burn(loaded_before)
    loaded_after = Flash()
    image.burn(loaded_after)
    loaded_after.load(0x10, [0x0000])
    for flash in (loaded_before, loaded_after):
        assert flash.fingerprint() == _hash_of_words(flash)
        assert flash.fingerprint() != reference.fingerprint()
    late = Flash()
    image.burn(late)  # the memo survived the loads above
    assert late.fingerprint() == reference.fingerprint() == \
        _hash_of_words(late)


def test_nodes_of_one_image_hash_their_flash_once(monkeypatch):
    from repro.kernel import SensorNode
    calls = []

    def counting(data, *args, **kwargs):
        calls.append(len(data))
        return blake2b_hex(data, *args, **kwargs)

    image = link_image([("a", TINY)])
    monkeypatch.setattr(memory, "blake2b_hex", counting)
    nodes = [SensorNode.from_image(image) for _ in range(2)]
    assert nodes[0].cpu.flash.fingerprint() == \
        nodes[1].cpu.flash.fingerprint()
    assert len(calls) == 1


def test_task_for_address():
    image = link_image([("a", TINY), ("b", TINY)])
    for task in image.tasks:
        assert image.task_for_address(task.base) is task
    with pytest.raises(KeyError):
        image.task_for_address(0)


def test_merge_disabled_produces_more_trampolines():
    merged = link_image([("a", TINY), ("b", TINY)])
    unmerged = link_image([("a", TINY), ("b", TINY)],
                          merge_trampolines=False)
    assert unmerged.pool.count >= merged.pool.count


def test_custom_rewriter_flows_through():
    plain = link_image([("a", TINY)])
    ungrouped = link_image([("a", TINY)],
                           rewriter=Rewriter(enable_grouping=False))
    # Same structure for this trivial program, but both paths link.
    assert plain.tasks[0].natural.size_words == \
        ungrouped.tasks[0].natural.size_words


def test_linker_is_deterministic():
    first = link_image([("a", TINY), ("b", TINY)])
    second = link_image([("a", TINY), ("b", TINY)])
    assert first.tasks[0].natural.words == second.tasks[0].natural.words
    assert first.trap_region == second.trap_region
