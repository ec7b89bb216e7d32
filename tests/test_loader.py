"""Dynamic task loading (the reprogramming OS service)."""

from __future__ import annotations

import pytest

from repro.errors import LoadError, OutOfMemory
from repro.kernel import KernelConfig, SensorNode
from repro.workloads.bintree import search_task_source

SPINNER = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 8
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""

STACK_USER = """
.bss cells, 4
main:
    ldi r16, 0x5A
    sts cells, r16
    push r16
    ldi r17, 0x66
    push r17
    ldi r26, 0
    ldi r27, 0
    ldi r28, 8
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    pop r18
    pop r19
    lds r20, cells
    break
"""

NEW_TASK = """
.bss hello, 4
main:
    ldi r16, 0xCE
    sts hello, r16
    lds r17, hello
    break
"""


def make_node(*sources, slice_cycles=20_000):
    config = KernelConfig(time_slice_cycles=slice_cycles)
    return SensorNode.from_sources(list(sources), config=config)


def test_load_task_mid_run():
    node = make_node(("s1", SPINNER), ("s2", SPINNER))
    kernel = node.kernel
    node.run(max_cycles=100_000)
    assert not node.finished
    report = kernel.load_task("hot", NEW_TASK)
    assert report.flash_words > 0
    assert report.total_cycles > 0
    node.run(max_instructions=30_000_000)
    assert node.finished
    hot = node.task_named("hot")
    assert hot.exit_reason == "exit"
    assert hot.context.regs[17] == 0xCE


def test_compaction_preserves_live_stacks_and_heaps():
    node = make_node(("u1", STACK_USER), ("u2", STACK_USER))
    kernel = node.kernel
    # Run until both tasks have pushed their live data.
    node.run(max_cycles=120_000)
    report = kernel.load_task("hot", NEW_TASK)
    assert report.ram_bytes_moved > 0  # live bytes really moved
    node.run(max_instructions=30_000_000)
    assert node.finished
    for name in ("u1", "u2"):
        task = node.task_named(name)
        assert task.exit_reason == "exit"
        # Pops returned the pushed values, heap read its value.
        assert task.context.regs[18] == 0x66
        assert task.context.regs[19] == 0x5A
        assert task.context.regs[20] == 0x5A


def test_loaded_task_gets_logical_isolation():
    node = make_node(("s1", SPINNER))
    kernel = node.kernel
    node.run(max_cycles=50_000)
    kernel.load_task("a", NEW_TASK)
    kernel.load_task("b", NEW_TASK.replace("0xCE", "0xDF"))
    node.run(max_instructions=30_000_000)
    assert node.finished
    assert node.task_named("a").context.regs[17] == 0xCE
    assert node.task_named("b").context.regs[17] == 0xDF


def test_loaded_task_can_grow_its_stack():
    node = make_node(("s1", SPINNER), ("s2", SPINNER))
    kernel = node.kernel
    node.run(max_cycles=50_000)
    kernel.load_task("deep",
                     search_task_source(nodes=100, searches=5),
                     min_stack=48)
    node.run(max_instructions=60_000_000)
    assert node.finished
    deep = node.task_named("deep")
    assert deep.exit_reason == "exit"


def test_unload_task_reclaims_region():
    node = make_node(("s1", SPINNER), ("s2", SPINNER))
    kernel = node.kernel
    node.run(max_cycles=50_000)
    kernel.load_task("hot", NEW_TASK)
    count_before = len(kernel.regions.regions)
    kernel.unload_task("s2")
    assert len(kernel.regions.regions) == count_before - 1
    assert node.task_named("s2").exit_reason == "unloaded"
    node.run(max_instructions=30_000_000)
    assert node.finished
    assert node.task_named("hot").exit_reason == "exit"


def test_unload_unknown_task_raises():
    node = make_node(("s1", SPINNER))
    with pytest.raises(KeyError):
        node.kernel.unload_task("ghost")


def test_load_fails_when_memory_exhausted():
    node = make_node(("s1", SPINNER))
    kernel = node.kernel
    huge = """
.bss big, 3650
main:
    break
"""
    with pytest.raises(OutOfMemory):
        kernel.load_task("huge", huge)
    # The node keeps running after the refused load.
    node.run(max_instructions=10_000_000)
    assert node.finished
    assert node.task_named("s1").exit_reason == "exit"


def test_sequential_loads_extend_flash():
    node = make_node(("s1", SPINNER))
    kernel = node.kernel
    first = kernel.loader.flash_cursor
    kernel.load_task("a", NEW_TASK)
    second = kernel.loader.flash_cursor
    kernel.load_task("b", NEW_TASK)
    third = kernel.loader.flash_cursor
    assert first < second < third
    node.run(max_instructions=30_000_000)
    assert node.finished


def _node_snapshot(node):
    """Everything a failed load must leave untouched."""
    kernel = node.kernel
    cursor = kernel.loader.flash_cursor
    return (
        bytes(kernel.cpu.mem.data),
        tuple((r.task_id, r.p_l, r.p_h, r.p_u)
              for r in kernel.regions.regions),
        cursor,
        tuple(kernel.cpu.flash.word(w)
              for w in range(cursor, min(cursor + 64,
                                         kernel.cpu.flash.size_words))),
        sorted(kernel.trampolines),
        tuple(kernel.cpu._trap_ranges),
    )


@pytest.mark.parametrize("bad_source", [
    "main:\n    frobnicate r16\n",          # unknown mnemonic
    "main:\n    rjmp nowhere\n",            # truncated: missing label
    "main:\n    ldi r16, 9999\n",           # immediate does not encode
])
def test_malformed_load_rejected_cleanly(bad_source):
    """A failed mid-patch load keeps running tasks bit-identical.

    The validation pass is charged, but flash, trampolines, regions
    and every byte of RAM stay exactly as they were, and the node runs
    on to the same final state.
    """
    node = make_node(("u1", STACK_USER), ("u2", STACK_USER))
    kernel = node.kernel
    node.run(max_cycles=120_000)  # both tasks hold live data
    before = _node_snapshot(node)
    cycles_before = node.cpu.cycles
    with pytest.raises(LoadError) as info:
        kernel.load_task("bad", bad_source)
    assert "rejected" in str(info.value)
    assert _node_snapshot(node) == before
    assert node.cpu.cycles > cycles_before  # validation was charged
    # The node keeps running; live stacks and heaps are intact.
    node.run(max_instructions=30_000_000)
    assert node.finished
    for name in ("u1", "u2"):
        task = node.task_named(name)
        assert task.exit_reason == "exit"
        assert task.context.regs[18] == 0x66
        assert task.context.regs[19] == 0x5A
        assert task.context.regs[20] == 0x5A


#: About 35,000 words: one copy fits after a one-task image, a second
#: would run past the last flash word.
HUGE_CODE = "main:\n    break\n" + \
    ("    .dw " + ", ".join(["0"] * 50) + "\n") * 700


def test_load_past_end_of_flash_rejected_cleanly():
    """A load that does not fit in flash is rejected like a malformed
    one: validation is charged, nothing is burned, and the node runs
    on to the same finish."""
    node = make_node(("u1", STACK_USER))
    kernel = node.kernel
    node.run(max_cycles=50_000)
    kernel.load_task("big", HUGE_CODE)
    before = _node_snapshot(node)
    fingerprint = node.cpu.flash.fingerprint()
    cycles_before = node.cpu.cycles
    with pytest.raises(LoadError) as info:
        kernel.load_task("bigger", HUGE_CODE)
    assert "does not fit in flash" in str(info.value)
    assert _node_snapshot(node) == before
    assert node.cpu.flash.fingerprint() == fingerprint
    assert node.cpu.cycles > cycles_before  # validation was charged
    node.run(max_instructions=30_000_000)
    assert node.finished
    assert node.task_named("big").exit_reason == "exit"
    task = node.task_named("u1")
    assert task.exit_reason == "exit"
    assert (task.context.regs[18], task.context.regs[19],
            task.context.regs[20]) == (0x66, 0x5A, 0x5A)


#: RAM need no one-task node can meet.
BIG_BSS = ".bss big, 3650\nmain:\n    break\n"


def test_load_out_of_ram_rejected_cleanly():
    """A load whose RAM need does not fit is refused with OutOfMemory
    before anything is burned: validation is charged, flash, the
    trampolines and the trap ranges are untouched, and the node runs
    on to the same exits as one that never tried."""
    node, reference = make_node(("s1", SPINNER)), make_node(("s1", SPINNER))
    for each in (node, reference):
        each.run(max_cycles=50_000)
    before = _node_snapshot(node)
    fingerprint = node.cpu.flash.fingerprint()
    cycles_before = node.cpu.cycles
    with pytest.raises(OutOfMemory):
        node.kernel.load_task("big", BIG_BSS)
    assert _node_snapshot(node) == before
    assert node.cpu.flash.fingerprint() == fingerprint
    assert node.cpu.cycles > cycles_before  # validation was charged
    for each in (node, reference):
        each.run(max_instructions=30_000_000)
        assert each.finished
    assert node.kernel.stats.terminations == \
        reference.kernel.stats.terminations
    assert node.task_named("s1").context.regs == \
        reference.task_named("s1").context.regs


def test_failed_load_then_good_load_still_works():
    node = make_node(("s1", SPINNER))
    kernel = node.kernel
    node.run(max_cycles=50_000)
    with pytest.raises(LoadError):
        kernel.load_task("bad", "main:\n    frobnicate r16\n")
    kernel.load_task("hot", NEW_TASK)
    node.run(max_instructions=30_000_000)
    assert node.finished
    assert node.task_named("hot").exit_reason == "exit"


def test_load_onto_idle_node_revives_scheduler():
    node = make_node(("quick", "main:\n    ldi r16, 1\n    break\n"))
    node.run(max_instructions=1_000_000)
    assert node.finished  # everything exited; node is idle-halted
    report = node.kernel.load_task("late", NEW_TASK)
    node.run(max_instructions=10_000_000)
    assert node.finished
    assert node.task_named("late").exit_reason == "exit"
    assert node.task_named("late").context.regs[17] == 0xCE
