"""Kernel behaviour: isolation, logical addressing, scheduling, stacks."""

from __future__ import annotations

import pytest

from repro.avr import AvrCpu, Flash, assemble
from repro.kernel import KernelConfig, SensorNode
from repro.kernel.task import TaskState

COUNT_TO_TEN = """
.bss result, 2
main:
    ldi r16, 0
    ldi r17, 10
loop:
    inc r16
    dec r17
    brne loop
    sts result, r16
    break
"""


def physical_heap_byte(node, task_name: str, offset: int = 0) -> int:
    kernel = node.kernel
    task = node.task_named(task_name)
    region = kernel.regions.by_task(task.task_id)
    return kernel.cpu.mem.data[region.p_l + offset]


def test_single_task_runs_to_completion():
    node = SensorNode.from_sources([("count", COUNT_TO_TEN)])
    node.run(max_instructions=100_000)
    assert node.finished
    assert node.task_named("count").exit_reason == "exit"


def test_a_boot_allocates_no_table_per_flash_word():
    """Each extra node of one linked image costs its 128 KB flash and
    its own small state: a boot allocates no table per flash word (two
    65,536-entry decode lists made it over 1 MB), and the image's flash
    fingerprint is computed once, not per node."""
    import tracemalloc

    from repro.toolchain import link_image
    image = link_image([("count", COUNT_TO_TEN)])
    nodes = [SensorNode.from_image(image)]  # first boot: lazy set-up
    nodes[0].cpu.flash.fingerprint()
    extra = 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(extra):
            nodes.append(SensorNode.from_image(image))
            nodes[-1].cpu.flash.fingerprint()
        per_boot = (tracemalloc.get_traced_memory()[0] - before) / extra
    finally:
        tracemalloc.stop()
    assert per_boot < 256 * 1024, f"{per_boot / 1024:.0f} KB per boot"


def test_heap_write_lands_in_task_region():
    node = SensorNode.from_sources([("count", COUNT_TO_TEN)])
    kernel = node.kernel
    region = kernel.regions.by_task(0)
    node.run(max_instructions=100_000)
    # result lives at logical 0x100 -> physical p_l (region released at
    # exit, so capture the address first — memory is untouched after).
    assert kernel.cpu.mem.data[region.p_l] == 10


def test_two_tasks_with_same_logical_addresses_are_isolated():
    writer_a = """
.bss cell, 2
main:
    ldi r16, 0xAA
    sts cell, r16
    ldi r17, 200
spin:
    dec r17
    brne spin
    lds r18, cell
    break
"""
    writer_b = writer_a.replace("0xAA", "0xBB")
    node = SensorNode.from_sources([("a", writer_a), ("b", writer_b)])
    kernel = node.kernel
    node.run(max_instructions=1_000_000)
    assert node.finished
    # Each task read its own value back from the identical logical
    # address (r18 holds the LDS result in the saved exit context).
    assert kernel.tasks[0].context.regs[18] == 0xAA
    assert kernel.tasks[1].context.regs[18] == 0xBB
    assert kernel.tasks[0].exit_reason == "exit"
    assert kernel.tasks[1].exit_reason == "exit"


def test_out_of_region_heap_access_terminates_task():
    bad = """
.bss small, 2
main:
    ldi r26, 0x50      ; X = 0x0350: beyond the 2-byte heap, not stack
    ldi r27, 0x03
    ld r16, X
    break
"""
    node = SensorNode.from_sources([("bad", bad), ("good", COUNT_TO_TEN)])
    node.run(max_instructions=1_000_000)
    assert node.finished
    bad_task = node.task_named("bad")
    assert bad_task.state is TaskState.TERMINATED
    assert "fault" in bad_task.exit_reason
    assert node.task_named("good").exit_reason == "exit"


def test_kernel_region_is_unreachable():
    # The kernel area sits at the top of SRAM; a stack-zone access that
    # translates beyond p_u must fault, never touch kernel memory.
    poke = """
main:
    ldi r26, 0xFF
    ldi r27, 0x10      ; logical 0x10FF: top of the logical stack zone
    ldi r16, 0x5A
    st X, r16          ; legal: this is the task's own stack bottom
    break
"""
    node = SensorNode.from_sources([("poke", poke)])
    kernel = node.kernel
    region = kernel.regions.by_task(0)
    node.run(max_instructions=100_000)
    assert node.finished
    # The write landed at the task's physical stack bottom, not 0x10FF.
    assert kernel.cpu.mem.data[region.p_u - 1] == 0x5A


def test_native_equivalence_single_task():
    """A program's visible behaviour is identical native vs SenSmart."""
    source = """
.bss data, 8
main:
    ldi r16, 7
    ldi r26, lo8(data)
    ldi r27, hi8(data)
fill:
    st X+, r16
    dec r16
    brne fill
    call mix
    break
mix:
    push r16
    ldi r16, 3
    lds r18, data + 1
    add r18, r16
    sts data + 1, r18
    pop r16
    ret
"""
    # Native run.
    program = assemble(source)
    flash = Flash()
    flash.load(0, program.words)
    native = AvrCpu(flash)
    native.run(max_instructions=100_000)

    # SenSmart run.
    node = SensorNode.from_sources([("p", source)])
    kernel = node.kernel
    region = kernel.regions.by_task(0)
    node.run(max_instructions=100_000)
    assert node.finished

    # Registers agree (r0..r25; pointer registers may differ by design:
    # they hold logical addresses, identical here since heap logical ==
    # native physical for a 0x100-based layout).
    assert list(native.r[:28]) == list(kernel.cpu.r[:28])
    # Heap contents agree byte-for-byte.
    native_heap = native.mem.data[0x100:0x108]
    sensmart_heap = kernel.cpu.mem.data[region.p_l:region.p_l + 8]
    assert native_heap == sensmart_heap


def test_sp_read_returns_logical_address():
    probe = """
main:
    in r16, 0x3D       ; SPL
    in r17, 0x3E       ; SPH
    break
"""
    node = SensorNode.from_sources([("probe", probe), ("other", COUNT_TO_TEN)])
    node.run(max_instructions=1_000_000)
    task = node.task_named("probe")
    logical_sp = (task.context.regs[17] << 8) | task.context.regs[16]
    # Fresh task: logical SP is the top of the logical space (RAM_END),
    # regardless of where the region physically sits.
    assert logical_sp == 0x10FF


def test_sp_write_roundtrip():
    probe = """
main:
    in r16, 0x3D
    in r17, 0x3E
    subi r16, 16       ; drop the logical SP by 16 (no borrow here)
    out 0x3E, r17
    out 0x3D, r16
    in r20, 0x3D
    in r21, 0x3E
    break
"""
    node = SensorNode.from_sources([("probe", probe)])
    node.run(max_instructions=100_000)
    task = node.task_named("probe")
    before = (task.context.regs[17] << 8) | task.context.regs[16]
    after = (task.context.regs[21] << 8) | task.context.regs[20]
    assert after == before == 0x10FF - 16


def test_preemption_interleaves_cpu_bound_tasks():
    spinner = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 4
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""
    config = KernelConfig(time_slice_cycles=20_000)
    node = SensorNode.from_sources(
        [("s1", spinner), ("s2", spinner)], config=config)
    node.run(max_instructions=10_000_000)
    assert node.finished
    kernel = node.kernel
    # Both ran, with many preemptive switches between them.
    assert kernel.stats.context_switches > 10
    t1, t2 = kernel.tasks[0], kernel.tasks[1]
    # Fair shares: within ~2 slices of each other.
    assert abs(t1.cycles_used - t2.cycles_used) < 3 * 20_000


def test_preemption_survives_cli():
    """Software traps preempt even with interrupts disabled (Sec. IV-B)."""
    selfish = """
main:
    cli                 ; disable interrupts -- should not matter
    ldi r26, 0
    ldi r27, 0
    ldi r28, 4
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""
    config = KernelConfig(time_slice_cycles=20_000)
    node = SensorNode.from_sources(
        [("selfish", selfish), ("meek", COUNT_TO_TEN)], config=config)
    node.run(max_instructions=10_000_000)
    assert node.finished
    # The meek task completed long before the selfish spinner could have
    # finished, proving preemption happened under CLI.
    assert node.task_named("meek").exit_reason == "exit"
    assert node.kernel.stats.context_switches >= 2


def test_round_robin_is_fair_for_three_tasks():
    spinner = """
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
    config = KernelConfig(time_slice_cycles=10_000)
    node = SensorNode.from_sources(
        [(f"s{i}", spinner) for i in range(3)], config=config)
    node.run(max_instructions=10_000_000)
    assert node.finished
    used = [t.cycles_used for t in node.kernel.tasks.values()]
    assert max(used) - min(used) < 3 * 10_000


def test_sleep_and_virtual_timer_periodic_wakeup():
    periodic = """
.bss ticks, 1
main:
    ldi r16, 0x02       ; period = 0x0200 timer ticks
    sts 0x87, r16       ; OCR3AH
    ldi r16, 0x00
    sts 0x86, r16       ; OCR3AL (arms the virtual timer)
    ldi r20, 0          ; wake counter
again:
    sleep
    inc r20
    cpi r20, 5
    brne again
    sts ticks, r20
    break
"""
    node = SensorNode.from_sources([("periodic", periodic)])
    kernel = node.kernel
    region = kernel.regions.by_task(0)
    node.run(max_instructions=1_000_000)
    assert node.finished
    assert kernel.cpu.mem.data[region.p_l] == 5
    # Five periods of 0x200 ticks at prescaler 8 = 5 * 4096 cycles.
    assert kernel.cpu.cycles >= 5 * 0x200 * 8
    # Most of that time was idle (the task only wakes briefly).
    assert kernel.stats.idle_cycles > 0.7 * 5 * 0x200 * 8


def test_sleep_without_timer_terminates():
    sleeper = """
main:
    sleep
    break
"""
    node = SensorNode.from_sources([("sleeper", sleeper)])
    node.run(max_instructions=100_000)
    assert node.finished
    assert "sleep" in node.task_named("sleeper").exit_reason


def test_timer3_reads_are_virtualized():
    probe = """
main:
    ldi r20, 100
spin:
    dec r20
    brne spin
    lds r16, 0x88       ; TCNT3L -- intercepted, returns kernel ticks
    lds r17, 0x89       ; TCNT3H (latched)
    break
"""
    node = SensorNode.from_sources([("probe", probe)])
    node.run(max_instructions=100_000)
    task = node.task_named("probe")
    ticks = (task.context.regs[17] << 8) | task.context.regs[16]
    expected = node.cpu.cycles // node.kernel.config.timer3_prescaler
    # Read happened shortly before the end of the run.
    assert 0 < ticks <= expected


def test_stack_overflow_without_donor_terminates_requester():
    # One task, tiny memory: no donor exists, deep recursion must die.
    hog = """
main:
    call recurse
    break
recurse:
    push r0
    push r1
    push r2
    push r3
    rjmp recurse_entry
recurse_entry:
    call recurse
    ret
"""
    config = KernelConfig(kernel_data_bytes=3800)  # squeeze the app area
    node = SensorNode.from_sources([("hog", hog)], config=config)
    node.run(max_instructions=5_000_000)
    assert node.finished
    assert node.task_named("hog").exit_reason == "stack overflow"


def test_relocation_grows_needy_stack_from_donor():
    needy = """
main:
    ldi r24, 60
    call recurse
    break
recurse:
    push r2
    push r3
    push r4
    push r5
    push r6
    push r7
    dec r24
    brne deeper
    rjmp unwind
deeper:
    call recurse
unwind:
    pop r7
    pop r6
    pop r5
    pop r4
    pop r3
    pop r2
    ret
"""
    spinner = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 6
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""
    config = KernelConfig(time_slice_cycles=20_000)
    sources = [("spin_a", spinner), ("needy", needy),
               ("spin_b", spinner), ("spin_c", spinner),
               ("spin_d", spinner), ("spin_e", spinner),
               ("spin_f", spinner), ("spin_g", spinner)]
    node = SensorNode.from_sources(sources, config=config)
    node.run(max_instructions=30_000_000)
    assert node.finished
    kernel = node.kernel
    assert kernel.stats.relocations >= 1
    needy_task = node.task_named("needy")
    assert needy_task.exit_reason == "exit"
    assert needy_task.stack_grows >= 1
    # Everybody else survived too.
    assert all(t.exit_reason == "exit" for t in kernel.tasks.values())


def test_fixed_initial_stacks_leave_the_rest_to_the_last_region():
    """With ``divide_stack_equally`` off, every task starts with
    ``initial_stack_size`` stack bytes and the last region takes the
    rest of the application area; a recursing first task then grows
    its stack from that last region, traced and stepwise alike."""
    from repro.workloads.kernelbench import KERNEL_BENCHMARKS
    recurse = """
main:
    ldi r24, 12
    call recurse
    break
recurse:
    push r2
    push r3
    dec r24
    breq unwind
    call recurse
unwind:
    pop r3
    pop r2
    ret
"""
    config = KernelConfig(divide_stack_equally=False,
                          initial_stack_size=32)
    sources = [("recurse", recurse)] + [
        (name, KERNEL_BENCHMARKS[name]()) for name in ("crc", "lfsr",
                                                       "timer")]

    def run(fuse):
        node = SensorNode.from_sources(sources, config=config, fuse=fuse)
        table = node.kernel.regions
        assert [r.stack_size for r in table.regions[:-1]] == [32] * 3
        assert table.regions[-1].p_u == table.hi
        assert table.regions[-1].stack_size > 32
        node.run(max_instructions=2_000_000)
        assert node.finished
        assert all(task.exit_reason == "exit"
                   for task in node.kernel.tasks.values())
        return node

    traced, stepwise = run(True), run(False)
    assert traced.kernel.stats.relocations >= 1
    assert traced.task_named("recurse").stack_grows >= 1
    for node in (traced, stepwise):
        assert (node.cpu.instret, node.cpu.cycles,
                node.kernel.stats.relocations) == \
            (stepwise.cpu.instret, stepwise.cpu.cycles,
             stepwise.kernel.stats.relocations)


def test_relocation_can_be_disabled():
    needy = """
main:
    ldi r24, 60
    call recurse
    break
recurse:
    push r2
    push r3
    push r4
    push r5
    push r6
    push r7
    dec r24
    brne deeper
    rjmp unwind
deeper:
    call recurse
unwind:
    pop r7
    pop r6
    pop r5
    pop r4
    pop r3
    pop r2
    ret
"""
    spinner = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 6
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""
    config = KernelConfig(time_slice_cycles=20_000,
                          enable_relocation=False)
    sources = [("spin_a", spinner), ("needy", needy),
               ("spin_b", spinner), ("spin_c", spinner),
               ("spin_d", spinner), ("spin_e", spinner),
               ("spin_f", spinner), ("spin_g", spinner)]
    node = SensorNode.from_sources(sources, config=config)
    node.run(max_instructions=30_000_000)
    assert node.finished
    assert node.task_named("needy").exit_reason == "stack overflow"


def test_terminated_task_region_is_reclaimed():
    node = SensorNode.from_sources(
        [("a", COUNT_TO_TEN), ("b", COUNT_TO_TEN)])
    kernel = node.kernel
    node.run(max_instructions=1_000_000)
    assert node.finished
    assert kernel.regions.regions == []  # all released


def test_kernel_features_match_table1_claims():
    node = SensorNode.from_sources([("count", COUNT_TO_TEN)])
    features = node.kernel.features()
    assert features["preemptive_multitasking"]
    assert features["concurrent_applications"]
    assert features["interrupt_free_preemption"]
    assert features["memory_protection"]
    assert features["logical_memory_address"]
    assert features["stack_relocation"]


def test_termination_during_call_does_not_corrupt_next_task():
    """Regression: when a stack check terminates the requesting task,
    the aborted push/call must not execute against the task the kernel
    switched to (found via examples/stack_stress.py)."""
    from repro.workloads.bintree import search_task_source
    spinner = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 6
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""
    sources = [("spin0", spinner),
               ("deep", search_task_source(nodes=140, searches=10))]
    for index in range(1, 12):
        sources.append((f"spin{index}", spinner))
    config = KernelConfig(time_slice_cycles=20_000,
                          enable_relocation=False)
    node = SensorNode.from_sources(sources, config=config)
    node.run(max_instructions=80_000_000)
    assert node.finished
    assert node.task_named("deep").exit_reason == "stack overflow"
    # Every other task is unharmed.
    for task in node.kernel.tasks.values():
        if task.name != "deep":
            assert task.exit_reason == "exit", task.name


def test_region_release_preserves_survivor_stack_frames():
    """Regression: when a task exits, the region below absorbs its
    space; the survivor's logical stack addresses are anchored to p_u,
    so its live stack must slide to the new top (found via a compiled
    C task whose frame-pointer reads went stale after a neighbour
    died)."""
    # Survivor keeps live data in a Y-addressed frame across the
    # neighbour's exit.
    survivor = """
main:
    in r28, 0x3D
    in r29, 0x3E
    sbiw r28, 4          ; allocate a 4-byte frame
    out 0x3D, r28
    out 0x3E, r29
    ldi r16, 0x5C
    std Y+1, r16         ; live frame byte
    ldi r26, 0
    ldi r27, 0
    ldi r20, 6
outer:
inner:
    adiw r26, 1
    brne inner
    dec r20
    brne outer
    ldd r17, Y+1         ; must still read 0x5C after 'quick' exited
    break
"""
    quick = """
main:
    ldi r16, 40
spin:
    dec r16
    brne spin
    break
"""
    config = KernelConfig(time_slice_cycles=20_000)
    node = SensorNode.from_sources(
        [("survivor", survivor), ("quick", quick)], config=config)
    node.run(max_instructions=10_000_000)
    assert node.finished
    task = node.task_named("survivor")
    assert task.exit_reason == "exit"
    assert task.context.regs[17] == 0x5C


def test_boot_with_no_tasks_raises():
    from repro.errors import KernelError, LinkError
    with pytest.raises((KernelError, LinkError)):
        SensorNode.from_sources([])


def test_unsupported_timer3_access_faults_the_task_not_the_node():
    # Timer3 registers live in extended I/O, beyond SBIC/SBIS reach on
    # real AVR, so the handler's defensive branch is exercised directly.
    from repro.errors import TaskFault
    node = SensorNode.from_sources(
        [("victim", COUNT_TO_TEN), ("other", COUNT_TO_TEN)])
    kernel = node.kernel
    kernel.boot()
    with pytest.raises(TaskFault):
        kernel.handlers.timer3_io(kernel.cpu, ("SBIC", (0x68, 0)), 0)
    # The node keeps running regardless.
    node.run(max_instructions=1_000_000)
    assert node.finished
