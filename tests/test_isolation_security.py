"""Adversarial isolation tests: a hostile task cannot escape its region.

SenSmart's protection claims (Table I: memory protection, logical
memory addressing) are tested here the way an attacker would: forged
pointers, stack-pointer manipulation, wild indirect branches, hostile
I/O writes, and scheduler starvation attempts.  In every case the
hostile task must be terminated (or contained) and innocent tasks and
the kernel must be unharmed.
"""

from __future__ import annotations

import pytest

from repro.kernel import KernelConfig, SensorNode
from repro.kernel.task import TaskState

VICTIM = """
.bss treasure, 4
main:
    ldi r16, 0x99
    sts treasure, r16
    ldi r17, 250
spin:
    dec r17
    brne spin
    lds r18, treasure
    break
"""


def run_pair(attacker: str, slice_cycles: int = 20_000):
    node = SensorNode.from_sources(
        [("victim", VICTIM), ("attacker", attacker)],
        config=KernelConfig(time_slice_cycles=slice_cycles))
    node.run(max_instructions=20_000_000)
    assert node.finished
    return node


def assert_victim_unharmed(node) -> None:
    victim = node.task_named("victim")
    assert victim.exit_reason == "exit"
    assert victim.context.regs[18] == 0x99  # treasure intact


def test_forged_heap_pointer_is_contained():
    # The attacker walks a pointer past its heap: every logical address
    # either translates inside its own region or faults.
    attacker = """
.bss mine, 2
main:
    ldi r26, lo8(mine + 2)      ; just past its own heap
    ldi r27, hi8(mine + 2)
    ldi r16, 0xEE
    st X, r16                    ; must fault
    break
"""
    node = run_pair(attacker)
    assert "fault" in node.task_named("attacker").exit_reason
    assert_victim_unharmed(node)


def test_heap_sweep_cannot_reach_other_regions():
    # Sweep logical data space downward from the top: all stack-zone
    # writes land in the attacker's own stack area by construction.
    attacker = """
.bss mine, 2
main:
    ldi r26, 0xFF
    ldi r27, 0x10               ; logical RAM_END
    ldi r16, 0xEE
    ldi r20, 64
sweep:
    st X, r16                   ; own stack zone: allowed, harmless
    sbiw r26, 1
    dec r20
    brne sweep
    break
"""
    node = run_pair(attacker)
    # The sweep either completes inside its own region or faults at the
    # boundary — the victim is untouched either way.
    assert_victim_unharmed(node)


# The three ways to write the SP bytes, SPL then SPH (r16, r17).
_SP_WRITES = {
    "out": "    out 0x3D, r16\n    out 0x3E, r17\n",
    "sts": "    sts 0x5D, r16\n    sts 0x5E, r17\n",
    "st_x": "    ldi r26, 0x5D\n    ldi r27, 0\n"
            "    st X+, r16\n    st X, r17\n",
}


def _sp_forger(form: str, logical_sp: int) -> str:
    """Forge the SP to *logical_sp* through *form*, then push 0xEE
    twice: the pushes land on the two bytes at and below the forged
    SP, wherever it points."""
    return (f"main:\n    ldi r16, {logical_sp & 0xFF}\n"
            f"    ldi r17, {logical_sp >> 8}\n" + _SP_WRITES[form]
            + "    ldi r18, 0xEE\n    push r18\n    push r18\n"
              "    break\n")


@pytest.mark.parametrize("fuse", [
    pytest.param(True, id="fused", marks=pytest.mark.tier_up_at_once),
    pytest.param(False, id="stepwise")])
@pytest.mark.parametrize("form", sorted(_SP_WRITES))
def test_sp_forgery_is_rejected(form, fuse):
    """Every instruction that writes SPL/SPH gets the same stack-area
    check.  The attacker sits below the victim and aims its SP at the
    victim's ``treasure+3``, so two pushes would write ``treasure+2..3``,
    heap bytes the victim itself never writes."""
    def boot(logical_sp):
        return SensorNode.from_sources(
            [("attacker", _sp_forger(form, logical_sp)),
             ("victim", VICTIM)],
            config=KernelConfig(time_slice_cycles=20_000), fuse=fuse)

    probe = boot(0).kernel
    config = probe.config
    attacker_p_u = probe.regions.by_task(0).p_u
    treasure = probe.regions.by_task(1).p_l
    assert attacker_p_u <= treasure  # the attacker sits below
    node = boot(treasure + 3 - (attacker_p_u - config.memory_size))
    node.run(max_instructions=20_000_000)
    assert node.finished
    if fuse:
        stats = node.kernel.tracer.stats
        assert stats.compiled + stats.cache_hits > 0
    assert node.task_named("attacker").exit_reason.startswith(
        "fault: SP set outside stack area")
    assert node.cpu.mem.data[treasure + 2:treasure + 4] == b"\0\0"
    assert_victim_unharmed(node)


def test_wild_indirect_jump_is_contained():
    attacker = """
main:
    ldi r30, 0x00               ; Z = flash 0x0000: kernel vectors,
    ldi r31, 0x00               ; outside the attacker's program
    ijmp
    break
"""
    node = run_pair(attacker)
    assert "fault" in node.task_named("attacker").exit_reason
    assert_victim_unharmed(node)


def test_indirect_call_into_other_program_is_contained():
    attacker = """
main:
    ldi r30, lo8(0x0C00)        ; another task's code region
    ldi r31, hi8(0x0C00)
    icall
    break
"""
    node = run_pair(attacker)
    assert "fault" in node.task_named("attacker").exit_reason
    assert_victim_unharmed(node)


def test_lpm_outside_own_program_is_contained():
    attacker = """
main:
    ldi r30, 0x10               ; program-memory byte address far
    ldi r31, 0xFF               ; outside the attacker's image
    lpm r16, Z
    break
"""
    node = run_pair(attacker)
    assert "fault" in node.task_named("attacker").exit_reason
    assert_victim_unharmed(node)


def test_stack_underflow_is_contained():
    attacker = """
main:
    pop r16                     ; nothing was pushed
    break
"""
    node = run_pair(attacker)
    assert "fault" in node.task_named("attacker").exit_reason
    assert_victim_unharmed(node)


def test_cli_infinite_loop_cannot_starve_victim():
    attacker = """
main:
    cli
forever:
    rjmp forever
"""
    node = SensorNode.from_sources(
        [("victim", VICTIM), ("attacker", attacker)],
        config=KernelConfig(time_slice_cycles=20_000))
    node.run(max_cycles=2_000_000)
    # The attacker never exits, but the victim completed regardless.
    victim = node.task_named("victim")
    assert victim.exit_reason == "exit"
    assert victim.context.regs[18] == 0x99
    assert node.task_named("attacker").state is TaskState.RUNNING or \
        node.task_named("attacker").state is TaskState.READY


def test_hostile_timer_writes_do_not_break_others():
    attacker = """
main:
    ldi r16, 0xFF
    sts 0x89, r16               ; garbage into (virtual) TCNT3H
    sts 0x88, r16               ; and TCNT3L
    ldi r16, 0x00
    sts 0x87, r16               ; OCR3AH = 0
    sts 0x86, r16               ; OCR3AL = 0 -> zero period (disarmed)
    break
"""
    node = run_pair(attacker)
    assert node.task_named("attacker").exit_reason == "exit"
    assert_victim_unharmed(node)


def test_kernel_memory_never_touched_by_hostile_writes():
    # Canary the kernel data area, run a write-happy attacker, verify.
    attacker = """
.bss mine, 16
main:
    ldi r26, lo8(mine)
    ldi r27, hi8(mine)
    ldi r16, 0xEE
    ldi r20, 16
fill:
    st X+, r16
    dec r20
    brne fill
    ldi r26, 0xF0               ; logical 0x10F0: own stack zone
    ldi r27, 0x10
    st X, r16
    break
"""
    node = SensorNode.from_sources(
        [("victim", VICTIM), ("attacker", attacker)],
        config=KernelConfig(time_slice_cycles=20_000))
    kernel = node.kernel
    kernel_area = range(kernel.config.app_area.stop,
                        kernel.config.memory_size)
    for address in kernel_area:
        kernel.cpu.mem.data[address] = 0xC3
    node.run(max_instructions=20_000_000)
    assert node.finished
    assert all(kernel.cpu.mem.data[a] == 0xC3 for a in kernel_area), \
        "a task wrote into the kernel reserve"
    assert_victim_unharmed(node)


def test_stack_watermarks_recorded():
    recursive = """
main:
    ldi r24, 12
    call down
    break
down:
    push r2
    push r3
    dec r24
    brne deeper
    rjmp up
deeper:
    call down
up:
    pop r3
    pop r2
    ret
"""
    node = run_pair(recursive.replace("main:", "main:", 1))
    # run_pair names the second task "attacker"; reuse it here as a
    # plain recursive task.
    task = node.task_named("attacker")
    assert task.exit_reason == "exit"
    # 12 levels x (2 pushes + 2-byte return) = 48 bytes + main's call.
    assert 48 <= task.max_stack_used <= 64
