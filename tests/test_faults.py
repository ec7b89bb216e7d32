"""Fault injection, kernel recovery, and survivability campaigns.

Three contracts guard the subsystem:

* **Null plan = no trace.**  With no faults scheduled, a node with an
  attached injector is bit-identical to a plain node in every
  execution mode — the hooks are free when unused.
* **Deterministic chaos.**  The same seed replays the same campaign:
  same fault times, same targets, same survivability table.
* **Recovery invariants.**  The watchdog fires only on trap-starved
  tasks; restart caps are honored; a crash mid-relocation reboots
  into a consistent region table; an injected flip under specialized
  code deopts instead of running stale assumptions.
"""

from __future__ import annotations

import pytest

from repro.experiments import extra_faults
from repro.experiments.extra_static import _workload_sources
from repro.faults import FaultInjector, FaultPlan
from repro.kernel import (KernelConfig, SensorNode, TerminationReason)
from repro.kernel.task import TaskState
from repro.net.network import Link, Network


def _digest(node):
    """Complete observable state: CPU, SRAM, kernel accounting."""
    kernel, cpu = node.kernel, node.cpu
    return (bytes(cpu.r), cpu.pc, cpu.sp, cpu.sreg, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data),
            dict(kernel.stats.trap_counts), kernel.stats.kernel_cycles,
            kernel.stats.context_switches,
            kernel.stats.scheduler_checks,
            tuple(kernel.stats.terminations),
            tuple((task.task_id, task.kernel_cycles, task.min_sp_seen,
                   task.max_stack_used, task.branch_counter,
                   task.exit_reason)
                  for task in kernel.tasks.values()))


# -- null plan: attached-but-empty injector leaves no trace --------------------

@pytest.mark.parametrize("workload", ["table1", "table2", "kernelbench"])
@pytest.mark.parametrize("fuse,elide",
                         [(True, True), (True, False), (False, False)])
def test_null_plan_is_bit_identical(workload, fuse, elide):
    sources = _workload_sources(workload, quick=True)

    def run(attach):
        node = SensorNode.from_sources(sources, fuse=fuse, elide=elide,
                                       block_cache=False)
        if attach:
            plan = FaultPlan(seed=0xDEAD, horizon_cycles=10_000_000)
            FaultInjector(plan).attach("n", node)
        node.run(max_instructions=50_000_000)
        assert node.finished
        return node

    assert _digest(run(attach=False)) == _digest(run(attach=True))


# -- link loss stream: exact drop positions, pinned ----------------------------

def _expected_drops(count: int, permille: int, seed: int = 0xB5AD):
    state, positions = seed, []
    for index in range(count):
        state = Link._step_lfsr(state)
        if (state % 1000) < permille:
            positions.append(index)
    return positions


def _relay_net(loss=0, corrupt=0, dup=0):
    net = Network(quantum_cycles=5_000)
    net.add_node("tx", SensorNode.from_sources(
        [("sender", extra_faults._sender(6))]))
    net.add_node("rx", SensorNode.from_sources(
        [("receiver", extra_faults._receiver(6))]))
    net.connect("tx", "rx", latency_cycles=1_000, loss_permille=loss,
                corrupt_permille=corrupt, dup_permille=dup)
    return net


@pytest.mark.parametrize("scheduler", ["run", "run_lockstep"])
def test_loss_drop_positions_are_pinned_per_byte(scheduler):
    """The loss LFSR is drawn once per byte in ferry order, so the
    exact drop positions for a known seed are a contract — identical
    under the event-driven and lockstep schedulers."""
    net = _relay_net(loss=400)
    getattr(net, scheduler)(max_cycles=3_000_000)
    link = net.link_between("tx", "rx")
    expected = _expected_drops(6, 400)
    assert link.drop_positions == expected
    assert link.dropped == len(expected)
    assert link.delivered == 6 - len(expected)


def test_corruption_and_duplication_streams_are_independent():
    """Enabling corruption/duplication must not perturb which bytes
    the loss stream drops — each fault kind has its own LFSR."""
    plain = _relay_net(loss=400)
    plain.run(max_cycles=3_000_000)
    noisy = _relay_net(loss=400, corrupt=500, dup=400)
    noisy.run(max_cycles=3_000_000)
    link_plain = plain.link_between("tx", "rx")
    link_noisy = noisy.link_between("tx", "rx")
    assert link_noisy.drop_positions == link_plain.drop_positions
    assert link_noisy.dropped == link_plain.dropped
    assert link_noisy.corrupted > 0
    assert link_noisy.duplicated > 0
    # Duplicates inflate delivery; corruption never eats a byte.
    assert link_noisy.delivered == \
        link_plain.delivered + link_noisy.duplicated


# -- watchdog ------------------------------------------------------------------

_LONG_SPIN = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 40
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""


def test_watchdog_fires_on_trap_starved_task():
    node = SensorNode.from_sources(
        [("spin", _LONG_SPIN)],
        config=KernelConfig(watchdog_slices=4))
    node.run(max_cycles=50_000)
    assert not node.finished
    # Starve the scheduler: with a huge branch credit the task never
    # reaches a scheduler tick, so its slice never renews.
    task = node.kernel.current
    assert task is not None
    task.branch_counter = 10 ** 9
    node.run(max_cycles=3_000_000)
    assert node.kernel.stats.watchdog_fires >= 1
    assert task.termination is TerminationReason.WATCHDOG
    assert task.exit_reason == "watchdog: no scheduler progress"


def test_watchdog_never_fires_on_healthy_tasks():
    from repro.workloads.periodic import periodic_sensmart_source
    node = SensorNode.from_sources(
        [("sampler", periodic_sensmart_source(800, 20, 2)),
         ("spin", _LONG_SPIN)],
        config=KernelConfig(watchdog_slices=4))
    node.run(max_cycles=60_000_000)
    assert node.finished
    assert node.kernel.stats.watchdog_fires == 0
    assert all(t.termination is TerminationReason.EXIT
               for t in node.kernel.tasks.values())


# -- restart policies ----------------------------------------------------------

#: Unbounded recursion: terminates with a stack overflow every run.
_OVERFLOWER = """
main:
rec:
    push r2
    push r3
    call rec
    break
"""


def test_restart_cap_keeps_repeat_offender_dead():
    node = SensorNode.from_sources(
        [("bad", _OVERFLOWER)],
        config=KernelConfig(restart_policy="restart", restart_max=2))
    node.run(max_cycles=80_000_000)
    assert node.finished
    task = node.task_named("bad")
    assert task.state is TaskState.TERMINATED
    assert task.restarts_used == 2          # capped
    assert task.exit_reason == "stack overflow"  # legacy text intact
    # initial failure + one per restart, all recorded
    assert len(node.kernel.stats.terminations) == 3
    assert len(node.kernel.stats.restarts) == 2


def test_exit_is_never_restarted():
    node = SensorNode.from_sources(
        [("probe", _workload_sources("table1", True)[0][1])],
        config=KernelConfig(restart_policy="restart", restart_max=3))
    node.run(max_cycles=10_000_000)
    assert node.finished
    task = node.kernel.tasks[0]
    assert task.termination is TerminationReason.EXIT
    assert task.restarts_used == 0
    assert node.kernel.stats.terminations == [f"{task.name}: exit"]


def test_backoff_restart_recovers_after_transient_fault():
    """A transient SRAM flip kills the worker; the wiped-region restart
    runs it to a clean exit."""
    node = SensorNode.from_sources(
        [("worker", extra_faults._worker(400))],
        config=KernelConfig(restart_policy="restart-with-backoff",
                            restart_max=8))
    plan = FaultPlan(seed=0xF00D, horizon_cycles=1)
    injector = FaultInjector(plan)
    injector.attach("n", node)
    for cycle in range(60_000, 300_000, 40_000):
        injector.schedule_sram_flip("n", cycle)
    node.run(max_cycles=40_000_000)
    assert node.finished
    task = node.task_named("worker")
    assert task.termination is TerminationReason.EXIT
    assert task.restarts_used >= 1


# -- crash & reboot ------------------------------------------------------------

def test_crash_mid_relocation_reboots_consistently():
    """Power dying halfway through a relocation memmove leaves torn
    RAM; the reboot must come back with a consistent region table and
    rerun every task to completion."""
    from repro.workloads.bintree import search_task_source
    sources = [("s0", search_task_source(nodes=60, searches=15,
                                         seed=0x1357)),
               ("s1", search_task_source(nodes=60, searches=15,
                                         seed=0x2468))]
    node = SensorNode.from_sources(sources)
    node.run(max_instructions=8_000)
    assert not node.finished

    memory = node.cpu.mem
    original = memory.move_block

    def torn_move(src, dst, length):
        original(src, dst, length // 2)   # half the copy, then dark
        node.crash()

    memory.move_block = torn_move
    node.kernel.relocator.grow_stack(0, 16)
    assert node.crashed

    node.reboot()
    node.kernel.regions.check_invariants()
    node.run(max_instructions=80_000_000)
    assert node.finished
    assert node.reboots == 1
    node.kernel.regions.check_invariants()
    assert all(t.termination is TerminationReason.EXIT
               for t in node.kernel.tasks.values())


def test_reboot_persists_network_time():
    node = SensorNode.from_sources(
        [("spin", _LONG_SPIN)])
    node.run(max_cycles=100_000)
    before = node.cpu.cycles
    node.crash()
    assert node.finished            # halted: co-sim stops visiting it
    node.reboot()
    assert node.cpu.cycles == before + 60_000  # BOOT_DELAY_CYCLES
    assert not node.finished


# -- specialized code vs injected flips ----------------------------------------

#: Self-looping inner spin plus stack traffic in the outer loop: the
#: inner loop strip-mines inside a trace, and the push/pop sites
#: specialize with baked region constants guarded by the region epoch.
_SPIN_WITH_STACK = """
main:
    ldi r28, 40
outer:
    push r16
    pop r16
    ldi r26, 0
    ldi r27, 0
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""


def test_sram_flip_under_specialized_superblock_deopts():
    """A flip into a guarded region bumps the region epoch: the traces
    holding specialized stack ops must deopt (counter > 0) and the run
    must stay bit-identical with generic dispatch."""
    def run(fuse):
        node = SensorNode.from_sources([("spin", _SPIN_WITH_STACK)],
                                       fuse=fuse, block_cache=False)
        plan = FaultPlan(seed=0xD15E, horizon_cycles=1)
        injector = FaultInjector(plan)
        injector.attach("n", node)
        injector.schedule_sram_flip("n", 200_000)
        node.run(max_instructions=80_000_000)
        assert node.finished
        return node

    specialized = run(fuse=True)
    stats = specialized.kernel.specializer.stats
    assert stats.compiled > 0
    assert stats.deopts > 0
    assert _digest(specialized) == _digest(run(fuse=False))


# -- campaigns -----------------------------------------------------------------

def test_chaos_point_is_seed_deterministic():
    first = extra_faults.compute_point("table1", 1, quick=True)
    second = extra_faults.compute_point("table1", 1, quick=True)
    assert first == second
    other_seed = extra_faults.compute_point("table1", 1, seed=0x1234,
                                            quick=True)
    assert other_seed != first  # the dial actually turns


def test_moderate_campaign_shows_survivability():
    """The acceptance bar: at the moderate level on 3-node networks,
    the sweep must show tasks terminated by faults, at least one task
    restarted to a clean finish, and crashed nodes recovered."""
    result = extra_faults.run(quick=True, levels=(1,))
    assert result.moderate_terminations >= 1
    assert result.moderate_restarted_ok >= 1
    assert result.moderate_recovered >= 1
    rendered = result.render()
    assert "survivability" in rendered


def test_fault_free_level_finishes_every_task():
    row = extra_faults.compute_point("table2", 0, quick=True)
    assert row.finished == row.tasks
    assert row.terminations == row.crashes == row.dead == 0
    assert row.dropped == row.corrupted == row.duplicated == 0
