"""Trap specialization: bit-identical execution and code caches.

Traces with specialized trap fast paths (site facts from
repro.kernel.specialize) are a pure speed knob: every register, memory
byte, cycle count and kernel statistic must match stepwise execution
through the generic dispatch chain exactly, including across stack
relocations that invalidate specialized code through the per-task
region epoch.  The cross-node :class:`SuperblockCache` must compile
each hot trace once per flash image, not once per node.
"""

from __future__ import annotations

import pytest

from repro.avr.cpu import SuperblockCache
from repro.avr.devices.radio import Radio
from repro.avr.trace import TraceCompiler
from repro.errors import LinkError
from repro.experiments.extra_static import _workload_sources
from repro.kernel import SensorNode
from repro.net.network import Network
from repro.workloads.bintree import search_task_source
from repro.workloads.kernelbench import KERNEL_BENCHMARKS


def _digest(node):
    """Complete observable state: CPU, SRAM, kernel accounting."""
    kernel, cpu = node.kernel, node.cpu
    return (bytes(cpu.r), cpu.pc, cpu.sp, cpu.sreg, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data),
            dict(kernel.stats.trap_counts), kernel.stats.kernel_cycles,
            kernel.stats.context_switches, kernel.stats.scheduler_checks,
            tuple(kernel.stats.terminations),
            tuple((task.task_id, task.kernel_cycles, task.min_sp_seen,
                   task.max_stack_used, task.branch_counter,
                   task.exit_reason)
                  for task in kernel.tasks.values()))


def _run(sources, fuse, max_instructions=50_000_000):
    node = SensorNode.from_sources(sources, fuse=fuse, block_cache=False)
    node.run(max_instructions=max_instructions)
    return node


# -- differential: specialized vs generic is bit-identical ---------------------

@pytest.mark.parametrize("workload", ["table1", "table2", "kernelbench"])
def test_specialized_execution_is_bit_identical(workload):
    sources = _workload_sources(workload, quick=True)
    specialized = _run(sources, fuse=True)
    generic_stepwise = _run(sources, fuse=False)
    assert specialized.finished
    assert specialized.kernel.specializer.stats.compiled > 0
    assert _digest(specialized) == _digest(generic_stepwise)


def test_relocation_invalidates_specialized_code_and_stays_identical():
    """A mid-run stack relocation moves region constants out from under
    every specialized trace the task owns; the epoch guard must deopt
    them and the recompiled code must keep the run bit-identical with
    generic dispatch."""
    sources = [("s0", search_task_source(nodes=60, searches=15,
                                         seed=0x1357)),
               ("s1", search_task_source(nodes=60, searches=15,
                                         seed=0x2468))]

    def run(fuse):
        node = SensorNode.from_sources(sources, fuse=fuse,
                                       block_cache=False)
        node.run(max_instructions=8_000)
        assert not node.finished
        # Force a relocation at a deterministic instruction boundary
        # (the workload alone does not create enough stack pressure).
        result = node.kernel.relocator.grow_stack(0, 16)
        assert result.moved
        node.run(max_instructions=80_000_000)
        assert node.finished
        return node

    specialized = run(fuse=True)
    stats = specialized.kernel.specializer.stats
    assert specialized.kernel.relocator.relocation_count > 0
    assert stats.compiled > 0
    assert stats.deopts > 0  # stale-epoch guards fired and recompiled
    assert _digest(specialized) == _digest(run(fuse=False))


# -- cross-node trace sharing --------------------------------------------------

def test_network_of_identical_nodes_compiles_each_block_once():
    cache = SuperblockCache()
    source = KERNEL_BENCHMARKS["am"](packets=2)
    net = Network()
    for name in ("a", "b", "c"):
        net.add_node(name, SensorNode.from_sources(
            [("am", source)], block_cache=cache))
    net.connect("a", "b")
    net.connect("b", "c")
    net.run(max_cycles=50_000_000)
    assert all(node.finished for node in net.nodes.values())
    assert cache.hits > 0  # later nodes rebound shared code
    assert cache.compile_counts  # something was compiled at all
    assert max(cache.compile_counts.values()) == 1  # each trace once


_PUSHER = """
main:
    ldi r16, 0x11
    ldi r17, 0x22
    ldi r24, 200
loop:
    push {register}
    pop r18
    add r19, r18
    dec r24
    brne loop
    break
"""


@pytest.mark.parametrize("elide", [True, False])
def test_equal_fingerprints_with_different_trampolines_never_share(
        elide, monkeypatch):
    """``push r16`` and ``push r17`` naturalize to the same JMP into the
    BREAK-filled trap region, so both images burn one flash fingerprint;
    only the trampoline params differ.  The second image on a shared
    cache must compile its own site-bearing traces, not rebind the
    first one's.  A trace with no trap site (the ``break`` head) bakes
    no trampoline params, so the second image may rebind that one."""
    rebound = []
    rebind = TraceCompiler._rebind

    def spy(self, block, task, kinds):
        rebound.append(block)
        return rebind(self, block, task, kinds)

    monkeypatch.setattr(TraceCompiler, "_rebind", spy)
    cache = SuperblockCache()
    fingerprints = []
    earlier = set()
    for register in ("r16", "r17"):
        sources = [("pusher", _PUSHER.format(register=register))]
        rebound.clear()
        shared = SensorNode.from_sources(sources, elide=elide,
                                         block_cache=cache)
        fingerprints.append(shared.cpu.flash.fingerprint())
        shared.run(max_instructions=1_000_000)
        private = SensorNode.from_sources(sources, elide=elide,
                                          block_cache=False)
        private.run(max_instructions=1_000_000)
        assert shared.finished
        assert shared.kernel.tracer.stats.compiled > 0
        mine = {id(block) for group in cache.groups.values()
                for block in group.values() if block.trap} - earlier
        assert mine  # compiled its own site-bearing traces
        assert all(id(block) in mine for block in rebound if block.trap)
        earlier |= mine
        assert _digest(shared) == _digest(private)
    assert fingerprints[0] == fingerprints[1]
    assert max(cache.compile_counts.values()) == 1


# -- radio TX ring -------------------------------------------------------------

class _StubEvents:
    def schedule(self, due, callback):
        return (due, callback)

    def cancel(self, event):
        pass


class _StubCpu:
    def __init__(self):
        self.cycles = 0
        self.events = _StubEvents()


def test_radio_tx_ring_evicts_and_counts():
    radio = Radio(byte_cycles=10, tx_log_limit=4)
    radio._cpu = cpu = _StubCpu()
    for value in range(0x40, 0x46):  # 6 bytes through a 4-entry ring
        radio._write_data(value)
        cpu.cycles += 10
    assert radio.tx_seq == 6
    assert radio.tx_log_dropped == 2
    assert radio.transmitted == [0x42, 0x43, 0x44, 0x45]
    assert radio.tx_cycles == [20, 30, 40, 50]
    assert radio.packets == bytes([0x42, 0x43, 0x44, 0x45])

    fresh, missed = radio.tx_since(0)
    assert missed == 2  # bytes 0 and 1 were evicted before pickup
    assert [entry[1] for entry in fresh] == [0x42, 0x43, 0x44, 0x45]
    fresh, missed = radio.tx_since(5)
    assert missed == 0 and [entry[1] for entry in fresh] == [0x45]
    fresh, missed = radio.tx_since(6)
    assert missed == 0 and fresh == []


def test_ferry_reports_bytes_evicted_before_pickup():
    source = KERNEL_BENCHMARKS["am"](packets=1)
    net = Network()
    for name in ("tx", "rx"):
        net.add_node(name, SensorNode.from_sources([("am", source)]))
    net.connect("tx", "rx")
    link = net.link_between("tx", "rx")
    radio = net.nodes["tx"].radio
    # Simulate a ring that already evicted ten bytes the ferry never saw.
    radio._tx_ring.append((10, 0xAB, 1_000))
    radio.tx_seq = 11
    net._ferry()
    assert link.log_missed == 10
    assert link._tx_cursor == 11  # cursor resynchronized past the gap


# -- lint on link --------------------------------------------------------------

def test_lint_on_link_blocks_unsound_image():
    from repro.rewriter.classify import PatchKind, classify
    from repro.rewriter.rewriter import Rewriter

    def blind(instruction):  # classifier that misses PUSH
        if instruction.mnemonic == "PUSH":
            return PatchKind.NONE
        return classify(instruction)

    source = "main:\n    push r16\n    pop r16\n    break\n"
    with pytest.raises(LinkError):
        SensorNode.from_sources([("t", source)],
                                rewriter=Rewriter(classify_fn=blind))
    # The ablation switch still allows building the unsound image.
    node = SensorNode.from_sources([("t", source)],
                                   rewriter=Rewriter(classify_fn=blind),
                                   lint=False)
    assert node.kernel is not None
