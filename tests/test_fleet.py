"""Fleet sharding: conservative sync edge cases and shard invariance."""

from __future__ import annotations

import pytest

from repro.avr.cpu import AvrCpu
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.fleet import (FleetSim, FleetSpec, Topology, build_spec, grid,
                         partition, random_geometric)
from repro.fleet.topology import LinkSpec, NodeSpec
from repro.fleet.workload import receiver_src, relay_src, sender_src
from repro.kernel import SensorNode
from repro.net import Network

QUICK_GRID = grid(4, 4, latency_cycles=2_000)


def _quick_spec(fault_plan=None, max_cycles=300_000):
    return build_spec(QUICK_GRID, "flood", count=6,
                      max_cycles=max_cycles, fault_plan=fault_plan)


# -- conservative-sync edge cases ---------------------------------------------

def test_zero_latency_link_rejected():
    """A zero-latency link has no lookahead — the bulletin protocol
    could deadlock on it, so FleetSim refuses it up front (for every
    shard count: behavior must not depend on where the partition cut
    happens to fall)."""
    nodes = [NodeSpec("n000", (0, 0)), NodeSpec("n001", (0, 1))]
    links = [LinkSpec(index=0, source="n000", destination="n001",
                      latency_cycles=0)]
    topo = Topology(kind="pair", seed=0, nodes=nodes, links=links)
    spec = FleetSpec(
        topology=topo,
        programs={"n000": (("sender", sender_src(4)),),
                  "n001": (("receiver", receiver_src(4)),)},
        roles={"n000": "source", "n001": "sink"},
        workload="flood", count=4, seed=1, max_cycles=100_000)
    for shards in (1, 2):
        with pytest.raises(ReproError, match="latency"):
            FleetSim(spec, shards=shards)


def test_finished_shard_keeps_peers_running():
    """A shard whose nodes all halt early must not stall peers that
    still transmit into it: the sender ships 12 bytes, the receiver
    halts after 4, and the fleet still terminates with both finished —
    identically at 1 and 2 shards.  The 8 bytes sent after the halt
    settle into the dead receiver's RX residue (the radio latches even
    when the CPU no longer runs), so all 12 count as delivered."""
    nodes = [NodeSpec("n000", (0, 0)), NodeSpec("n001", (0, 1))]
    links = [LinkSpec(index=0, source="n000", destination="n001",
                      latency_cycles=1_500)]
    topo = Topology(kind="pair", seed=0, nodes=nodes, links=links)
    spec = FleetSpec(
        topology=topo,
        programs={"n000": (("sender", sender_src(12)),),
                  "n001": (("receiver", receiver_src(4)),)},
        roles={"n000": "source", "n001": "sink"},
        workload="flood", count=12, seed=1, max_cycles=2_000_000)
    digests = []
    for shards in (1, 2):
        result = FleetSim(spec, shards=shards, prime=False).run()
        assert result.finished_nodes == 2, result.node_summaries
        assert result.delivered == 12
        digests.append(result.digest)
    assert digests[0] == digests[1]


def test_shard_count_invariance_under_faults():
    """1-shard vs k-shard bit-identity on the 16-node grid while a
    nonzero FaultPlan fires (SRAM/flash flips + clock drift; crash
    reboot timing is round-granular, so crash-free plans are the
    invariance contract)."""
    plan = FaultPlan(seed=77, horizon_cycles=40_000,
                     warmup_cycles=4_000, sram_flips=2, flash_flips=1,
                     drift_steps=1)
    digests = {}
    fault_totals = {}
    for shards in (1, 2, 4):
        result = FleetSim(_quick_spec(fault_plan=plan),
                          shards=shards).run()
        digests[shards] = result.digest
        fault_totals[shards] = sum(result.fault_counts.values())
    assert fault_totals[1] > 0, "fault plan never fired"
    assert len(set(fault_totals.values())) == 1
    assert len(set(digests.values())) == 1, digests
    clean = FleetSim(_quick_spec(), shards=1).run()
    assert clean.digest not in digests.values(), \
        "fault plan had no observable effect"


def test_shard_count_invariance_clean():
    """Clean flood digests agree across shard counts, and warm-forked
    workers compile (almost) nothing thanks to the priming pass."""
    results = {shards: FleetSim(_quick_spec(), shards=shards).run()
               for shards in (1, 2, 4)}
    assert len({r.digest for r in results.values()}) == 1
    for r in results.values():
        assert r.finished_nodes == 16
        assert sum(r.compiled_per_shard) <= 2, r.compiled_per_shard


def _stepwise_from_sources(monkeypatch):
    """Make every node a fleet boots run stepwise."""
    build = SensorNode.from_sources.__func__

    def stepwise(cls, sources, *args, **kwargs):
        kwargs["fuse"] = False
        return build(cls, sources, *args, **kwargs)

    monkeypatch.setattr(SensorNode, "from_sources", classmethod(stepwise))


@pytest.mark.parametrize("workload", ["flood", "attack"])
def test_fleet_digest_is_tier_invariant(workload, monkeypatch):
    """The 4x4 flood and 3x3 attack fleets end on the same digest with
    every node forced stepwise: traces, including their fast-forward of
    idle radio polls, change no node's end state."""
    if workload == "flood":
        spec = _quick_spec()
    else:
        spec = build_spec(grid(3, 3, latency_cycles=2_000, seed=0xF1EE7),
                          "attack", count=40, seed=0xF1EE7,
                          max_cycles=3_000_000)
    traced = FleetSim(spec, shards=1).run()
    _stepwise_from_sources(monkeypatch)
    # Priming warms trace caches: there are none to warm.
    stepwise = FleetSim(spec, shards=1, prime=False).run()
    assert stepwise.compiled_per_shard == [0]
    assert traced.digest == stepwise.digest
    assert traced.finished_nodes == stepwise.finished_nodes


def test_finished_nodes_free_their_decode_caches(monkeypatch):
    """Priming's scratch nodes and every shard node empty their
    decode caches once done, instead of holding their thunks and
    traces until a full garbage collection happens to run."""
    built = []
    init = AvrCpu.__init__

    def spy(cpu, *args, **kwargs):
        init(cpu, *args, **kwargs)
        built.append(cpu)

    monkeypatch.setattr(AvrCpu, "__init__", spy)
    result = FleetSim(_quick_spec(), shards=1).run()
    assert result.finished_nodes == 16
    assert len(built) > 16  # the shard's nodes plus priming's scratch
    assert all(not cpu._exec and not cpu._blocks for cpu in built)


def test_attack_workload_digest_invariant_and_contained():
    """Attack traffic through the fleet: digests agree across shard
    counts, every node quiesces, and the sink's unchecked copy is
    trapped by logical addressing (an oob fault termination)."""
    from repro.fleet import build_programs
    from repro.kernel.termination import classify_fault_detail

    topo = grid(3, 3, latency_cycles=2_000, seed=0xF1EE7)
    spec = build_spec(topo, "attack", count=40, seed=0xF1EE7,
                      max_cycles=3_000_000)
    assert spec.roles["n000"] == "mallory"
    assert "victim" in spec.roles.values()
    results = {shards: FleetSim(spec, shards=shards).run()
               for shards in (1, 2)}
    assert len({r.digest for r in results.values()}) == 1
    for r in results.values():
        assert r.finished_nodes == 9

    # Replay the same route on a plain Network to inspect the sink.
    programs, roles = build_programs(topo, "attack", count=40)
    sink = next(n for n, role in roles.items() if role == "victim")
    net = Network()
    for name in topo.names:
        net.add_node(name, SensorNode.from_sources(
            list(programs[name])))
    for link in topo.links:
        net.connect(link.source, link.destination,
                    latency_cycles=link.latency_cycles)
    net.run(max_cycles=3_000_000)
    victim = net.nodes[sink].task_named("victim")
    assert victim.exit_reason.startswith("fault")
    assert classify_fault_detail(victim.exit_reason) == "oob"


# -- heap scheduler vs reference scan ----------------------------------------

SENDER = sender_src(6)
RECEIVER = receiver_src(6)
RELAY_SRC = relay_src(6)


def _node_state(node: SensorNode):
    cpu = node.cpu
    return (bytes(cpu.r), cpu.sreg, cpu.pc, cpu.sp, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data), cpu.halted,
            node.kernel.stats.context_switches)


def _relay_chain() -> Network:
    net = Network()
    net.add_node("src", SensorNode.from_sources([("sender", SENDER)]))
    net.add_node("r1", SensorNode.from_sources([("relay", RELAY_SRC)]))
    net.add_node("r2", SensorNode.from_sources([("relay", RELAY_SRC)]))
    net.add_node("dst", SensorNode.from_sources(
        [("receiver", RECEIVER)]))
    net.connect("src", "r1", latency_cycles=1_000)
    net.connect("r1", "r2", latency_cycles=3_000)
    net.connect("r2", "dst", latency_cycles=500)
    return net


def _star() -> Network:
    net = Network()
    for index, name in enumerate(("leaf0", "leaf1", "leaf2")):
        net.add_node(name, SensorNode.from_sources(
            [("sender", sender_src(6, start=0x30 + 0x10 * index))]))
    net.add_node("hub", SensorNode.from_sources(
        [("receiver", receiver_src(18))]))
    for index, name in enumerate(("leaf0", "leaf1", "leaf2")):
        net.connect(name, "hub", latency_cycles=1_000 * (index + 1))
    return net


@pytest.mark.parametrize("build", [_relay_chain, _star],
                         ids=["relay-chain", "star"])
def test_heap_scheduler_matches_scan(build):
    """The lazy-min-heap lagging-node scheduler must land every node
    in exactly the state the O(N)-scan reference produces."""
    heap_net, scan_net = build(), build()
    heap_net.run(max_cycles=50_000_000)
    scan_net.run_scan(max_cycles=50_000_000)
    assert all(n.finished for n in heap_net.nodes.values())
    for name in heap_net.nodes:
        assert _node_state(heap_net.nodes[name]) == \
            _node_state(scan_net.nodes[name]), name
    assert heap_net.stats() == scan_net.stats()
    assert [link.arrival_cycles for link in heap_net.links] == \
        [link.arrival_cycles for link in scan_net.links]


def test_cli_fleet_quick_matches_golden():
    """`sensmart fleet --quick` is pinned byte-for-byte (CI diffs the
    same command against the same golden).  Runs in a fresh subprocess
    because the compiled-blocks line reflects a cold JIT cache."""
    import pathlib
    import subprocess
    import sys
    golden = pathlib.Path(__file__).parent / "golden" / "fleet_quick.txt"
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "fleet", "--quick"],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout == golden.read_text()


# -- topology generators ------------------------------------------------------

def test_grid_topology_shape():
    topo = grid(3, 4)
    assert len(topo.nodes) == 12
    # 4-neighbor bidirectional: 2*(rows*(cols-1) + cols*(rows-1))
    assert len(topo.links) == 2 * (3 * 3 + 4 * 2)
    assert [ls.index for ls in topo.links] == list(range(len(topo.links)))
    depth = topo.bfs_order("n000")
    assert len(depth) == 12 and depth["n011"] == 2 + 3


def test_random_geometric_deterministic_and_connected():
    first = random_geometric(24, radius_permille=320, seed=0xBEEF)
    second = random_geometric(24, radius_permille=320, seed=0xBEEF)
    assert first.nodes == second.nodes
    assert first.links == second.links
    assert len(first.bfs_order("n000")) == 24  # connectivity fallback
    other = random_geometric(24, radius_permille=320, seed=0xBEE0)
    assert other.nodes != first.nodes


def test_partition_contiguous_and_balanced():
    topo = grid(4, 4)
    blocks = partition(topo, 3)
    assert [name for block in blocks for name in block] == topo.names
    sizes = sorted(len(block) for block in blocks)
    assert sizes == [5, 5, 6]
    assert partition(topo, 99) == [[name] for name in topo.names]
