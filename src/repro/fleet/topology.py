"""Seeded fleet topology generators: grid and random-geometric.

A topology is pure data — ordered :class:`NodeSpec` / :class:`LinkSpec`
lists plus adjacency helpers — picklable so the fleet coordinator can
ship it to shard workers.  Link indices are *global* topology order;
the network layer uses them as the same-cycle arrival tie-break rank,
which is what keeps delivery order independent of how the node set is
partitioned across shards.

All placement is derived from the topology seed through labeled
:class:`~repro.faults.rng.XorShift32` streams, so a (kind, params,
seed) triple names exactly one topology on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..faults.rng import XorShift32

#: Fixed-point denominator for random-geometric coordinates: positions
#: are integer 1/65536ths of the unit square, so distance checks are
#: exact integer math (no float-platform drift).
COORD_SCALE = 1 << 16


@dataclass(frozen=True)
class NodeSpec:
    """One node: a stable name and a placement (grid cell or scaled
    unit-square coordinates)."""
    name: str
    position: Tuple[int, int]


@dataclass(frozen=True)
class LinkSpec:
    """One unidirectional link; *index* is the global tie-break rank."""
    index: int
    source: str
    destination: str
    latency_cycles: int
    loss_permille: int = 0
    corrupt_permille: int = 0
    dup_permille: int = 0


@dataclass
class Topology:
    kind: str
    seed: int
    nodes: List[NodeSpec]
    links: List[LinkSpec]
    params: Dict[str, int] = field(default_factory=dict)

    @property
    def names(self) -> List[str]:
        return [spec.name for spec in self.nodes]

    def bfs_order(self, root: str) -> Dict[str, int]:
        """Hop distance from *root* over directed links (BFS)."""
        adjacency: Dict[str, List[str]] = {}
        for link in self.links:
            adjacency.setdefault(link.source, []).append(link.destination)
        depth = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[str] = []
            for name in frontier:
                for peer in adjacency.get(name, ()):
                    if peer not in depth:
                        depth[peer] = depth[name] + 1
                        nxt.append(peer)
            frontier = nxt
        return depth

    def bfs_path(self, source: str, sink: str) -> List[str]:
        """One shortest path source→sink (first-discovered, hence
        deterministic for a fixed link order)."""
        adjacency: Dict[str, List[str]] = {}
        for link in self.links:
            adjacency.setdefault(link.source, []).append(link.destination)
        parent: Dict[str, Optional[str]] = {source: None}
        frontier = [source]
        while frontier and sink not in parent:
            nxt: List[str] = []
            for name in frontier:
                for peer in adjacency.get(name, ()):
                    if peer not in parent:
                        parent[peer] = name
                        nxt.append(peer)
            frontier = nxt
        if sink not in parent:
            raise ReproError(f"no path {source!r} -> {sink!r}")
        path = [sink]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        return path


def _node_name(index: int) -> str:
    return f"n{index:03d}"


def grid(rows: int, cols: int, latency_cycles: int = 2_000,
         loss_permille: int = 0, corrupt_permille: int = 0,
         dup_permille: int = 0, seed: int = 0) -> Topology:
    """A rows×cols 4-neighbor grid with bidirectional links.

    Node ``n{r*cols+c}`` sits at cell ``(r, c)``; links are emitted in
    row-major node order, east pair before south pair, so the global
    link indices are a pure function of the dimensions.
    """
    if rows < 1 or cols < 1:
        raise ReproError("grid dimensions must be >= 1")
    nodes = [NodeSpec(_node_name(r * cols + c), (r, c))
             for r in range(rows) for c in range(cols)]
    links: List[LinkSpec] = []

    def _pair(a: int, b: int) -> None:
        for src, dst in ((a, b), (b, a)):
            links.append(LinkSpec(
                index=len(links), source=_node_name(src),
                destination=_node_name(dst),
                latency_cycles=latency_cycles,
                loss_permille=loss_permille,
                corrupt_permille=corrupt_permille,
                dup_permille=dup_permille))

    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            if c + 1 < cols:
                _pair(here, here + 1)
            if r + 1 < rows:
                _pair(here, here + cols)
    return Topology(kind="grid", seed=seed, nodes=nodes, links=links,
                    params={"rows": rows, "cols": cols,
                            "latency_cycles": latency_cycles})


def random_geometric(count: int, radius_permille: int = 350,
                     latency_cycles: int = 2_000,
                     loss_permille: int = 0, corrupt_permille: int = 0,
                     dup_permille: int = 0,
                     seed: int = 0xF1EE7) -> Topology:
    """*count* nodes placed uniformly in the unit square; nodes within
    ``radius_permille/1000`` of each other get a bidirectional link.

    Placement draws from ``XorShift32(seed).derive("fleet/rgg/place")``
    in fixed-point (so the topology is platform-exact).  If the radius
    graph is disconnected, consecutive components (by lowest member
    index) are bridged deterministically so every workload terminates.
    """
    if count < 1:
        raise ReproError("node count must be >= 1")
    rng = XorShift32(seed).derive("fleet/rgg/place")
    positions = [(rng.below(COORD_SCALE), rng.below(COORD_SCALE))
                 for _ in range(count)]
    nodes = [NodeSpec(_node_name(i), positions[i]) for i in range(count)]
    radius_sq = (radius_permille * COORD_SCALE // 1000) ** 2
    links: List[LinkSpec] = []

    def _pair(a: int, b: int) -> None:
        for src, dst in ((a, b), (b, a)):
            links.append(LinkSpec(
                index=len(links), source=_node_name(src),
                destination=_node_name(dst),
                latency_cycles=latency_cycles,
                loss_permille=loss_permille,
                corrupt_permille=corrupt_permille,
                dup_permille=dup_permille))

    parent = list(range(count))

    def _find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(count):
        xi, yi = positions[i]
        for j in range(i + 1, count):
            xj, yj = positions[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= radius_sq:
                _pair(i, j)
                parent[_find(i)] = _find(j)

    # Deterministic connectivity fallback: bridge component anchors
    # (lowest node index per component) in ascending order.
    anchors: Dict[int, int] = {}
    for i in range(count):
        root = _find(i)
        if root not in anchors:
            anchors[root] = i
    chain = sorted(anchors.values())
    for a, b in zip(chain, chain[1:]):
        _pair(a, b)
    return Topology(kind="rgg", seed=seed, nodes=nodes, links=links,
                    params={"count": count,
                            "radius_permille": radius_permille,
                            "latency_cycles": latency_cycles})


def partition(topology: Topology, shards: int) -> List[List[str]]:
    """Split the node list into *shards* contiguous, near-equal blocks.

    Contiguous blocks keep grid partitions spatially coherent (few
    cross-shard links) and make the partition a pure function of
    (topology, shards).  Every shard gets at least one node; *shards*
    is clamped to the node count.
    """
    if shards < 1:
        raise ReproError("shard count must be >= 1")
    names = topology.names
    shards = min(shards, len(names))
    base, extra = divmod(len(names), shards)
    blocks: List[List[str]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        blocks.append(names[start:start + size])
        start += size
    return blocks
