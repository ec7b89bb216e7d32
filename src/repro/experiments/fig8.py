"""Figure 8: SenSmart vs LiteOS — schedulable tasks under equal budgets.

"To perform a fair comparison, we limit the number of binary trees to
two, and instruct SenSmart to use the same amount of memory for overall
stack space as what LiteOS uses."  LiteOS reserves >2000 bytes of
static kernel data and allocates each thread a fixed worst-case stack;
SenSmart is configured with the same 2000-byte reserve so both systems
partition an identical stack budget — the difference is purely
fixed-worst-case vs versatile allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..analysis.report import format_table
from ..baselines.fixedstack import ThreadSpec, max_schedulable_threads
from ..errors import OutOfMemory
from ..kernel import KernelConfig, SensorNode
from ..workloads.bintree import feeder_source, search_task_source

DEFAULT_TREE_SIZES = [10, 20, 30, 40, 50, 60]
TREES = 2
SEARCHES = 10
FEEDER_UPDATES = 20
LITEOS_STATIC_BYTES = 2000
#: LiteOS worst-case stack per search thread: the paper measures ~180
#: bytes of peak usage; a safe static allocation adds headroom.
LITEOS_SEARCH_STACK = 220
LITEOS_FEEDER_STACK = 64
MAX_TASKS = 24


@dataclass
class Fig8Point:
    tree_nodes: int
    sensmart_tasks: int
    liteos_tasks: int


@dataclass
class Fig8Result:
    points: List[Fig8Point] = field(default_factory=list)

    @property
    def rows(self) -> List[List]:
        return [[p.tree_nodes, p.sensmart_tasks, p.liteos_tasks]
                for p in self.points]

    def render(self) -> str:
        return format_table(
            ["nodes/tree", "SenSmart max tasks", "LiteOS max tasks"],
            self.rows,
            title="Figure 8: schedulable search tasks, equal stack budget")


def _sensmart_max(tree_nodes: int, max_tasks: int) -> int:
    config = KernelConfig(time_slice_cycles=20_000,
                          kernel_data_bytes=LITEOS_STATIC_BYTES)
    best = 0
    for count in range(1, max_tasks + 1):
        sources = [("feeder", feeder_source(nodes_per_tree=tree_nodes,
                                            trees=TREES,
                                            updates=FEEDER_UPDATES))]
        for index in range(count):
            sources.append((
                f"search{index}",
                search_task_source(nodes=tree_nodes, searches=SEARCHES,
                                   seed=0x2468 + 0x1111 * index)))
        try:
            node = SensorNode.from_sources(sources, config=config)
        except OutOfMemory:
            break
        node.run(max_instructions=400_000_000)
        ok = node.finished and all(
            t.exit_reason == "exit" for t in node.kernel.tasks.values())
        if not ok:
            break
        best = count
    return best


def _liteos_max(tree_nodes: int, max_tasks: int) -> int:
    feeder = ThreadSpec(
        "feeder",
        feeder_source(nodes_per_tree=tree_nodes, trees=TREES,
                      updates=FEEDER_UPDATES),
        LITEOS_FEEDER_STACK)

    def make(index: int) -> ThreadSpec:
        return ThreadSpec(
            f"search{index}",
            search_task_source(nodes=tree_nodes, searches=SEARCHES,
                               seed=0x2468 + 0x1111 * index),
            LITEOS_SEARCH_STACK)

    return max_schedulable_threads(
        make, static_data_bytes=LITEOS_STATIC_BYTES,
        limit=max_tasks, extra_threads=[feeder],
        max_cycles=400_000_000)


def compute_point(nodes: int, max_tasks: int = MAX_TASKS) -> Fig8Point:
    """One tree size under both systems (runner-parallelizable)."""
    return Fig8Point(
        tree_nodes=nodes,
        sensmart_tasks=_sensmart_max(nodes, max_tasks),
        liteos_tasks=_liteos_max(nodes, max_tasks))


def run(tree_sizes: List[int] = None,
        max_tasks: int = MAX_TASKS) -> Fig8Result:
    tree_sizes = tree_sizes if tree_sizes is not None \
        else DEFAULT_TREE_SIZES
    return Fig8Result(points=[compute_point(nodes, max_tasks)
                              for nodes in tree_sizes])
