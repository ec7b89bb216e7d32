"""Extra experiment: static stack bounds vs observed runtime peaks.

The paper's motivation (Section I) is that static, worst-case stack
provisioning is wasteful — or outright impossible for recursive tasks —
while SenSmart sizes stacks dynamically.  This experiment quantifies
that claim with the new static analyzer:

* for every task of the bundled workloads, the call-graph analyzer
  computes the a-priori worst-case stack bound; the same image then
  runs to completion and the kernel's high-water mark
  (``task.max_stack_used``) gives the observed peak;
* soundness: every bound must dominate its observed peak (recursive
  tasks are *unbounded*, which dominates trivially — and is precisely
  why static provisioning cannot handle them);
* the gap between the two is the memory a static allocator would have
  wasted, aggregated into a savings figure;
* the rewriter soundness linter runs over every image and its patch-site
  coverage is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_table
from ..analysis.static import (INFINITE_DEPTH, analyze_program,
                               lint_image)
from ..kernel import KernelConfig, SensorNode
from ..workloads.bintree import feeder_source, search_task_source
from ..workloads.kernelbench import KERNEL_BENCHMARKS

#: Table I's probe program (a minimal bounded task).
_PROBE = """
main:
    ldi r16, 1
loop:
    dec r16
    brne loop
    break
"""

#: Table II's relocation pair: a deep recursive consumer plus spinners
#: that donate stack space.
def _needy(depth: int) -> str:
    return f"""
main:
    ldi r24, {depth}
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


_SPINNER = """
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

#: A task with a statically-reachable but never-taken error path that
#: calls a deep handler: the classic case where worst-case provisioning
#: reserves far more RAM than the program ever uses.
_ERRPATH = """
main:
    ldi r16, 8
    ldi r17, 0
loop:
    push r16
    pop r16
    cpi r17, 1
    brne cont
    call deep
cont:
    dec r16
    brne loop
    break
deep:
    push r2
    push r3
    push r4
    push r5
    push r6
    push r7
    push r8
    push r9
    push r10
    push r11
    push r12
    push r13
    call deeper
    pop r13
    pop r12
    pop r11
    pop r10
    pop r9
    pop r8
    pop r7
    pop r6
    pop r5
    pop r4
    pop r3
    pop r2
    ret
deeper:
    push r14
    push r15
    pop r15
    pop r14
    ret
"""

#: Benchmark iteration counts for the quick (CI) variant.
_QUICK_PARAMS: Dict[str, dict] = {
    "am": {"packets": 2},
    "amplitude": {"samples": 8},
    "crc": {"rounds": 2},
    "eventchain": {"rounds": 8},
    "lfsr": {"steps": 512},
    "readadc": {"samples": 8},
    "timer": {"ticks": 32},
}

WORKLOAD_NAMES = ("table1", "table2", "kernelbench", "bintree",
                  "errpath")


def _workload_sources(workload: str,
                      quick: bool) -> List[Tuple[str, str]]:
    if workload == "table1":
        return [("probe", _PROBE)]
    if workload == "table2":
        return [("spin_a", _SPINNER),
                ("needy", _needy(8 if quick else 60)),
                ("spin_b", _SPINNER)]
    if workload == "kernelbench":
        params = _QUICK_PARAMS if quick else {}
        return [(name, KERNEL_BENCHMARKS[name](**params.get(name, {})))
                for name in sorted(KERNEL_BENCHMARKS)]
    if workload == "bintree":
        if quick:
            return [("search", search_task_source(nodes=10, searches=4,
                                                  period_ticks=64)),
                    ("feeder", feeder_source(nodes_per_tree=10, trees=2,
                                             updates=8,
                                             period_ticks=64))]
        return [("search", search_task_source()),
                ("feeder", feeder_source())]
    if workload == "errpath":
        return [("errpath", _ERRPATH)]
    raise KeyError(workload)


@dataclass
class BoundRow:
    """Static bound vs observed peak for one task."""

    workload: str
    task: str
    bound: float                 # bytes; INFINITE_DEPTH when unbounded
    observed: int                # kernel high-water mark, bytes
    recursive: bool
    finished: bool               # task ran to completion (or was
                                 # terminated by the kernel, for needy)

    @property
    def holds(self) -> bool:
        return self.bound >= self.observed

    @property
    def bound_text(self) -> str:
        return "unbounded" if self.bound == INFINITE_DEPTH \
            else str(int(self.bound))

    @property
    def slack_text(self) -> str:
        if self.bound == INFINITE_DEPTH:
            return "-"
        return str(int(self.bound) - self.observed)


@dataclass
class LintRow:
    workload: str
    sites_total: int
    sites_verified: int
    violations: int

    @property
    def coverage(self) -> float:
        if self.sites_total == 0:
            return 1.0
        return self.sites_verified / self.sites_total


@dataclass
class StaticResult:
    """Bound-vs-peak comparison plus lint coverage for all workloads."""

    bound_rows: List[BoundRow] = field(default_factory=list)
    lint_rows: List[LintRow] = field(default_factory=list)

    @property
    def all_bounds_hold(self) -> bool:
        return all(row.holds for row in self.bound_rows)

    @property
    def all_lint_ok(self) -> bool:
        return all(row.violations == 0 and row.coverage == 1.0
                   for row in self.lint_rows)

    @property
    def unbounded_tasks(self) -> List[str]:
        return [f"{row.workload}/{row.task}" for row in self.bound_rows
                if row.bound == INFINITE_DEPTH]

    @property
    def static_provision_bytes(self) -> int:
        """Bytes a static allocator reserves for the *bounded* tasks."""
        return sum(int(row.bound) for row in self.bound_rows
                   if row.bound != INFINITE_DEPTH)

    @property
    def observed_bytes(self) -> int:
        """Observed peaks of the same bounded tasks."""
        return sum(row.observed for row in self.bound_rows
                   if row.bound != INFINITE_DEPTH)

    @property
    def savings_bytes(self) -> int:
        return self.static_provision_bytes - self.observed_bytes

    def row_for(self, workload: str, task: str) -> BoundRow:
        for row in self.bound_rows:
            if row.workload == workload and row.task == task:
                return row
        raise KeyError((workload, task))

    def render(self) -> str:
        bounds = format_table(
            ["workload", "task", "static bound (B)", "observed peak (B)",
             "slack (B)", "recursive", "bound holds"],
            [[r.workload, r.task, r.bound_text, r.observed,
              r.slack_text, r.recursive, r.holds]
             for r in self.bound_rows],
            title="Extra: static worst-case stack bounds vs observed "
                  "runtime peaks")
        lint = format_table(
            ["workload", "patch sites", "verified", "coverage",
             "violations"],
            [[r.workload, r.sites_total, r.sites_verified,
              f"{100 * r.coverage:.1f}%", r.violations]
             for r in self.lint_rows],
            title="Rewriter soundness lint over the same images")
        unbounded = ", ".join(self.unbounded_tasks) or "none"
        summary = "\n".join([
            f"bounds hold for every task : {self.all_bounds_hold}",
            f"statically unbounded tasks : {unbounded} "
            f"(impossible to provision a priori)",
            f"static provisioning        : "
            f"{self.static_provision_bytes} B for the bounded tasks",
            f"observed (SenSmart demand)  : {self.observed_bytes} B",
            f"memory saved by dynamic mgmt: {self.savings_bytes} B",
        ])
        return "\n\n".join([bounds, lint, summary])


def compute_workload(workload: str,
                     quick: bool = False) -> Tuple[List[BoundRow],
                                                   LintRow]:
    """Analyze + lint + run one workload image (a runner work unit)."""
    sources = _workload_sources(workload, quick)
    node = SensorNode.from_sources(
        sources, config=KernelConfig(time_slice_cycles=20_000))
    image = node.kernel.image

    report = lint_image(image)
    lint_row = LintRow(workload=workload,
                       sites_total=report.sites_total,
                       sites_verified=report.sites_verified,
                       violations=len(report.findings))

    analyses = {task.name: analyze_program(task.natural.program)
                for task in image.tasks}

    node.run(max_instructions=100_000_000)
    rows: List[BoundRow] = []
    for task in node.kernel.tasks.values():
        analysis = analyses[task.name]
        rows.append(BoundRow(
            workload=workload, task=task.name,
            bound=analysis.bound,
            observed=task.max_stack_used,
            recursive=bool(analysis.recursion_cycles),
            finished=node.finished))
    return rows, lint_row


def run(quick: bool = False,
        workloads: Optional[Tuple[str, ...]] = None) -> StaticResult:
    result = StaticResult()
    for workload in workloads or WORKLOAD_NAMES:
        rows, lint_row = compute_workload(workload, quick=quick)
        result.bound_rows.extend(rows)
        result.lint_rows.append(lint_row)
    return result


def merge(chunks: List[Tuple[List[BoundRow], LintRow]]) -> StaticResult:
    """Merge per-workload runner units into one result."""
    result = StaticResult()
    for rows, lint_row in chunks:
        result.bound_rows.extend(rows)
        result.lint_rows.append(lint_row)
    return result
