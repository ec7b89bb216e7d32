"""Worst-case stack-depth bounds from the call graph.

The paper's premise is that a-priori worst-case stack sizing is
impractical — tasks must be provisioned for a depth they almost never
reach, and recursion cannot be bounded at all.  This pass computes that
static bound so the experiments can quantify exactly how much memory
SenSmart's dynamic stack management saves over static provisioning.

Per function (call-graph node): an intraprocedural fixpoint over the
CFG propagates the stack depth at each block entry (``max`` over
predecessors), accumulating PUSH/POP/CALL frame effects.  A loop whose
body has a net-positive stack effect diverges and is reported as
unbounded.  Interprocedurally, a memoized DFS combines function bounds
(``depth at call site + callee bound``); recursion cycles make every
function on the cycle — and its callers — unbounded.

Depth units are bytes, measured exactly as the kernel's high-water mark
(:attr:`Task.max_stack_used`): PUSH adds 1, CALL/RCALL/ICALL add 2 for
the return address, POP/RET remove the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..report import format_table
from .cfg import ControlFlowGraph, build_cfg

#: Bound value for unbounded (recursive or diverging) stack growth.
INFINITE_DEPTH = float("inf")


@dataclass(frozen=True)
class FunctionStackSummary:
    """Stack facts for one call-graph node."""

    entry: int
    name: str
    local_peak: int        # bytes, callees excluded
    bound: float           # bytes, callees included; inf when unbounded
    recursive: bool
    calls: Tuple[Tuple[int, int, int], ...]  # (site, depth at call, callee)


@dataclass
class StackAnalysis:
    """Whole-task result of the stack-depth analysis."""

    name: str
    entry: int
    bound: float           # worst-case bytes from the task entry
    functions: Dict[int, FunctionStackSummary] = field(default_factory=dict)
    recursion_cycles: List[Tuple[int, ...]] = field(default_factory=list)
    diagnostics: List[str] = field(default_factory=list)

    @property
    def bounded(self) -> bool:
        return self.bound != INFINITE_DEPTH

    def describe_bound(self) -> str:
        if self.bounded:
            return str(int(self.bound))
        if self.recursion_cycles:
            return "unbounded (recursion)"
        return "unbounded (diverging loop)"

    def function_by_name(self, name: str) -> FunctionStackSummary:
        for summary in self.functions.values():
            if summary.name == name:
                return summary
        raise KeyError(name)

    def render(self) -> str:
        rows = []
        for entry in sorted(self.functions):
            summary = self.functions[entry]
            bound = str(int(summary.bound)) \
                if summary.bound != INFINITE_DEPTH else "inf"
            rows.append([summary.name, f"{entry:#06x}",
                         summary.local_peak, bound,
                         "yes" if summary.recursive else "no"])
        table = format_table(
            ["function", "entry", "local peak", "bound", "recursive"],
            rows,
            title=f"static stack bounds for {self.name!r}: "
                  f"{self.describe_bound()} bytes")
        return "\n".join([table, *self.diagnostics])


def _function_name(entry: int, labels: Dict[str, int]) -> str:
    for name, address in labels.items():
        if address == entry:
            return name
    return f"fn_{entry:#06x}"


def _local_analysis(cfg: ControlFlowGraph, entry: int,
                    diagnostics: List[str],
                    name: str) -> Tuple[int, List[Tuple[int, int, int]],
                                        bool]:
    """(local peak, call list, diverges) for the function at *entry*."""
    if entry not in cfg.nodes:
        diagnostics.append(
            f"{name}: entry {entry:#06x} is not executable code")
        return 0, [], False
    entry_depth: Dict[int, int] = {entry: 0}
    updates: Dict[int, int] = {}
    limit = len(cfg.nodes) + 4
    peak = 0
    calls: Dict[Tuple[int, int], int] = {}  # (site, callee) -> max depth
    underflow_reported = False
    work = [entry]
    while work:
        start = work.pop()
        node = cfg.nodes[start]
        depth = entry_depth[start]
        call_sites = {}
        for site, callee in node.calls:
            call_sites.setdefault(site, []).append(callee)
        for ins in node.block.instructions:
            mnemonic = ins.mnemonic
            if mnemonic == "PUSH":
                depth += 1
                peak = max(peak, depth)
            elif mnemonic == "POP":
                depth -= 1
                if depth < 0 and not underflow_reported:
                    diagnostics.append(
                        f"{name}: POP at {ins.address:#06x} pops below "
                        f"the frame on some path")
                    underflow_reported = True
                    depth = 0
            elif mnemonic in ("CALL", "RCALL", "ICALL"):
                peak = max(peak, depth + 2)
                for callee in call_sites.get(ins.address, ()):
                    key = (ins.address, callee)
                    calls[key] = max(calls.get(key, 0), depth + 2)
        for successor in node.successors:
            known = entry_depth.get(successor)
            if known is None or depth > known:
                entry_depth[successor] = depth
                updates[successor] = updates.get(successor, 0) + 1
                if updates[successor] > limit:
                    diagnostics.append(
                        f"{name}: stack depth grows without bound around "
                        f"the loop entering {successor:#06x}")
                    return peak, [(site, d, callee) for (site, callee), d
                                  in sorted(calls.items())], True
                work.append(successor)
    return peak, [(site, depth, callee) for (site, callee), depth
                  in sorted(calls.items())], False


def analyze_program(program,
                    cfg: Optional[ControlFlowGraph] = None,
                    ) -> StackAnalysis:
    """Analyze a compiled :class:`~repro.toolchain.program.Program`."""
    labels = dict(program.symbols.labels)
    if cfg is None:
        cfg = build_cfg(program.items, program.entry, labels)
    analysis = StackAnalysis(name=program.name, entry=program.entry,
                             bound=0.0)
    if cfg.unresolved_indirect:
        sites = ", ".join(f"{a:#06x}" for a in cfg.unresolved_indirect)
        analysis.diagnostics.append(
            f"indirect branches at {sites} resolved conservatively to "
            f"every label")

    locals_: Dict[int, Tuple[int, List[Tuple[int, int, int]], bool]] = {}
    entries = sorted(cfg.function_entries())
    for entry in entries:
        name = _function_name(entry, labels)
        locals_[entry] = _local_analysis(cfg, entry, analysis.diagnostics,
                                         name)

    # Interprocedural bound: memoized DFS with cycle detection.
    WHITE, GREY, DONE = 0, 1, 2
    color: Dict[int, int] = {entry: WHITE for entry in entries}
    bounds: Dict[int, float] = {}
    recursive: Set[int] = set()
    stack: List[int] = []

    def visit(entry: int) -> float:
        if color.get(entry, WHITE) == DONE:
            return bounds[entry]
        if color.get(entry) == GREY:
            cycle = tuple(stack[stack.index(entry):])
            if cycle not in analysis.recursion_cycles:
                analysis.recursion_cycles.append(cycle)
            recursive.update(cycle)
            return INFINITE_DEPTH
        color[entry] = GREY
        stack.append(entry)
        local_peak, calls, diverges = locals_.get(entry, (0, [], False))
        bound: float = float(local_peak)
        if diverges:
            bound = INFINITE_DEPTH
        for _site, depth_at_call, callee in calls:
            callee_bound = visit(callee)
            bound = max(bound, depth_at_call + callee_bound)
        stack.pop()
        color[entry] = DONE
        bounds[entry] = bound
        return bound

    for entry in entries:
        visit(entry)
    # A function on a recursion cycle is unbounded even if the DFS
    # memoized a finite partial bound before the cycle closed.
    for entry in entries:
        if entry in recursive:
            bounds[entry] = INFINITE_DEPTH

    def lift(entry: int) -> float:
        """Re-evaluate with recursion-poisoned callees."""
        local_peak, calls, diverges = locals_.get(entry, (0, [], False))
        if diverges or entry in recursive:
            return INFINITE_DEPTH
        bound: float = float(local_peak)
        for _site, depth_at_call, callee in calls:
            bound = max(bound, depth_at_call + bounds[callee])
        return bound

    # One propagation sweep in reverse topological order (entries whose
    # callees are already final) — iterate to a fixpoint for safety.
    for _ in range(len(entries) + 1):
        changed = False
        for entry in entries:
            lifted = lift(entry)
            if lifted != bounds[entry]:
                bounds[entry] = lifted
                changed = True
        if not changed:
            break

    for entry in entries:
        local_peak, calls, _diverges = locals_.get(entry, (0, [], False))
        analysis.functions[entry] = FunctionStackSummary(
            entry=entry, name=_function_name(entry, labels),
            local_peak=local_peak, bound=bounds[entry],
            recursive=entry in recursive, calls=tuple(calls))
    analysis.bound = bounds.get(program.entry, 0.0)
    return analysis
