"""Static firmware analysis: CFG/call-graph, stack bounds, soundness lint.

Three passes over compiled (and naturalized) programs:

* :mod:`.cfg` — basic-block control-flow graph and call graph, with
  one-pass heuristic resolution of ``IJMP``/``ICALL`` targets;
* :mod:`.stackdepth` — worst-case stack-depth bounds per function and
  per task, with recursion-cycle detection;
* :mod:`.lint` — the rewriter soundness linter: re-disassembles a
  naturalized image and proves every patch site is covered and no
  un-trapped instruction can reach OS-reserved state.
"""

from .cfg import ControlFlowGraph, build_cfg
from .lint import LintFinding, LintReport, lint_image, lint_sources
from .stackdepth import INFINITE_DEPTH, StackAnalysis, analyze_program

__all__ = [
    "ControlFlowGraph", "build_cfg",
    "INFINITE_DEPTH", "StackAnalysis", "analyze_program",
    "LintFinding", "LintReport", "lint_image", "lint_sources",
]
