"""Static firmware analysis: CFG/call-graph, stack bounds, soundness lint.

Four cooperating passes over compiled (and naturalized) programs:

* :mod:`.cfg` — basic-block control-flow graph and call graph, with
  conservative resolution of ``IJMP``/``ICALL`` targets;
* :mod:`.stackdepth` — worst-case stack-depth bounds per function and
  per task, with recursion-cycle detection;
* :mod:`.dataflow` / :mod:`.values` — forward abstract interpretation
  (constants, intervals, region-relative pointers) that narrows
  indirect targets;
* :mod:`.lint` — the rewriter soundness linter: re-disassembles a
  naturalized image and proves every patch site is covered and no
  un-trapped instruction can reach OS-reserved state.
"""

from .cfg import ControlFlowGraph, build_cfg
from .dataflow import (DataflowAnalysis, analyze_image,
                       resolve_indirect_targets)
from .lint import LintFinding, LintReport, lint_image, lint_sources
from .liveness import (ALL_FLAGS, SregLiveness, block_transfer,
                       sreg_effects, sreg_liveness)
from .stackdepth import INFINITE_DEPTH, StackAnalysis, analyze_program
from .values import AbsState, Interval, Word

__all__ = [
    "ControlFlowGraph", "build_cfg",
    "INFINITE_DEPTH", "StackAnalysis", "analyze_program",
    "DataflowAnalysis", "analyze_image", "resolve_indirect_targets",
    "AbsState", "Interval", "Word",
    "LintFinding", "LintReport", "lint_image", "lint_sources",
    "ALL_FLAGS", "SregLiveness", "block_transfer",
    "sreg_effects", "sreg_liveness",
]
