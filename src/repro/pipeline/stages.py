"""The staged build path: assemble → rewrite → lint → precompile →
simulate → verdict.

Two layers live here:

* **Work functions** (:func:`measure_programs`, :func:`link_programs`,
  :func:`lint_linked_image`, :func:`naturalize_at`) — the only code in
  the repository that invokes the assembler, the rewriter or the
  soundness linter.  ``toolchain.linker.link_image`` and the kernel's
  :class:`~repro.kernel.loader.DynamicLoader` both call through them,
  so the process-wide :data:`COUNTERS` see *every* unit of build work
  no matter which door it entered by — that is what lets the cache
  tests assert "a warm submission assembled and rewrote nothing".

* **Stage classes** — thin deterministic wrappers the
  :class:`~repro.pipeline.pipeline.Pipeline` sequences and caches by
  content key.  A stage with ``persistent=True`` produces pure JSON
  data and may be served from the on-disk artifact store across
  processes; a stage with ``cacheable=False`` (the node build) is
  never cached because its value is consumed by the stage after it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import LinkError
from .report import (VERDICT_SCHEMA, jit_stats_dict, lint_report_dict,
                     rewrite_report_dict, run_report_dict,
                     stack_bounds_dict)


@dataclass
class StageCounters:
    """Process-wide build-work odometer.

    Counts *units of real work* (one program assembled, one program
    rewritten, one image linted, one node booted, one simulation run),
    not cache traffic.  ``snapshot()``/``delta()`` let tests assert
    that a warm path performed zero work of a given kind.
    """

    counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self._lock = threading.Lock()

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counts)

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Work performed since *before* (zero counts omitted)."""
        now = self.snapshot()
        keys = set(now) | set(before)
        return {key: now.get(key, 0) - before.get(key, 0)
                for key in sorted(keys)
                if now.get(key, 0) != before.get(key, 0)}


#: The process-wide instance every work function bumps.
COUNTERS = StageCounters()


# -- work functions -------------------------------------------------------------
#
# ``link_image`` is split into its two passes so the pipeline can cache
# them separately: pass 1 (assemble + measure) is placement-independent
# and pure data; pass 2+3 (re-assemble at final bases, rewrite into the
# shared trampoline pool, place and resolve) produces the live image.


def measure_programs(sources: Sequence[Tuple[str, str]], rewriter) \
        -> Tuple[List[int], List[dict]]:
    """Link pass 1: assemble each program at origin 0 and measure its
    naturalized size.  Returns ``(sizes, metadata)`` where metadata is
    the JSON-able per-program summary the verdict reports."""
    from ..toolchain.compile import compile_source
    sizes: List[int] = []
    metas: List[dict] = []
    for name, source in sources:
        COUNTERS.bump("assemble")
        probe = compile_source(source, name=name, origin=0)
        size = rewriter.measure_words(probe)
        sizes.append(size)
        metas.append({
            "name": name,
            "native_bytes": probe.size_bytes,
            "naturalized_words": size,
            "heap_bytes": probe.symbols.heap_size,
            "instructions": len(probe.instructions),
        })
    return sizes, metas


def link_programs(sources: Sequence[Tuple[str, str]],
                  sizes: Sequence[int], rewriter,
                  merge_trampolines: bool = True,
                  code_start: Optional[int] = None):
    """Link passes 2+3: re-assemble at final bases, rewrite into one
    shared trampoline pool, place the pool and resolve every site."""
    from ..rewriter.trampoline import TrampolinePool
    from ..toolchain.compile import compile_source
    from ..toolchain.image import (KERNEL_CODE_WORDS, TargetImage,
                                   TaskImage)
    if code_start is None:
        code_start = KERNEL_CODE_WORDS
    pool = TrampolinePool(merge=merge_trampolines)
    tasks: List[TaskImage] = []
    cursor = code_start
    for (name, source), size in zip(sources, sizes):
        COUNTERS.bump("assemble")
        program = compile_source(source, name=name, origin=cursor)
        COUNTERS.bump("rewrite")
        natural = rewriter.rewrite(program, pool)
        if natural.size_words != size:
            raise LinkError(
                f"{name}: naturalized size changed between passes "
                f"({size} -> {natural.size_words} words)")
        tasks.append(TaskImage(name=name, natural=natural))
        cursor += size
    trap_lo = cursor
    trap_hi = pool.place(trap_lo)
    for task in tasks:
        task.natural.resolve(pool)
    COUNTERS.bump("link")
    return TargetImage(tasks=tasks, pool=pool,
                       trap_region=(trap_lo, trap_hi),
                       code_start=code_start)


def lint_linked_image(image):
    """Run the rewriter-soundness linter over a linked image."""
    from ..analysis.static.lint import lint_image
    COUNTERS.bump("lint")
    return lint_image(image)


def naturalize_at(name: str, source: str, base: int, pool, rewriter):
    """Assemble + rewrite one program at *base* into *pool* — the
    dynamic loader's install path, counted like any other build."""
    from ..toolchain.compile import compile_source
    COUNTERS.bump("assemble")
    program = compile_source(source, name=name, origin=base)
    COUNTERS.bump("rewrite")
    return rewriter.rewrite(program, pool)


# -- pipeline stages ------------------------------------------------------------


class Stage:
    """One deterministic step; the pipeline keys it by content."""

    name = ""
    version = 1
    #: True — the stage's value is pure JSON data: cache it on disk and
    #: serve it across processes.  False — the value is a live object:
    #: cache it in memory only.
    persistent = False
    #: False — never cache (the value is consumed by a later stage).
    cacheable = True

    def run(self, pipeline, request, ctx):
        raise NotImplementedError


class AssembleStage(Stage):
    """Assemble every program and measure naturalized sizes (pass 1)."""

    name = "assemble"
    persistent = True

    def run(self, pipeline, request, ctx):
        from ..rewriter.rewriter import Rewriter
        sizes, metas = measure_programs(request.sources, Rewriter())
        return {"sizes": sizes, "programs": metas}


class RewriteStage(Stage):
    """Rewrite + link at final placement (passes 2+3).  The value holds
    the live image; only its report survives to disk via the verdict."""

    name = "rewrite"

    def run(self, pipeline, request, ctx):
        from ..rewriter.rewriter import Rewriter
        image = link_programs(request.sources, ctx["assemble"]["sizes"],
                              Rewriter())
        return {"image": image, "report": rewrite_report_dict(image)}


class LintStage(Stage):
    """Soundness lint + static stack bounds over the linked image."""

    name = "lint"
    #: Bumped whenever the fields of the lint report change.
    version = 2
    persistent = True

    def run(self, pipeline, request, ctx):
        image = ctx["rewrite"]["image"]
        report = lint_linked_image(image)
        return {"lint": lint_report_dict(report),
                "stack": stack_bounds_dict(image)}


class PrecompileStage(Stage):
    """Boot a node from the linked image, ready to simulate.

    Never cached: the node is consumed (run) by the simulate stage, so
    a reuse would continue a finished run instead of starting one.  The
    node gets a *private* superblock cache — sharing the process-wide
    one would leak cache-warmth into the verdict's jit counters, and a
    content-addressed artifact must not depend on process history.
    """

    name = "precompile"
    cacheable = False

    def run(self, pipeline, request, ctx):
        from ..kernel import SensorNode
        COUNTERS.bump("precompile")
        return SensorNode.from_image(ctx["rewrite"]["image"],
                                     config=pipeline.config,
                                     block_cache=False)


class SimulateStage(Stage):
    """Run the node to completion (or the request's budget) and report
    the outcome, including the bit-exact final-state digest."""

    name = "simulate"
    #: Bumped whenever the JIT counters the report carries change for
    #: the same input, so stored verdicts never serve stale counters.
    version = 5
    persistent = True

    def run(self, pipeline, request, ctx):
        node = ctx["precompile"]
        COUNTERS.bump("simulate")
        node.run(max_instructions=request.max_instructions,
                 max_cycles=request.max_cycles)
        return {"run": run_report_dict(node), "jit": jit_stats_dict(node)}


class VerdictStage(Stage):
    """Fold every stage's report into the one JSON verdict."""

    name = "verdict"
    persistent = True

    def run(self, pipeline, request, ctx):
        COUNTERS.bump("verdict")
        return {
            "schema": VERDICT_SCHEMA,
            "key": request.content_key(),
            "programs": [name for name, _ in request.sources],
            "options": request.options_dict(),
            "assemble": ctx["assemble"]["programs"],
            "rewrite": ctx["rewrite"]["report"],
            "lint": ctx["lint"]["lint"],
            "stack": ctx["lint"]["stack"],
            "simulation": ctx["simulate"]["run"],
            "jit": ctx["simulate"]["jit"],
        }


def default_stages() -> List[Stage]:
    return [AssembleStage(), RewriteStage(), LintStage(),
            PrecompileStage(), SimulateStage(), VerdictStage()]
