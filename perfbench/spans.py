"""Per-layer spans, recorded from outside the simulator.

A :class:`Tracer` wraps the public entry point of each layer by
patching the attribute its callers look up (a module function, a
method or a classmethod), so nothing under ``src/`` is edited and an
untraced run executes the original objects.  Spans are kept in memory
as ``[name, start_ns, end_ns, parent_row, op]`` rows and written out at
the end of the run.

Parents come from a per-thread stack.  A span that starts on a thread
with an empty stack (the serve worker thread, for instance) is parented
to the current op's root span, so the op id crosses into that thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

#: ``(module, attribute path, span name)`` of every wrapped entry
#: point.  The pipeline stages' ``run`` methods are added at install
#: time from ``default_stages()`` as ``stage.<name>``.
TARGETS = (
    ("repro.pipeline.pipeline", "Pipeline.submit", "pipeline.submit"),
    ("repro.toolchain.compile", "compile_source", "toolchain.assemble"),
    ("repro.rewriter.rewriter", "Rewriter.rewrite", "rewriter.rewrite"),
    ("repro.rewriter.rewriter", "Rewriter.measure_words",
     "rewriter.measure"),
    ("repro.analysis.static.lint", "lint_image", "analysis.lint"),
    ("repro.pipeline.stages", "stack_bounds_dict", "analysis.stack"),
    ("repro.kernel.node", "SensorNode.from_image", "kernel.boot"),
    ("repro.kernel.node", "SensorNode.run", "node.run"),
    ("repro.avr.trace", "TraceCompiler.entry_for", "jit.entry"),
    ("repro.kernel.relocation", "StackRelocator.grow_stack",
     "kernel.relocate"),
    ("repro.fleet.shard", "ShardRuntime.__init__", "fleet.build"),
    ("repro.fleet.shard", "ShardRuntime.advance", "fleet.advance"),
    ("repro.fleet.shard", "ShardRuntime.finalize", "fleet.finalize"),
)

#: Every span name a traced op can contain, root first.
SPAN_NAMES = ("op", "pipeline.submit", "stage.assemble", "stage.rewrite",
              "stage.lint", "stage.precompile", "stage.simulate",
              "stage.verdict") + tuple(name for _, _, name in TARGETS[1:])


def resolve_targets():
    """``(owner, attribute, span name)`` for every entry point."""
    from repro.pipeline.stages import default_stages
    out = []
    for module_name, path, name in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        out.append((owner, attribute, name))
    for stage in default_stages():
        out.append((type(stage), "run", f"stage.{stage.name}"))
    return out


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.root = None
        #: Nodes whose ``run`` was called during the current op.
        self.nodes = {}
        self._local = threading.local()
        self._saved = []

    # -- spans ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        row = [name, time.perf_counter_ns(), 0,
               stack[-1] if stack else self.root, self.op]
        self.spans.append(row)
        stack.append(row)
        return row

    def end(self, row):
        row[2] = time.perf_counter_ns()
        self._stack().pop()

    def begin_op(self, op):
        self.nodes = {}
        self.op = op
        self.root = None
        self.root = self.begin("op")

    def end_op(self):
        self.end(self.root)
        self.root = None
        self.op = None

    # -- wrappers -------------------------------------------------------

    def _wrap(self, function, name):
        tracer = self
        observe = name == "node.run"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if observe:
                tracer.nodes[id(args[0])] = args[0]
            row = tracer.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(row)
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name in resolve_targets():
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, patched)

    def uninstall(self):
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    # -- output ---------------------------------------------------------

    def write(self, path):
        """One JSON object per span, ids by recording order."""
        ids = {id(row): index for index, row in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end,
                    "parent": None if parent is None else ids[id(parent)],
                    "op": op}) + "\n")


def op_profile(rows):
    """Per span name: ``(total_ns, self_ns, count)`` over one op's rows.

    A span's self time is its duration minus its direct children's, so
    the self times of a well-nested op sum exactly to the root span.
    """
    child_ns = defaultdict(int)
    for row in rows:
        if row[3] is not None:
            child_ns[id(row[3])] += row[2] - row[1]
    profile = defaultdict(lambda: [0, 0, 0])
    for row in rows:
        duration = row[2] - row[1]
        entry = profile[row[0]]
        entry[0] += duration
        entry[1] += duration - child_ns[id(row)]
        entry[2] += 1
    return profile


def node_counts(nodes):
    """Exact per-op counts summed over the nodes an op ran, read from
    ``KernelStats``, ``TraceStats`` and ``SpecializerStats``."""
    counts = defaultdict(int)
    for node in nodes:
        kernel = node.kernel
        stats = kernel.stats
        counts["instret"] += node.cpu.instret
        counts["relocations"] += stats.relocations
        counts["relocation_bytes"] += stats.relocation_bytes
        counts["context_switches"] += stats.context_switches
        counts["traps"] += sum(stats.trap_counts.values())
        counts["kernel_cycles"] += stats.kernel_cycles
        if kernel.tracer is not None:
            counts["traces_compiled"] += kernel.tracer.stats.compiled
            counts["rebinds"] += kernel.tracer.stats.cache_hits
            counts["declined"] += kernel.tracer.stats.declined
        if kernel.specializer is not None:
            counts["blocks_specialized"] += \
                kernel.specializer.stats.compiled
            counts["deopts"] += kernel.specializer.stats.deopts
    return counts


def layer_metrics(profile, counts):
    """The per-layer metrics of one op, from its span profile and the
    exact counts gathered around it (``counts`` also carries the build
    odometer delta, the stage runs and the fleet's byte counts)."""

    def total_ms(name):
        return profile[name][0] / 1e6 if name in profile else 0.0

    def self_ms(name):
        return profile[name][1] / 1e6 if name in profile else 0.0

    def calls(name):
        return profile[name][2] if name in profile else 0

    run_ms = total_ms("node.run")
    entries = calls("jit.entry")
    submit_ms = total_ms("pipeline.submit")
    metrics = {
        "toolchain.assemble_ms": total_ms("toolchain.assemble"),
        "toolchain.assembles": counts["assembles"],
        "rewriter.rewrite_ms": total_ms("rewriter.rewrite")
        + total_ms("rewriter.measure"),
        "analysis.lint_ms": total_ms("analysis.lint"),
        "analysis.stack_ms": total_ms("analysis.stack"),
        "kernel.boot_ms": total_ms("kernel.boot"),
        "sim.run_ms": run_ms,
        "sim.ns_per_instr": run_ms * 1e6 / counts["instret"]
        if counts["instret"] else 0.0,
        "jit.entry_ms": total_ms("jit.entry"),
        "jit.traces_compiled": counts["traces_compiled"],
        "jit.blocks_specialized": counts["blocks_specialized"],
        "jit.deopts": counts["deopts"],
        "jit.rebinds": counts["rebinds"],
        "jit.declined": counts["declined"],
        "jit.rebind_ratio": counts["rebinds"] / entries if entries
        else 0.0,
        "serve.overhead_ms": total_ms("op") - submit_ms if submit_ms
        else 0.0,
        "pipeline.stage_runs": sum(calls(name) for name in profile
                                   if name.startswith("stage.")),
        "kernel.relocate_ms": total_ms("kernel.relocate"),
        "kernel.relocations": counts["relocations"],
        "kernel.relocation_bytes": counts["relocation_bytes"],
        "kernel.context_switches": counts["context_switches"],
        "kernel.traps": counts["traps"],
        "kernel.kernel_cycles": counts["kernel_cycles"],
        "fleet.build_ms": total_ms("fleet.build"),
        "fleet.finalize_ms": total_ms("fleet.finalize"),
        "node.run_ms": run_ms,
        "node.slices": calls("node.run"),
        "net.self_ms": self_ms("fleet.advance"),
        "net.delivered": counts["delivered"],
        "net.dropped": counts["dropped"],
    }
    for name in SPAN_NAMES:
        metrics[f"self.{name}_ms"] = self_ms(name)
    metrics["trace.self_sum_ms"] = sum(entry[1] for entry in
                                       profile.values()) / 1e6
    return metrics
