"""One JSON report schema for the pipeline verdict and the CLI.

``sensmart serve`` verdicts, ``sensmart lint --json`` and
``sensmart run --stats --json`` are assembled from the same builder
functions below, so a consumer parses one schema no matter which door
the data came through.  Everything returned is plain JSON data —
stable keys, no live objects.
"""

from __future__ import annotations

from ..fingerprint import content_key

#: Schema tags, versioned independently of the store formats.
VERDICT_SCHEMA = "sensmart-verdict/2"
LINT_SCHEMA = "sensmart-lint/2"
ANALYZE_SCHEMA = "sensmart-analyze/2"
RUN_SCHEMA = "sensmart-run/1"
SERVE_STATS_SCHEMA = "sensmart-serve-stats/1"
FLEET_SCHEMA = "sensmart-fleet/1"
CHAOS_SCHEMA = "sensmart-chaos/1"
ATTACK_SCHEMA = "sensmart-attack/1"


def fleet_report_dict(result, timing: bool = False) -> dict:
    """JSON form of a :class:`~repro.fleet.FleetResult`.

    Everything outside the ``timing`` block is deterministic for a
    given (spec, shards) pair — including ``digest``, which is
    bit-identical across shard counts; timing is host-dependent and
    therefore opt-in.
    """
    report = {
        "label": result.label,
        "nodes": result.nodes,
        "links": result.links,
        "cross_links": result.cross_links,
        "shards": result.shards,
        "rounds": result.rounds,
        "finished_nodes": result.finished_nodes,
        "max_node_cycles": result.max_node_cycles,
        "total_instret": result.total_instret,
        "bytes": {
            "delivered": result.delivered,
            "dropped": result.dropped,
            "corrupted": result.corrupted,
            "duplicated": result.duplicated,
            "cross_shard_ferried": result.cross_bytes,
        },
        "faults": dict(result.fault_counts),
        "primed_images": result.primed_images,
        "compiled_per_shard": list(result.compiled_per_shard),
        "digest": result.digest,
    }
    if timing:
        report["timing"] = {
            "metric": "critical_path_cpu_seconds",
            "wall_s": round(result.wall_s, 6),
            "prime_s": round(result.prime_s, 6),
            "coordinator_cpu_s": round(result.coordinator_cpu_s, 6),
            "shard_cpu_s": [round(b, 6) for b in result.busy_s],
            "critical_path_s": round(result.critical_path_s, 6),
            "nodes_per_sec": round(result.nodes_per_sec, 3),
        }
    return report


def lint_report_dict(report) -> dict:
    """JSON form of an :class:`~repro.analysis.static.lint.LintReport`."""
    return {
        "ok": report.ok,
        "coverage": round(report.coverage, 6),
        "sites_total": report.sites_total,
        "sites_verified": report.sites_verified,
        "shift_entries": report.shift_entries,
        "instructions_scanned": report.instructions_scanned,
        "trampolines": report.trampolines,
        "findings": [
            {"check": finding.check, "program": finding.program,
             "address": finding.address,
             "kind": finding.kind.value if finding.kind else None,
             "message": finding.message}
            for finding in report.findings
        ],
    }


def analyze_report_dict(image) -> dict:
    """JSON form of the ``sensmart analyze`` dataflow summary: per-task
    site counts and indirect-control resolution quality."""
    from ..analysis.static import analyze_image
    tasks = analyze_image(image)
    return {
        "tasks": tasks,
        "sites_total": sum(row["sites"] for row in tasks),
        "unresolved_indirect": sum(row["unresolved_indirect"]
                                   for row in tasks),
    }


def stack_bounds_dict(image) -> dict:
    """Static worst-case stack bounds per task of a linked image."""
    from ..analysis.static import INFINITE_DEPTH, analyze_program
    bounds = {}
    for task in image.tasks:
        analysis = analyze_program(task.natural.program)
        bounded = analysis.bound != INFINITE_DEPTH
        bounds[task.name] = {
            "bounded": bounded,
            "bound_bytes": int(analysis.bound) if bounded else None,
            "description": analysis.describe_bound(),
        }
    return bounds


def image_fingerprint(image) -> str:
    """Content key of a linked image: every task's placed words plus
    the trampoline region geometry."""
    return content_key(
        [(task.name, task.natural.base, task.natural.words)
         for task in image.tasks],
        list(image.trap_region), image.code_start)


def rewrite_report_dict(image) -> dict:
    """Inflation accounting of a linked image (Figure 4 decomposition)."""
    tasks = []
    for task in image.tasks:
        stats = task.natural.stats
        tasks.append({
            "name": task.name,
            "base": task.natural.base,
            "entry": task.natural.entry,
            "heap_bytes": task.heap_size,
            "native_bytes": stats.native_bytes,
            "rewritten_bytes": stats.rewritten_bytes,
            "shift_table_bytes": stats.shift_table_bytes,
            "trampoline_bytes": stats.trampoline_bytes,
            "patched_sites": stats.patched_sites,
            "grouped_sites": stats.grouped_sites,
            "inflation_ratio": round(stats.inflation_ratio, 6),
        })
    return {
        "tasks": tasks,
        "trap_region": list(image.trap_region),
        "trampolines": image.pool.count,
        "trampoline_requests": image.pool.requests,
        "image_fingerprint": image_fingerprint(image),
    }


def run_report_dict(node) -> dict:
    """Execution outcome of one node run (shared by ``sensmart run
    --json`` and the verdict's ``simulation`` section)."""
    kernel = node.kernel
    stats = kernel.stats
    tasks = {}
    for task in kernel.tasks.values():
        tasks[task.name] = {
            "task_id": task.task_id,
            "state": task.state.value,
            "exit_reason": task.exit_reason or None,
            "cycles_used": task.cycles_used,
            "kernel_cycles": task.kernel_cycles,
            "max_stack_used": task.max_stack_used,
        }
    return {
        "finished": node.finished,
        "cycles": node.cpu.cycles,
        "instructions": node.cpu.instret,
        "tasks": tasks,
        "context_switches": stats.context_switches,
        "relocations": stats.relocations,
        "idle_cycles": stats.idle_cycles,
        "kernel_cycles": stats.kernel_cycles,
        "scheduler_checks": stats.scheduler_checks,
        "radio_tx_bytes": len(node.radio.transmitted),
        "traps": {kind.name: count
                  for kind, count in sorted(
                      stats.trap_counts.items(),
                      key=lambda kv: kv[0].name)},
        "trace_digest": sim_digest(node),
    }


def jit_stats_dict(node) -> dict:
    """Block-cache / specializer / tracer / trace-store counters
    (the JSON twin of the ``sensmart run --stats`` text block)."""
    kernel = node.kernel
    out: dict = {}
    cache = node.cpu._block_cache
    if cache is not None:
        out["block_cache"] = {
            "hits": cache.hits, "misses": cache.misses,
            "distinct_compiles": len(cache.compile_counts),
        }
    specializer = kernel.specializer
    if specializer is not None:
        s = specializer.stats
        out["specializer"] = {"compiled": s.compiled,
                              "deopts": s.deopts}
    tracer = kernel.tracer
    if tracer is not None:
        t = tracer.stats
        out["tracer"] = {"compiled": t.compiled,
                         "lines": t.lines,
                         "cache_hits": t.cache_hits,
                         "store_hits": t.store_hits,
                         "store_misses": t.store_misses,
                         "stepped": t.stepped}
        if tracer.store is not None:
            st = tracer.store.stats
            out["trace_store"] = {"writes": st.writes,
                                  "evictions": st.evictions,
                                  "corrupt": st.corrupt,
                                  "max_files": tracer.store.max_files}
    return out


def containment_dict(kernel_stats) -> dict:
    """Containment ledger of one :class:`KernelStats`: terminations by
    reason and faults by kind (the counters the adversarial campaign
    cross-checks its survivability table against)."""
    return {
        "terminations_by_reason": dict(
            sorted(kernel_stats.termination_counts.items())),
        "faults_by_kind": dict(sorted(kernel_stats.fault_kinds.items())),
    }


def chaos_report_dict(result) -> dict:
    """JSON form of a :class:`~repro.experiments.extra_faults.ChaosResult`."""
    return {
        "seed": result.seed,
        "rows": [
            {"mix": r.mix, "level": r.level, "tasks": r.tasks,
             "finished": r.finished, "restarted_ok": r.restarted_ok,
             "dead": r.dead, "terminations": r.terminations,
             "restarts": r.restarts, "watchdog": r.watchdog,
             "crashes": r.crashes, "recovered": r.recovered,
             "delivered": r.delivered, "dropped": r.dropped,
             "corrupted": r.corrupted, "duplicated": r.duplicated}
            for r in result.rows
        ],
        "moderate": {
            "terminations": result.moderate_terminations,
            "restarted_ok": result.moderate_restarted_ok,
            "recovered": result.moderate_recovered,
        },
    }


def inject_report_dict(result) -> dict:
    """JSON form of an adversarial injection campaign
    (:class:`~repro.adversary.campaign.InjectResult`)."""
    from ..adversary.campaign import CONTAINED_OUTCOMES, OUTCOMES
    table = {}
    for shape in result.shapes:
        table[shape] = {outcome: result.count(outcome, shape)
                        for outcome in OUTCOMES}
    return {
        "seed": result.seed,
        "quick": result.quick,
        "trials": [
            {"shape": t.shape, "index": t.index, "note": t.note,
             "outcome": t.outcome, "detail": t.detail,
             "canary_ok": t.canary_ok, "tx": list(t.tx)}
            for t in result.trials
        ],
        "table": table,
        "contained_outcomes": list(CONTAINED_OUTCOMES),
        "contained": result.contained,
        "hijacked": result.hijacked,
        "silent": result.count("SILENT_CORRUPTION"),
        "survived": result.count("SURVIVED"),
        "kernel_oob_faults": result.kernel_oob_faults,
        "kernel_cross_check_ok":
            result.kernel_oob_faults == result.count("TRAPPED_OOB"),
        "digest": result.digest,
    }


def patch_report_dict(report) -> dict:
    """JSON form of a hot-patch session
    (:class:`~repro.adversary.patch.PatchReport`)."""
    return {
        "ok": report.ok,
        "failure": report.failure or None,
        "passes": report.passes,
        "frames_unique": report.frames_unique,
        "frames_rejected": report.frames_rejected,
        "frames_duplicate": report.frames_duplicate,
        "link_corrupted": report.link_corrupted,
        "patch_cycle": report.patch_cycle,
        "flash_words": report.flash_words,
        "ram_bytes_moved": report.ram_bytes_moved,
        "beacons_before": report.beacons_before,
        "beacons_after": report.beacons_after,
        "network_alive": report.network_alive,
        "worker_digest": report.worker_digest,
        "cold_digest": report.cold_digest,
        "digest_match": report.worker_digest == report.cold_digest,
        "digest": report.digest,
    }


def attack_report_dict(inject=None, patch=None) -> dict:
    """The ``sensmart attack --json`` body: whichever families ran."""
    families: dict = {}
    if inject is not None:
        families["inject"] = inject_report_dict(inject)
    if patch is not None:
        families["patch"] = patch_report_dict(patch)
    return {"families": families}


def sim_digest(node) -> str:
    """Content key of the node's final architectural state.

    The same tuple the differential tests compare, so two execution
    modes (or a cached and a recomputed verdict) agree exactly when
    their runs were bit-identical.
    """
    kernel = node.kernel
    return content_key(
        node.cpu.instret, node.cpu.cycles, node.cpu.sp,
        bytes(node.cpu.mem.data),
        {kind.name: count
         for kind, count in kernel.stats.trap_counts.items()},
        kernel.stats.kernel_cycles, kernel.stats.scheduler_checks)
