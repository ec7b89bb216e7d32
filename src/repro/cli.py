"""``sensmart`` command line.

Subcommands::

    sensmart exp [table1|table2|fig4|fig5|fig6|fig7|fig8|all] [--quick]
    sensmart chaos [--seed S] [--quick]  # fault-injection campaign
    sensmart attack [--family F] [--quick]  # adversarial campaigns
    sensmart run FILE [FILE ...]       # run programs under SenSmart
    sensmart rewrite FILE              # show a naturalized listing
    sensmart asm FILE                  # assemble + disassemble a file
    sensmart lint [FILE ...]           # soundness-lint + stack bounds
    sensmart analyze [FILE ...]        # dataflow + elision certificates
    sensmart serve                     # content-addressed build service
    sensmart submit FILE [FILE ...]    # submit programs to a server
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis.profile import flat_profile, trap_histogram
from .avr.disassembler import disassemble
from .baselines.native import run_native
from .cc import compile_c_to_asm
from .experiments.runner import experiment_functions, run_suite
from .kernel import SensorNode
from .toolchain import compile_source, link_image


def _read_program(path: Path) -> str:
    """Read a program file; ``.c``/``.tc`` sources are compiled first."""
    text = path.read_text()
    if path.suffix in (".c", ".tc"):
        return compile_c_to_asm(text)
    return text


def _cmd_exp(args: argparse.Namespace) -> int:
    names = None if args.which in ("all", None) else [args.which]
    suite = run_suite(quick=args.quick, only=names, jobs=args.jobs)
    print(suite.render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments import extra_faults
    seed = args.seed if args.seed is not None \
        else extra_faults.DEFAULT_SEED
    result = extra_faults.run(quick=args.quick, seed=seed)
    if args.json:
        from .pipeline.report import CHAOS_SCHEMA, chaos_report_dict
        print(json.dumps({"schema": CHAOS_SCHEMA,
                          "chaos": chaos_report_dict(result)},
                         indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .adversary import DEFAULT_SEED, run_inject, run_patch
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    inject = patch = None
    ok = True
    if args.family in ("inject", "all"):
        inject = run_inject(quick=args.quick, seed=seed)
        ok = ok and inject.kernel_oob_faults == \
            inject.count("TRAPPED_OOB")
    if args.family in ("patch", "all"):
        patch = run_patch(quick=args.quick, seed=seed)
        ok = ok and patch.ok
    if args.json:
        from .pipeline.report import ATTACK_SCHEMA, attack_report_dict
        report = attack_report_dict(inject=inject, patch=patch)
        report["schema"] = ATTACK_SCHEMA
        report["seed"] = seed
        report["quick"] = args.quick
        report["ok"] = ok
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if ok else 1
    sections = []
    if inject is not None:
        sections.append("--- injection campaign "
                        f"(seed {seed:#x}) ---\n" + inject.render())
    if patch is not None:
        sections.append("--- hot-patch session "
                        f"(seed {seed:#x}) ---\n" + patch.render())
    print("\n\n".join(sections))
    return 0 if ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .faults.plan import FaultPlan
    from .fleet import FleetSim, build_spec, grid, random_geometric
    from .pipeline.report import FLEET_SCHEMA, fleet_report_dict
    if args.quick:
        # Pinned smoke scenario (CI diffs it against
        # tests/golden/fleet_quick.txt): 4x4 grid flood, 2 shards.
        args.topology, args.rows, args.cols = "grid", 4, 4
        args.workload, args.count = "flood", 6
        args.max_cycles = 3_000_000
        if args.shards is None:
            args.shards = 2
    if args.shards is None:
        args.shards = 1
    if args.topology == "grid":
        topo = grid(args.rows, args.cols,
                    latency_cycles=args.latency,
                    loss_permille=args.loss,
                    corrupt_permille=args.corrupt,
                    dup_permille=args.dup, seed=args.seed)
    else:
        topo = random_geometric(args.nodes,
                                radius_permille=args.radius,
                                latency_cycles=args.latency,
                                loss_permille=args.loss,
                                corrupt_permille=args.corrupt,
                                dup_permille=args.dup, seed=args.seed)
    plan = None
    if args.sram_flips or args.flash_flips or args.drift_steps:
        plan = FaultPlan(seed=args.seed,
                         horizon_cycles=args.fault_horizon,
                         warmup_cycles=args.fault_warmup,
                         sram_flips=args.sram_flips,
                         flash_flips=args.flash_flips,
                         drift_steps=args.drift_steps)
    spec = build_spec(topo, args.workload, count=args.count,
                      seed=args.seed, max_cycles=args.max_cycles,
                      fault_plan=plan)
    result = FleetSim(spec, shards=args.shards,
                      prime=not args.no_prime).run()
    if args.json:
        print(json.dumps(
            {"schema": FLEET_SCHEMA,
             "fleet": fleet_report_dict(result, timing=args.timing)},
            indent=2, sort_keys=True))
    else:
        print(result.render(timing=args.timing))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    sources = []
    for path_text in args.files:
        path = Path(path_text)
        sources.append((path.stem, _read_program(path)))
    node = SensorNode.from_sources(sources)
    node.run(max_instructions=args.max_instructions)
    if args.json:
        from .pipeline.report import RUN_SCHEMA, jit_stats_dict, \
            run_report_dict
        report = {"schema": RUN_SCHEMA, "run": run_report_dict(node)}
        if args.stats:
            from .pipeline.report import containment_dict
            report["jit"] = jit_stats_dict(node)
            report["containment"] = containment_dict(node.kernel.stats)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if node.finished else 1
    kernel = node.kernel
    print(f"finished: {node.finished}  cycles: {node.cpu.cycles}  "
          f"instructions: {node.cpu.instret}")
    for task in kernel.tasks.values():
        print(f"  task {task.task_id} {task.name!r}: "
              f"{task.state.value} ({task.exit_reason or 'running'}), "
              f"cycles used {task.cycles_used}")
    stats = kernel.stats
    print(f"  switches: {stats.context_switches}  relocations: "
          f"{stats.relocations}  idle: {stats.idle_cycles}")
    if node.radio.transmitted:
        print(f"  radio transmitted {len(node.radio.transmitted)} bytes")
    if args.stats:
        _print_jit_stats(node)
    return 0 if node.finished else 1


def _print_jit_stats(node) -> None:
    """The ``sensmart run --stats`` report: trace-cache traffic,
    trap-specializer activity, and trace-compiler activity."""
    kernel = node.kernel
    cache = node.cpu._block_cache
    if cache is not None:
        print(f"  block cache: {cache.hits} hits, {cache.misses} misses,"
              f" {len(cache.compile_counts)} distinct compiles")
        multi = {key: count for key, count
                 in cache.compile_counts.items() if count > 1}
        if multi:
            print(f"    recompiled variants: {len(multi)}")
    specializer = kernel.specializer
    if specializer is not None:
        s = specializer.stats
        print(f"  specializer: {s.compiled} compiled, {s.deopts} deopts")
    tracer = kernel.tracer
    if tracer is not None:
        t = tracer.stats
        print(f"  tracer: {t.compiled} compiled,"
              f" {t.cache_hits} cache hits, {t.store_hits} store hits,"
              f" {t.store_misses} store misses")
    counts = kernel.stats.trap_counts
    if counts:
        tally = ", ".join(f"{kind.name}={count}"
                          for kind, count in sorted(
                              counts.items(), key=lambda kv: kv[0].name))
        print(f"  traps: {tally}")
    stats = kernel.stats
    if stats.termination_counts:
        tally = ", ".join(f"{reason}={count}" for reason, count
                          in sorted(stats.termination_counts.items()))
        print(f"  terminations: {tally}")
    if stats.fault_kinds:
        tally = ", ".join(f"{kind}={count}" for kind, count
                          in sorted(stats.fault_kinds.items()))
        print(f"  fault kinds: {tally}")


def _cmd_rewrite(args: argparse.Namespace) -> int:
    path = Path(args.file)
    image = link_image([(path.stem, _read_program(path))])
    if args.hex:
        from .toolchain.ihex import image_to_ihex
        Path(args.hex).write_text(image_to_ihex(image))
        print(f"; wrote Intel HEX image to {args.hex}")
    natural = image.tasks[0].natural
    stats = natural.stats
    print(f"; naturalized {path.stem}: base {natural.base:#06x}, "
          f"entry {natural.entry:#06x}")
    print(f"; native {stats.native_bytes} B -> rewritten "
          f"{stats.rewritten_bytes} B + shift {stats.shift_table_bytes} B "
          f"+ trampolines {stats.trampoline_bytes} B "
          f"(x{stats.inflation_ratio:.2f})")
    for line in disassemble(natural.words, natural.base):
        marker = "  <- patched" if any(
            line.startswith(f"{address:#06x}")
            for address in natural.sites) else ""
        print(line + marker)
    print(f"; {image.pool.count} trampolines "
          f"({image.pool.requests} requests before merging)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.static import analyze_program, lint_image
    from .experiments.extra_static import WORKLOAD_NAMES, \
        _workload_sources

    targets = []
    if args.files:
        sources = [(Path(f).stem, _read_program(Path(f)))
                   for f in args.files]
        targets.append(("cli", sources))
    if args.workloads or not args.files:
        targets.extend((name, _workload_sources(name, quick=True))
                       for name in WORKLOAD_NAMES)

    failures = 0
    results = []
    for label, sources in targets:
        image = link_image(sources)
        report = lint_image(image)
        if not report.ok:
            failures += 1
        if args.json:
            from .pipeline.report import lint_report_dict, \
                stack_bounds_dict
            entry = {"label": label, "lint": lint_report_dict(report)}
            if args.bounds:
                entry["stack"] = stack_bounds_dict(image)
            results.append(entry)
            continue
        print(f"--- {label} ---")
        print(report.render())
        if args.bounds:
            for task in image.tasks:
                analysis = analyze_program(task.natural.program)
                print(analysis.render())
        print()
    if args.json:
        from .pipeline.report import LINT_SCHEMA
        print(json.dumps({"schema": LINT_SCHEMA, "ok": not failures,
                          "targets": results},
                         indent=2, sort_keys=True))
    return 1 if failures else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.report import format_table
    from .analysis.static import analyze_image
    from .experiments.extra_static import WORKLOAD_NAMES, \
        _workload_sources

    targets = []
    if args.files:
        sources = [(Path(f).stem, _read_program(Path(f)))
                   for f in args.files]
        targets.append(("cli", sources))
    if args.workloads or not args.files:
        targets.extend((name, _workload_sources(name, quick=True))
                       for name in WORKLOAD_NAMES)

    results = []
    for label, sources in targets:
        image = link_image(sources)
        if args.json:
            from .pipeline.report import analyze_report_dict
            results.append({"label": label,
                            "analysis": analyze_report_dict(image)})
            continue
        rows = []
        for row in analyze_image(image):
            certs = row["certificates"]
            rows.append([row["program"], row["sites"],
                         row["indirect_sites"],
                         row["dataflow_narrowed"],
                         row["unresolved_indirect"], certs["heap"],
                         certs["stack"], certs["pop"],
                         row["certificates_total"]])
        print(format_table(
            ["program", "sites", "indirect", "narrowed", "unresolved",
             "heap", "stack", "pop", "certified"],
            rows, title=f"dataflow analysis: {label}"))
        print()
    if args.json:
        from .pipeline.report import ANALYZE_SCHEMA
        print(json.dumps({"schema": ANALYZE_SCHEMA,
                          "targets": results},
                         indent=2, sort_keys=True))
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    path = Path(args.file)
    program = compile_source(_read_program(path), name=path.stem)
    print(f"; {path.stem}: {program.size_bytes} bytes, "
          f"heap {program.symbols.heap_size} bytes, "
          f"entry {program.entry:#06x}")
    for line in disassemble(program.words, program.origin):
        print(line)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    path = Path(args.file)
    source = _read_program(path)
    program = compile_source(source, name=path.stem)

    # Native flat profile.
    from .avr.cpu import AvrCpu
    from .avr.devices import Adc, Leds, Radio, Timer0, Timer3
    from .avr.memory import Flash
    flash = Flash()
    flash.load(0, program.words)
    cpu = AvrCpu(flash)
    for device in (Timer0(), Timer3(), Adc(), Radio(), Leds()):
        cpu.attach_device(device)
    cpu.enable_profiling()
    cpu.pc = program.entry
    cpu.run(max_instructions=args.max_instructions)
    profile = flat_profile(cpu.profile, program.symbols.labels)
    print(profile.render(top=args.top))

    # SenSmart trap histogram for the same program.
    node = SensorNode.from_sources([(path.stem, source)])
    node.run(max_instructions=args.max_instructions)
    print()
    print(trap_histogram(node.kernel))
    overhead = node.cpu.cycles / cpu.cycles if cpu.cycles else 0
    print(f"\nnative {cpu.cycles} cycles; SenSmart {node.cpu.cycles} "
          f"cycles (x{overhead:.2f})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .avr.cpu import AvrCpu
    from .avr.devices import Adc, Leds, Radio, Timer0, Timer3
    from .avr.encoding import decode
    from .avr.memory import Flash
    from .avr.disassembler import format_instruction
    path = Path(args.file)
    program = compile_source(_read_program(path), name=path.stem)
    flash = Flash()
    flash.load(0, program.words)
    cpu = AvrCpu(flash)
    for device in (Timer0(), Timer3(), Adc(), Radio(), Leds()):
        cpu.attach_device(device)
    cpu.pc = program.entry
    addr_to_label = {a: n for n, a in program.symbols.labels.items()}
    for _step in range(args.limit):
        if cpu.halted:
            break
        pc = cpu.pc
        label = addr_to_label.get(pc)
        if label:
            print(f"{label}:")
        word = flash.word(pc)
        second = flash.word(pc + 1) if pc + 1 < flash.size_words else None
        instruction = decode(word, second, pc)
        before = cpu.cycles
        cpu.step()
        print(f"  {pc:#06x}: {format_instruction(instruction):28s} "
              f"; +{cpu.cycles - before} cyc, sreg={cpu.sreg:#04x}, "
              f"sp={cpu.sp:#06x}")
    print(f"({cpu.instret} instructions, {cpu.cycles} cycles"
          f"{', halted' if cpu.halted else ''})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import run_server

    def announce(server):
        print(f"sensmart serve listening on "
              f"{server.host}:{server.port}", flush=True)

    try:
        run_server(host=args.host, port=args.port,
                   store_path=args.store, jobs=args.jobs,
                   announce=announce)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient
    if not args.files and not args.stats and not args.shutdown:
        print("nothing to do: give program files, --stats or "
              "--shutdown", file=sys.stderr)
        return 2
    code = 0
    with ServeClient(args.host, args.port,
                     timeout=args.timeout) as client:
        if args.files:
            programs = []
            for path_text in args.files:
                path = Path(path_text)
                programs.append({"name": path.stem,
                                 "source": _read_program(path)})
            options = {"max_instructions": args.max_instructions}
            response = client.submit(programs, options=options,
                                     ident="cli")
            print(json.dumps(response, indent=2, sort_keys=True))
            if not response.get("ok"):
                code = 1
        if args.stats:
            print(json.dumps(client.stats(), indent=2,
                             sort_keys=True))
        if args.shutdown:
            client.shutdown()
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensmart",
        description="SenSmart reproduction: simulate, rewrite, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("exp", help="regenerate paper tables/figures")
    exp.add_argument("which", nargs="?", default="all",
                     choices=sorted(experiment_functions()) + ["all"])
    exp.add_argument("--quick", action="store_true",
                     help="smoke-test sized sweeps")
    exp.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="fan independent sweep points over N worker "
                          "processes (output is identical to -j1)")
    exp.set_defaults(func=_cmd_exp)

    chaos = sub.add_parser(
        "chaos", help="deterministic fault-injection survivability "
                      "campaign (seed-reproducible)")
    chaos.add_argument("--seed", type=lambda s: int(s, 0),
                       default=None, metavar="S",
                       help="campaign seed (default: the pinned "
                            "DEFAULT_SEED; same seed => byte-identical "
                            "report)")
    chaos.add_argument("--quick", action="store_true",
                       help="smoke-test sized campaign")
    chaos.add_argument("--json", action="store_true",
                       help="emit the sensmart-chaos/1 JSON report "
                            "instead of text")
    chaos.set_defaults(func=_cmd_chaos)

    attack = sub.add_parser(
        "attack", help="adversarial campaigns: radio code-injection "
                       "attacks and live over-the-air hot-patching "
                       "(seed-reproducible, tier-invariant)")
    attack.add_argument("--family", choices=["inject", "patch", "all"],
                        default="all",
                        help="inject = malicious-payload containment "
                             "campaign; patch = OTA hot-patch of a "
                             "running task")
    attack.add_argument("--seed", type=lambda s: int(s, 0),
                        default=None, metavar="S",
                        help="campaign seed (default: the pinned "
                             "DEFAULT_SEED; same seed => byte-identical "
                             "report)")
    attack.add_argument("--quick", action="store_true",
                        help="anchor trials / fewer patch passes only")
    attack.add_argument("--json", action="store_true",
                        help="emit the sensmart-attack/1 JSON report "
                             "instead of text")
    attack.set_defaults(func=_cmd_attack)

    fleet = sub.add_parser(
        "fleet", help="sharded multi-node fleet co-simulation "
                      "(digest is shard-count invariant)")
    fleet.add_argument("--topology", choices=["grid", "rgg"],
                       default="grid")
    fleet.add_argument("--rows", type=int, default=4,
                       help="grid rows")
    fleet.add_argument("--cols", type=int, default=4,
                       help="grid columns")
    fleet.add_argument("--nodes", type=int, default=24,
                       help="rgg node count")
    fleet.add_argument("--radius", type=int, default=350,
                       metavar="PERMILLE",
                       help="rgg connect radius, 1/1000ths of the "
                            "unit square")
    fleet.add_argument("--workload",
                       choices=["flood", "relay", "attack"],
                       default="flood")
    fleet.add_argument("--count", type=int, default=8, metavar="K",
                       help="bytes injected by the source")
    fleet.add_argument("--latency", type=int, default=2_000,
                       metavar="CYCLES", help="link latency (>= 1)")
    fleet.add_argument("--loss", type=int, default=0,
                       metavar="PERMILLE")
    fleet.add_argument("--corrupt", type=int, default=0,
                       metavar="PERMILLE")
    fleet.add_argument("--dup", type=int, default=0,
                       metavar="PERMILLE")
    fleet.add_argument("--shards", type=int, default=None, metavar="N",
                       help="worker processes (default 1; >1 forks)")
    fleet.add_argument("--seed", type=lambda s: int(s, 0),
                       default=0xF1EE7, metavar="S")
    fleet.add_argument("--max-cycles", type=int, default=50_000_000)
    fleet.add_argument("--sram-flips", type=int, default=0,
                       help="per-node SRAM bit flips (FaultPlan)")
    fleet.add_argument("--flash-flips", type=int, default=0,
                       help="per-node flash bit flips (FaultPlan)")
    fleet.add_argument("--drift-steps", type=int, default=0,
                       help="per-node clock-drift events (FaultPlan)")
    fleet.add_argument("--fault-warmup", type=int, default=4_000)
    fleet.add_argument("--fault-horizon", type=int, default=40_000)
    fleet.add_argument("--quick", action="store_true",
                       help="pinned 16-node smoke scenario (golden)")
    fleet.add_argument("--no-prime", action="store_true",
                       help="skip the pre-fork JIT priming pass")
    fleet.add_argument("--timing", action="store_true",
                       help="append host-dependent timing lines")
    fleet.add_argument("--json", action="store_true",
                       help="emit the sensmart-fleet/1 JSON report")
    fleet.set_defaults(func=_cmd_fleet)

    run = sub.add_parser("run", help="run programs under SenSmart")
    run.add_argument("files", nargs="+")
    run.add_argument("--stats", action="store_true",
                     help="report block-cache / specializer / tracer "
                          "statistics after the run")
    run.add_argument("--max-instructions", type=int,
                     default=100_000_000)
    run.add_argument("--json", action="store_true",
                     help="emit the sensmart-run/1 JSON report "
                          "instead of text")
    run.set_defaults(func=_cmd_run)

    rewrite = sub.add_parser("rewrite",
                             help="show the naturalized binary")
    rewrite.add_argument("file")
    rewrite.add_argument("--hex", metavar="OUT",
                         help="also write the image as Intel HEX")
    rewrite.set_defaults(func=_cmd_rewrite)

    asm = sub.add_parser("asm", help="assemble and list a program")
    asm.add_argument("file")
    asm.set_defaults(func=_cmd_asm)

    lint = sub.add_parser(
        "lint", help="verify rewriter soundness of naturalized images")
    lint.add_argument("files", nargs="*",
                      help="programs to link into one image and lint "
                           "(default: the bundled workloads)")
    lint.add_argument("--workloads", action="store_true",
                      help="also lint every bundled workload image")
    lint.add_argument("--bounds", action="store_true",
                      help="print per-task static stack bounds")
    lint.add_argument("--json", action="store_true",
                      help="emit the sensmart-lint/1 JSON report "
                           "instead of text")
    lint.set_defaults(func=_cmd_lint)

    analyze = sub.add_parser(
        "analyze", help="dataflow analysis: indirect-target "
                        "resolution and elision certificates")
    analyze.add_argument("files", nargs="*",
                         help="programs to link into one image and "
                              "analyze (default: the bundled "
                              "workloads)")
    analyze.add_argument("--workloads", action="store_true",
                         help="also analyze every bundled workload "
                              "image")
    analyze.add_argument("--json", action="store_true",
                         help="emit the sensmart-analyze/1 JSON "
                              "report instead of text")
    analyze.set_defaults(func=_cmd_analyze)

    serve = sub.add_parser(
        "serve", help="serve the content-addressed build pipeline "
                      "over NDJSON/TCP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7737,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="on-disk artifact store directory "
                            "(default: memory only)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="parallel build workers (N>1 uses fork "
                            "worker processes where available)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit programs to a running serve instance")
    submit.add_argument("files", nargs="*",
                        help="programs to link into one image and "
                             "simulate")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7737)
    submit.add_argument("--max-instructions", type=int,
                        default=20_000_000)
    submit.add_argument("--timeout", type=float, default=120.0)
    submit.add_argument("--stats", action="store_true",
                        help="also fetch server statistics")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the server to stop after replying")
    submit.set_defaults(func=_cmd_submit)

    profile = sub.add_parser(
        "profile", help="flat profile (native) + trap histogram")
    profile.add_argument("file")
    profile.add_argument("--top", type=int, default=10)
    profile.add_argument("--max-instructions", type=int,
                         default=20_000_000)
    profile.set_defaults(func=_cmd_profile)

    trace = sub.add_parser(
        "trace", help="print the first N executed instructions")
    trace.add_argument("file")
    trace.add_argument("--limit", type=int, default=64)
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
