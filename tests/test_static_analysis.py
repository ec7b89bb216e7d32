"""Static analysis subsystem: CFG, stack bounds, soundness linter."""

from __future__ import annotations

import pytest

from repro.analysis.static import (INFINITE_DEPTH, analyze_program,
                                   build_cfg, lint_image, lint_sources)
from repro.avr.encoding import encode
from repro.avr.instruction import Instruction
from repro.kernel import SensorNode
from repro.toolchain import compile_source, link_image
from repro.workloads.bintree import feeder_source, search_task_source
from repro.workloads.kernelbench import (KERNEL_BENCHMARKS,
                                         kernel_benchmark_source)


def _cfg(source: str, name: str = "t"):
    program = compile_source(source, name=name)
    return program, build_cfg(program.items, program.entry,
                              dict(program.symbols.labels))


# -- CFG construction ---------------------------------------------------------

def test_cfg_straightline_single_block():
    program, cfg = _cfg("""
main:
    ldi r16, 1
    dec r16
    break
""")
    assert len(cfg.nodes) == 1
    node = cfg.nodes[program.entry]
    assert node.successors == ()          # BREAK never falls through
    assert node.calls == ()


def test_cfg_branch_has_target_and_fallthrough():
    program, cfg = _cfg("""
main:
    ldi r16, 2
loop:
    dec r16
    brne loop
    break
""")
    loop = program.symbols.labels["loop"]
    node = cfg.node_containing(loop)
    assert set(node.successors) == {loop, node.block.end}


def test_cfg_call_edge_and_return():
    program, cfg = _cfg("""
main:
    call helper
    break
helper:
    ldi r17, 1
    ret
""")
    helper = program.symbols.labels["helper"]
    entry_node = cfg.nodes[program.entry]
    assert entry_node.calls == ((program.entry, helper),)
    assert helper in cfg.function_entries()
    # RET terminates the helper with no successors.
    assert cfg.nodes[helper].successors == ()


def test_cfg_skip_splits_shadow_and_both_edges():
    program, cfg = _cfg("""
main:
    ldi r16, 1
    sbrc r16, 0
    ldi r17, 2
    ldi r18, 3
    break
""")
    skip = next(address for address, ins in cfg.instructions.items()
                if ins.mnemonic == "SBRC")
    node = cfg.node_containing(skip)
    shadow = skip + 1
    after = shadow + 1
    # Both the shadow and the post-shadow instruction are successors,
    # and both are block starts.
    assert set(node.successors) == {shadow, after}
    assert shadow in cfg.nodes and after in cfg.nodes


def test_cfg_icall_resolves_dw_handler_table():
    program, cfg = _cfg("""
main:
    ldi r30, lo8(table * 2)
    ldi r31, hi8(table * 2)
    lpm r24, Z+
    lpm r25, Z+
    movw r30, r24
    icall
    break
h_one:
    ldi r20, 1
    ret
h_two:
    ldi r20, 2
    ret
table:
    .dw h_one, h_two
""")
    labels = program.symbols.labels
    callees = {callee for node in cfg.nodes.values()
               for _, callee in node.calls}
    # The ICALL reads the .dw table, so the pool (both handlers) is its
    # candidate set, and that is not the all-labels fallback.
    assert callees == {labels["h_one"], labels["h_two"]}
    assert not cfg.unresolved_indirect


def test_cfg_icall_looping_table_keeps_all_handlers():
    program, cfg = _cfg("""
main:
    ldi r21, 2
    ldi r30, lo8(table * 2)
    ldi r31, hi8(table * 2)
loop:
    lpm r24, Z+
    lpm r25, Z+
    push r21
    movw r30, r24
    icall
    pop r21
    dec r21
    brne loop
    break
h_one:
    ldi r20, 1
    ret
h_two:
    ldi r20, 2
    ret
table:
    .dw h_one, h_two
""")
    handlers = {program.symbols.labels["h_one"],
                program.symbols.labels["h_two"]}
    callees = {callee for node in cfg.nodes.values()
               for _, callee in node.calls}
    # The pool (the .dw table) is the candidate set: both handlers.
    assert handlers <= callees
    assert not cfg.unresolved_indirect


def test_cfg_ijmp_without_pool_falls_back_to_labels():
    program, cfg = _cfg("""
main:
    mov r30, r24
    mov r31, r25
    ijmp
after:
    break
""")
    assert cfg.unresolved_indirect  # flagged as conservative
    ijmp_node = next(node for node in cfg.nodes.values()
                     if node.indirect_site is not None)
    assert program.symbols.labels["after"] in ijmp_node.successors


def test_mov_fed_ijmp_drops_data_only_labels():
    """A block with no LPM cannot be dispatching through a ``.dw``
    table, so table-only labels leave its fallback set."""
    program, cfg = _cfg("""
main:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    ld r30, X
    ld r31, X
    ijmp

table:
    .dw h_one
    .dw h_two

h_one:
    ret
h_two:
    ret

dispatch2:
    ldi r30, lo8(other)
    ldi r31, hi8(other)
    ijmp
other:
    break

    .bss buf, 4
""")
    labels = program.symbols.labels
    site = cfg.node_containing(labels["main"])
    # The candidate pool holds the two table entries plus the one
    # LDI-loaded constant; a site that never LPM-reads the table keeps
    # only the latter.
    assert labels["h_one"] not in site.successors
    assert labels["h_two"] not in site.successors
    assert labels["other"] in site.successors
    # The table-reading shape (an LPM in the block) keeps them: see
    # test_cfg_icall_resolves_dw_handler_table and the eventchain
    # workload's dispatch loop.


# -- stack-depth analysis -----------------------------------------------------

def test_stack_bound_zero_for_pushless_program():
    program = compile_source("main:\n    ldi r16, 1\n    break\n",
                             name="t")
    assert analyze_program(program).bound == 0


def test_stack_bound_counts_push_and_call_frames():
    program = compile_source("""
main:
    push r16
    call helper
    pop r16
    break
helper:
    push r17
    pop r17
    ret
""", name="t")
    analysis = analyze_program(program)
    # push(1) + call frame(2) + helper push(1)
    assert analysis.bound == 4
    helper = analysis.function_by_name("helper")
    assert helper.local_peak == 1 and helper.bound == 1


def test_stack_bound_takes_worst_path():
    program = compile_source("""
main:
    ldi r16, 0
    cpi r16, 1
    brne cheap
    call deep
cheap:
    break
deep:
    push r2
    push r3
    push r4
    pop r4
    pop r3
    pop r2
    ret
""", name="t")
    analysis = analyze_program(program)
    assert analysis.bound == 5  # call frame 2 + three pushes


#: An LDI pair loads h_one into Z, then a post-increment access moves Z
#: to h_two before the IJMP: the run reaches the four pushes.  The large
#: heap keeps the data access at h_one's (code) address in the task.
STALE_Z = """
main:
    ldi r30, lo8(h_one)
    ldi r31, hi8(h_one)
    {access}
    ijmp
h_one:
    break
h_two:
    push r1
    push r1
    push r1
    push r1
    break
other:
    ldi r30, lo8(h_two)
    ldi r31, hi8(h_two)
    ijmp

    .bss buf, 3000
"""


@pytest.mark.parametrize("access", ["ld r0, Z+", "st Z+, r1"])
def test_stack_bound_survives_z_moved_by_a_pointer_access(access):
    """The access writes Z, so the LDI constant does not reach the
    IJMP: the site falls back to the pool and the bound dominates the
    peak the run observes."""
    source = STALE_Z.format(access=access)
    node = SensorNode.from_sources([("t", source)])
    node.run(max_instructions=10_000)
    task = next(iter(node.kernel.tasks.values()))
    assert task.exit_reason == "exit" and task.max_stack_used == 4
    analysis = analyze_program(node.kernel.image.tasks[0].natural.program)
    assert analysis.bound >= task.max_stack_used


def test_recursion_detected_and_unbounded():
    program = compile_source("""
main:
    ldi r24, 4
    call recurse
    break
recurse:
    push r2
    dec r24
    brne deeper
    rjmp unwind
deeper:
    call recurse
unwind:
    pop r2
    ret
""", name="t")
    analysis = analyze_program(program)
    assert not analysis.bounded
    assert analysis.bound == INFINITE_DEPTH
    recurse = analysis.function_by_name("recurse")
    assert recurse.recursive
    assert analysis.recursion_cycles == [(recurse.entry,)]
    assert "recursion" in analysis.describe_bound()


def test_net_positive_loop_diverges():
    program = compile_source("""
main:
    ldi r16, 4
loop:
    push r16
    dec r16
    brne loop
    break
""", name="t")
    analysis = analyze_program(program)
    assert analysis.bound == INFINITE_DEPTH
    assert not analysis.recursion_cycles
    assert any("without bound" in d for d in analysis.diagnostics)


def test_bintree_search_is_statically_unbounded():
    program = compile_source(search_task_source(nodes=10, searches=2),
                             name="search")
    analysis = analyze_program(program)
    assert not analysis.bounded
    assert analysis.function_by_name("search").recursive


def test_kernelbench_bounds_are_finite():
    for name in sorted(KERNEL_BENCHMARKS):
        program = compile_source(kernel_benchmark_source(name),
                                 name=name)
        analysis = analyze_program(program)
        assert analysis.bounded, name
        assert analysis.bound >= 0


# -- soundness linter ---------------------------------------------------------

def _benchmark_sources():
    return [(name, kernel_benchmark_source(name))
            for name in sorted(KERNEL_BENCHMARKS)]


def test_lint_clean_on_every_bundled_workload():
    report = lint_sources(_benchmark_sources())
    assert report.ok, report.render()
    assert report.coverage == 1.0
    assert report.sites_total > 0


def test_lint_clean_on_multiprogram_image():
    report = lint_sources(
        [("search", search_task_source(nodes=8, searches=2)),
         ("feeder", feeder_source(nodes_per_tree=8, trees=2, updates=4))])
    assert report.ok, report.render()
    assert report.coverage == 1.0


def _single_image():
    return link_image([("crc", kernel_benchmark_source("crc"))])


def test_lint_detects_overwritten_site_with_location_and_kind():
    image = _single_image()
    natural = image.tasks[0].natural
    site_address = sorted(natural.sites)[0]
    site = natural.sites[site_address]
    offset = site_address - natural.base
    natural.words[offset] = 0x0000  # NOP over the trampoline JMP
    natural.words[offset + 1] = 0x0000

    report = lint_image(image)
    assert not report.ok
    finding = report.findings_for("site-not-jmp")[0]
    assert finding.address == site_address
    assert finding.kind is site.kind
    assert finding.program == "crc"
    assert report.sites_verified == report.sites_total - 1


def test_lint_detects_jmp_escaping_trampoline_region():
    image = _single_image()
    natural = image.tasks[0].natural
    site_address = sorted(natural.sites)[0]
    offset = site_address - natural.base
    word1, word2 = encode(Instruction("JMP", (natural.base,)))
    natural.words[offset] = word1
    natural.words[offset + 1] = word2

    report = lint_image(image)
    findings = report.findings_for("site-target-outside")
    assert findings and findings[0].address == site_address


def test_lint_detects_shift_table_tampering():
    image = _single_image()
    entries = image.tasks[0].natural.shift_table.entries

    removed = entries.pop()
    report = lint_image(image)
    assert report.findings_for("shift-missing-entry")

    entries.append(removed)
    entries.append(removed + 1)  # spurious entry
    assert lint_image(image).findings_for("shift-extra-entry")

    entries.pop()
    entries[0], entries[-1] = entries[-1], entries[0]
    assert lint_image(image).findings_for("shift-nonmonotonic")

    entries[0], entries[-1] = entries[-1], entries[0]
    assert lint_image(image).ok


def test_lint_flags_untrapped_dangerous_instruction():
    # A classifier that deliberately misses PUSH produces an image where
    # a native PUSH survives — the independent predicate must catch it.
    from repro.rewriter.classify import PatchKind, classify

    def blind(instruction):
        if instruction.mnemonic == "PUSH":
            return PatchKind.NONE
        return classify(instruction)

    from repro.rewriter.rewriter import Rewriter
    image = link_image(
        [("t", "main:\n    push r16\n    pop r16\n    break\n")],
        rewriter=Rewriter(classify_fn=blind))
    report = lint_image(image)  # linter uses the real classifier
    assert not report.ok
    checks = {finding.check for finding in report.findings}
    assert "untrapped-memory" in checks or "site-missing" in checks


def test_lint_counts_match_image():
    image = _single_image()
    report = lint_image(image)
    natural = image.tasks[0].natural
    assert report.sites_total == len(natural.sites)
    assert report.shift_entries == len(natural.shift_table.entries)
    assert report.trampolines == image.pool.count
