"""Forward dataflow engine, elision certificates, guard-free JIT tiers.

Three layers under test:

* the abstract domain (intervals, SP-relative words, abstract states)
  and the fixpoint engine's precision on indirect control;
* certificate emission and the *independent* checker — honest proofs
  verify, every tampering vector is rejected with a precise finding;
* the execution tiers with ``KernelConfig.elide`` on: bit-identical
  state against every guarded tier, including under a (null) fault
  plan, while the generated code demonstrably drops the bound guards.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.static import build_cfg, lint_image
from repro.analysis.static.dataflow import (DataflowAnalysis,
                                            image_certificates,
                                            program_certificates,
                                            validated_elisions,
                                            verify_certificate)
from repro.analysis.static.values import AbsState, Interval, Word
from repro.avr.encoding import decode
from repro.experiments.extra_static import _workload_sources
from repro.faults import FaultInjector, FaultPlan
from repro.kernel import SensorNode
from repro.toolchain import compile_source, link_image

# The bench_dataflow TRAP_MIX shape, sized for tests: every access is
# provably in-region (X/Y are heap constants, pops never underflow).
TRAP_MIX = """
    .bss buf, 96

main:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    ldi r28, lo8(buf)
    ldi r29, hi8(buf)
    ldi r20, 0x11
    ldi r21, 0x22
    ldi r25, 4
outer:
    ldi r22, 8
inner:
    st X, r20
    ld r23, X
    push r20
    push r21
    std Y+2, r23
    ldd r23, Y+2
    pop r21
    pop r20
    rcall helper
    dec r22
    brne inner
    dec r25
    brne outer
    break

helper:
    ret
"""


def _digest(node):
    """Complete observable state: CPU, SRAM, kernel accounting."""
    kernel, cpu = node.kernel, node.cpu
    return (bytes(cpu.r), cpu.pc, cpu.sp, cpu.sreg, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data),
            dict(kernel.stats.trap_counts), kernel.stats.kernel_cycles,
            kernel.stats.context_switches, kernel.stats.scheduler_checks,
            tuple(kernel.stats.terminations),
            tuple((task.task_id, task.kernel_cycles, task.min_sp_seen,
                   task.max_stack_used, task.branch_counter,
                   task.exit_reason)
                  for task in kernel.tasks.values()))


def _analysis(source: str, name: str = "t") -> DataflowAnalysis:
    program = compile_source(source, name=name)
    return program, DataflowAnalysis(program.items, program.entry,
                                     dict(program.symbols.labels)).run()


# -- abstract domain ----------------------------------------------------------

def test_interval_join_and_contains():
    assert Interval(0, 4).join(Interval(2, 9)) == Interval(0, 9)
    assert Interval(0, 9).contains(Interval(2, 4))
    assert not Interval(2, 4).contains(Interval(0, 9))
    with pytest.raises(ValueError):
        Interval(3, 1)


def test_interval_widen_jumps_grown_bound_to_extreme():
    old = Interval(0, 4)
    assert old.widen(Interval(0, 6), 0, 0xFFFF) == Interval(0, 0xFFFF)
    assert old.widen(Interval(0, 3), 0, 0xFFFF) == old  # no growth


def test_interval_add_drops_on_wraparound():
    assert Interval(10, 20).add(5) == Interval(15, 25)
    assert Interval(0xFFF0, 0xFFFF).add(0x20) is None


def test_word_pair_roundtrip_through_bytes():
    state = AbsState.top(Interval(0, 0))
    state.set_word(30, Word("abs", Interval(0x120, 0x140)))
    word = state.get_word(30)
    assert word == Word("abs", Interval(0x120, 0x140))
    # Writing one half kills the pair fact; the word re-derives from
    # the byte facts (high byte is constant 0x01 across [0x120,0x140]).
    state.set_byte(30, Interval(7, 7))
    assert state.get_word(30) == Word("abs", Interval(0x107, 0x107))


def test_absstate_serialization_roundtrip():
    state = AbsState.top(Interval(2, 5))
    state.set_byte(24, Interval(3, 3))
    state.set_word(28, Word("sp", Interval(1, 4)))
    state.flags[1] = 1
    restored = AbsState.from_obj(state.to_obj())
    assert restored.leq(state) and state.leq(restored)


# -- engine precision on indirect control -------------------------------------

def test_lpm_chain_narrows_icall_to_loaded_entry():
    program, analysis = _analysis("""
main:
    ldi r30, lo8(handlers*2)
    ldi r31, hi8(handlers*2)
    lpm r24, Z+
    lpm r25, Z
    mov r30, r24
    mov r31, r25
    icall
    break

handlers:
    .dw h_one
    .dw h_two

h_one:
    ret
h_two:
    ret
""")
    h_one = program.symbols.labels["h_one"]
    assert list(analysis.indirect_targets.values()) == [(h_one,)]


def test_widened_table_index_keeps_pool():
    """A looping LPM dispatch widens the table index; the engine must
    not claim a narrowed target set it cannot prove."""
    program, analysis = _analysis("""
main:
    ldi r21, 2
loop:
    ldi r30, lo8(handlers*2)
    ldi r31, hi8(handlers*2)
    add r30, r21
    lpm r24, Z+
    lpm r25, Z
    mov r30, r24
    mov r31, r25
    icall
    dec r21
    brne loop
    break

handlers:
    .dw h_one
    .dw h_two

h_one:
    ret
h_two:
    ret
""")
    assert analysis.indirect_targets == {}


def test_mov_fed_ijmp_drops_data_only_labels():
    """Satellite: a block with no LPM cannot be dispatching through a
    ``.dw`` table, so table-only labels leave its fallback set."""
    program = compile_source("""
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
""", name="t")
    cfg = build_cfg(program.items, program.entry,
                    dict(program.symbols.labels))
    labels = program.symbols.labels
    site = cfg.node_containing(labels["main"])
    # The candidate pool holds the two table entries plus the one
    # LDI-loaded constant; a site that never LPM-reads the table keeps
    # only the latter.
    assert labels["h_one"] not in site.successors
    assert labels["h_two"] not in site.successors
    assert labels["other"] in site.successors
    # The table-reading shape (an LPM in the block) keeps them: proven
    # by test_lpm_chain_narrows_icall_to_loaded_entry and the
    # eventchain workload's dispatch loop.


# -- certificates: emission and independent verification ----------------------

def test_trap_mix_emits_heap_and_pop_certificates():
    program = compile_source(TRAP_MIX, name="trap_mix")
    certs = program_certificates(program)
    claims = sorted(cert.claim for cert in certs.values())
    assert claims == ["heap"] * 4 + ["pop"] * 2
    for cert in certs.values():
        assert verify_certificate(program, cert) == []


def _tampered(cert, **changes):
    copy = dataclasses.replace(cert)
    copy.fact = dict(cert.fact)
    for field, value in changes.items():
        setattr(copy, field, value)
    return copy


def test_tampered_certificates_are_rejected_precisely():
    program = compile_source(TRAP_MIX, name="trap_mix")
    certs = program_certificates(program)
    heap = next(c for c in certs.values() if c.claim == "heap")
    pop = next(c for c in certs.values() if c.claim == "pop")

    # 1. widened site fact: the claim no longer follows from it.
    wide = _tampered(heap)
    wide.fact["access"] = ["abs", 0, 0x10FF]
    errors = verify_certificate(program, wide)
    assert any("does not follow from the site fact" in e
               for e in errors)

    # 2. corrupted invariants: entry coverage / inductiveness fail.
    broken = _tampered(heap, invariants={
        fn: dict(blocks) for fn, blocks in heap.invariants.items()})
    entry = str(program.entry)
    entry_obj = dict(broken.invariants[entry][entry])
    entry_obj["d"] = [3, 3]   # claim depth >= 3 at boot (it is 0)
    broken.invariants[entry] = dict(broken.invariants[entry])
    broken.invariants[entry][entry] = entry_obj
    errors = verify_certificate(program, broken)
    assert any("does not cover the boot state" in e for e in errors)

    # 3. retargeted site: not an instruction of the claimed kind.
    moved = _tampered(heap, site=program.entry)
    errors = verify_certificate(program, moved)
    assert any("is not a MEM_INDIRECT instruction" in e
               for e in errors)

    # 4. foreign geometry: rejected before anything else runs.
    alien = _tampered(heap, geometry=(0x100, 0x200, 0x1100))
    errors = verify_certificate(program, alien)
    assert any("does not match the image" in e for e in errors)

    # 5. swapped claim: a heap claim cannot attach to a POP site.
    swapped = _tampered(pop, claim="heap")
    errors = verify_certificate(program, swapped)
    assert any("cannot attach" in e for e in errors)


def test_lint_validates_certificates_and_flags_tampering():
    sources = [("trap_mix", TRAP_MIX)]
    image = link_image(sources)
    report = lint_image(image)
    assert report.ok
    assert report.certificates == 6
    assert report.certificates_verified == 6

    # Tamper the memoized certificate store the way a corrupted build
    # artifact would present: the independent checker must notice and
    # the report must abort the link.
    cert = next(iter(image_certificates(image)["trap_mix"].values()))
    cert.geometry = (0x100, 0x200, 0x1100)
    tampered = lint_image(image)
    assert not tampered.ok
    findings = tampered.findings_for("certificate")
    assert findings and "does not match the image" in findings[0].message
    # The kernel-facing table refuses the tampered site too.
    image._validated_elisions = None
    node = SensorNode.from_image(image)
    table = validated_elisions(image, node.kernel.config)
    assert cert.nat_site not in table
    assert len(table) == 5


# -- elision wiring: generated code and bit-identity --------------------------

def _run_node(sources, max_instructions=50_000_000, plan=None, **kw):
    node = SensorNode.from_sources(sources, block_cache=False, **kw)
    if plan is not None:
        injector = FaultInjector(plan)
        injector.attach("n0", node)
    node.run(max_instructions=max_instructions)
    return node


def test_elided_sources_drop_the_guards():
    node = _run_node([("trap_mix", TRAP_MIX)], elide=True,
                     max_instructions=100)  # task must stay alive
    kernel = node.kernel
    assert sorted(kernel.elisions.values()) == \
        ["heap"] * 4 + ["pop"] * 2
    natural = kernel.image.tasks[0].natural
    for site, claim in kernel.elisions.items():
        offset = site - natural.base
        jmp = decode(natural.words[offset], natural.words[offset + 1],
                     site)
        result = kernel.specializer.inline_source(
            node.cpu, site, jmp.operands[0], False,
            invalidate=f"k_ex[{site}] = None")
        assert result is not None
        lines, _, spec_key, _ = result
        assert ("elide", claim) in spec_key
        body = "\n".join(lines)
        if claim in ("heap", "stack"):
            assert "elif" not in body          # no range-check chain
            assert "<= ta <" not in body
        else:
            assert "if tsp <" not in body      # no underflow check
        facts = kernel.specializer.trace_facts(
            site, jmp.operands[0], False)
        assert facts is not None and facts.elide == claim


def test_default_config_keeps_guards():
    """elide off (the default) must emit the full guard chain and a
    spec key with no elide token — certified or not."""
    node = _run_node([("trap_mix", TRAP_MIX)], elide=False,
                     max_instructions=100)  # task must stay alive
    kernel = node.kernel
    assert kernel.elisions == {}
    certs = image_certificates(kernel.image)["trap_mix"]
    site = next(s for s, c in certs.items() if c.claim == "heap")
    natural = kernel.image.tasks[0].natural
    offset = site - natural.base
    jmp = decode(natural.words[offset], natural.words[offset + 1], site)
    lines, _, spec_key, _ = kernel.specializer.inline_source(
        node.cpu, site, jmp.operands[0], False,
        invalidate=f"k_ex[{site}] = None")
    body = "\n".join(lines)
    assert "elif" in body and "<= ta <" in body
    assert not any(isinstance(part, tuple) and part[0] == "elide"
                   for part in spec_key)


@pytest.mark.parametrize("workload", ["table1", "table2", "kernelbench"])
def test_elision_is_bit_identical_across_tiers(workload):
    sources = _workload_sources(workload, quick=True)
    baseline = _run_node(sources, elide=False)
    tiers = [
        {"elide": True},                                    # traced
        {"elide": True, "trace": False},                    # specialized
        {"elide": True, "specialize": False},               # fused
        {"elide": True, "fuse": False, "specialize": False,
         "trace": False},                                   # stepwise
    ]
    want = _digest(baseline)
    for overrides in tiers:
        assert _digest(_run_node(sources, **overrides)) == want, overrides


def test_elision_is_bit_identical_under_null_fault_plan():
    plan = FaultPlan(seed=0xBEEF, horizon_cycles=2_000_000)
    sources = _workload_sources("table2", quick=True)
    guarded = _run_node(sources, elide=False, plan=plan)
    elided = _run_node(sources, elide=True, plan=plan)
    assert _digest(elided) == _digest(guarded)
