"""Forward dataflow engine and the guards of provable trap sites.

Two layers under test:

* the abstract domain (intervals, SP-relative words, abstract states)
  and the fixpoint engine's precision on indirect control;
* the trace JIT keeping the range check of every trap site, even where
  the engine could prove the access in-region.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis.static import build_cfg
from repro.analysis.static.dataflow import DataflowAnalysis
from repro.analysis.static.values import AbsState, Interval, Word
from repro.avr.trace import TraceStore
from repro.kernel import KernelConfig, SensorNode
from repro.toolchain import compile_source

# Every access is provably in-region: X/Y are heap constants, and the
# pops never underflow.
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


# -- guards of provable sites ------------------------------------------------

def _stored_traces(node):
    """``(sites, source)`` of every trace *node* compiled, read back
    from its :class:`TraceStore` artifacts."""
    tracer = node.kernel.tracer
    stored = TraceStore(tracer.store.path).load(tracer._store_base())
    for entries in stored.values():
        for artifact in entries.values():
            yield ([site for site, _, _ in artifact["sites"]],
                   artifact["source"])


#: The range check each provable kind's fast arm runs behind.
_GUARDS = {"MEM_INDIRECT": r"elif \d+ <= ta < \d+:",
           "STACK_POP": r"if tsp < \d+:"}


@pytest.mark.tier_up_at_once
def test_default_config_keeps_guards(tmp_path):
    """The engine can prove all four heap accesses and both pops of
    TRAP_MIX in-region, and every trace that chains one of those sites
    still carries the site's range check: only a checked proof may drop
    a guard, and no run checks one."""
    node = SensorNode.from_sources(
        [("trap_mix", TRAP_MIX)],
        config=KernelConfig(trace_store=str(tmp_path)), block_cache=False)
    node.run(max_instructions=100)  # the task must stay alive
    natural = node.kernel.image.tasks[0].natural
    kinds = {site: patch.kind.name for site, patch in natural.sites.items()
             if patch.kind.name in _GUARDS}
    assert sorted(kinds.values()) == ["MEM_INDIRECT"] * 4 \
        + ["STACK_POP"] * 2
    chained = set()
    for sites, source in _stored_traces(node):
        for kind, guard in _GUARDS.items():
            want = sum(kinds.get(site) == kind for site in sites)
            assert len(re.findall(guard, source)) == want, (kind, source)
        chained.update(sites)
    assert set(kinds) <= chained
