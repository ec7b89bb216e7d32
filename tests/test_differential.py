"""Differential fuzzing: SenSmart must be an invisible substrate.

Two generators drive this:

* random straight-line AVR programs (ALU + heap traffic) run both
  bare-metal and under the kernel; architectural state must match —
  the strongest form of the paper's "programs run on SenSmart without
  knowing" claim;
* random TinyC expressions are compiled and run, and the result is
  checked against Python's evaluation of the same expression.

Every generated program additionally runs in both execution modes —
traced and per-instruction — and the two must agree on all
architectural state, cycle for cycle.  A third generator, the loop
family, reaches every trace shape (nested counted loops across the
branch counter, one-block self-loops, ``rcall``/``ret`` and ``break``
heads, stack and memory traffic, runs cut at the member cap) and checks
the two modes against each other at every stop of an instruction-limit
sweep, bare-metal and under the kernel.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.avr import AvrCpu, Flash, assemble
from repro.baselines.native import run_native
from repro.cc import compile_c_to_asm
from repro.kernel import KernelConfig, SensorNode

# -- random assembly programs ---------------------------------------------------

_ALU_TEMPLATES = [
    "add r{a}, r{b}",
    "sub r{a}, r{b}",
    "adc r{a}, r{b}",
    "and r{a}, r{b}",
    "or r{a}, r{b}",
    "eor r{a}, r{b}",
    "mov r{a}, r{b}",
    "inc r{a}",
    "dec r{a}",
    "com r{a}",
    "neg r{a}",
    "swap r{a}",
    "lsr r{a}",
    "ror r{a}",
    "asr r{a}",
]

_regs = st.integers(16, 23)  # keep clear of pointers and immediates


@st.composite
def alu_program(draw):
    """A straight-line program: seed registers, ALU soup, heap spills."""
    lines = [".bss cells, 16", "main:"]
    for reg in range(16, 24):
        lines.append(f"    ldi r{reg}, {draw(st.integers(0, 255))}")
    count = draw(st.integers(5, 40))
    for index in range(count):
        template = draw(st.sampled_from(_ALU_TEMPLATES))
        line = template.format(a=draw(_regs), b=draw(_regs))
        lines.append("    " + line)
        if draw(st.booleans()):
            slot = draw(st.integers(0, 15))
            lines.append(f"    sts cells + {slot}, r{draw(_regs)}")
    # Read a few cells back so heap state feeds register state.
    for reg in (16, 17):
        slot = draw(st.integers(0, 15))
        lines.append(f"    lds r{reg}, cells + {slot}")
    lines.append("    break")
    return "\n".join(lines) + "\n"


@given(alu_program())
@settings(max_examples=60, deadline=None)
def test_sensmart_is_architecturally_invisible(source):
    program = assemble(source)
    flash = Flash()
    flash.load(0, program.words)
    native = AvrCpu(flash)
    native.run(max_instructions=100_000)
    assert native.halted

    node = SensorNode.from_sources([("fuzz", source)])
    kernel = node.kernel
    region = kernel.regions.by_task(0)
    node.run(max_instructions=1_000_000)
    assert node.finished

    # Register file identical (r0..r25: pointer regs unused here).
    assert bytes(native.r[:26]) == bytes(kernel.cpu.r[:26])
    # SREG flags identical (I may differ: the kernel does not fake it).
    assert native.sreg & 0x7F == kernel.cpu.sreg & 0x7F
    # Heap contents identical.
    assert native.mem.data[0x100:0x110] == \
        kernel.cpu.mem.data[region.p_l:region.p_l + 16]


@given(alu_program())
@settings(max_examples=40, deadline=None)
def test_superblock_fusion_is_observationally_identical(source):
    """Fused and per-instruction execution agree on everything."""
    program = assemble(source)
    cpus = []
    for fuse in (True, False):
        flash = Flash()
        flash.load(0, program.words)
        cpu = AvrCpu(flash, fuse=fuse)
        cpu.run(max_instructions=100_000)
        assert cpu.halted
        cpus.append(cpu)
    fused, stepwise = cpus
    assert bytes(fused.r) == bytes(stepwise.r)
    assert fused.sreg == stepwise.sreg
    assert fused.cycles == stepwise.cycles
    assert fused.instret == stepwise.instret
    assert fused.mem.data == stepwise.mem.data


@given(alu_program())
@settings(max_examples=12, deadline=None)
def test_kernelized_fusion_is_observationally_identical(source):
    """The kernel's trap-driven execution is mode-independent too."""
    states = []
    for fuse in (True, False):
        node = SensorNode.from_sources([("fuzz", source)], fuse=fuse)
        node.run(max_instructions=1_000_000)
        assert node.finished
        cpu = node.kernel.cpu
        states.append((bytes(cpu.r), cpu.sreg, cpu.pc, cpu.sp,
                       cpu.cycles, cpu.instret, bytes(cpu.mem.data)))
    assert states[0] == states[1]


# -- loop family: every trace shape against the stepwise oracle ------------------

#: Half the active Hypothesis profile's example count: 50 under
#: the default profile (tier-1's budget); ``--hypothesis-profile=long``
#: (registered in conftest.py) raises it.
_LOOP_EXAMPLES = settings.default.max_examples // 2

#: SREG readers and writers on top of the straight-line soup, so flag
#: elision and deferral meet carries and the Z-chain of CPC/SBC.
_LOOP_ALU = _ALU_TEMPLATES + [
    "sbc r{a}, r{b}",
    "cp r{a}, r{b}",
    "cpc r{a}, r{b}",
    "mul r{a}, r{b}",
    "subi r{a}, {k}",
    "cpi r{a}, {k}",
    "andi r{a}, {k}",
]

_cells = st.integers(0, 14)


@st.composite
def _alu_run(draw, low: int = 1, high: int = 6):
    """ALU-only lines on r16..r23 (a one-block loop body)."""
    lines = []
    for _ in range(draw(st.integers(low, high))):
        template = draw(st.sampled_from(_LOOP_ALU))
        lines.append(template.format(a=draw(_regs), b=draw(_regs),
                                     k=draw(st.integers(0, 255))))
    return lines


@st.composite
def _traffic(draw):
    """One memory or stack access (kernel traps, bare-metal members or
    terminators)."""
    kind = draw(st.sampled_from(["sts", "lds", "st", "ld", "push"]))
    reg, cell = draw(_regs), draw(_cells)
    if kind == "sts":
        return [f"sts cells + {cell}, r{reg}"]
    if kind == "lds":
        return [f"lds r{reg}, cells + {cell}"]
    if kind == "push":
        return [f"push r{reg}"] + draw(_alu_run(0, 2)) \
            + [f"pop r{draw(_regs)}"]
    mode = draw(st.sampled_from(["X", "X+"]))
    access = f"st {mode}, r{reg}" if kind == "st" else f"ld r{reg}, {mode}"
    return [f"ldi r26, lo8(cells + {cell})",
            f"ldi r27, hi8(cells + {cell})", access]


@st.composite
def _body(draw):
    """A straight run mixing ALU soup and memory traffic."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lines += draw(_traffic())
        else:
            lines += draw(_alu_run(1, 4))
    return lines


@st.composite
def loop_program(draw):
    """A terminating program of loop-shaped segments, plus the fusion
    cap to run it under.

    Registers: r16..r23 data, r24/r25 loop counters, X for pointer
    traffic, r0/r1 written by MUL.  Every loop counts down to zero, and
    every call returns, so the program always reaches its ``break``.
    """
    lines = [".bss cells, 16", "main:"]
    lines += [f"    ldi r{reg}, {draw(st.integers(0, 255))}"
              for reg in range(16, 24)]
    helpers = []
    for index in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(
            ["run", "long", "self", "nested", "call"]))
        if kind == "run":
            body = draw(_body())
        elif kind == "long":  # past the default 48-member cap
            body = draw(_alu_run(49, 56))
        elif kind == "self":  # one-block dec/brne self-loop
            body = [f"ldi r24, {draw(st.integers(0, 255))}",
                    f"self{index}:"] + draw(_alu_run(0, 3)) \
                + ["dec r24", f"brne self{index}"]
        elif kind == "nested":  # trip counts cross the branch counter
            body = [f"ldi r25, {draw(st.integers(1, 12))}",
                    f"outer{index}:",
                    f"ldi r24, {draw(st.integers(1, 40))}",
                    f"inner{index}:"] + draw(_body()) \
                + ["dec r24", f"brne inner{index}"] + draw(_alu_run(0, 2)) \
                + ["dec r25", f"brne outer{index}"]
        else:
            body = [f"rcall helper{index}"]
            helpers += [f"helper{index}:"] + draw(_body()) + ["ret"]
        lines += ["    " + line if not line.endswith(":") else line
                  for line in body]
    lines.append("    break")
    lines += ["    " + line if not line.endswith(":") else line
              for line in helpers]
    cap = draw(st.sampled_from([2, 3, 48]))
    return "\n".join(lines) + "\n", cap


def _loop_stops(stride: int):
    yield from range(1, 64)
    yield from range(64, 1_000_000, stride)


def _bare_state(cpu):
    return (bytes(cpu.r), cpu.pc, cpu.sp, cpu.sreg, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data), cpu.halted)


def _node_state(node):
    kernel, cpu = node.kernel, node.cpu
    stats = kernel.stats
    return (bytes(cpu.r), cpu.pc, cpu.sp, cpu.sreg, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data), cpu.halted,
            dict(stats.trap_counts), stats.kernel_cycles,
            stats.context_switches, stats.scheduler_checks,
            tuple(stats.terminations),
            tuple((task.kernel_cycles, task.min_sp_seen,
                   task.max_stack_used, task.branch_counter,
                   task.exit_reason) for task in kernel.tasks.values()))


def _sweep(make, state, stride: int) -> None:
    """Advance a traced and a stepwise run through every stop; their
    states must agree at each one and both must finish."""
    traced, stepwise = make(True), make(False)
    for stop in _loop_stops(stride):
        traced.run(max_instructions=stop)
        stepwise.run(max_instructions=stop)
        assert state(traced) == state(stepwise), stop
        if getattr(stepwise, "cpu", stepwise).halted:
            return
        assert stop < 200_000, "generated program did not terminate"


#: Shrunk failure: a thunk head that did not write the pc left it on the
#: block start when ``break`` ended the last task (stepwise leaves it on
#: the trap site).
_BREAK_AFTER_RUN = (".bss cells, 16\nmain:\n"
                    + "".join(f"    ldi r{reg}, 0\n" for reg in range(16, 24))
                    + "    add r16, r16\n" * 53 + "    break\n")


@given(loop_program(), st.sampled_from([7, 13, 31]))
@settings(max_examples=_LOOP_EXAMPLES, deadline=None)
@example(program=(_BREAK_AFTER_RUN, 2), stride=7)
def test_loop_family_matches_stepwise_at_every_stop(program, stride):
    source, cap = program
    image = assemble(source)

    def bare(fuse):
        flash = Flash()
        flash.load(0, image.words)
        cpu = AvrCpu(flash, fuse=fuse, max_block=cap, block_cache=False)
        cpu.pc = image.entry
        return cpu

    def kernel(fuse):
        # Two copies and a short slice: preemption lands mid-loop.
        return SensorNode.from_sources(
            [("a", source), ("b", source)],
            config=KernelConfig(time_slice_cycles=3_000), fuse=fuse,
            max_block_members=cap, block_cache=False)

    _sweep(bare, _bare_state, stride)
    _sweep(kernel, _node_state, stride)


# -- random TinyC expressions -----------------------------------------------------

@st.composite
def c_expression(draw, depth: int = 0):
    """(text, python_value) pairs over u16 arithmetic."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(0, 0xFFFF))
        return str(value), value
    op = draw(st.sampled_from(
        ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==",
         "!=", "<", "<=", ">", ">="]))
    left_text, left_value = draw(c_expression(depth=depth + 1))
    right_text, right_value = draw(c_expression(depth=depth + 1))
    if op in ("<<", ">>"):
        shift = draw(st.integers(0, 15))
        right_text, right_value = str(shift), shift
    if op in ("/", "%") and right_value == 0:
        right_text, right_value = "1", 1  # division by zero is UB-ish
    text = f"({left_text} {op} {right_text})"
    if op == "+":
        value = (left_value + right_value) & 0xFFFF
    elif op == "-":
        value = (left_value - right_value) & 0xFFFF
    elif op == "*":
        value = (left_value * right_value) & 0xFFFF
    elif op == "/":
        value = left_value // right_value
    elif op == "%":
        value = left_value % right_value
    elif op == "&":
        value = left_value & right_value
    elif op == "|":
        value = left_value | right_value
    elif op == "^":
        value = left_value ^ right_value
    elif op == "<<":
        value = (left_value << right_value) & 0xFFFF
    elif op == ">>":
        value = left_value >> right_value
    else:
        value = int({
            "==": left_value == right_value,
            "!=": left_value != right_value,
            "<": left_value < right_value,
            "<=": left_value <= right_value,
            ">": left_value > right_value,
            ">=": left_value >= right_value,
        }[op])
    return text, value


@given(c_expression())
@settings(max_examples=40, deadline=None)
def test_tinyc_expressions_match_python(pair):
    text, expected = pair
    asm = compile_c_to_asm(f"""
u16 out;
void main() {{ out = {text}; halt(); }}
""")
    result = run_native(asm, max_instructions=2_000_000)
    assert result.finished
    measured = result.heap_byte(0) | (result.heap_byte(1) << 8)
    assert measured == expected, text
