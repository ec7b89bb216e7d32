"""Trap-heavy workloads shared by the trace and serve benches.

* ``TRAP_LOOP`` — the SPIN loop of two nested counters.  Every second
  retired instruction is a rewritten backward branch, so the run is one
  long stream of BRANCH_BACKWARD traps; the trace compiler strip-mines
  the inner loop.
* ``TRAP_MIX`` — a loop whose body is almost entirely rewritten memory
  accesses: heap stores/loads through X, displacement stores through Y,
  pushes/pops and a call/return pair, closed by a backward branch.
  Exercises every specialized PatchKind per iteration.

``bench_trace.py`` times both traced (specialized trap fast paths)
against stepwise (generic trap dispatch) and checks that they retire
identical state.  ``BENCH_trapspec.json`` at the repo root holds the
rates recorded when specialization was a separate per-block tier.
"""

# The kernelized rate recorded when this bench was added (1,361,466
# instr/s, traces not yet chained) measured exactly this program.
TRAP_LOOP = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 8
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""

TRAP_MIX = """
    .bss buf, 96

main:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    ldi r28, lo8(buf)
    ldi r29, hi8(buf)
    ldi r20, 0x11
    ldi r21, 0x22
    ldi r25, 250
outer:
    ldi r22, 250
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
