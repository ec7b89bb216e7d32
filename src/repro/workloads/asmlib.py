"""Shared assembly fragments for the workload programs."""

from __future__ import annotations

from ..avr import ioports


def compute_block_mem(instructions: int, label: str = "work",
                      scratch: str = "work_scratch") -> str:
    """A computation loop that also touches the heap each iteration.

    Nine instructions per iteration — one ``LDD`` plus arithmetic —
    matching the instruction mix of real signal-processing code, where
    memory-translation overhead dominates a naturalized build.  The
    program must reserve ``.bss <scratch>, 2`` and may not use Y or
    r16/r17/r24/r25 across the block.
    """
    iterations = max(instructions // 9, 1)
    if iterations > 0xFFFF:
        raise ValueError("computation size too large for one block")
    return f"""
    ldi r28, lo8({scratch})
    ldi r29, hi8({scratch})
    ldi r24, lo8({iterations})
    ldi r25, hi8({iterations})
{label}_loop:
    ldd r16, Y+0
    eor r16, r24
    add r16, r25
    swap r16
    inc r16
    lsr r16
    mov r17, r16
    sbiw r24, 1
    brne {label}_loop
"""


def radio_send_byte(data_reg: str, label: str) -> str:
    """Poll the radio-ready flag, then transmit one byte."""
    return f"""
{label}_wait:
    lds r19, {ioports.UCSR0A}
    sbrs r19, {ioports.UDRE}
    rjmp {label}_wait
    sts {ioports.UDR0}, {data_reg}
"""


def adc_sample(label: str) -> str:
    """Start an ADC conversion, busy-wait, leave the 10-bit result in
    r18 (low) / r19 (high)."""
    return f"""
    ldi r18, {1 << ioports.ADSC}
    sts {ioports.ADCSRA}, r18
{label}_poll:
    lds r18, {ioports.ADCSRA}
    sbrc r18, {ioports.ADSC}
    rjmp {label}_poll
    lds r18, {ioports.ADCL}
    lds r19, {ioports.ADCH}
"""


def lfsr_step(label: str) -> str:
    """16-bit Galois LFSR step on r25:r24, clobbers r18."""
    return f"""
    lsr r25
    ror r24
    brcc {label}_noxor
    ldi r18, 0xB4
    eor r25, r18
{label}_noxor:
"""


def arm_virtual_timer(period_ticks: int) -> str:
    """Arm the per-task periodic timer (SenSmart virtual-Timer3 ABI).

    Write OCR3AH then OCR3AL; the low-byte write arms a periodic timer
    with the given 16-bit tick period (prescaler 8).
    """
    return f"""
    ldi r16, hi8({period_ticks})
    sts {ioports.OCR3AH}, r16
    ldi r16, lo8({period_ticks})
    sts {ioports.OCR3AL}, r16
"""
