"""Device models: timers, ADC, radio, LEDs."""

from __future__ import annotations

from repro.avr import AvrCpu, Flash, assemble
from repro.avr import ioports
from repro.avr.devices import Adc, Leds, Radio, Timer0, Timer3
from tests.conftest import run_asm


def test_timer0_counts_with_cycles():
    cpu = run_asm("""
main:
    in r16, 0x32      ; TCNT0 at I/O 0x32 (data 0x52)
    ldi r20, 100
spin:
    dec r20
    brne spin
    in r17, 0x32
    break
""", devices=[Timer0(prescaler=8)])
    elapsed = cpu.r[17] - cpu.r[16]
    # ~300 cycles of spinning at prescaler 8 -> ~37 ticks.
    assert 30 <= elapsed <= 45


def test_timer3_16bit_read_latches_high_byte():
    timer = Timer3(prescaler=1)
    cpu = run_asm(f"""
main:
    ldi r20, 200
spin1:
    dec r20
    brne spin1
    lds r16, {ioports.TCNT3L}
    lds r17, {ioports.TCNT3H}
    break
""", devices=[timer])
    value = (cpu.r[17] << 8) | cpu.r[16]
    # The latched pair must be a consistent 16-bit snapshot near ~600.
    assert 550 <= value <= 650


def test_timer3_compare_wakes_sleeping_cpu():
    timer = Timer3(prescaler=8)
    source = f"""
.org {ioports.VECT_TIMER3_COMPA}
    jmp isr
.org 0x40
main:
    ldi r16, 0x02       ; OCR3A = 0x0200 ticks
    sts {ioports.OCR3AH}, r16
    ldi r16, 0x00
    sts {ioports.OCR3AL}, r16
    ldi r16, 1
    sts {ioports.TCCR3B}, r16   ; enable compare interrupt
    sei
    sleep
    nop
    break
isr:
    ldi r20, 0xCC
    reti
"""
    program = assemble(source)
    flash = Flash()
    flash.load(0, program.words)
    cpu = AvrCpu(flash)
    cpu.attach_device(timer)
    cpu.pc = program.labels["main"]
    cpu.run(max_instructions=1000)
    assert cpu.halted
    assert cpu.r[20] == 0xCC
    # Woke around the compare point: 0x200 ticks * prescaler 8.
    assert cpu.cycles >= 0x200 * 8


def test_adc_conversion_poll():
    adc = Adc()
    cpu = run_asm(f"""
main:
    ldi r16, {1 << ioports.ADSC}
    sts {ioports.ADCSRA}, r16     ; start conversion
poll:
    lds r17, {ioports.ADCSRA}
    sbrc r17, {ioports.ADSC}      ; still busy?
    rjmp poll
    lds r18, {ioports.ADCL}
    lds r19, {ioports.ADCH}
    break
""", devices=[adc])
    sample = (cpu.r[19] << 8) | cpu.r[18]
    assert 0 < sample <= 0x3FF
    assert adc.samples_taken == 1
    assert cpu.cycles >= adc.conversion_cycles


def test_adc_signal_is_deterministic():
    a, b = Adc(seed=7), Adc(seed=7)
    assert [a.sample_value() for _ in range(50)] == \
        [b.sample_value() for _ in range(50)]


def test_adc_signal_varies():
    adc = Adc()
    samples = [adc.sample_value() for _ in range(64)]
    assert max(samples) - min(samples) > 100  # triangle swing visible


def test_radio_transmits_bytes_with_ready_flag():
    radio = Radio(byte_cycles=50)
    cpu = run_asm(f"""
main:
    ldi r16, 3
    ldi r17, 0x41
send:
    lds r18, {ioports.UCSR0A}
    sbrs r18, {ioports.UDRE}
    rjmp send
    sts {ioports.UDR0}, r17
    inc r17
    dec r16
    brne send
    break
""", devices=[radio])
    assert radio.packets == b"ABC"


def test_radio_drops_bytes_when_busy():
    radio = Radio(byte_cycles=10_000)
    cpu = run_asm(f"""
main:
    ldi r17, 0x41
    sts {ioports.UDR0}, r17
    sts {ioports.UDR0}, r17   ; dropped: still busy
    break
""", devices=[radio])
    assert radio.packets == b"A"


def test_leds_record_changes():
    leds = Leds()
    run_asm("""
main:
    ldi r16, 1
    out 0x1B, r16
    ldi r16, 3
    out 0x1B, r16
    ldi r16, 0
    out 0x1B, r16
    break
""", devices=[leds])
    assert leds.changes == [1, 3, 0]


def test_radio_rx_queue_and_flag():
    from repro.avr.devices.radio import RXC
    radio = Radio()
    cpu = run_asm(f"""
main:
    lds r16, {ioports.UCSR0A}     ; no data yet
    break
""", devices=[radio])
    assert not cpu.r[16] & (1 << RXC)

    radio = Radio()
    radio.deliver(b"\x41\x42")
    cpu = run_asm(f"""
main:
    lds r16, {ioports.UCSR0A}
    lds r20, {ioports.UDR0}
    lds r21, {ioports.UDR0}
    lds r17, {ioports.UCSR0A}     ; queue drained
    break
""", devices=[radio])
    assert cpu.r[16] & (1 << RXC)
    assert cpu.r[20] == 0x41
    assert cpu.r[21] == 0x42
    assert not cpu.r[17] & (1 << RXC)


def test_radio_rx_empty_reads_zero():
    radio = Radio()
    cpu = run_asm(f"""
main:
    lds r20, {ioports.UDR0}
    break
""", devices=[radio])
    assert cpu.r[20] == 0


def test_radio_zero_length_frame_is_noop():
    from repro.avr.devices.radio import RXC
    radio = Radio()
    radio.deliver(b"")  # zero-length delivery: nothing queued
    cpu = run_asm(f"""
main:
    lds r16, {ioports.UCSR0A}
    break
""", devices=[radio])
    assert not cpu.r[16] & (1 << RXC)
    assert not radio.rx_queue


def test_radio_max_length_frame_delivered_intact():
    """A 255-byte frame (the largest a one-byte length field can
    claim) drains in order with no loss and leaves RXC clear."""
    from repro.avr.devices.radio import RXC
    radio = Radio()
    payload = bytes((7 + 3 * i) & 0xFF for i in range(255))
    radio.deliver(payload)
    cpu = run_asm(f"""
main:
    ldi r20, 255
    ldi r26, 0x00
    ldi r27, 0x02
recv:
    lds r17, {ioports.UCSR0A}
    sbrs r17, {RXC}
    rjmp recv
    lds r16, {ioports.UDR0}
    st X+, r16
    dec r20
    brne recv
    lds r18, {ioports.UCSR0A}
    break
""", devices=[radio])
    assert bytes(cpu.mem.data[0x200:0x200 + 255]) == payload
    assert not cpu.r[18] & (1 << RXC)
    assert not radio.rx_queue


# -- read stability (what lets traces fast-forward idle polls) --------------------

def _device_state(radio, adc):
    return (radio._busy_until, radio._event, tuple(radio.rx_queue),
            radio.tx_seq, tuple(radio._tx_ring), adc._busy_until,
            adc._event, adc._result, adc._lfsr, adc.samples_taken)


def test_stable_registers_read_the_same_until_the_next_event():
    """With a TX in flight, an RX byte queued and an ADC conversion in
    flight, UCSR0A and ADCSRA read the same byte and change no state at
    every cycle before the next due event — and the first due event
    does change ADCSRA, so the check can fail."""
    flash = Flash()
    cpu = AvrCpu(flash)
    radio, adc = Radio(), Adc()
    cpu.attach_device(radio)
    cpu.attach_device(adc)
    assert cpu.io_stable == {ioports.UCSR0A, ioports.ADCSRA}
    cpu.data_write(ioports.UDR0, 0x41)
    radio.deliver(b"\x42")
    cpu.data_write(ioports.ADCSRA, 1 << ioports.ADSC)
    due = cpu.events.next_due
    assert cpu.cycles < due < float("inf")
    first = {port: cpu.data_read(port) for port in sorted(cpu.io_stable)}
    state = _device_state(radio, adc)
    for cycle in range(cpu.cycles, due):
        cpu.cycles = cycle
        for port, value in first.items():
            assert cpu.data_read(port) == value, (port, cycle)
        assert _device_state(radio, adc) == state, cycle
        assert cpu.events.next_due == due
    cpu.cycles = due
    assert cpu.data_read(ioports.ADCSRA) != first[ioports.ADCSRA]


def test_booted_node_declares_only_device_status_registers_stable():
    """TCNT0 ticks without an event, a UDR0 read pops the RX queue, and
    the kernel's SP and virtual Timer3 entries are its own: none is
    stable on a booted node."""
    from repro.kernel import SensorNode
    node = SensorNode.from_sources([("idle", "main:\n    break\n")],
                                   block_cache=False)
    stable = node.cpu.io_stable
    assert stable == {ioports.UCSR0A, ioports.ADCSRA}
    kernel = node.kernel
    claimed = {address for address in range(ioports.RAM_START)
               if getattr(node.cpu.io_read[address], "__self__", None)
               is kernel}
    assert claimed == {ioports.SPL, ioports.SPH} \
        | set(ioports.TIMER3_ADDRESSES)
    assert not stable & claimed
