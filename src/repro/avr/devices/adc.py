"""ADC with a deterministic synthetic signal source.

A real MICA2 samples microphone/magnetometer/photo channels.  We feed the
converter a seeded, reproducible waveform: a coarse triangle wave plus
LFSR noise, chosen so amplitude-style workloads see realistic variation
without any dependency on non-deterministic randomness.

Conversion timing follows the ATmega128L: a conversion takes 13 ADC
clocks; with the default /64 prescaler that is 832 CPU cycles.  Programs
start a conversion by setting ``ADSC`` in ``ADCSRA`` and poll until the
bit clears (or wait for ``ADIF``).  Starting a conversion schedules a
one-shot completion event on the CPU's event queue; a status read that
lands after the due cycle but before the block boundary completes the
conversion lazily, so polling observes the exact same timing.
"""

from __future__ import annotations

from typing import Optional

from .. import ioports

CONVERSION_ADC_CLOCKS = 13


class Adc:
    """Successive-approximation ADC, 10-bit results in ADCL/ADCH."""

    def __init__(self, prescaler: int = 64, seed: int = 0xACE1):
        self.prescaler = prescaler
        self.seed = seed & 0xFFFF or 0xACE1
        self._lfsr = self.seed
        self.samples_taken = 0
        self.channel = 0
        self._cpu = None
        self._busy_until: Optional[int] = None
        self._result = 0
        self._event = None

    @property
    def conversion_cycles(self) -> int:
        return CONVERSION_ADC_CLOCKS * self.prescaler

    def attach(self, cpu) -> None:
        """Claim ADCL/ADCH (result), ADCSRA (control) and ADMUX.

        ADCSRA is stable: a read completes a conversion lazily only at
        cycles >= ``_busy_until``, when its completion event is due.
        """
        self._cpu = cpu
        io_read, io_write = cpu.io_read, cpu.io_write
        io_read[ioports.ADCL] = lambda _: self._result & 0xFF
        io_read[ioports.ADCH] = lambda _: self._result >> 8
        io_read[ioports.ADCSRA] = self._read_status
        io_write[ioports.ADCSRA] = self._write_control
        cpu.io_stable.add(ioports.ADCSRA)
        io_read[ioports.ADMUX] = lambda _: self.channel
        io_write[ioports.ADMUX] = self._write_mux

    # -- signal generation ----------------------------------------------------

    def _next_noise(self) -> int:
        # 16-bit Fibonacci LFSR (taps 16, 14, 13, 11).
        lfsr = self._lfsr
        bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
        self._lfsr = (lfsr >> 1) | (bit << 15)
        return self._lfsr & 0x3F  # 6 bits of noise

    def sample_value(self) -> int:
        """Next 10-bit sample: triangle wave + LFSR noise."""
        index = self.samples_taken
        self.samples_taken += 1
        period = 64
        phase = index % period
        triangle = phase * 2 if phase < period // 2 else \
            (period - phase) * 2
        base = 300 + triangle * 8  # swings 300..~812
        return min(0x3FF, base + self._next_noise())

    # -- register behaviour ------------------------------------------------------

    def _read_status(self, address: int) -> int:
        status = 1 << ioports.ADEN
        if self._busy_until is not None:
            if self._cpu.cycles >= self._busy_until:
                self._complete()
            else:
                status |= 1 << ioports.ADSC
        if self._busy_until is None and self.samples_taken:
            status |= 1 << ioports.ADIF
        return status

    def _write_control(self, address: int, value: int) -> None:
        if value & (1 << ioports.ADSC) and self._busy_until is None:
            self._busy_until = self._cpu.cycles + self.conversion_cycles
            self._event = self._cpu.events.schedule(self._busy_until,
                                                    self._on_complete)

    def _write_mux(self, address: int, value: int) -> None:
        self.channel = value & 0x1F

    def _complete(self) -> None:
        self._result = self.sample_value()
        self._busy_until = None
        self._cpu.events.cancel(self._event)
        self._event = None

    def _on_complete(self) -> None:
        """Scheduled completion (a status read may have beaten us to it)."""
        if self._busy_until is not None:
            self._complete()
