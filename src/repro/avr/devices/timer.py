"""Hardware timers.

Timer values are computed lazily from the CPU cycle counter instead of
being ticked per instruction, which keeps the simulator fast.  Timer3
additionally supports an output-compare interrupt — the wake-up source
for natively-executing periodic programs (under SenSmart the kernel owns
Timer3 and applications reach it only through intercepted accesses).

Compare matches are :class:`~repro.sim.Event` callbacks on the CPU's
event queue: arming (an ``OCR3A``/``TCCR3B`` write) cancels any pending
match and schedules the next one at its exact cycle; the fire callback
re-arms for the following counter wrap, as on real hardware.
"""

from __future__ import annotations

from typing import Optional

from .. import ioports


class _TimerBase:
    """Common lazy-counter machinery."""

    def __init__(self, prescaler: int = 8):
        self.prescaler = prescaler
        self._cpu = None
        self._base_cycle = 0  # cycle at which the counter read 0

    def attach(self, cpu) -> None:
        """Start counting from the current cycle and claim the timer's
        registers in the CPU's routing tables."""
        self._cpu = cpu
        self._base_cycle = cpu.cycles
        self._claim(cpu)

    def count(self) -> int:
        elapsed = self._cpu.cycles - self._base_cycle
        return elapsed // self.prescaler

    def reset_to(self, value: int) -> None:
        """Make the counter read *value* at the current cycle."""
        self._base_cycle = self._cpu.cycles - value * self.prescaler

    def _claim(self, cpu) -> None:
        raise NotImplementedError


class Timer0(_TimerBase):
    """8-bit timer/counter available to applications (TCNT0)."""

    def __init__(self, prescaler: int = 32):
        super().__init__(prescaler)

    def _claim(self, cpu) -> None:
        """Claim TCNT0."""
        cpu.io_read[ioports.TCNT0] = lambda _: self.count() & 0xFF
        cpu.io_write[ioports.TCNT0] = lambda _, value: self.reset_to(value)


class Timer3(_TimerBase):
    """16-bit timer with output-compare interrupt (the kernel's clock).

    Reading ``TCNT3L`` latches the high byte into ``TCNT3H``, as on real
    AVR hardware.  Writing ``OCR3A`` arms a compare event; when compare
    interrupts are enabled (bit 0 of ``TCCR3B`` in this simplified model)
    the event raises ``VECT_TIMER3_COMPA``, otherwise it just sets the
    ``ETIFR`` flag (bit 0) for polling.
    """

    def __init__(self, prescaler: int = 8):
        super().__init__(prescaler)
        self.ocr3a = 0
        self.compare_armed = False
        self.irq_enabled = False
        self.flag = 0
        self._latched_high = 0
        self._fire_cycle: Optional[int] = None
        self._event = None

    def _claim(self, cpu) -> None:
        """Claim TCNT3L/H, OCR3AL/H, TCCR3B and ETIFR."""
        io_read, io_write = cpu.io_read, cpu.io_write
        io_read[ioports.TCNT3L] = self._read_low
        io_read[ioports.TCNT3H] = lambda _: self._latched_high
        io_write[ioports.TCNT3L] = self._write_low
        io_write[ioports.TCNT3H] = self._write_high
        io_read[ioports.OCR3AL] = lambda _: self.ocr3a & 0xFF
        io_read[ioports.OCR3AH] = lambda _: self.ocr3a >> 8
        io_write[ioports.OCR3AL] = self._write_ocr_low
        io_write[ioports.OCR3AH] = self._write_ocr_high
        io_read[ioports.TCCR3B] = lambda _: 1 if self.irq_enabled else 0
        io_write[ioports.TCCR3B] = self._write_control
        io_read[ioports.ETIFR] = lambda _: self.flag
        io_write[ioports.ETIFR] = self._write_flag

    # -- register behaviour -------------------------------------------------

    def count16(self) -> int:
        return self.count() & 0xFFFF

    def _read_low(self, address: int) -> int:
        value = self.count16()
        self._latched_high = value >> 8
        return value & 0xFF

    def _write_low(self, address: int, value: int) -> None:
        self.reset_to((self._latched_high << 8) | value)

    def _write_high(self, address: int, value: int) -> None:
        self._latched_high = value

    def _write_ocr_low(self, address: int, value: int) -> None:
        self.ocr3a = (self.ocr3a & 0xFF00) | value
        self._arm()

    def _write_ocr_high(self, address: int, value: int) -> None:
        self.ocr3a = (value << 8) | (self.ocr3a & 0xFF)
        self._arm()

    def _write_control(self, address: int, value: int) -> None:
        self.irq_enabled = bool(value & 1)
        self._arm()

    def _write_flag(self, address: int, value: int) -> None:
        # Writing 1 clears the flag, as on real hardware.
        self.flag &= ~value

    def _arm(self) -> None:
        """(Re)schedule the compare-match event at its exact cycle."""
        self.compare_armed = True
        now = self.count()
        wrap = 0x10000
        delta = (self.ocr3a - (now % wrap)) % wrap
        if delta == 0:
            delta = wrap  # match at the *next* pass, as on real hardware
        self._fire_cycle = self._cpu.cycles + delta * self.prescaler
        events = self._cpu.events
        events.cancel(self._event)
        self._event = events.schedule(self._fire_cycle, self._fire)

    def _fire(self) -> None:
        self.flag |= 1
        if self.irq_enabled:
            self._cpu.raise_interrupt(ioports.VECT_TIMER3_COMPA)
        # The comparator keeps matching once per counter wrap, as on
        # real hardware; re-arm for the next pass.
        self._arm()
