"""LED device (re-exported from radio module's sibling definition).

Kept as its own module for discoverability; the implementation lives
here to avoid a circular import.
"""

from __future__ import annotations

from typing import List

from .. import ioports


class Leds:
    """Three debug LEDs on PORTA, recording every state change."""

    def __init__(self):
        self.state = 0
        self.changes: List[int] = []
        self._cpu = None

    def attach(self, cpu) -> None:
        """Claim PORTA."""
        self._cpu = cpu
        cpu.io_read[ioports.PORTA] = lambda _: self.state
        cpu.io_write[ioports.PORTA] = self._write

    def _write(self, address: int, value: int) -> None:
        self.state = value & 0x07
        self.changes.append(self.state)
