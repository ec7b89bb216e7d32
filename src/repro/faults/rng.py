"""Seeded xorshift PRNG for fault planning.

A tiny, dependency-free generator with the same design constraints as
the radio LFSRs in ``repro.net``: pure integer state, identical on
every platform and Python version, zero reliance on the ``random``
module's global state.  Distinct streams (one per node, one per fault
kind) are derived by mixing strings into the seed, so adding a fault
kind never perturbs another kind's draws.
"""

from __future__ import annotations

_MASK = 0xFFFFFFFF


class XorShift32:
    """Marsaglia xorshift32: 2**32-1 period, never yields 0 state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or 0x9E3779B9

    def next(self) -> int:
        x = self.state
        x ^= (x << 13) & _MASK
        x ^= x >> 17
        x ^= (x << 5) & _MASK
        self.state = x
        return x

    def below(self, bound: int) -> int:
        """Uniform-ish draw in ``[0, bound)`` (bound >= 1)."""
        return self.next() % bound

    def derive(self, label: str) -> "XorShift32":
        """A child stream keyed by *label*, independent of this one."""
        state = self.state
        for char in label:
            state = ((state * 0x01000193) ^ ord(char)) & _MASK
        child = XorShift32(state or 0x9E3779B9)
        child.next()  # decorrelate from the raw mix
        return child
