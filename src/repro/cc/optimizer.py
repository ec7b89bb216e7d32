"""Peephole optimizer for TinyC output.

The code generator spills the left operand of every binary operator to
the hardware stack; when the right operand is a *leaf* (constant, local
or scalar global) that spill is unnecessary and — under SenSmart —
expensive, since every PUSH/POP is a checked trap.  This pass rewrites
the exact shapes the generator emits:

* ``PUSH r24/r25 … leaf-load … POP r23/r22``  becomes
  ``MOVW r22, r24 … leaf-load …`` (two trapped stack ops saved per
  binary operator, four instructions shrink to three);
* a load immediately following a store to the same frame slot is
  forwarded (``STD Y+q, rX`` then ``LDD rX, Y+q`` drops the load).

Patterns never cross labels, so control-flow joins are safe, and every
replacement preserves the generator's register contract exactly
(r22/r23 were dead before the POPs rewrote them; MOVW writes the same
pair).
"""

from __future__ import annotations

import re
from typing import List

_LEAF_RES = [
    re.compile(r"^    ldi r24, \d+$"),
    re.compile(r"^    ldi r25, \d+$"),
    re.compile(r"^    ldd r24, Y\+\d+$"),
    re.compile(r"^    ldd r25, Y\+\d+$"),
    re.compile(r"^    lds r24, g_\w+( \+ 1)?$"),
    re.compile(r"^    lds r25, g_\w+( \+ 1)?$"),
]

_STD_RE = re.compile(r"^    std (Y\+\d+), (r\d+)$")
_LDD_RE = re.compile(r"^    ldd (r\d+), (Y\+\d+)$")


def _is_leaf_load(line: str) -> bool:
    return any(pattern.match(line) for pattern in _LEAF_RES)


def _is_label(line: str) -> bool:
    return not line.startswith("    ")


def optimize_lines(lines: List[str]) -> List[str]:
    """Apply the peepholes until a fixed point."""
    changed = True
    while changed:
        lines, changed = _one_pass(lines)
    return lines


def _one_pass(lines: List[str]):
    out: List[str] = []
    changed = False
    index = 0
    while index < len(lines):
        window = lines[index:index + 6]
        # PUSH-pair, two leaf loads into r24/r25, POP-pair.
        if (len(window) == 6
                and window[0] == "    push r24"
                and window[1] == "    push r25"
                and _is_leaf_load(window[2])
                and _is_leaf_load(window[3])
                and window[4] == "    pop r23"
                and window[5] == "    pop r22"):
            out.append("    movw r22, r24")
            out.append(window[2])
            out.append(window[3])
            index += 6
            changed = True
            continue
        # Same shape with a single-byte leaf (u8 global: lds + ldi 0).
        if (len(window) >= 5
                and window[0] == "    push r24"
                and window[1] == "    push r25"
                and _is_leaf_load(window[2])
                and window[3] == "    pop r23"
                and window[4] == "    pop r22"):
            out.append("    movw r22, r24")
            out.append(window[2])
            index += 5
            changed = True
            continue
        # Store-load forwarding within a straight line.
        if index + 1 < len(lines):
            store = _STD_RE.match(lines[index])
            load = _LDD_RE.match(lines[index + 1])
            if (store and load and store.group(1) == load.group(2)
                    and store.group(2) == load.group(1)
                    and not _is_label(lines[index + 1])):
                out.append(lines[index])
                index += 2  # drop the redundant load
                changed = True
                continue
        out.append(lines[index])
        index += 1
    return out, changed
