"""Intel HEX encoding of target images.

Real mote toolchains ship firmware as Intel HEX (avr-gcc's
``objcopy -O ihex`` output, consumed by uisp/avrdude).  This module
writes and reads the format so naturalized images can round-trip
through the same artifact a real base station would transmit.

Supported record types: 00 (data), 01 (EOF), 02 (extended segment
address) — enough for the ATmega128's 128 KB program space.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..errors import ReproError


class IhexError(ReproError):
    """Malformed Intel HEX input."""


def _checksum(record_bytes: bytes) -> int:
    return (-sum(record_bytes)) & 0xFF


def _record(record_type: int, address: int, payload: bytes) -> str:
    body = bytes([len(payload), (address >> 8) & 0xFF, address & 0xFF,
                  record_type]) + payload
    return ":" + body.hex().upper() + f"{_checksum(body):02X}"


def words_to_ihex(words: Sequence[int], byte_origin: int = 0,
                  bytes_per_record: int = 16) -> str:
    """Encode 16-bit flash *words* (little-endian) as Intel HEX text."""
    payload = bytearray()
    for word in words:
        payload.append(word & 0xFF)
        payload.append((word >> 8) & 0xFF)
    lines: List[str] = []
    segment = -1
    for offset in range(0, len(payload), bytes_per_record):
        address = byte_origin + offset
        if address >> 16 != segment:
            segment = address >> 16
            # Extended segment address: paragraph (x16) granularity.
            paragraph = (segment << 16) >> 4
            lines.append(_record(
                0x02, 0,
                bytes([(paragraph >> 8) & 0xFF, paragraph & 0xFF])))
        chunk = payload[offset:offset + bytes_per_record]
        lines.append(_record(0x00, address & 0xFFFF, bytes(chunk)))
    lines.append(_record(0x01, 0, b""))
    return "\n".join(lines) + "\n"


def ihex_to_bytes(text: str) -> Dict[int, int]:
    """Parse Intel HEX text into a byte-address -> value map."""
    data: Dict[int, int] = {}
    base = 0
    saw_eof = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith(":"):
            raise IhexError(f"line {line_number}: missing ':'")
        try:
            body = bytes.fromhex(line[1:])
        except ValueError:
            raise IhexError(f"line {line_number}: bad hex") from None
        if len(body) < 5:
            raise IhexError(f"line {line_number}: record too short")
        if sum(body) & 0xFF:
            raise IhexError(f"line {line_number}: checksum mismatch")
        length, high, low, record_type = body[0], body[1], body[2], body[3]
        payload = body[4:-1]
        if len(payload) != length:
            raise IhexError(f"line {line_number}: length mismatch")
        if saw_eof:
            raise IhexError(f"line {line_number}: data after EOF")
        if record_type == 0x00:
            address = base + (high << 8 | low)
            for index, value in enumerate(payload):
                data[address + index] = value
        elif record_type == 0x01:
            saw_eof = True
        elif record_type == 0x02:
            if length != 2:
                raise IhexError(
                    f"line {line_number}: bad segment record")
            base = ((payload[0] << 8) | payload[1]) << 4
        else:
            raise IhexError(
                f"line {line_number}: unsupported record type "
                f"{record_type:#04x}")
    if not saw_eof:
        raise IhexError("missing EOF record")
    return data


def ihex_to_words(text: str) -> List[Tuple[int, List[int]]]:
    """Parse HEX into ``(word_address, words)`` runs (little-endian)."""
    data = ihex_to_bytes(text)
    if not data:
        return []
    runs: List[Tuple[int, List[int]]] = []
    addresses = sorted(data)
    lo, hi = addresses[0] & ~1, addresses[-1] | 1
    current_start = None
    current_words: List[int] = []
    for byte_address in range(lo, hi + 1, 2):
        if byte_address in data or byte_address + 1 in data:
            word = data.get(byte_address, 0xFF) | \
                (data.get(byte_address + 1, 0xFF) << 8)
            if current_start is None:
                current_start = byte_address >> 1
            current_words.append(word)
        elif current_start is not None:
            runs.append((current_start, current_words))
            current_start, current_words = None, []
    if current_start is not None:
        runs.append((current_start, current_words))
    return runs


def image_to_ihex(image) -> str:
    """Serialize a :class:`TargetImage`'s flash contents as Intel HEX."""
    from ..avr.memory import Flash
    flash = Flash()
    image.burn(flash)
    start = min(task.base for task in image.tasks)
    end = image.trap_region[1]
    return words_to_ihex(flash.as_words(start, end - start),
                         byte_origin=start * 2)


def load_ihex_into_flash(text: str, flash) -> None:
    """Burn parsed HEX runs into a :class:`Flash`."""
    for word_address, words in ihex_to_words(text):
        flash.load(word_address, words)
