"""Rewriter soundness linter.

Re-derives the naturalized layout from the original program, then
re-disassembles the naturalized image and proves, word by word, the
invariants the kernel's safety story rests on:

1. **site coverage** — every instruction ``classify()`` flags is, in
   the image, a 32-bit ``JMP`` into the trampoline region, landing on
   the slot the rewriter recorded for it (same :class:`PatchKind`);
2. **no untrapped danger** — no *other* instruction in the body can
   touch data memory, the stack pointer, the Timer3 block, program
   memory, or control flow the kernel must mediate (the check uses its
   own dangerous-instruction predicate, deliberately independent of
   ``classify()``);
3. **shift-table integrity** — entries strictly monotonic, exactly one
   per inflated (1-word) site, none spurious;
4. **trampoline containment** — every site target is a placed slot in
   ``[trap_lo, trap_hi)``;
5. **skip alignment** — a conditional skip's shadow ends on an
   instruction boundary of the *naturalized* body (an inflated
   successor is skipped whole, never re-entered mid-``JMP``).

Violations carry the naturalized site address and the expected
:class:`PatchKind`, so a corrupted image fails with a diagnostic that
names the exact site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...avr import ioports
from ...avr.encoding import EncodingError, decode, encode
from ...avr.instruction import DataWord, Instruction
from ...avr.isa import IO_SPL, IO_SPH, Format, Kind
from ...rewriter.classify import PatchKind, classify

#: Mnemonics that read or write data memory / the stack (independent of
#: classify(): the linter's own list, kept deliberately separate so a
#: classifier bug cannot hide from its own checker).
_MEMORY = frozenset({"LD", "ST", "LDD", "STD", "LDS", "STS",
                     "PUSH", "POP"})
#: Control flow and CPU control the kernel must mediate.
_CONTROL = frozenset({"CALL", "RCALL", "IJMP", "ICALL", "LPM",
                      "SLEEP", "BREAK"})


@dataclass(frozen=True)
class LintFinding:
    """One invariant violation."""

    check: str                     # short check id, e.g. "site-not-jmp"
    program: str                   # task name
    address: int                   # naturalized word address (-1: global)
    kind: Optional[PatchKind]      # expected patch kind, when applicable
    message: str

    def render(self) -> str:
        where = f"{self.address:#06x}" if self.address >= 0 else "-"
        kind = self.kind.value if self.kind is not None else "-"
        return (f"[{self.check}] {self.program} @ {where} "
                f"(kind {kind}): {self.message}")


@dataclass
class LintReport:
    """Aggregated result of linting one target image."""

    findings: List[LintFinding] = field(default_factory=list)
    programs: List[str] = field(default_factory=list)
    sites_total: int = 0
    sites_verified: int = 0
    shift_entries: int = 0
    instructions_scanned: int = 0
    trampolines: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def coverage(self) -> float:
        if self.sites_total == 0:
            return 1.0
        return self.sites_verified / self.sites_total

    def findings_for(self, check: str) -> List[LintFinding]:
        return [finding for finding in self.findings
                if finding.check == check]

    def render(self) -> str:
        lines = [
            f"soundness lint: {len(self.programs)} program(s) "
            f"({', '.join(self.programs)})",
            f"  patch sites     : {self.sites_verified}/{self.sites_total} "
            f"verified ({100 * self.coverage:.1f}% coverage)",
            f"  shift entries   : {self.shift_entries}",
            f"  instructions    : {self.instructions_scanned} scanned",
            f"  trampolines     : {self.trampolines} placed slots",
        ]
        if self.ok:
            lines.append("  verdict         : OK — image is sound")
        else:
            lines.append(f"  verdict         : {len(self.findings)} "
                         f"violation(s)")
            lines.extend("    " + finding.render()
                         for finding in self.findings)
        return "\n".join(lines)


def _static_data_address(ins: Instruction) -> Optional[int]:
    """The linter's own static-address extraction (see module doc)."""
    mnemonic = ins.mnemonic
    if mnemonic in ("LDS", "STS"):
        return ins.operands[1]
    if mnemonic == "IN":
        return ioports.io_to_data(ins.operands[1])
    if mnemonic == "OUT":
        return ioports.io_to_data(ins.operands[0])
    if mnemonic in ("SBI", "CBI", "SBIC", "SBIS"):
        return ioports.io_to_data(ins.operands[0])
    return None


def _untrapped_check(ins: Instruction, body: Tuple[int, int],
                     ) -> Optional[Tuple[str, str]]:
    """(check id, message) when a non-site instruction is dangerous."""
    mnemonic = ins.mnemonic
    if mnemonic in _MEMORY:
        return ("untrapped-memory",
                f"{mnemonic} reaches data memory without a trampoline")
    if mnemonic in ("IN", "OUT"):
        io_address = ins.operands[1] if mnemonic == "IN" else \
            ins.operands[0]
        if io_address in (IO_SPL, IO_SPH):
            return ("untrapped-stack-pointer",
                    f"{mnemonic} touches the stack pointer natively")
    address = _static_data_address(ins)
    if address is not None and address in ioports.TIMER3_ADDRESSES:
        return ("untrapped-timer3",
                f"{mnemonic} reaches reserved Timer3 register "
                f"{address:#06x}")
    if mnemonic in _CONTROL:
        return ("untrapped-control",
                f"{mnemonic} transfers control without kernel mediation")
    fmt = ins.opspec.fmt
    if fmt in (Format.REL12, Format.BRANCH, Format.JMPCALL):
        target = ins.branch_target()
        if target <= ins.address:
            return ("untrapped-backward-branch",
                    f"backward {mnemonic} to {target:#06x} bypasses the "
                    f"scheduler trap")
        lo, hi = body
        if not lo <= target < hi:
            return ("branch-escape",
                    f"{mnemonic} targets {target:#06x} outside the "
                    f"program body [{lo:#06x}, {hi:#06x})")
    return None


def _lint_task(task, pool, trap_region: Tuple[int, int],
               report: LintReport, classify_fn) -> None:
    natural = task.natural
    program = natural.program
    words = natural.words
    base = natural.base
    name = task.name
    slot_by_address = pool.by_address()
    trap_lo, trap_hi = trap_region

    def finding(check: str, address: int, kind: Optional[PatchKind],
                message: str) -> None:
        report.findings.append(LintFinding(
            check=check, program=name, address=address, kind=kind,
            message=message))

    # -- independent layout re-derivation -----------------------------------
    cursor = base
    flagged: List[Tuple[Instruction, int, PatchKind]] = []
    plain: List[Tuple[Instruction, int]] = []  # (original, nat address)
    nat_size: Dict[int, int] = {}              # nat address -> words
    boundaries: List[int] = []
    for item in program.items:
        boundaries.append(cursor)
        if isinstance(item, DataWord):
            nat_size[cursor] = 1
            cursor += 1
            continue
        kind = classify_fn(item)
        if kind is not PatchKind.NONE:
            flagged.append((item, cursor, kind))
            nat_size[cursor] = 2
            cursor += 2
        else:
            plain.append((item, cursor))
            nat_size[cursor] = item.words
            cursor += item.words
    body_end = cursor
    if body_end != natural.end:
        finding("layout-size", -1, None,
                f"re-derived body ends at {body_end:#06x} but the image "
                f"records {natural.end:#06x}")
    boundary_set = set(boundaries)

    # -- 1. + 4. every flagged site is a trampoline JMP ----------------------
    report.sites_total += len(flagged)
    for original, nat_address, kind in flagged:
        offset = nat_address - base
        site = natural.sites.get(nat_address)
        if site is None:
            finding("site-missing", nat_address, kind,
                    f"{original.mnemonic} at original "
                    f"{original.address:#06x} is flagged but the image "
                    f"records no patch site")
            continue
        if site.kind is not kind:
            finding("site-kind-mismatch", nat_address, kind,
                    f"image records {site.kind.value}")
            continue
        if offset + 1 >= len(words):
            finding("site-truncated", nat_address, kind,
                    "32-bit JMP runs past the end of the body")
            continue
        try:
            decoded = decode(words[offset], words[offset + 1], nat_address)
        except EncodingError:
            finding("site-not-jmp", nat_address, kind,
                    f"site words {words[offset]:#06x} "
                    f"{words[offset + 1]:#06x} do not decode")
            continue
        if decoded.mnemonic != "JMP" or decoded.words != 2:
            finding("site-not-jmp", nat_address, kind,
                    f"site holds {decoded.mnemonic}, not a trampoline JMP")
            continue
        target = decoded.operands[0]
        if not trap_lo <= target < trap_hi:
            finding("site-target-outside", nat_address, kind,
                    f"JMP target {target:#06x} is outside the trampoline "
                    f"region [{trap_lo:#06x}, {trap_hi:#06x})")
            continue
        slot = slot_by_address.get(target)
        if slot is None:
            finding("site-target-misaligned", nat_address, kind,
                    f"JMP target {target:#06x} is not a slot start")
            continue
        if slot.kind is not kind:
            finding("site-wrong-trampoline", nat_address, kind,
                    f"trampoline at {target:#06x} handles {slot.kind.value}")
            continue
        report.sites_verified += 1
    extra_sites = set(natural.sites) - {address for _, address, _ in flagged}
    for nat_address in sorted(extra_sites):
        finding("site-extra", nat_address, natural.sites[nat_address].kind,
                "image records a patch site the classifier does not flag")

    # -- 2. untrapped-danger scan over the re-disassembled body --------------
    body = (base, body_end)
    for original, nat_address, in plain:
        offset = nat_address - base
        report.instructions_scanned += 1
        try:
            second = words[offset + 1] if offset + 1 < len(words) else None
            decoded = decode(words[offset], second, nat_address)
        except EncodingError:
            finding("body-not-decodable", nat_address, None,
                    f"word {words[offset]:#06x} at an instruction "
                    f"position does not decode")
            continue
        if list(encode(decoded)) != \
                words[offset:offset + decoded.words]:
            finding("body-encoding-mismatch", nat_address, None,
                    "decoded instruction does not re-encode to the image "
                    "words")
        danger = _untrapped_check(decoded, body)
        if danger is not None:
            check, message = danger
            finding(check, nat_address, None, message)
        # -- 5. skip shadows end on a naturalized boundary -------------------
        if decoded.kind & Kind.SKIP:
            shadow = nat_address + decoded.words
            landing = shadow + nat_size.get(shadow, 1)
            if shadow in nat_size and landing not in boundary_set and \
                    landing != body_end:
                finding("skip-misaligned", nat_address, None,
                        f"skip shadow lands at {landing:#06x}, not an "
                        f"instruction boundary")

    # -- 3. shift-table integrity --------------------------------------------
    entries = natural.shift_table.entries
    report.shift_entries += len(entries)
    if any(b <= a for a, b in zip(entries, entries[1:])):
        finding("shift-nonmonotonic", -1, None,
                "shift-table entries are not strictly increasing")
    inflated = {original.address for original, _, _ in flagged
                if original.words == 1}
    for missing in sorted(inflated - set(entries)):
        finding("shift-missing-entry", missing, None,
                f"inflated site at original {missing:#06x} has no "
                f"shift-table entry")
    for spurious in sorted(set(entries) - inflated):
        finding("shift-extra-entry", spurious, None,
                f"shift-table entry {spurious:#06x} does not match an "
                f"inflated site")


def lint_image(image, classify_fn=None) -> LintReport:
    """Lint every task of a linked :class:`TargetImage`."""
    classify_fn = classify_fn if classify_fn is not None else classify
    report = LintReport()
    report.trampolines = image.pool.count
    for task in image.tasks:
        report.programs.append(task.name)
        _lint_task(task, image.pool, image.trap_region, report,
                   classify_fn)
    return report


def lint_sources(sources: Sequence[Tuple[str, str]],
                 rewriter=None) -> LintReport:
    """Link ``(name, assembly)`` pairs and lint the resulting image."""
    from ...toolchain.linker import link_image
    return lint_image(link_image(sources, rewriter=rewriter))
