"""Injection campaigns: run seeded attacks, classify containment.

Each trial is a fresh two-node network — ``mallory`` clocks one
malicious payload out its radio at an intentionally-vulnerable victim
task riding beside a canary task — and ends in exactly one outcome of
the containment taxonomy:

* ``TRAPPED_OOB`` — logical addressing / SP virtualization /
  indirect-branch translation rejected the attack (the paper's
  containment claim holding).
* ``TASK_TERMINATED`` — the attack redirected control, but the hijacked
  flow died on kernel ground (KERNEL_ESCAPE into the trampoline
  region, an undecodable word in erased flash) before doing harm.
* ``WATCHDOG`` — the attack starved the branch-trap scheduler tick and
  the software watchdog reclaimed the CPU.
* ``PANIC_REBOOT`` — containment failed wide enough that the node
  itself went down and cold-restarted.
* ``SILENT_CORRUPTION`` — the victim "succeeded" with corrupted data
  (wrong self-digest) or the canary's heap changed: nothing trapped,
  something is wrong.
* ``HIJACKED`` — attacker-directed execution, proven by the gadget
  marker bytes in the victim node's TX log or by the victim parked
  with its PC inside another task's program (the PC-in-foreign-region
  probe).
* ``SURVIVED`` — the victim finished with the correct digest and the
  canary intact; the attack simply failed.

Classification uses only tier-invariant facts (termination reasons,
TX logs, quiesced memory), so one seed produces a byte-identical
survivability table under every execution tier — pinned by tests and
the CI golden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import format_table
from ..fingerprint import content_key
from ..kernel import KernelConfig, SensorNode
from ..kernel.termination import TerminationReason, classify_fault_detail
from ..net.network import Network
from .attacks import (
    CANARY, DEFAULT_SEED, MARKER, SHAPES, VICTIM_SOURCES, AddressBook,
    AttackShape, Trial, attacker_src, canary_pattern, shape_trials,
    status_digest,
)

OUTCOMES = ("TRAPPED_OOB", "TASK_TERMINATED", "WATCHDOG", "PANIC_REBOOT",
            "SILENT_CORRUPTION", "HIJACKED", "SURVIVED")

#: Outcomes where the node (not the attacker) kept control.
CONTAINED_OUTCOMES = ("TRAPPED_OOB", "TASK_TERMINATED", "WATCHDOG",
                      "PANIC_REBOOT")

#: Cycle budget per trial.  Generous: the slowest trial (watchdog
#: reclaim after tick starvation) completes well under half of it, and
#: idle nodes park at exactly this cycle, so the budget never shows up
#: in any tier-variant way.
TRIAL_CYCLES = 600_000

#: Radio link latency mallory -> target (cycles).
ATTACK_LATENCY = 1_500

#: Extra seeded trials per shape in a full (non ``--quick``) campaign.
RANDOM_TRIALS = 4


def attack_config() -> KernelConfig:
    """Victim-node config: watchdog armed tight, panics absorbed.

    ``watchdog_slices=2`` keeps the tick-starvation shape inside the
    trial budget; ``panic_reboot=True`` lets a containment breach show
    up as PANIC_REBOOT instead of crashing the campaign host.
    """
    return KernelConfig(watchdog_slices=2, panic_reboot=True)


@dataclass(frozen=True)
class TrialResult:
    """One classified attack trial (all fields tier-invariant)."""

    shape: str
    index: int
    note: str
    outcome: str
    detail: str          # victim exit reason ("" while alive)
    canary_ok: bool
    tx: Tuple[int, ...]  # victim node's radio TX log

    @property
    def key(self) -> Tuple:
        return (self.shape, self.index, self.note, self.outcome,
                self.detail, self.canary_ok, self.tx)


@dataclass
class InjectResult:
    """A full injection campaign: every trial plus the ledger totals."""

    seed: int
    quick: bool
    trials: List[TrialResult] = field(default_factory=list)
    #: Sum of kernel-level "oob" fault terminations across all trial
    #: nodes — must equal the TRAPPED_OOB row total (the survivability
    #: table cross-checked against the kernel's own containment
    #: counters, satellite 6).
    kernel_oob_faults: int = 0

    @property
    def digest(self) -> str:
        return content_key([t.key for t in self.trials])

    def count(self, outcome: str, shape: Optional[str] = None) -> int:
        return sum(1 for t in self.trials if t.outcome == outcome
                   and (shape is None or t.shape == shape))

    @property
    def shapes(self) -> List[str]:
        seen: List[str] = []
        for t in self.trials:
            if t.shape not in seen:
                seen.append(t.shape)
        return seen

    @property
    def contained(self) -> int:
        return sum(1 for t in self.trials
                   if t.outcome in CONTAINED_OUTCOMES)

    @property
    def hijacked(self) -> int:
        return self.count("HIJACKED")

    def render(self) -> str:
        headers = ["shape", "trials", "trapped", "killed", "wdog",
                   "panic", "silent", "hijack", "ok"]
        rows = []
        for shape in self.shapes:
            trials = sum(1 for t in self.trials if t.shape == shape)
            rows.append([
                shape, trials,
                self.count("TRAPPED_OOB", shape),
                self.count("TASK_TERMINATED", shape),
                self.count("WATCHDOG", shape),
                self.count("PANIC_REBOOT", shape),
                self.count("SILENT_CORRUPTION", shape),
                self.count("HIJACKED", shape),
                self.count("SURVIVED", shape),
            ])
        lines = [format_table(headers, rows)]
        trapped = self.count("TRAPPED_OOB")
        check = "ok" if self.kernel_oob_faults == trapped else "MISMATCH"
        lines.append(
            f"trials: {len(self.trials)}  contained: {self.contained}  "
            f"silent: {self.count('SILENT_CORRUPTION')}  "
            f"hijacked: {self.hijacked}  "
            f"survived: {self.count('SURVIVED')}")
        lines.append(
            f"kernel cross-check: {self.kernel_oob_faults} oob faults "
            f"vs {trapped} TRAPPED_OOB trials ({check})")
        lines.append(f"campaign digest: {self.digest}")
        return "\n".join(lines)


# -- building blocks ----------------------------------------------------------------


def build_target(victim: str, config: Optional[KernelConfig] = None,
                 **tier) -> SensorNode:
    """A victim node: the vulnerable receiver plus the canary task."""
    return SensorNode.from_sources(
        [("victim", VICTIM_SOURCES[victim]), ("canary", CANARY)],
        config=config if config is not None else attack_config(),
        **{k: v for k, v in tier.items() if v is not None})


def address_book(node: SensorNode) -> AddressBook:
    """Resolve the attacker's targeting map from a built victim node.

    Placement is deterministic, so the book computed from one throwaway
    node aims every trial of the campaign.
    """
    natural = node.task_named("victim").image.natural
    labels = dict(natural.program.symbols.labels)
    naturalized = {name: natural.shift_table.to_naturalized(addr)
                   for name, addr in labels.items()}
    origin = natural.program.origin
    return AddressBook(
        labels=labels,
        naturalized=naturalized,
        victim_span=(origin, origin + natural.program.size_words),
        canary_entry=node.task_named("canary").image.natural.entry,
        trap_region=node.kernel.image.trap_region,
        flash_end=node.kernel.image.size_words,
    )


def _has_marker(tx: Sequence[int]) -> bool:
    return any(tx[i] == MARKER[0] and tx[i + 1] == MARKER[1]
               for i in range(len(tx) - 1))


def _pc_in_foreign_program(node: SensorNode, task) -> bool:
    """The hijack probe: is the task's PC inside another task's code?"""
    pc = node.cpu.pc if node.kernel.current is task else task.context.pc
    if task.owns_code(pc):
        return False
    return any(other.image.natural.contains(pc)
               for other in node.kernel.tasks.values() if other is not task)


def classify(target: SensorNode) -> Tuple[str, str]:
    """Containment outcome of a finished trial, plus the victim's exit
    reason (tier-invariant; see module docstring for the taxonomy)."""
    victim = target.task_named("victim")
    canary = target.task_named("canary")
    tx = target.radio.transmitted
    detail = victim.exit_reason

    region = target.kernel.regions.maybe_by_task(canary.task_id)
    heap = bytes(target.cpu.mem.data[region.p_l:region.p_l
                                     + len(canary_pattern())]) \
        if region is not None else b""
    canary_ok = canary.alive and heap == canary_pattern()

    if _has_marker(tx) or (victim.alive
                           and _pc_in_foreign_program(target, victim)):
        return "HIJACKED", detail
    panics = target.kernel.stats.panics \
        + sum(s.panics for s in target.stats_history)
    if target.reboots > 0 or panics > 0:
        return "PANIC_REBOOT", detail
    clean_exit = victim.termination is TerminationReason.EXIT
    if not canary_ok or (clean_exit and tuple(tx) != (status_digest(),)):
        return "SILENT_CORRUPTION", detail
    if victim.termination is TerminationReason.WATCHDOG:
        return "WATCHDOG", detail
    if victim.termination is TerminationReason.FAULT \
            and classify_fault_detail(detail) == "oob":
        return "TRAPPED_OOB", detail
    if victim.termination is not None and not clean_exit:
        return "TASK_TERMINATED", detail
    return "SURVIVED", detail


def run_trial(shape: AttackShape, trial: Trial,
              **tier) -> Tuple[TrialResult, SensorNode]:
    """One attack delivery: mallory -> target over a lossless link."""
    target = build_target(shape.victim, **tier)
    mallory = SensorNode.from_sources(
        [("mallory", attacker_src(trial.payload))])
    net = Network()
    net.add_node("mallory", mallory)
    net.add_node("target", target)
    net.connect("mallory", "target", latency_cycles=ATTACK_LATENCY)
    net.run(max_cycles=TRIAL_CYCLES)
    net.settle_inboxes()
    outcome, detail = classify(target)
    canary = target.task_named("canary")
    region = target.kernel.regions.maybe_by_task(canary.task_id)
    heap = bytes(target.cpu.mem.data[region.p_l:region.p_l
                                     + len(canary_pattern())]) \
        if region is not None else b""
    return TrialResult(
        shape=shape.name, index=trial.index, note=trial.note,
        outcome=outcome, detail=detail,
        canary_ok=canary.alive and heap == canary_pattern(),
        tx=tuple(target.radio.transmitted)), target


def run_inject(quick: bool = False, seed: int = DEFAULT_SEED,
               shapes: Optional[Sequence[str]] = None,
               fuse: Optional[bool] = None) -> InjectResult:
    """Run the injection campaign and classify every trial.

    *quick* runs only the fixed anchor trials per shape; the full
    campaign adds :data:`RANDOM_TRIALS` seeded draws per shape.  The
    tier override (*fuse*; see
    :meth:`~repro.kernel.node.SensorNode.from_sources`) applies to the
    victim node (the machinery under test); mallory always runs in the
    default tier — the attack bytes on the air are identical either way.
    """
    tier = dict(fuse=fuse)
    selected = [s for s in SHAPES if shapes is None or s.name in shapes]
    randoms = 0 if quick else RANDOM_TRIALS
    books: Dict[str, AddressBook] = {}
    result = InjectResult(seed=seed, quick=quick)
    for shape in selected:
        book = books.get(shape.victim)
        if book is None:
            book = books[shape.victim] = address_book(
                build_target(shape.victim, **tier))
        for trial in shape_trials(shape, book, seed, randoms):
            row, target = run_trial(shape, trial, **tier)
            result.trials.append(row)
            result.kernel_oob_faults += \
                target.kernel.stats.fault_kinds.get("oob", 0) \
                + sum(s.fault_kinds.get("oob", 0)
                      for s in target.stats_history)
    return result
