"""Cycle-counting AVR CPU simulator.

The interpreter pre-decodes flash words into Python closures the first
time each address executes (flash is immutable during execution, paper
assumption III-A), so the hot loop is a dictionary-free closure call.

Two execution modes share those thunks.  ``fuse=False`` steps them one
instruction at a time: the stepwise oracle, which profiling also uses.
``fuse=True`` (the default) dispatches *traces*: once a pc is hot (its
``trace.TIER_UP``-th dispatch; a colder one steps),
:class:`~repro.avr.trace.TraceCompiler` compiles the block starting
there, plus the blocks its direct branches chain into, into one
compiled Python function (see :mod:`repro.avr.trace`).  Instruction
semantics are written twice, once per mode: the closures of
:meth:`AvrCpu._build` and the member templates of
:meth:`AvrCpu._member_parts` the trace compiler fuses.  Interrupts,
device alarms, run limits and ``until()`` are re-checked between
dispatches (and at every seam inside a trace); exact
``max_cycles``/``max_instructions`` stop semantics are preserved by
falling back to single-instruction stepping when a trace's head block
could cross a limit.

Two integration points exist for the SenSmart kernel:

* a *trap region* of flash word addresses: a ``JMP``/``CALL`` whose target
  lies inside the region — or the PC landing there directly — invokes the
  registered trap handler instead of executing machine code.  SenSmart's
  trampolines live there;
* *devices* registered with the CPU claim ``io_read``/``io_write``
  entries and schedule :class:`~repro.sim.Event` callbacks on the CPU's
  event queue (the CPU is a :class:`~repro.sim.SimClock`); events fire
  between instructions (between dispatches when fusing) and can raise
  interrupts or wake the CPU from sleep.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..errors import InvalidInstruction, MemoryFault, SimulationError
from ..sim.events import INFINITY, SimClock
from . import ioports
from .encoding import EncodingError, decode
from .instruction import Instruction
from .memory import DataMemory, Flash

# SREG flag masks.
C, Z, N, V, S, H, T, I = (1 << b for b in range(8))
_ARITH = C | Z | N | V | S | H
_LOGIC = Z | N | V | S
_SHIFT = C | Z | N | V | S


def _flags_add(a: int, b: int, carry_in: int, res: int) -> int:
    """SREG bits (C,Z,N,V,S,H) for an 8-bit addition."""
    full = a + b + carry_in
    f = 0
    if full > 0xFF:
        f |= C
    if res == 0:
        f |= Z
    if res & 0x80:
        f |= N
    if (~(a ^ b) & (a ^ res)) & 0x80:
        f |= V
    if ((f >> 2) ^ (f >> 3)) & 1:  # S = N xor V
        f |= S
    if ((a & 0xF) + (b & 0xF) + carry_in) > 0xF:
        f |= H
    return f


def _flags_sub(a: int, b: int, carry_in: int, res: int) -> int:
    """SREG bits (C,Z,N,V,S,H) for an 8-bit subtraction ``a - b - cin``."""
    f = 0
    if b + carry_in > a:
        f |= C
    if res == 0:
        f |= Z
    if res & 0x80:
        f |= N
    if ((a ^ b) & (a ^ res)) & 0x80:
        f |= V
    if ((f >> 2) ^ (f >> 3)) & 1:
        f |= S
    if (b & 0xF) + carry_in > (a & 0xF):
        f |= H
    return f


def _flags_logic(res: int) -> int:
    """SREG bits for AND/OR/EOR: V cleared, S = N."""
    f = 0
    if res == 0:
        f |= Z
    if res & 0x80:
        f |= N | S
    return f


#: Member cap per trace block: bounds how far the exact-stop fallback
#: (see :meth:`AvrCpu.run`) may have to single-step near a limit; 48
#: covers every hot loop in the benchmark suite.  An AvrCpu reads it
#: when constructed, so a test can set it.  It is not in the shared
#: cache's key: a CPU built under another cap must use a private cache.
_MAX_BLOCK = 48


class _CachedBlock:
    """One compiled trace variant in a :class:`SuperblockCache`.

    Holds the shareable compilation products: the code object of the
    trace function and *consts*, the names it reads beyond a CPU's
    namespace (its flag tables and per-kind count keys).  It also holds
    what the variant's key needs that cannot change while a node's
    trampoline map stands, recorded at compile time: the chained sites'
    trampoline targets (*trap*) and the trampolines the compiling node
    mapped them to, whether any site is a branch trap or bakes region
    constants, and the owner's code base.  No image object (task image,
    target image, trampoline pool): the cache outlives images.
    """

    __slots__ = ("code", "consts", "icount", "cost", "trap", "trampolines",
                 "branch", "regional", "owner", "spec_key")

    def __init__(self, code, consts, icount, cost, trap, trampolines,
                 branch, regional, owner, spec_key):
        self.code = code
        self.consts = consts
        self.icount = icount
        self.cost = cost
        self.trap = trap                # chained sites' trampoline targets
        self.trampolines = trampolines  # what they mapped to, in order
        self.branch = branch            # any site is a branch trap
        self.regional = regional        # any site bakes region constants
        self.owner = owner              # owner's code base, None if no site
        self.spec_key = spec_key        # specialization constants


class SuperblockCache:
    """Cross-CPU trace translation cache.

    Trace compilation depends only on the flash image, the data memory
    size, the trap ranges, and — for chained trap sites — the constants
    the specializer baked in.  All of that is captured in the key
    ``(base_key, pc)`` plus the per-variant ``spec_key``, so N nodes
    burned with the same image (the common network-simulation shape)
    compile each hot trace once and share the code objects; every
    further node only builds a function of the shared code over its own
    registers and memory.
    """

    def __init__(self, max_groups: int = 16384):
        self.groups: dict = {}  # (base_key, pc) -> {spec_key: block}
        self.max_groups = max_groups
        self.hits = 0
        self.misses = 0  # lookups a compile followed
        #: (base_key, pc, spec_key) -> times actually compiled; the
        #: exactly-once sharing property asserts max(...) == 1.
        self.compile_counts: dict = {}
        #: Tier-up heat per image base: (base_key, pc) -> cold
        #: dispatches of a head that has no group (see
        #: ``TraceCompiler.hot``); a head leaves it when it compiles.
        #: FIFO-bounded by *max_groups*, like the groups.
        self.heat: dict = {}

    def store(self, base_key, pc: int, block: _CachedBlock) -> None:
        key = (base_key, pc)
        group = self.groups.get(key)
        if group is None:
            if len(self.groups) >= self.max_groups:
                self.groups.pop(next(iter(self.groups)))  # FIFO bound
            group = self.groups[key] = {}
        group[block.spec_key] = block
        count_key = (base_key, pc, block.spec_key)
        self.compile_counts[count_key] = \
            self.compile_counts.get(count_key, 0) + 1

    def warm(self, key, heat) -> None:
        """Set the heat of the head at *key* (a group key)."""
        if key not in self.heat and len(self.heat) >= self.max_groups:
            self.heat.pop(next(iter(self.heat)))  # FIFO bound
        self.heat[key] = heat


#: Process-wide default cache (pass ``block_cache=False`` to opt out).
_GLOBAL_BLOCK_CACHE = SuperblockCache()


# -- precomputed SREG tables for fused code ------------------------------------
#
# Trace members replace the branchy flag computations of the
# per-instruction closures with one table index.  The add/sub/logic
# tables come from the _flags_* helpers the closures call; the NEG,
# INC/DEC and shift closures compute flags longhand, which the helpers
# below restate (a test checks every template against its closure).
# The 64K add/sub tables are built lazily on the first fused ADD/SUB;
# the 256-entry tables are cheap enough to build at import.

def _inc_dec_flags(res: int, overflow_at: int) -> int:
    f = 0
    if res == 0:
        f |= Z
    if res & 0x80:
        f |= N
    if res == overflow_at:
        f |= V
    if ((f >> 2) ^ (f >> 3)) & 1:
        f |= S
    return f


def _shift_flags(res: int, carry_out: int) -> int:
    f = carry_out
    if res == 0:
        f |= Z
    if res & 0x80:
        f |= N
    if bool(f & N) != bool(carry_out):  # V = N xor C
        f |= V
    if ((f >> 2) ^ (f >> 3)) & 1:
        f |= S
    return f


def _neg_flags(a: int) -> int:
    res = (-a) & 0xFF
    f = C if res != 0 else Z
    if res & 0x80:
        f |= N
    if res == 0x80:
        f |= V
    if ((f >> 2) ^ (f >> 3)) & 1:
        f |= S
    if (res | a) & 0x08:
        f |= H
    return f


_LOGIC_TABLE = [_flags_logic(res) for res in range(256)]
_INC_TABLE = [_inc_dec_flags(res, 0x80) for res in range(256)]
_DEC_TABLE = [_inc_dec_flags(res, 0x7F) for res in range(256)]
_LSR_TABLE = [_shift_flags(a >> 1, a & 1) for a in range(256)]
_ASR_TABLE = [_shift_flags((a >> 1) | (a & 0x80), a & 1) for a in range(256)]
_ROR_TABLES = tuple(
    [_shift_flags((a >> 1) | (cin << 7), a & 1) for a in range(256)]
    for cin in (0, 1))
_NEG_TABLE = [_neg_flags(a) for a in range(256)]

_ADD_TABLES: List[Optional[List[int]]] = [None, None]
_SUB_TABLES: List[Optional[List[int]]] = [None, None]
_SUB_ROWS: dict = {}


def _add_table(cin: int) -> List[int]:
    """64K table: flags of ``a + b + cin`` indexed by ``(a << 8) | b``."""
    table = _ADD_TABLES[cin]
    if table is None:
        table = [0] * 65536
        for a in range(256):
            base = a << 8
            for b in range(256):
                table[base | b] = _flags_add(a, b, cin,
                                             (a + b + cin) & 0xFF)
        _ADD_TABLES[cin] = table
    return table


def _sub_table(cin: int) -> List[int]:
    """64K table: flags of ``a - b - cin`` indexed by ``(a << 8) | b``."""
    table = _SUB_TABLES[cin]
    if table is None:
        table = [0] * 65536
        for a in range(256):
            base = a << 8
            for b in range(256):
                table[base | b] = _flags_sub(a, b, cin,
                                             (a - b - cin) & 0xFF)
        _SUB_TABLES[cin] = table
    return table


def _sub_row(k: int, cin: int) -> List[int]:
    """256-entry table: flags of ``a - k - cin`` for a constant *k*."""
    row = _SUB_ROWS.get((k, cin))
    if row is None:
        row = [_flags_sub(a, k, cin, (a - k - cin) & 0xFF)
               for a in range(256)]
        _SUB_ROWS[(k, cin)] = row
    return row


class AvrCpu(SimClock):
    """The simulated ATmega128L core.

    Inherits ``cycles``/``idle_cycles`` and the :class:`EventQueue`
    (``self.events``) from :class:`~repro.sim.SimClock`: the CPU's
    cycle counter *is* the simulated clock, and every timed effect —
    device completions, timer compares, kernel virtual timers, network
    byte arrivals — is an event on that queue.

    ``io_read[a](a) -> byte`` and ``io_write[a](a, byte)`` route every
    data address below ``RAM_START``: the register file, the CPU's SREG
    and SP bytes, else plain :class:`DataMemory` bytes until a device,
    and then the kernel, claims the entry by assignment.  Entries take
    the address so that one bound method serves every plain entry.

    ``io_stable`` is the set of I/O addresses whose reads are *stable*:
    at any cycle before ``events.next_due`` a read returns the same
    byte and changes no state, as long as nothing but reads of stable
    addresses happens in between (no data-space write, no read of
    another address, no host call).  It starts empty; a device adds an
    address beside its claim only when the byte changes at a scheduled
    event or such an access alone, and the kernel discards every
    address it claims over.  Traces skip idle poll iterations only on
    such reads (see :mod:`repro.avr.trace`).
    """

    def __init__(self, flash: Flash, memory: Optional[DataMemory] = None,
                 clock_hz: int = 7_372_800, fuse: bool = True,
                 block_cache=None):
        """*block_cache*: ``None`` joins the process-wide
        :class:`SuperblockCache`, ``False`` disables cross-CPU trace
        sharing, or pass an explicit cache instance."""
        SimClock.__init__(self)
        self.flash = flash
        self.mem = memory if memory is not None else DataMemory()
        self.clock_hz = clock_hz
        self.fuse = fuse
        self.r = bytearray(32)
        self.pc = 0
        self.sp = ioports.RAM_END
        self.sreg = 0
        self.instret = 0
        self.sleeping = False
        self.halted = False
        r, plain, n_io = self.r, self.mem.data, ioports.RAM_START - 0x20
        self.io_read = [r.__getitem__] * 0x20 + [plain.__getitem__] * n_io
        self.io_write = [r.__setitem__] * 0x20 + [plain.__setitem__] * n_io
        for address in (ioports.SPL, ioports.SPH):
            self.io_read[address] = self._read_sp
            self.io_write[address] = self._write_sp
        self.io_read[ioports.SREG] = self._read_sreg
        self.io_write[ioports.SREG] = self._write_sreg
        self.io_stable: Set[int] = set()
        #: Decoded thunks: pc -> closure, only for pcs decoded so far.
        self._exec: Dict[int, Callable[[], None]] = {}
        #: Trace entries: pc -> (closure, instructions, member cycles),
        #: or None where a deopt retired the entry.
        self._blocks: Dict[int, Optional[Tuple]] = {}
        self._devices: List = []
        self._pending_irqs: Deque[int] = deque()
        self._trap_ranges: List = []  # [(lo, hi)] word-address ranges
        self._trap_lo = -1  # envelope for the hot-path check
        self._trap_hi = -1
        self._trap_handler: Optional[Callable] = None
        self._trap_thunk_factory: Optional[Callable] = None
        if block_cache is None:
            self._block_cache: Optional[SuperblockCache] = \
                _GLOBAL_BLOCK_CACHE
        elif block_cache is False:
            self._block_cache = None
        else:
            self._block_cache = block_cache
        self._cache_base_key = None  # lazy (fingerprint, ...) tuple
        self._max_block = _MAX_BLOCK
        #: Trace compiler (repro.avr.trace.TraceCompiler) serving
        #: _fuse_block; built on first use unless one was installed.
        self._tracer = None
        # Run limits as seen by traces; run() publishes them on every
        # call.
        self._run_mc = float("inf")
        self._run_mi = float("inf")
        self._run_until: Optional[Callable] = None
        self.profile: Optional[List[int]] = None  # per-PC hit counts
        # Any later re-burn of flash (dynamic loading) must drop decoded
        # thunks and trace entries, even if the burner forgets to ask.
        flash.add_burn_listener(self.invalidate_decode)

    # -- configuration --------------------------------------------------------

    def attach_device(self, device) -> None:
        """Attach a device (timer/ADC/...).

        Devices claim ``io_read``/``io_write`` entries (adding the ones
        whose reads are stable to ``io_stable``) and schedule their
        timed effects on ``self.events``; there is no per-instruction
        polling.
        """
        self._devices.append(device)
        device.attach(self)

    def set_trap_region(self, lo: int, hi: int, handler,
                        thunk_factory: Optional[Callable] = None) -> None:
        """Route execution entering flash words [*lo*, *hi*) to *handler*.

        ``handler(cpu, site, target, is_call)`` receives the word address of
        the patched site (``-1`` if the PC landed in the region without a
        patched ``JMP/CALL``, e.g. through ``IJMP``), the trampoline word
        address, and whether the site used ``CALL`` semantics.

        ``thunk_factory(cpu, site, target, is_call)``, when given, may
        return a closure for a patched site, resolved once at decode time
        (the kernel uses this to pre-bind its dispatch); returning
        ``None`` falls back to calling *handler*.  Traces call these
        thunks too, for a trap they do not chain.
        """
        self._trap_ranges = [(lo, hi)]
        self._trap_handler = handler
        self._trap_thunk_factory = thunk_factory
        self._update_trap_envelope()
        # Invalidate decoded thunks and traces: targets may now trap.
        self.invalidate_decode()

    def set_tracer(self, tracer) -> None:
        """Install the trace compiler that serves ``_fuse_block``.

        ``tracer.hot(pc)`` says whether the head at *pc* gets a trace
        yet; ``tracer.entry_for(pc)`` then returns the ``(closure,
        icount, cost)`` dispatch entry for the trace headed at *pc*.
        """
        self._tracer = tracer
        self.invalidate_decode()

    def add_trap_region(self, lo: int, hi: int) -> None:
        """Add another trapped range (dynamic task loading appends new
        trampoline regions after the original image)."""
        self._trap_ranges.append((lo, hi))
        self._update_trap_envelope()
        self.invalidate_decode()

    def _update_trap_envelope(self) -> None:
        if self._trap_ranges:
            self._trap_lo = min(lo for lo, _ in self._trap_ranges)
            self._trap_hi = max(hi for _, hi in self._trap_ranges)
        else:
            self._trap_lo = self._trap_hi = -1

    def in_trap_region(self, address: int) -> bool:
        if not self._trap_lo <= address < self._trap_hi:
            return False
        return any(lo <= address < hi for lo, hi in self._trap_ranges)

    def invalidate_decode(self) -> None:
        """Drop decoded closures and trace entries (after re-burning flash).

        Clears the caches *in place*: the run loop keeps direct references
        to them, and a trap handler may invalidate mid-run (dynamic task
        loading re-burns flash and appends trap regions).
        """
        self._exec.clear()
        self._blocks.clear()
        self._cache_base_key = None  # flash/trap geometry may have changed

    def free_decode_caches(self) -> None:
        """Empty the decode caches of a CPU that will never run again: a
        dead CPU sits in reference cycles, and its decoded thunks and
        trace closures reference it back, so without this they would
        wait for a full collection."""
        self._exec.clear()
        self._blocks.clear()

    def enable_profiling(self) -> None:
        """Count executions per PC (Avrora-style flat profile).

        Adds one array increment per instruction, and a profiled CPU
        runs stepwise even with ``fuse=True``; enable only when the
        profile is wanted.
        """
        self.profile = [0] * self.flash.size_words
        self.invalidate_decode()

    def raise_interrupt(self, vector: int) -> None:
        self._pending_irqs.append(vector)
        self.sleeping = False

    # -- data-space access ------------------------------------------------------

    def data_read(self, address: int) -> int:
        if address < ioports.RAM_START:
            return self.io_read[address](address)
        return self.mem.read(address)

    def data_write(self, address: int, value: int) -> None:
        if address < ioports.RAM_START:
            self.io_write[address](address, value)
        else:
            self.mem.write(address, value)

    def _read_sp(self, address: int) -> int:
        return (self.sp >> 8) & 0xFF if address == ioports.SPH \
            else self.sp & 0xFF

    def _write_sp(self, address: int, value: int) -> None:
        if address == ioports.SPH:
            self.sp = (value << 8) | (self.sp & 0x00FF)
        else:
            self.sp = (self.sp & 0xFF00) | value

    def _read_sreg(self, address: int) -> int:
        return self.sreg

    def _write_sreg(self, address: int, value: int) -> None:
        self.sreg = value

    def push_byte(self, value: int) -> None:
        self.data_write(self.sp, value)
        self.sp = (self.sp - 1) & 0xFFFF

    def pop_byte(self) -> int:
        self.sp = (self.sp + 1) & 0xFFFF
        return self.data_read(self.sp)

    def push_word(self, value: int) -> None:
        self.push_byte(value & 0xFF)
        self.push_byte((value >> 8) & 0xFF)

    def pop_word(self) -> int:
        high = self.pop_byte()
        return (high << 8) | self.pop_byte()

    # -- register-pair helpers ---------------------------------------------------

    def get_pair(self, lo_reg: int) -> int:
        return self.r[lo_reg] | (self.r[lo_reg + 1] << 8)

    # -- execution -----------------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one instruction (or service one interrupt)."""
        if self._pending_irqs and (self.sreg & I):
            self._enter_interrupt(self._pending_irqs.popleft())
            return
        pc = self.pc
        if self._trap_lo <= pc < self._trap_hi and \
                self.in_trap_region(pc):
            self._trap_handler(self, -1, pc, False)
            self.instret += 1
            return
        (self._exec.get(pc) or self._decode_at(pc))()
        self.instret += 1

    def run(self, max_cycles: Optional[int] = None,
            max_instructions: Optional[int] = None,
            until: Optional[Callable[["AvrCpu"], bool]] = None) -> None:
        """Run until halted, a limit is reached, or *until(cpu)* is true."""
        # Publish the run limits before firing carried-over events: an
        # event callback may park/dispatch (kernel idle) and must see
        # this run's budget, not a stale one.
        self._run_mc = INFINITY if max_cycles is None else max_cycles
        self._run_mi = INFINITY if max_instructions is None \
            else max_instructions
        self._run_until = until
        # An event already due (armed between runs, or carried over a
        # limit stop) fires before the first dispatch, so a raised
        # interrupt is taken before any further instruction executes.
        if self.cycles >= self.events.next_due and not self.halted:
            self.events.run_due(self.cycles)
        try:
            if self.fuse and self.profile is None:
                self._run_fused(max_cycles, max_instructions, until)
            else:
                self._run_stepwise(max_cycles, max_instructions, until)
        except IndexError as error:
            # Corrupted control flow (e.g. an injected bit flip in a
            # saved return address) can push PC or a pointer past the
            # modelled address spaces: _decode_at and _fuse_block raise
            # IndexError for a pc outside flash, and a raw table index
            # does for a pointer.  Surface it as the memory fault it
            # models rather than a host-level crash.
            raise MemoryFault(self.pc, "wild access") from error

    def _run_stepwise(self, max_cycles, max_instructions, until) -> None:
        """Per-instruction dispatch: limits and events checked each step."""
        events = self.events
        while not self.halted:
            if self.sleeping:
                if not self._advance_to_next_event(max_cycles):
                    return
                continue
            self.step()
            if self.cycles >= events.next_due:
                events.run_due(self.cycles)
            if max_cycles is not None and self.cycles >= max_cycles:
                return
            if max_instructions is not None and \
                    self.instret >= max_instructions:
                return
            if until is not None and until(self):
                return

    def _run_fused(self, max_cycles, max_instructions, until) -> None:
        """Trace dispatch: one closure call per trace entry.

        Interrupts, due events, limits and ``until()`` are checked
        once per dispatch (and by the trace at every seam).  A cold
        head (one ``_fuse_block`` has no trace for yet) runs one
        instruction stepwise.  So does a trace whose head block could
        cross ``max_cycles`` or ``max_instructions``, so the stop point
        is bit-identical to stepwise mode.
        """
        # Bound to the caches, which invalidate_decode clears in place.
        block_at, thunk_at = self._blocks.get, self._exec.get
        irqs = self._pending_irqs
        events = self.events
        mc = self._run_mc  # published by run() for traces
        mi = self._run_mi
        while not self.halted:
            if self.sleeping:
                if not self._advance_to_next_event(max_cycles):
                    return
                continue
            if irqs and (self.sreg & I):
                self._enter_interrupt(irqs.popleft())
            else:
                pc = self.pc
                if self._trap_lo <= pc < self._trap_hi and \
                        self.in_trap_region(pc):
                    self._trap_handler(self, -1, pc, False)
                    self.instret += 1
                else:
                    entry = block_at(pc)
                    if entry is None:
                        entry = self._fuse_block(pc)
                    if entry is None or self.instret + entry[1] > mi \
                            or self.cycles + entry[2] >= mc:
                        # A cold head, or the exact-stop epilogue: a
                        # step() that skips the interrupt and trap-region
                        # checks this loop just made.
                        (thunk_at(pc) or self._decode_at(pc))()
                        self.instret += 1
                    else:
                        entry[0]()
            if self.cycles >= events.next_due:
                events.run_due(self.cycles)
            if self.cycles >= mc or self.instret >= mi:
                return
            if until is not None and until(self):
                return

    def _advance_to_next_event(self, max_cycles: Optional[int]) -> bool:
        """Fast-forward a sleeping CPU to the next scheduled event.

        Returns False when there is nothing to wake up for (deadlock) or
        the cycle limit was consumed by the skip.
        """
        wake = self.events.next_due
        if wake == INFINITY:
            raise SimulationError(
                "CPU is sleeping with no scheduled event to wake it")
        if max_cycles is not None and wake >= max_cycles:
            if max_cycles > self.cycles:
                self.idle_cycles += max_cycles - self.cycles
                self.cycles = max_cycles
            return False
        if wake > self.cycles:
            self.idle_cycles += wake - self.cycles
            self.cycles = wake
        self.events.run_due(self.cycles)
        if self._pending_irqs:
            self.sleeping = False
        return True

    def _enter_interrupt(self, vector: int) -> None:
        self.push_word(self.pc)
        self.sreg &= ~I
        self.pc = vector
        self.cycles += 4
        self.sleeping = False

    # -- decoding into closures ---------------------------------------------------

    def _decode_at(self, pc: int) -> Callable[[], None]:
        if not 0 <= pc < self.flash.size_words:
            raise IndexError(pc)  # a wild pc: see run()
        thunk = self._build(self._decode_instruction(pc))
        if self.profile is not None:
            inner = thunk
            profile = self.profile

            def thunk(address=pc, inner=inner, profile=profile):
                profile[address] += 1
                inner()
        self._exec[pc] = thunk
        return thunk

    def _skip_cycles_and_target(self, after: int) -> (int, int):
        """(extra cycles, new pc) when skipping the instruction at *after*."""
        size = self.flash.instruction_size(after)
        return size, after + size

    # -- trace dispatch entries ------------------------------------------------

    def _fuse_block(self, pc: int) -> Optional[Tuple]:
        """The dispatch entry for *pc*: its trace, compiled or rebound,
        or None while the head is cold (never cached).

        Returns and caches ``(closure, instruction_count, head_cycles)``.
        """
        if not 0 <= pc < self.flash.size_words:
            raise IndexError(pc)  # a wild pc, before the tracer reads it
        tracer = self._tracer
        if tracer is None:
            from .trace import TraceCompiler  # trace.py imports this module
            tracer = self._tracer = TraceCompiler(self)
        if not tracer.hot(pc):
            return None
        entry = tracer.entry_for(pc)
        self._blocks[pc] = entry
        return entry

    def _cache_base(self):
        """Cross-CPU cache key prefix, or None when caching is off."""
        if self._block_cache is None:
            return None
        if self._cache_base_key is None:
            self._cache_base_key = (self.flash.fingerprint(),
                                    self.mem.size,
                                    tuple(self._trap_ranges))
        return self._cache_base_key

    def _decode_instruction(self, pc: int) -> Instruction:
        word = self.flash.word(pc)
        next_word = self.flash.word(pc + 1) \
            if pc + 1 < self.flash.size_words else None
        try:
            return decode(word, next_word, pc)
        except EncodingError:
            raise InvalidInstruction(pc, word) from None

    def _member_parts(self, ins: Instruction, ns: dict, uid: int):
        """Inline source for a fusible instruction, or None.

        Fusible means: fixed cycle cost, sequential control flow, and no
        side effects outside registers, SREG (I excluded), and static
        SRAM — anything that touches SP, an I/O port, the I flag, or a
        dynamic address stays a block terminator so device hooks and
        interrupt delivery keep instruction-boundary semantics.  Member
        templates compute the exact SREG bits of the closures in
        :meth:`_build` — mostly via the precomputed flag tables — and
        keep the status register in the trace-local ``sr``.
        Site-specific tables are bound into *ns* under names derived
        from *uid*.

        Returns ``(effect_lines, flag_lines, cycles, reads, preds)``:
        the register/memory effect, the (separable) SREG update, the
        cycle cost, the SREG bits the lines read (C for ADC and ROR,
        C|Z for SBC, CPC and SBCI, T for BLD, else 0), and a dict of
        flag-bit -> predicate expression valid *after* the effect lines
        (the trace compiler's strip rule reads the last two).
        """
        m = ins.mnemonic
        ops = ins.operands
        if m in ("ADD", "ADC"):
            d, rr = ops
            ns[f"t{uid}"] = _add_table(0)
            preds = {Z: f"not r[{d}]", N: f"r[{d}] & 0x80"}
            if m == "ADD":
                return ([f"a = r[{d}]; b = r[{rr}]",
                         f"r[{d}] = (a + b) & 0xFF"],
                        [f"sr = (sr & ~{_ARITH}) | t{uid}[(a << 8) | b]"],
                        1, 0, preds)
            ns[f"u{uid}"] = _add_table(1)
            return ([f"a = r[{d}]; b = r[{rr}]; cin = sr & 1",
                     f"r[{d}] = (a + b + cin) & 0xFF"],
                    [f"sr = (sr & ~{_ARITH}) | "
                     f"(u{uid} if cin else t{uid})[(a << 8) | b]"],
                    1, C, preds)
        if m in ("SUB", "CP"):
            d, rr = ops
            ns[f"t{uid}"] = _sub_table(0)
            effect = [f"a = r[{d}]; b = r[{rr}]"]
            if m == "SUB":
                effect.append(f"r[{d}] = (a - b) & 0xFF")
                preds = {Z: f"not r[{d}]", N: f"r[{d}] & 0x80",
                         C: "b > a"}
            else:
                preds = {Z: "a == b", N: "(a - b) & 0x80", C: "b > a"}
            return (effect,
                    [f"sr = (sr & ~{_ARITH}) | t{uid}[(a << 8) | b]"],
                    1, 0, preds)
        if m in ("SBC", "CPC"):
            d, rr = ops
            ns[f"t{uid}"] = _sub_table(0)
            ns[f"u{uid}"] = _sub_table(1)
            effect = [f"a = r[{d}]; b = r[{rr}]; cin = sr & 1"]
            if m == "SBC":
                effect.append(f"r[{d}] = (a - b - cin) & 0xFF")
            # Z only survives if it was already set.
            return (effect,
                    [f"f = (u{uid} if cin else t{uid})[(a << 8) | b]",
                     f"sr = (sr & ~{_ARITH}) | (f & ~{Z}) | "
                     f"(f & {Z} & sr)"],
                    1, C | Z, {})
        if m in ("AND", "OR", "EOR"):
            d, rr = ops
            op = {"AND": "&", "OR": "|", "EOR": "^"}[m]
            return ([f"res = r[{d}] {op} r[{rr}]",
                     f"r[{d}] = res"],
                    [f"sr = (sr & ~{_LOGIC}) | lf[res]"],
                    1, 0, {Z: "not res", N: "res & 0x80"})
        if m == "MOV":
            d, rr = ops
            return ([f"r[{d}] = r[{rr}]"], [], 1, 0, {})
        if m == "MOVW":
            d, rr = ops
            return ([f"r[{d}] = r[{rr}]", f"r[{d + 1}] = r[{rr + 1}]"],
                    [], 1, 0, {})
        if m == "MUL":
            d, rr = ops
            return ([f"res = r[{d}] * r[{rr}]",
                     "r[0] = res & 0xFF",
                     "r[1] = (res >> 8) & 0xFF"],
                    [f"f = {C} if res & 0x8000 else 0",
                     f"if res == 0: f |= {Z}",
                     f"sr = (sr & ~{C | Z}) | f"],
                    2, 0, {Z: "not res", C: "res & 0x8000"})
        if m in ("SUBI", "CPI"):
            d, k = ops
            ns[f"t{uid}"] = _sub_row(k, 0)
            effect = [f"a = r[{d}]"]
            if m == "SUBI":
                effect.append(f"r[{d}] = (a - {k}) & 0xFF")
                preds = {Z: f"not r[{d}]", N: f"r[{d}] & 0x80",
                         C: f"{k} > a"}
            else:
                preds = {Z: f"a == {k}", N: f"(a - {k}) & 0x80",
                         C: f"{k} > a"}
            return (effect, [f"sr = (sr & ~{_ARITH}) | t{uid}[a]"],
                    1, 0, preds)
        if m == "SBCI":
            d, k = ops
            ns[f"t{uid}"] = _sub_row(k, 0)
            ns[f"u{uid}"] = _sub_row(k, 1)
            return ([f"a = r[{d}]; cin = sr & 1",
                     f"r[{d}] = (a - {k} - cin) & 0xFF"],
                    [f"f = (u{uid} if cin else t{uid})[a]",
                     f"sr = (sr & ~{_ARITH}) | (f & ~{Z}) | "
                     f"(f & {Z} & sr)"],
                    1, C | Z, {})
        if m in ("ANDI", "ORI"):
            d, k = ops
            op = "&" if m == "ANDI" else "|"
            return ([f"res = r[{d}] {op} {k}",
                     f"r[{d}] = res"],
                    [f"sr = (sr & ~{_LOGIC}) | lf[res]"],
                    1, 0, {Z: "not res", N: "res & 0x80"})
        if m == "LDI":
            d, k = ops
            return ([f"r[{d}] = {k}"], [], 1, 0, {})
        if m in ("ADIW", "SBIW"):
            d, k = ops
            # Flag nibble per (res15, val15) quadrant, precomputed from
            # the closure's V/C/Z/N/S logic; Z (res == 0) is tested where
            # it can hold, ``adiw rd, 0`` on a zero pair included.
            if m == "ADIW":
                expr = f"(v + {k}) & 0xFFFF"
                quad = [f"if res & 0x8000:",
                        f"    sr = (sr & ~{_SHIFT}) | "
                        f"({N | S} if v & 0x8000 else {N | V})",
                        f"elif v & 0x8000:",
                        f"    sr = (sr & ~{_SHIFT}) | "
                        f"({C | Z} if res == 0 else {C})",
                        f"else:",
                        f"    sr = (sr & ~{_SHIFT}) | "
                        f"({Z} if res == 0 else 0)"]
                carry = "(v & ~res) & 0x8000"
            else:
                expr = f"(v - {k}) & 0xFFFF"
                quad = [f"if res & 0x8000:",
                        f"    sr = (sr & ~{_SHIFT}) | "
                        f"({N | S} if v & 0x8000 else {C | N | S})",
                        f"elif v & 0x8000:",
                        f"    sr = (sr & ~{_SHIFT}) | {V | S}",
                        f"else:",
                        f"    sr = (sr & ~{_SHIFT}) | "
                        f"({Z} if res == 0 else 0)"]
                carry = "(res & ~v) & 0x8000"
            return ([f"v = r[{d}] | (r[{d + 1}] << 8)",
                     f"res = {expr}",
                     f"r[{d}] = res & 0xFF",
                     f"r[{d + 1}] = res >> 8"],
                    quad, 2, 0,
                    {Z: "not res", N: "res & 0x8000", C: carry})
        if m == "COM":
            (d,) = ops
            return ([f"res = (~r[{d}]) & 0xFF",
                     f"r[{d}] = res"],
                    [f"sr = (sr & ~{_SHIFT}) | {C} | lf[res]"],
                    1, 0, {Z: "not res", N: "res & 0x80"})
        if m == "NEG":
            (d,) = ops
            return ([f"a = r[{d}]",
                     f"r[{d}] = (-a) & 0xFF"],
                    [f"sr = (sr & ~{_ARITH}) | negf[a]"],
                    1, 0, {Z: "not a", C: "a"})
        if m == "SWAP":
            (d,) = ops
            return ([f"a = r[{d}]",
                     f"r[{d}] = ((a << 4) | (a >> 4)) & 0xFF"],
                    [], 1, 0, {})
        if m in ("INC", "DEC"):
            (d,) = ops
            delta = "+ 1" if m == "INC" else "- 1"
            table = "incf" if m == "INC" else "decf"
            return ([f"res = (r[{d}] {delta}) & 0xFF",
                     f"r[{d}] = res"],
                    [f"sr = (sr & ~{_LOGIC}) | {table}[res]"],
                    1, 0, {Z: "not res", N: "res & 0x80"})
        if m == "LSR":
            (d,) = ops
            return ([f"a = r[{d}]",
                     f"r[{d}] = a >> 1"],
                    [f"sr = (sr & ~{_SHIFT}) | lsrf[a]"],
                    1, 0, {C: "a & 1", Z: "a < 2"})
        if m == "ASR":
            (d,) = ops
            return ([f"a = r[{d}]",
                     f"r[{d}] = (a >> 1) | (a & 0x80)"],
                    [f"sr = (sr & ~{_SHIFT}) | asrf[a]"],
                    1, 0, {C: "a & 1", Z: "a < 2"})
        if m == "ROR":
            (d,) = ops
            return ([f"a = r[{d}]; cin = sr & 1",
                     f"r[{d}] = (a >> 1) | (cin << 7)"],
                    [f"sr = (sr & ~{_SHIFT}) | "
                     f"(rorf1 if cin else rorf0)[a]"],
                    1, C, {C: "a & 1"})
        if m in ("LDS", "STS"):
            d, k = ops
            # Static SRAM only: I/O, SP and SREG addresses keep their
            # hook/virtualization semantics by terminating the block.
            if ioports.RAM_START <= k < self.mem.size:
                line = f"mem[{k}] = r[{d}]" if m == "STS" \
                    else f"r[{d}] = mem[{k}]"
                return ([line], [], 2, 0, {})
            return None
        if m == "LPM":
            d, mode = ops
            lines = ["z = r[30] | (r[31] << 8)",
                     f"r[{d}] = flash.byte(z)"]
            if mode == "Z+":
                lines += ["z = (z + 1) & 0xFFFF",
                          "r[30] = z & 0xFF",
                          "r[31] = z >> 8"]
            return (lines, [], 3, 0, {})
        if m in ("BSET", "BCLR"):
            (s,) = ops
            if s == 7:  # SEI/CLI: interrupt delivery is boundary-checked
                return None
            mask = 1 << s
            line = f"sr |= {mask}" if m == "BSET" else f"sr &= ~{mask}"
            return ([], [line], 1, 0, {})
        if m == "BLD":
            d, b = ops
            mask = 1 << b
            return ([f"if sr & {T}:",
                     f"    r[{d}] |= {mask}",
                     "else:",
                     f"    r[{d}] &= ~{mask}"],
                    [], 1, T, {})
        if m == "BST":
            d, b = ops
            mask = 1 << b
            return ([],
                    [f"if r[{d}] & {mask}:",
                     f"    sr |= {T}",
                     "else:",
                     f"    sr &= ~{T}"],
                    1, 0, {})
        if m in ("NOP", "WDR"):
            return ([], [], 1, 0, {})
        return None

    def _build(self, ins: Instruction) -> Callable[[], None]:
        """Compile *ins* into an executable closure."""
        cpu = self
        r = self.r
        m = ins.mnemonic
        ops = ins.operands
        nxt = ins.next_address

        # --- two-register ALU ---
        if m in ("ADD", "ADC"):
            d, rr = ops
            with_carry = m == "ADC"
            def run():
                a, b = r[d], r[rr]
                cin = cpu.sreg & C if with_carry else 0
                res = (a + b + cin) & 0xFF
                r[d] = res
                cpu.sreg = (cpu.sreg & ~_ARITH) | _flags_add(a, b, cin, res)
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m in ("SUB", "SBC", "CP", "CPC"):
            d, rr = ops
            with_carry = m in ("SBC", "CPC")
            writeback = m in ("SUB", "SBC")
            keep_z = m in ("SBC", "CPC")
            def run():
                a, b = r[d], r[rr]
                cin = cpu.sreg & C if with_carry else 0
                res = (a - b - cin) & 0xFF
                if writeback:
                    r[d] = res
                f = _flags_sub(a, b, cin, res)
                if keep_z:  # Z only survives if it was already set
                    f = (f & ~Z) | (f & Z & cpu.sreg)
                cpu.sreg = (cpu.sreg & ~_ARITH) | f
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m in ("AND", "OR", "EOR"):
            d, rr = ops
            op = {"AND": lambda a, b: a & b, "OR": lambda a, b: a | b,
                  "EOR": lambda a, b: a ^ b}[m]
            def run():
                res = op(r[d], r[rr])
                r[d] = res
                cpu.sreg = (cpu.sreg & ~_LOGIC) | _flags_logic(res)
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "MOV":
            d, rr = ops
            def run():
                r[d] = r[rr]
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "MOVW":
            d, rr = ops
            def run():
                r[d] = r[rr]
                r[d + 1] = r[rr + 1]
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "MUL":
            d, rr = ops
            def run():
                prod = r[d] * r[rr]
                r[0] = prod & 0xFF
                r[1] = (prod >> 8) & 0xFF
                f = 0
                if prod & 0x8000:
                    f |= C
                if prod == 0:
                    f |= Z
                cpu.sreg = (cpu.sreg & ~(C | Z)) | f
                cpu.pc = nxt
                cpu.cycles += 2
            return run
        if m == "CPSE":
            d, rr = ops
            def run():
                cpu.cycles += 1
                if r[d] == r[rr]:
                    extra, target = cpu._skip_cycles_and_target(nxt)
                    cpu.cycles += extra
                    cpu.pc = target
                else:
                    cpu.pc = nxt
            return run

        # --- single-register ALU ---
        if m in ("COM", "NEG", "SWAP", "INC", "ASR", "LSR", "ROR", "DEC"):
            (d,) = ops
            return self._build_rd(m, d, nxt)

        # --- register-immediate ALU ---
        if m in ("SUBI", "SBCI", "CPI"):
            d, k = ops
            with_carry = m == "SBCI"
            writeback = m != "CPI"
            def run():
                a = r[d]
                cin = cpu.sreg & C if with_carry else 0
                res = (a - k - cin) & 0xFF
                if writeback:
                    r[d] = res
                f = _flags_sub(a, k, cin, res)
                if with_carry:
                    f = (f & ~Z) | (f & Z & cpu.sreg)
                cpu.sreg = (cpu.sreg & ~_ARITH) | f
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m in ("ANDI", "ORI"):
            d, k = ops
            is_and = m == "ANDI"
            def run():
                res = (r[d] & k) if is_and else (r[d] | k)
                r[d] = res
                cpu.sreg = (cpu.sreg & ~_LOGIC) | _flags_logic(res)
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "LDI":
            d, k = ops
            def run():
                r[d] = k
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m in ("ADIW", "SBIW"):
            d, k = ops
            is_add = m == "ADIW"
            def run():
                value = r[d] | (r[d + 1] << 8)
                res = (value + k) & 0xFFFF if is_add else (value - k) & 0xFFFF
                r[d] = res & 0xFF
                r[d + 1] = res >> 8
                f = 0
                res15 = res >> 15
                val15 = value >> 15
                if is_add:
                    if (~val15 & res15) & 1:
                        f |= V
                    if (val15 & ~res15) & 1:
                        f |= C
                else:
                    if (val15 & ~res15) & 1:
                        f |= V
                    if (res15 & ~val15) & 1:
                        f |= C
                if res == 0:
                    f |= Z
                if res & 0x8000:
                    f |= N
                if ((f >> 2) ^ (f >> 3)) & 1:
                    f |= S
                cpu.sreg = (cpu.sreg & ~(C | Z | N | V | S)) | f
                cpu.pc = nxt
                cpu.cycles += 2
            return run

        # --- data memory ---
        if m in ("LD", "ST"):
            d, mode = ops
            return self._build_ldst_ptr(m == "ST", d, mode, nxt)
        if m in ("LDD", "STD"):
            d, ptr, q = ops
            base = 28 if ptr == "Y" else 30
            is_store = m == "STD"
            def run():
                address = (r[base] | (r[base + 1] << 8)) + q
                if is_store:
                    cpu.data_write(address, r[d])
                else:
                    r[d] = cpu.data_read(address)
                cpu.pc = nxt
                cpu.cycles += 2
            return run
        if m in ("LDS", "STS"):
            d, k = ops
            is_store = m == "STS"
            def run():
                if is_store:
                    cpu.data_write(k, r[d])
                else:
                    r[d] = cpu.data_read(k)
                cpu.pc = nxt
                cpu.cycles += 2
            return run
        if m == "PUSH":
            (d,) = ops
            def run():
                cpu.push_byte(r[d])
                cpu.pc = nxt
                cpu.cycles += 2
            return run
        if m == "POP":
            (d,) = ops
            def run():
                r[d] = cpu.pop_byte()
                cpu.pc = nxt
                cpu.cycles += 2
            return run
        if m == "LPM":
            d, mode = ops
            post_inc = mode == "Z+"
            def run():
                z = r[30] | (r[31] << 8)
                r[d] = cpu.flash.byte(z)
                if post_inc:
                    z = (z + 1) & 0xFFFF
                    r[30] = z & 0xFF
                    r[31] = z >> 8
                cpu.pc = nxt
                cpu.cycles += 3
            return run

        # --- I/O ---
        if m == "IN":
            d, a = ops
            address = ioports.io_to_data(a)
            def run():
                r[d] = cpu.data_read(address)
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "OUT":
            a, rr = ops
            address = ioports.io_to_data(a)
            def run():
                cpu.data_write(address, r[rr])
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m in ("SBI", "CBI"):
            a, b = ops
            address = ioports.io_to_data(a)
            mask = 1 << b
            is_set = m == "SBI"
            def run():
                value = cpu.data_read(address)
                value = value | mask if is_set else value & ~mask
                cpu.data_write(address, value)
                cpu.pc = nxt
                cpu.cycles += 2
            return run
        if m in ("SBIC", "SBIS"):
            a, b = ops
            address = ioports.io_to_data(a)
            mask = 1 << b
            skip_if_set = m == "SBIS"
            def run():
                cpu.cycles += 1
                bit = bool(cpu.data_read(address) & mask)
                if bit == skip_if_set:
                    extra, target = cpu._skip_cycles_and_target(nxt)
                    cpu.cycles += extra
                    cpu.pc = target
                else:
                    cpu.pc = nxt
            return run

        # --- control flow ---
        if m == "RJMP":
            (k,) = ops
            target = nxt + k
            def run():
                cpu.pc = target
                cpu.cycles += 2
            return run
        if m == "RCALL":
            (k,) = ops
            target = nxt + k
            def run():
                cpu.push_word(nxt)
                cpu.pc = target
                cpu.cycles += 3
            return run
        if m == "JMP":
            (k,) = ops
            if self.in_trap_region(k):
                return self._build_trap(ins.address, k, is_call=False)
            def run():
                cpu.pc = k
                cpu.cycles += 3
            return run
        if m == "CALL":
            (k,) = ops
            if self.in_trap_region(k):
                return self._build_trap(ins.address, k, is_call=True)
            def run():
                cpu.push_word(nxt)
                cpu.pc = k
                cpu.cycles += 4
            return run
        if m == "IJMP":
            def run():
                cpu.pc = r[30] | (r[31] << 8)
                cpu.cycles += 2
            return run
        if m == "ICALL":
            def run():
                cpu.push_word(nxt)
                cpu.pc = r[30] | (r[31] << 8)
                cpu.cycles += 3
            return run
        if m in ("RET", "RETI"):
            enable_i = m == "RETI"
            def run():
                cpu.pc = cpu.pop_word()
                if enable_i:
                    cpu.sreg |= I
                cpu.cycles += 4
            return run
        if m in ("BRBS", "BRBC"):
            s, k = ops
            mask = 1 << s
            branch_if_set = m == "BRBS"
            target = nxt + k
            def run():
                if bool(cpu.sreg & mask) == branch_if_set:
                    cpu.pc = target
                    cpu.cycles += 2
                else:
                    cpu.pc = nxt
                    cpu.cycles += 1
            return run
        if m in ("SBRC", "SBRS"):
            rr, b = ops
            mask = 1 << b
            skip_if_set = m == "SBRS"
            def run():
                cpu.cycles += 1
                if bool(r[rr] & mask) == skip_if_set:
                    extra, target = cpu._skip_cycles_and_target(nxt)
                    cpu.cycles += extra
                    cpu.pc = target
                else:
                    cpu.pc = nxt
            return run

        # --- flags and bits ---
        if m in ("BSET", "BCLR"):
            (s,) = ops
            mask = 1 << s
            is_set = m == "BSET"
            def run():
                if is_set:
                    cpu.sreg |= mask
                else:
                    cpu.sreg &= ~mask
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "BLD":
            d, b = ops
            mask = 1 << b
            def run():
                if cpu.sreg & T:
                    r[d] |= mask
                else:
                    r[d] &= ~mask
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "BST":
            d, b = ops
            mask = 1 << b
            def run():
                if r[d] & mask:
                    cpu.sreg |= T
                else:
                    cpu.sreg &= ~T
                cpu.pc = nxt
                cpu.cycles += 1
            return run

        # --- CPU control ---
        if m == "NOP" or m == "WDR":
            def run():
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "SLEEP":
            def run():
                cpu.sleeping = True
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "BREAK":
            def run():
                cpu.halted = True
                cpu.pc = nxt
                cpu.cycles += 1
            return run

        raise InvalidInstruction(ins.address,
                                 self.flash.word(ins.address))

    def _build_rd(self, m: str, d: int, nxt: int) -> Callable[[], None]:
        cpu, r = self, self.r

        if m == "COM":
            def run():
                res = (~r[d]) & 0xFF
                r[d] = res
                f = C | _flags_logic(res)
                cpu.sreg = (cpu.sreg & ~_SHIFT) | f
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "NEG":
            def run():
                a = r[d]
                res = (-a) & 0xFF
                r[d] = res
                f = 0
                if res != 0:
                    f |= C
                if res == 0:
                    f |= Z
                if res & 0x80:
                    f |= N
                if res == 0x80:
                    f |= V
                if ((f >> 2) ^ (f >> 3)) & 1:
                    f |= S
                if (res | a) & 0x08:
                    f |= H
                cpu.sreg = (cpu.sreg & ~_ARITH) | f
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m == "SWAP":
            def run():
                a = r[d]
                r[d] = ((a << 4) | (a >> 4)) & 0xFF
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m in ("INC", "DEC"):
            is_inc = m == "INC"
            def run():
                a = r[d]
                res = (a + 1) & 0xFF if is_inc else (a - 1) & 0xFF
                r[d] = res
                f = 0
                if res == 0:
                    f |= Z
                if res & 0x80:
                    f |= N
                if (is_inc and res == 0x80) or (not is_inc and res == 0x7F):
                    f |= V
                if ((f >> 2) ^ (f >> 3)) & 1:
                    f |= S
                cpu.sreg = (cpu.sreg & ~_LOGIC) | f
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        if m in ("LSR", "ROR", "ASR"):
            def run():
                a = r[d]
                carry_out = a & 1
                if m == "LSR":
                    res = a >> 1
                elif m == "ROR":
                    res = (a >> 1) | ((cpu.sreg & C) << 7)
                else:  # ASR
                    res = (a >> 1) | (a & 0x80)
                r[d] = res
                f = carry_out
                if res == 0:
                    f |= Z
                if res & 0x80:
                    f |= N
                # V = N xor C (post-shift)
                if bool(f & N) != bool(carry_out):
                    f |= V
                if ((f >> 2) ^ (f >> 3)) & 1:
                    f |= S
                cpu.sreg = (cpu.sreg & ~_SHIFT) | f
                cpu.pc = nxt
                cpu.cycles += 1
            return run
        raise AssertionError(f"unhandled RD op {m}")  # pragma: no cover

    def _build_ldst_ptr(self, is_store: bool, d: int, mode: str,
                        nxt: int) -> Callable[[], None]:
        cpu, r = self, self.r
        base = {"X": 26, "Y": 28, "Z": 30}[mode.strip("+-")]
        pre_dec = mode.startswith("-")
        post_inc = mode.endswith("+")

        def run():
            address = r[base] | (r[base + 1] << 8)
            if pre_dec:
                address = (address - 1) & 0xFFFF
            if is_store:
                cpu.data_write(address, r[d])
            else:
                r[d] = cpu.data_read(address)
            if post_inc:
                new = (address + 1) & 0xFFFF
                r[base] = new & 0xFF
                r[base + 1] = new >> 8
            elif pre_dec:
                r[base] = address & 0xFF
                r[base + 1] = address >> 8
            cpu.pc = nxt
            cpu.cycles += 2
        return run

    def _build_trap(self, site: int, target: int,
                    is_call: bool) -> Callable[[], None]:
        factory = self._trap_thunk_factory
        if factory is not None:
            thunk = factory(self, site, target, is_call)
            if thunk is not None:
                return thunk
        cpu = self

        def run():
            cpu._trap_handler(cpu, site, target, is_call)
        return run
