"""Kernel configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..avr import ioports


@dataclass(frozen=True)
class KernelConfig:
    """Tunable parameters of the SenSmart kernel.

    Defaults follow the paper: a 7.3728 MHz ATmega128L, 10 ms round-robin
    time slices counted on Timer3, one kernel entry per 256 executed
    backward branches, ~10% of the 4 KB data memory reserved for the
    kernel, and conservative stack relocation.
    """

    #: CPU clock, Hz (MICA2 runs the ATmega128L at 7.3728 MHz).
    clock_hz: int = 7_372_800

    #: Round-robin time slice in CPU cycles (10 ms).
    time_slice_cycles: int = 73_728

    #: One out of this many backward branches enters the kernel
    #: (paper Section IV-B; also a t-kernel technique).
    branch_trap_period: int = 256

    #: Predefined initial stack size per task, bytes (Section IV-C3).
    #: Used when ``divide_stack_equally`` is off; the default policy
    #: divides all available stack space equally at load time, which is
    #: what the initial allocation converges to anyway.
    initial_stack_size: int = 128
    divide_stack_equally: bool = True

    #: Minimum stack a task must receive at load time, bytes.
    min_stack_size: int = 24

    #: Bytes of headroom a stack check requires below the pushed data.
    stack_margin: int = 4

    #: A donor must keep at least this much surplus after donating.
    min_donor_surplus: int = 16

    #: Kernel data-memory footprint, bytes (paper: "about 10% of the
    #: data memory").
    kernel_data_bytes: int = 410

    #: Data memory geometry.
    ram_start: int = ioports.RAM_START
    ram_end: int = ioports.RAM_END

    #: Timer3 prescaler used for the kernel clock and virtual timers.
    timer3_prescaler: int = 8

    #: Enable the stack-relocation machinery (ablation switch).
    enable_relocation: bool = True

    #: Enable preemptive scheduling (off = run tasks to completion,
    #: used by the Figure 5 "memory protection only" configuration).
    enable_scheduling: bool = True

    #: The one execution-tier switch.  On, the CPU dispatches traces
    #: (see repro.avr.trace) with trap fast paths specialized against
    #: each task's current region constants (see
    #: repro.kernel.specialize).  Off, it steps one instruction at a
    #: time and every trap takes the generic dispatch/translate chain:
    #: the stepwise oracle.  Results are bit-identical.
    fuse: bool = True

    #: Directory for the persistent compiled-trace store; None disables
    #: persistence (the ``SENSMART_TRACE_STORE`` environment variable is
    #: the fallback when unset).
    trace_store: Optional[str] = None

    #: Run the rewriter-soundness linter (``sensmart lint``) over the
    #: image inside ``link_image`` when building a node, so every run is
    #: self-verifying.  Costs about 2 ms per six-program kernelbench
    #: image and 10-14 ms per Fig-7 image (x86_64, Python 3.11).
    lint_on_link: bool = True

    #: Default restart policy for tasks that die abnormally (see
    #: repro.kernel.termination.RESTART_POLICIES); individual tasks can
    #: override via ``Task.restart_policy``.  "never" preserves the
    #: historical behaviour: a dead task stays dead.
    restart_policy: str = "never"

    #: Maximum times a restart policy may revive one task.
    restart_max: int = 3

    #: First restart-with-backoff delay, in time slices; each further
    #: restart doubles it (exponential backoff).
    restart_backoff_slices: int = 2

    #: Software watchdog period in time slices: a task still current
    #: with no slice renewal for this long is faulted (it made no
    #: scheduler progress — e.g. its branch-trap counter was corrupted).
    #: 0 disables the watchdog (the default; arming it schedules extra
    #: events, which healthy runs don't need).
    watchdog_slices: int = 0

    #: On an unrecoverable kernel error (panic), reboot the node
    #: (SensorNode cold-restarts through link_image) instead of raising
    #: into the host.  Off preserves the historical raise.
    panic_reboot: bool = False

    @property
    def memory_size(self) -> int:
        """M — size of the physical data address space."""
        return self.ram_end + 1

    @property
    def app_area(self) -> range:
        """Physical addresses available to application regions."""
        return range(self.ram_start,
                     self.memory_size - self.kernel_data_bytes)

    def ticks_to_cycles(self, ticks: int) -> int:
        return ticks * self.timer3_prescaler

    def ms_to_cycles(self, milliseconds: float) -> int:
        return int(self.clock_hz * milliseconds / 1000.0)
