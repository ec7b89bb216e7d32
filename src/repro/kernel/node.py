"""SensorNode: the one-call facade for building and running a node.

Bundles the pipeline — compile, rewrite, link, boot — so examples and
experiments can say::

    node = SensorNode.from_sources([("blink", SRC1), ("sense", SRC2)])
    node.run(max_cycles=10_000_000)

The node also owns *recovery from total failure*: :meth:`crash` models
a hard fault or injected power glitch (the CPU stops dead), and
:meth:`reboot` cold-restarts the node through ``link_image`` — a fresh
kernel, fresh devices, wiped RAM — while the cycle clock keeps counting
from the crash point, so network co-simulation time stays in one epoch.
A kernel panic (``SenSmartKernel.panicked``) reboots automatically when
``KernelConfig.panic_reboot`` is set.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

from ..avr.devices import Adc, Leds, Radio, Timer0
from ..pipeline.pipeline import build_image
from ..rewriter.rewriter import Rewriter
from .config import KernelConfig
from .kernel import SenSmartKernel

#: Cold-start latency charged on a reboot: power-up + bootloader image
#: verification before the kernel's own SYSTEM_INIT (~8 ms at 7.37 MHz).
BOOT_DELAY_CYCLES = 60_000

#: Panic-reboot loops are bounded: a node that panics more often than
#: this in one lifetime stays down (mirrors a real watchdog-reset
#: brown-out lockout).
MAX_PANIC_REBOOTS = 8


class SensorNode:
    """A simulated MICA2-class node running SenSmart."""

    def __init__(self, kernel: SenSmartKernel, devices: dict,
                 sources: Optional[Sequence[Tuple[str, str]]] = None,
                 adc_seed: int = 0xACE1, block_cache=None):
        self.kernel = kernel
        self.devices = devices
        #: Build recipe retained for reboot(); nodes constructed
        #: directly from a kernel (no sources) cannot cold-restart.
        self._sources = list(sources) if sources is not None else None
        self._adc_seed = adc_seed
        self._block_cache = block_cache
        #: True between crash() and reboot() — the node is dark.
        self.crashed = False
        #: Completed cold restarts (crash or panic recovery).
        self.reboots = 0
        #: KernelStats of previous lives (one entry per reboot), so
        #: survivability accounting spans crashes.
        self.stats_history = []

    @classmethod
    def from_sources(cls, sources: Sequence[Tuple[str, str]],
                     config: Optional[KernelConfig] = None,
                     rewriter: Optional[Rewriter] = None,
                     adc_seed: int = 0xACE1,
                     fuse: Optional[bool] = None,
                     lint: Optional[bool] = None,
                     block_cache=None) -> "SensorNode":
        """Compile, rewrite and link *sources*, then boot a node.

        *fuse* overrides the config's tier switch: traces with
        specialized trap fast paths, or the stepwise oracle (execution
        stays bit-identical either way; traces are fastest); *lint*
        overrides the config's ``lint_on_link`` self-check.
        *block_cache* forwards to the kernel's CPU (None = process-wide
        trace sharing, False = private compilation).
        """
        config = config if config is not None else KernelConfig()
        overrides = {}
        if fuse is not None:
            overrides["fuse"] = fuse
        if lint is not None:
            overrides["lint_on_link"] = lint
        if overrides:
            config = replace(config, **overrides)
        image = build_image(sources, rewriter=rewriter,
                            lint=config.lint_on_link)
        node = cls.from_image(image, config=config, adc_seed=adc_seed,
                              block_cache=block_cache)
        node._sources = list(sources)
        return node

    @classmethod
    def from_image(cls, image, config: Optional[KernelConfig] = None,
                   adc_seed: int = 0xACE1,
                   block_cache=None) -> "SensorNode":
        """Boot a node from an already-linked target image.

        Images are immutable once linked, so one image (e.g. from the
        build pipeline's artifact store) can boot any number of nodes;
        a node built this way cannot cold-restart (no sources).
        """
        config = config if config is not None else KernelConfig()
        kernel, devices = cls._build_kernel(image, config, adc_seed,
                                            block_cache)
        return cls(kernel, devices, sources=None, adc_seed=adc_seed,
                   block_cache=block_cache)

    @staticmethod
    def _build_kernel(image, config: KernelConfig, adc_seed: int,
                      block_cache):
        adc = Adc(seed=adc_seed)
        radio = Radio()
        leds = Leds()
        timer0 = Timer0()  # Timer3 is kernel-owned; Timer0 is for apps
        kernel = SenSmartKernel(image, config=config,
                                devices=[adc, radio, leds, timer0],
                                block_cache=block_cache)
        return kernel, {"adc": adc, "radio": radio, "leds": leds,
                        "timer0": timer0}

    @property
    def cpu(self):
        return self.kernel.cpu

    @property
    def stats(self):
        return self.kernel.stats

    @property
    def adc(self) -> Adc:
        return self.devices["adc"]

    @property
    def radio(self) -> Radio:
        return self.devices["radio"]

    @property
    def leds(self) -> Leds:
        return self.devices["leds"]

    # -- crash & cold restart ---------------------------------------------------

    def crash(self) -> None:
        """Hard-stop the node (injected fault / power glitch).

        Everything volatile dies with it: RAM, the event queue (and any
        in-flight RX bytes already scheduled on it), device state.  The
        CPU halts so run loops and the network co-simulator stop
        visiting the node until someone calls :meth:`reboot`.
        """
        self.crashed = True
        self.kernel.cpu.halted = True

    def reboot(self, boot_delay_cycles: int = BOOT_DELAY_CYCLES) -> None:
        """Cold-restart: re-link the image, fresh kernel, same clock.

        The node's cycle counter continues from the crash point plus
        *boot_delay_cycles* — network time is one shared epoch and a
        reboot does not travel back in it.  Flash is re-burned from the
        original sources, so runtime flash corruption does not survive
        a reboot (the bootloader reloads the stored image).
        """
        if self._sources is None:
            raise ValueError(
                "node was not built from sources; cannot cold-restart")
        now = self.cpu.cycles
        config = self.kernel.config
        # Through the process-default image cache: a chaos campaign's
        # Nth reboot of the same image re-links nothing.
        image = build_image(self._sources, lint=config.lint_on_link)
        kernel, devices = self._build_kernel(image, config,
                                             self._adc_seed,
                                             self._block_cache)
        kernel.cpu.cycles = now + boot_delay_cycles
        self.stats_history.append(self.kernel.stats)
        self.kernel.cpu.free_decode_caches()
        self.kernel = kernel
        self.devices = devices
        self.crashed = False
        self.reboots += 1

    def run(self, max_cycles: Optional[int] = None,
            max_instructions: Optional[int] = None,
            until=None) -> None:
        while True:
            self.kernel.run(max_cycles=max_cycles,
                            max_instructions=max_instructions,
                            until=until)
            if self.kernel.panicked and self.kernel.config.panic_reboot \
                    and self.reboots < MAX_PANIC_REBOOTS \
                    and self._sources is not None:
                self.reboot()
                if max_cycles is not None and \
                        self.cpu.cycles >= max_cycles:
                    return
                continue
            return

    @property
    def finished(self) -> bool:
        return self.cpu.halted

    def task_named(self, name: str):
        for task in self.kernel.tasks.values():
            if task.name == name:
                return task
        raise KeyError(name)
