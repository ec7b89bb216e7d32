"""Exception hierarchy for the SenSmart reproduction.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class EncodingError(ReproError):
    """An instruction could not be encoded or decoded."""


class AssemblerError(ReproError):
    """Assembly source is malformed.

    Carries optional source location information for diagnostics.
    """

    def __init__(self, message: str, line: int = 0, source: str = ""):
        location = f" (line {line}: {source.strip()!r})" if line else ""
        super().__init__(message + location)
        self.line = line
        self.source = source


class LinkError(ReproError):
    """Programs could not be linked into a target image."""


class SimulationError(ReproError):
    """The MCU simulator reached an invalid state."""


class InvalidInstruction(SimulationError):
    """The CPU fetched a word that does not decode to a valid instruction."""

    def __init__(self, address: int, word: int):
        super().__init__(
            f"invalid instruction word 0x{word:04x} at word address 0x{address:04x}"
        )
        self.address = address
        self.word = word


class MemoryFault(SimulationError):
    """A data-memory access fell outside the addressable space."""

    def __init__(self, address: int, kind: str = "access"):
        super().__init__(f"memory fault: {kind} at data address 0x{address:04x}")
        self.address = address
        self.kind = kind


class RewriteError(ReproError):
    """The binary rewriter could not naturalize a program."""


class KernelError(ReproError):
    """The SenSmart kernel reached an inconsistent state."""


class TaskFault(KernelError):
    """A task performed an operation the kernel treats as invalid.

    The kernel converts these into task terminations rather than letting
    them crash the node, mirroring SenSmart's treatment of out-of-region
    accesses as invalid instructions.
    """

    def __init__(self, task_id: int, reason: str):
        super().__init__(f"task {task_id} fault: {reason}")
        self.task_id = task_id
        self.reason = reason


class OutOfMemory(KernelError):
    """The kernel could not allocate or grow a memory region."""


class LoadError(KernelError):
    """The dynamic loader rejected an image before installing anything.

    Raised for malformed or truncated sources (and anything else the
    compile/naturalize stages refuse) and for programs that do not fit
    in the flash left after the loader's cursor; mirrors the
    :class:`~repro.kernel.termination.TerminationReason` style with a
    stable ``reason`` string.  The loader guarantees the node is
    untouched when this escapes: no flash burned, no trampolines
    registered, no region moved — running tasks stay bit-identical.
    A load whose RAM need does not fit raises :class:`OutOfMemory`
    under the same guarantee.
    """

    def __init__(self, name: str, reason: str):
        super().__init__(f"load of {name!r} rejected: {reason}")
        self.name = name
        self.reason = reason
