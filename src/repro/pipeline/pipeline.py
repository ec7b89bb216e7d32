"""Pipeline: content-keyed sequencing of the build stages.

The verdict is the one artifact the pipeline caches.  Its key is
derivable *before any stage runs*: the request key (the content key of
the submitted sources plus options) chained through every stage's name
and version.  Deterministic stages mean the key identifies the verdict
— so a submission probes it first and, on a hit, answers without
assembling, rewriting, linting, booting or simulating anything.  That
is the "a million identical submissions cost one rewrite" economics the
serve layer builds on.

A miss runs the stages in order and stores the verdict alone in the
:class:`~repro.pipeline.store.ArtifactStore`.  Bumping any stage's
``version`` changes the key, which retires every stored verdict.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from ..fingerprint import content_key
from .stages import Stage, default_stages
from .store import ArtifactStore

#: Default simulation budget per submission.
DEFAULT_MAX_INSTRUCTIONS = 20_000_000

#: Request schema version: bump when key-relevant semantics change.
REQUEST_VERSION = 1


@dataclass(frozen=True)
class BuildRequest:
    """One submission: programs plus the run budget.

    ``sources`` is a tuple of ``(name, assembly_source)`` pairs —
    exactly what ``link_image`` takes.  Everything that can change the
    verdict is part of the content key; pure performance knobs (cache
    sizes) deliberately are not.
    """

    sources: Tuple[Tuple[str, str], ...]
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    max_cycles: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: dict) -> "BuildRequest":
        """Build a request from the serve protocol's JSON payload::

            {"programs": [{"name": ..., "source": ...}, ...],
             "options": {"max_instructions": ..., "max_cycles": ...}}
        """
        programs = payload.get("programs")
        if not isinstance(programs, list) or not programs:
            raise ValueError("payload needs a non-empty 'programs' list")
        sources = []
        for entry in programs:
            if not isinstance(entry, dict) or "source" not in entry:
                raise ValueError(
                    "each program needs 'name' and 'source' fields")
            sources.append((str(entry.get("name", "task")),
                            str(entry["source"])))
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError("'options' must be an object")
        known = {f.name for f in fields(cls)} - {"sources"}
        unknown = set(options) - known
        if unknown:
            raise ValueError(f"unknown options: {sorted(unknown)}")
        return cls(sources=tuple(sources), **options)

    def options_dict(self) -> dict:
        return {"max_instructions": self.max_instructions,
                "max_cycles": self.max_cycles}

    def content_key(self) -> str:
        return content_key("request", REQUEST_VERSION,
                           list(self.sources), self.max_instructions,
                           self.max_cycles)


class Pipeline:
    """Sequences the stages over one artifact store.

    *config* (a :class:`~repro.kernel.config.KernelConfig` or None for
    defaults) parameterizes the boot/simulate stages; any non-default
    config is folded into the verdict key so two pipelines with
    different kernels never share verdicts they shouldn't.
    """

    def __init__(self, store: Optional[ArtifactStore] = None,
                 config=None):
        self.store = store if store is not None else ArtifactStore()
        self.config = config
        self.stages: List[Stage] = default_stages()
        #: Per-stage execution counts for *this* pipeline (the global
        #: work odometer lives in ``stages.COUNTERS``).
        self.stage_runs: Dict[str, int] = {}
        self.submissions = 0
        self._lock = threading.Lock()

    # -- keys -------------------------------------------------------------------

    def _config_key(self):
        if self.config is None:
            return None
        from dataclasses import asdict
        return asdict(self.config)

    def verdict_key(self, request: BuildRequest) -> str:
        """The request key chained through every stage's name and
        version; the last link keys the verdict."""
        chained = content_key("pipeline", request.content_key(),
                              self._config_key())
        for stage in self.stages:
            chained = content_key("stage", stage.name, stage.version,
                                  chained)
        return chained

    # -- submission -------------------------------------------------------------

    def lookup(self, request: BuildRequest) -> Optional[dict]:
        """The stored verdict for *request* flagged ``cached``, or
        None.  Every submission starts here, whether this pipeline or
        a serve worker then builds it, so this counts one."""
        with self._lock:
            self.submissions += 1
        verdict = self.store.get(self.verdict_key(request))
        return None if verdict is None else {**verdict, "cached": True}

    def submit(self, request: BuildRequest) -> dict:
        """Run (or recall) the full pipeline; returns the verdict dict
        with a ``cached`` flag describing whether any stage ran."""
        cached = self.lookup(request)
        if cached is not None:
            return cached
        ctx: Dict[str, object] = {}
        for stage in self.stages:
            ctx[stage.name] = stage.run(self, request, ctx)
            self._count_runs([stage])
        verdict = ctx[self.stages[-1].name]
        self.store.put(self.verdict_key(request), verdict)
        return {**verdict, "cached": False}

    def adopt(self, request: BuildRequest, verdict: dict) -> None:
        """Seed the store with a verdict computed elsewhere (a serve
        worker process): future identical submissions hit in-memory.
        A verdict the worker built rather than recalled counts one run
        of every stage, as a build here would."""
        body = {key: value for key, value in verdict.items()
                if key != "cached"}
        self.store.put(self.verdict_key(request), body)
        if not verdict["cached"]:
            self._count_runs(self.stages)

    def _count_runs(self, stages) -> None:
        with self._lock:
            for stage in stages:
                self.stage_runs[stage.name] = \
                    self.stage_runs.get(stage.name, 0) + 1

    def stats_dict(self) -> dict:
        with self._lock:
            runs = dict(self.stage_runs)
            submissions = self.submissions
        return {"submissions": submissions, "stage_runs": runs,
                "store": self.store.stats.as_dict()}


# -- process-default image cache -------------------------------------------------
#
# ``SensorNode.from_sources`` and ``SensorNode.reboot`` funnel their
# link through here: N identical nodes (network simulations) and crash
# reboots (chaos campaigns) re-link each distinct image once per
# process instead of once per node per life.

_IMAGE_STORE = ArtifactStore(max_memory=64)


def build_image(sources, lint: bool = False, rewriter=None,
                cache: bool = True):
    """Link *sources* into a target image through the process-default
    image cache.  A custom *rewriter* bypasses the cache (its behaviour
    is not content-keyable); lint failures raise and are never cached.
    """
    from ..toolchain.linker import link_image
    if rewriter is not None or not cache:
        return link_image(sources, rewriter=rewriter, lint=lint)
    key = content_key("image", REQUEST_VERSION, list(sources),
                      bool(lint))
    image = _IMAGE_STORE.get(key)
    if image is None:
        image = link_image(sources, lint=lint)
        _IMAGE_STORE.put(key, image)
    return image
