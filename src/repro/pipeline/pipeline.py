"""Pipeline: content-keyed sequencing of the build stages.

Every stage key is derivable *before any stage runs*: the request key
is the content key of the submitted sources plus options, and each
stage's key chains the previous one with the stage's name and version.
Deterministic stages mean a key identifies its result — so the
pipeline first probes the **final** (verdict) key and, on a hit,
answers without assembling, rewriting, linting, booting or simulating
anything.  That is the "a million identical submissions cost one
rewrite" economics the serve layer builds on.

A miss walks the stages in order; each consults the
:class:`~repro.pipeline.store.ArtifactStore` under its own key first
(memory tier always, disk tier for pure-data stages), so a partial
cache still skips whatever work it can.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

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
    verdict is part of the content key; pure performance knobs (trace
    store paths, cache sizes) deliberately are not.
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
    config is folded into every stage key so two pipelines with
    different kernels never share artifacts they shouldn't.
    """

    def __init__(self, store: Optional[ArtifactStore] = None,
                 config=None, stages: Optional[Sequence[Stage]] = None):
        self.store = store if store is not None else ArtifactStore()
        self.config = config
        self.stages: List[Stage] = list(stages) if stages is not None \
            else default_stages()
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

    def stage_keys(self, request: BuildRequest) -> Dict[str, str]:
        chained = content_key("pipeline", request.content_key(),
                              self._config_key())
        keys = {}
        for stage in self.stages:
            chained = content_key("stage", stage.name, stage.version,
                                  chained)
            keys[stage.name] = chained
        return keys

    # -- submission -------------------------------------------------------------

    def submit(self, request: BuildRequest) -> dict:
        """Run (or recall) the full pipeline; returns the verdict dict
        with a ``cached`` flag describing whether any stage ran."""
        with self._lock:
            self.submissions += 1
        keys = self.stage_keys(request)
        final = self.stages[-1]
        verdict = self.store.get(keys[final.name],
                                 disk=final.persistent)
        if verdict is not None:
            return {**verdict, "cached": True}
        ctx: Dict[str, object] = {}
        for stage in self.stages:
            key = keys[stage.name]
            value = None
            if stage.cacheable:
                value = self.store.get(key, disk=stage.persistent)
            if value is None:
                value = stage.run(self, request, ctx)
                with self._lock:
                    self.stage_runs[stage.name] = \
                        self.stage_runs.get(stage.name, 0) + 1
                if stage.cacheable and value is not None:
                    self.store.put(
                        key, value,
                        artifact=value if stage.persistent else None)
            ctx[stage.name] = value
        return {**ctx[self.stages[-1].name], "cached": False}

    def adopt(self, request: BuildRequest, verdict: dict) -> None:
        """Seed the store with a verdict computed elsewhere (a serve
        worker process): future identical submissions hit in-memory."""
        body = {key: value for key, value in verdict.items()
                if key != "cached"}
        keys = self.stage_keys(request)
        final = self.stages[-1]
        self.store.put(keys[final.name], body,
                       artifact=body if final.persistent else None)

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
