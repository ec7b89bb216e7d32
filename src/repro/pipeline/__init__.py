"""Content-addressed build pipeline (assemble → … → verdict).

The base station's deployment path as an explicit staged pipeline of
deterministic stages.  Its one cached artifact is the verdict, keyed by
the blake2b content key of the inputs (:mod:`repro.fingerprint`) and
kept in a two-tier :class:`ArtifactStore` — so identical submissions
cost one build, and ``sensmart serve`` can answer a million of them
from the store.
"""

from .pipeline import (DEFAULT_MAX_INSTRUCTIONS, BuildRequest, Pipeline,
                       build_image)
from .report import (LINT_SCHEMA, RUN_SCHEMA, SERVE_STATS_SCHEMA,
                     VERDICT_SCHEMA, jit_stats_dict, lint_report_dict,
                     rewrite_report_dict, run_report_dict, sim_digest,
                     stack_bounds_dict)
from .stages import COUNTERS, Stage, StageCounters, default_stages
from .store import ArtifactStore, StoreStats

__all__ = [
    "ArtifactStore", "StoreStats",
    "BuildRequest", "Pipeline", "build_image",
    "DEFAULT_MAX_INSTRUCTIONS",
    "COUNTERS", "Stage", "StageCounters", "default_stages",
    "VERDICT_SCHEMA", "LINT_SCHEMA", "RUN_SCHEMA",
    "SERVE_STATS_SCHEMA",
    "jit_stats_dict", "lint_report_dict", "rewrite_report_dict",
    "run_report_dict", "sim_digest", "stack_bounds_dict",
]
