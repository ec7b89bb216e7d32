"""Fleet-scale sharded co-simulation (see INTERNALS.md §13).

Public surface: topology generators (:func:`grid`,
:func:`random_geometric`, :func:`partition`), workload assignment
(:func:`build_programs`), and the conservative sharded coordinator
(:class:`FleetSim` over a :class:`FleetSpec`).
"""

from .sim import (DEFAULT_MAX_CYCLES, FleetResult, FleetSim, FleetSpec,
                  build_spec, prime_caches)
from .topology import (LinkSpec, NodeSpec, Topology, grid, partition,
                       random_geometric)
from .workload import build_programs

__all__ = [
    "DEFAULT_MAX_CYCLES", "FleetResult", "FleetSim", "FleetSpec",
    "LinkSpec", "NodeSpec", "Topology", "build_programs", "build_spec",
    "grid", "partition", "prime_caches", "random_geometric",
]
