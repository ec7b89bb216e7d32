"""The benchmark's workloads: seeded inputs, set-up, one op, its check.

Every workload is a closed loop with one caller.  Its inputs come from
the run's seed alone, and every op of a run costs the same: the seed
only changes values that no instruction path depends on (a dead
``ldi`` ahead of each program's first ``ldi`` into the same register,
and, for the fleet, the flooded byte values).

A workload object is driven as::

    workload.setup(rep, reps)   # reps times; the last leaves it ready
    out = workload.op(i)        # timed
    workload.observe(out)       # the simulated statistics the check pins
    workload.work(out)          # work units the op completed
    workload.layer_counts(out)  # exact counts the traced run reports
    workload.close()
"""

from __future__ import annotations

import random
import re
import tempfile

#: The kernel benchmark programs of one cold_verdict bundle.
BUNDLE = ("am", "crc", "eventchain", "lfsr", "readadc", "timer")
VERDICT_BUDGET = 200_000
#: Never-seen bundles submitted per set-up before the first timed op.
COLD_WARMUPS = 2

FIG7_TREE_NODES = 20
FIG7_TREES = 6
FIG7_SEARCH_TASKS = 12
FIG7_SEARCHES = 12
FIG7_UPDATES = 30
FIG7_SLICE_CYCLES = 20_000
FIG7_MAX_INSTRUCTIONS = 400_000_000

FLEET_ROWS = FLEET_COLS = 4
FLEET_BYTES = 16

_FIRST_LDI = re.compile(r"^(\s*)ldi\s+(r\d+)\s*,", re.MULTILINE)


def with_dead_ldi(source: str, value: int) -> str:
    """*source* with ``ldi rX, value`` ahead of the first ``ldi rX``
    after ``main:``; the next instruction overwrites it, so execution
    is unchanged while the code bytes differ."""
    start = source.index("main:")
    match = _FIRST_LDI.search(source, start)
    if match is None:
        raise ValueError("no ldi after main: to shadow")
    indent, register = match.group(1), match.group(2)
    line = f"{indent}ldi {register}, {value & 0xFF}\n"
    return source[:match.start()] + line + source[match.start():]


def _stream(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


# -- cold_verdict ---------------------------------------------------------------


def cold_bundle(seed: int, index: int) -> list:
    """Request *index* of a run: the six-program bundle, each program
    carrying one dead byte.  Two of the six bytes spell the index, so
    the bundles of one run differ pairwise."""
    from repro.workloads.kernelbench import KERNEL_BENCHMARKS
    rng = _stream(seed, f"cold/{index}")
    values = [index & 0xFF, (index >> 8) & 0xFF] + \
        [rng.randrange(256) for _ in BUNDLE[2:]]
    return [{"name": name,
             "source": with_dead_ldi(KERNEL_BENCHMARKS[name](), value)}
            for name, value in zip(BUNDLE, values)]


class ColdVerdict:
    """Submit one never-seen bundle to an in-process server per op."""

    name = "cold_verdict"
    work_unit = "verdicts"
    modules = ("repro.serve", "repro.pipeline.report",
               "repro.workloads.kernelbench")

    def __init__(self, seed: int, ops: int, scratch: str):
        self.seed = seed
        self.ops = ops
        self.scratch = scratch
        self._stack = None
        self.server = None
        self.client = None
        self.requests = []

    def inputs(self, reps: int) -> list:
        """Every request body of a run: set-up warm-ups, then ops."""
        return [cold_bundle(self.seed, index)
                for index in range(reps * COLD_WARMUPS + self.ops)]

    def setup(self, rep: int, reps: int) -> None:
        import contextlib
        from repro.serve import ServeClient, serve_in_thread
        self.close()
        requests = self.inputs(reps)
        stack = contextlib.ExitStack()
        store = stack.enter_context(
            tempfile.TemporaryDirectory(dir=self.scratch))
        self.server = stack.enter_context(
            serve_in_thread(store_path=store, jobs=1))
        self.client = stack.enter_context(
            ServeClient(port=self.server.port))
        self._stack = stack
        for k in range(COLD_WARMUPS):
            verdict = self._submit(requests[rep * COLD_WARMUPS + k])
            if verdict.get("cached", True):
                raise RuntimeError("warm-up request was not cold")
        self.requests = requests[reps * COLD_WARMUPS:]

    def _submit(self, programs) -> dict:
        response = self.client.submit(
            programs, options={"max_instructions": VERDICT_BUDGET})
        if not response.get("ok"):
            raise RuntimeError(f"serve error: {response.get('error')}")
        return response["verdict"]

    def op(self, index: int):
        return self._submit(self.requests[index])

    @staticmethod
    def observe(verdict) -> dict:
        from repro.pipeline.report import VERDICT_SCHEMA
        simulation = verdict["simulation"]
        return {"schema_ok": verdict["schema"] == VERDICT_SCHEMA,
                "cached": verdict["cached"],
                "lint_sound": verdict["lint"]["ok"],
                "finished": simulation["finished"],
                "instructions": simulation["instructions"],
                "cycles": simulation["cycles"]}

    @staticmethod
    def work(verdict) -> int:
        return 1

    @staticmethod
    def layer_counts(verdict) -> dict:
        return {}

    def close(self) -> None:
        if self._stack is not None:
            self.client.shutdown()
            self._stack.close()
            self._stack = None


# -- steady_exec ----------------------------------------------------------------


def fig7_sources(seed: int, rep: int) -> list:
    """The Fig-7 node: a feeder with 6 trees of 20 nodes plus 12
    recursive search tasks (the experiment's own task seeds), each
    program shadowed by one dead byte; byte 0 of the feeder is *rep*."""
    from repro.workloads.bintree import feeder_source, search_task_source
    rng = _stream(seed, f"steady/{rep}")
    sources = [("feeder", feeder_source(nodes_per_tree=FIG7_TREE_NODES,
                                        trees=FIG7_TREES,
                                        updates=FIG7_UPDATES))]
    for index in range(FIG7_SEARCH_TASKS):
        sources.append((f"search{index}", search_task_source(
            nodes=FIG7_TREE_NODES, searches=FIG7_SEARCHES,
            seed=0x1357 + 0x1111 * index)))
    values = [rep] + [rng.randrange(256) for _ in sources[1:]]
    return [(name, with_dead_ldi(source, value))
            for (name, source), value in zip(sources, values)]


class SteadyExec:
    """Boot the pre-linked Fig-7 image and run it to completion."""

    name = "steady_exec"
    work_unit = "simulated instructions"
    modules = ("repro.kernel", "repro.toolchain.linker",
               "repro.workloads.bintree")

    def __init__(self, seed: int, ops: int, scratch: str):
        self.seed = seed
        self.ops = ops
        self.image = None
        self.config = None

    def setup(self, rep: int, reps: int) -> None:
        from repro.kernel import KernelConfig
        from repro.toolchain.linker import link_image
        self.config = KernelConfig(time_slice_cycles=FIG7_SLICE_CYCLES)
        self.image = link_image(fig7_sources(self.seed, rep),
                                lint=self.config.lint_on_link)
        for _ in range(2):  # the compiling run, then one warm run
            self.op(0)

    def op(self, index: int):
        from repro.kernel import SensorNode
        node = SensorNode.from_image(self.image, config=self.config)
        node.run(max_instructions=FIG7_MAX_INSTRUCTIONS)
        return node

    @staticmethod
    def observe(node) -> dict:
        stats = node.kernel.stats
        return {"finished": node.finished,
                "all_exit": all(task.exit_reason == "exit"
                                for task in node.kernel.tasks.values()),
                "instret": node.cpu.instret,
                "cycles": node.cpu.cycles,
                "relocations": stats.relocations,
                "context_switches": stats.context_switches}

    @staticmethod
    def work(node) -> int:
        return node.cpu.instret

    @staticmethod
    def layer_counts(node) -> dict:
        return {}

    def close(self) -> None:
        self.image = None


# -- fleet_flood ----------------------------------------------------------------


def fleet_spec(seed: int, rep: int):
    """A 4x4 grid flood: the corner node sends FLEET_BYTES bytes
    starting at a seeded value, every other node relays them."""
    from repro.fleet.sim import FleetSpec
    from repro.fleet.topology import grid
    from repro.fleet.workload import build_programs, relay_src, sender_src
    rng = _stream(seed, "fleet")
    start = rng.randrange(256)
    topology = grid(FLEET_ROWS, FLEET_COLS)
    _, roles = build_programs(topology, "flood", count=FLEET_BYTES)
    # The dead bytes differ per set-up repetition, so each one links
    # and primes images the process has not seen.
    sender = with_dead_ldi(sender_src(FLEET_BYTES, start=start), rep)
    relay = with_dead_ldi(relay_src(FLEET_BYTES), start + rep)
    programs = {name: (("sender", sender),) if role == "source"
                else (("relay", relay),)
                for name, role in roles.items()}
    return FleetSpec(topology=topology, programs=programs, roles=roles,
                     workload="flood", count=FLEET_BYTES,
                     seed=rng.randrange(1, 1 << 31))


class FleetFlood:
    """Run the 16-node flood fleet in-process on one shard."""

    name = "fleet_flood"
    work_unit = "simulated instructions"
    modules = ("repro.fleet.sim", "repro.fleet.topology",
               "repro.fleet.workload")

    def __init__(self, seed: int, ops: int, scratch: str):
        self.seed = seed
        self.ops = ops
        self.spec = None

    def setup(self, rep: int, reps: int) -> None:
        from repro.fleet.sim import prime_caches
        self.spec = fleet_spec(self.seed, rep)
        prime_caches(self.spec)
        self.op(0)

    def op(self, index: int):
        from repro.fleet.sim import FleetSim
        return FleetSim(self.spec, shards=1, prime=False).run()

    @staticmethod
    def observe(result) -> dict:
        return {"digest": result.digest,
                "delivered": result.delivered,
                "total_instret": result.total_instret,
                "finished_nodes": result.finished_nodes}

    @staticmethod
    def work(result) -> int:
        return result.total_instret

    @staticmethod
    def layer_counts(result) -> dict:
        return {"delivered": result.delivered, "dropped": result.dropped}

    def close(self) -> None:
        self.spec = None


WORKLOADS = {cls.name: cls for cls in (ColdVerdict, SteadyExec, FleetFlood)}
