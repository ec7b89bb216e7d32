"""Adversarial campaign throughput: trials/second per execution tier.

The injection campaign is the repo's most network- and fault-heavy
workload: each trial boots two nodes, delivers a malicious frame, and
classifies the containment outcome.  This bench measures how fast the
quick campaign (13 anchor trials) runs under the stepwise interpreter
and the traced tier, and how much the hot-patch session costs
end-to-end.

Correctness rides along: every timed campaign must reproduce the same
campaign digest (tier invariance is the tentpole property — one seed,
one survivability table, any tier), and the patch session must land
the patched worker bit-identical to a cold boot.  Measured rates go to
``BENCH_attack.json`` at the repo root.
"""

import json
from pathlib import Path

from repro.adversary import run_inject, run_patch

RESULTS_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_attack.json"

TIERS = {
    "stepwise": dict(fuse=False),
    "traced": dict(fuse=True),
}


def _record(key: str, value: float) -> None:
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[key] = round(value, 3)
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n")


def _campaign(tier):
    def run():
        return run_inject(quick=True, **TIERS[tier])
    return run


def test_inject_stepwise(benchmark):
    result = benchmark.pedantic(_campaign("stepwise"), rounds=3,
                                iterations=1, warmup_rounds=1)
    rate = len(result.trials) / benchmark.stats["mean"]
    print(f"\ninject, stepwise: {rate:.2f} trials/s")
    _record("inject_stepwise_trials_per_s", rate)


def test_inject_traced(benchmark):
    result = benchmark.pedantic(_campaign("traced"), rounds=3,
                                iterations=1, warmup_rounds=1)
    rate = len(result.trials) / benchmark.stats["mean"]
    print(f"\ninject, traced: {rate:.2f} trials/s")
    _record("inject_traced_trials_per_s", rate)
    digests = {tier: _campaign(tier)().digest for tier in TIERS}
    assert len(set(digests.values())) == 1, digests


def test_patch_session(benchmark):
    report = benchmark.pedantic(lambda: run_patch(quick=True),
                                rounds=3, iterations=1,
                                warmup_rounds=1)
    assert report.ok, report.failure
    assert report.worker_digest == report.cold_digest
    _record("patch_quick_s", benchmark.stats["mean"])
    print(f"\npatch session: {benchmark.stats['mean']:.2f} s")


def _quick() -> None:
    """CI smoke: one timed pass per tier, no pytest plugin, no
    BENCH_attack.json update — prove the campaign digest is tier
    invariant and the patch session lands identical to a cold boot."""
    import time
    digests = set()
    for tier, overrides in TIERS.items():
        started = time.perf_counter()
        result = run_inject(quick=True, **overrides)
        elapsed = time.perf_counter() - started
        digests.add(result.digest)
        print(f"inject, {tier}: "
              f"{len(result.trials) / elapsed:.2f} trials/s")
    assert len(digests) == 1, digests
    started = time.perf_counter()
    report = run_patch(quick=True)
    assert report.ok, report.failure
    assert report.worker_digest == report.cold_digest
    print(f"patch session: {time.perf_counter() - started:.2f} s")
    print("quick smoke OK")


if __name__ == "__main__":
    import sys
    if "--quick" in sys.argv:
        _quick()
    else:
        raise SystemExit(
            "run under pytest, or pass --quick for the CI smoke")
