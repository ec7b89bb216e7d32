"""Content-addressed build pipeline: store, stages, cache correctness.

The economics the serve layer depends on are proven here:

* a second identical submission does **zero** build work — no assemble,
  no rewrite, no lint, no boot, no simulation (the process-wide work
  odometer, not cache counters, is the witness);
* a fresh process (modelled by a fresh pipeline over the same disk
  store) serves the verdict from disk, also work-free;
* a corrupted on-disk artifact is detected by checksum, counted,
  discarded, and recomputed into an identical verdict.
"""

from __future__ import annotations

import json

import pytest

from repro.pipeline import (ArtifactStore, BuildRequest, Pipeline,
                            VERDICT_SCHEMA, build_image)
from repro.pipeline.stages import COUNTERS

SPIN = """
start:
    ldi r24, 40
outer:
    ldi r25, 10
inner:
    dec r25
    brne inner
    dec r24
    brne outer
    break
"""

BLINK = """
start:
    ldi r24, 4
again:
    ldi r26, 0x01
    out 0x18, r26
    ldi r26, 0x00
    out 0x18, r26
    dec r24
    brne again
    break
"""

OPTIONS = {"max_instructions": 500_000}


def _request(sources=None, **options) -> BuildRequest:
    if sources is None:
        sources = [("spin", SPIN)]
    merged = dict(OPTIONS)
    merged.update(options)
    return BuildRequest.from_payload({
        "programs": [{"name": name, "source": source}
                     for name, source in sources],
        "options": merged,
    })


def _body(verdict: dict) -> dict:
    return {key: value for key, value in verdict.items()
            if key != "cached"}


# -- the artifact store ----------------------------------------------------------

def test_store_memory_lru_eviction():
    store = ArtifactStore(max_memory=2)
    store.put("a", 1)
    store.put("b", 2)
    store.put("c", 3)  # evicts "a"
    assert store.stats.evictions == 1
    assert store.get("a") is None
    assert store.get("b") == 2
    # "b" is now most-recent; inserting "d" evicts "c"
    store.put("d", 4)
    assert store.get("c") is None
    assert store.get("d") == 4
    assert store.stats.hits == 2
    assert store.stats.misses == 2


def test_store_contains_does_not_count():
    store = ArtifactStore()
    store.put("k", "v")
    assert store.contains("k")
    assert not store.contains("absent")
    assert store.stats.lookups == 0


def test_store_rejects_none_values():
    store = ArtifactStore()
    with pytest.raises(ValueError):
        store.put("k", None)


def test_store_disk_round_trip_and_promotion(tmp_path):
    writer = ArtifactStore(path=str(tmp_path))
    writer.put("k", {"x": 1}, artifact={"x": 1})
    reader = ArtifactStore(path=str(tmp_path))
    assert reader.get("k") == {"x": 1}
    assert reader.stats.disk_hits == 1
    # promoted into memory: the second get is a memory hit
    assert reader.get("k") == {"x": 1}
    assert reader.stats.hits == 1


def test_store_checksum_detects_tampering(tmp_path):
    store = ArtifactStore(path=str(tmp_path))
    store.put("k", {"x": 1}, artifact={"x": 1})
    (file,) = tmp_path.glob("*.json")
    wrapper = json.loads(file.read_text())
    wrapper["payload"]["x"] = 2  # bit-flip without updating checksum
    file.write_text(json.dumps(wrapper))
    fresh = ArtifactStore(path=str(tmp_path))
    assert fresh.get("k") is None
    assert fresh.stats.corrupt == 1
    assert not file.exists()  # corrupt files are removed


def test_store_garbage_file_counts_corrupt(tmp_path):
    store = ArtifactStore(path=str(tmp_path))
    store.put("k", 1, artifact={"v": 1})
    (file,) = tmp_path.glob("*.json")
    file.write_text("{ not json")
    fresh = ArtifactStore(path=str(tmp_path))
    assert fresh.get("k") is None
    assert fresh.stats.corrupt == 1


# -- requests and keys -----------------------------------------------------------

def test_request_payload_validation():
    with pytest.raises(ValueError):
        BuildRequest.from_payload({"programs": []})
    with pytest.raises(ValueError):
        BuildRequest.from_payload({"programs": [{"name": "x"}]})
    with pytest.raises(ValueError):
        BuildRequest.from_payload({
            "programs": [{"name": "x", "source": "break"}],
            "options": {"bogus": 1}})


def test_stage_keys_are_stable_and_discriminating():
    pipeline = Pipeline()
    r1 = _request()
    keys = pipeline.stage_keys(r1)
    assert list(keys) == ["assemble", "rewrite", "lint", "precompile",
                          "simulate", "verdict"]
    assert keys == pipeline.stage_keys(_request())
    # different sources, options, or kernel config change every key
    assert keys["verdict"] != \
        pipeline.stage_keys(_request([("blink", BLINK)]))["verdict"]
    assert keys["verdict"] != \
        pipeline.stage_keys(_request(max_instructions=1))["verdict"]
    from repro.kernel.config import KernelConfig
    other = Pipeline(config=KernelConfig(fuse=False))
    assert keys["verdict"] != other.stage_keys(r1)["verdict"]


def test_trace_store_path_does_not_change_keys(tmp_path):
    """The trace store is a performance knob, not a semantic input."""
    from dataclasses import replace
    from repro.kernel.config import KernelConfig
    base = KernelConfig()
    with_store = replace(base, trace_store=str(tmp_path))
    assert Pipeline(config=base).stage_keys(_request()) == \
        Pipeline(config=with_store).stage_keys(_request())


# -- cache correctness -----------------------------------------------------------

def test_cold_submission_produces_a_verdict():
    pipeline = Pipeline()
    verdict = pipeline.submit(_request())
    assert verdict["schema"] == VERDICT_SCHEMA
    assert verdict["cached"] is False
    assert verdict["programs"] == ["spin"]
    assert verdict["simulation"]["finished"] is True
    assert verdict["lint"]["ok"] is True
    assert verdict["stack"]["spin"]["bounded"] is True
    assert verdict["rewrite"]["tasks"][0]["inflation_ratio"] >= 1.0
    assert pipeline.stage_runs == {name: 1 for name in (
        "assemble", "rewrite", "lint", "precompile", "simulate",
        "verdict")}


def test_warm_submission_does_zero_build_work():
    pipeline = Pipeline()
    cold = pipeline.submit(_request())
    before = COUNTERS.snapshot()
    warm = pipeline.submit(_request())
    assert warm["cached"] is True
    assert _body(warm) == _body(cold)
    assert COUNTERS.delta(before) == {}, \
        "a warm submission must not assemble/rewrite/simulate anything"
    # no stage ran a second time
    assert all(count == 1 for count in pipeline.stage_runs.values())


def test_disk_warm_fresh_pipeline_does_zero_build_work(tmp_path):
    cold = Pipeline(store=ArtifactStore(path=str(tmp_path)))
    verdict = cold.submit(_request())
    # a fresh pipeline over the same directory models a new process
    fresh = Pipeline(store=ArtifactStore(path=str(tmp_path)))
    before = COUNTERS.snapshot()
    warm = fresh.submit(_request())
    assert warm["cached"] is True
    assert _body(warm) == _body(verdict)
    assert COUNTERS.delta(before) == {}
    assert fresh.stage_runs == {}
    assert fresh.store.stats.disk_hits == 1


def test_corrupt_disk_artifact_recomputes_identically(tmp_path):
    cold = Pipeline(store=ArtifactStore(path=str(tmp_path)))
    verdict = cold.submit(_request())
    files = sorted(tmp_path.glob("*.json"))
    assert files, "persistent stages wrote no artifacts"
    for file in files:  # flip a byte in every artifact's payload
        wrapper = json.loads(file.read_text())
        wrapper["payload"] = {"tampered": True}
        file.write_text(json.dumps(wrapper))
    fresh = Pipeline(store=ArtifactStore(path=str(tmp_path)))
    recomputed = fresh.submit(_request())
    assert recomputed["cached"] is False
    assert fresh.store.stats.corrupt >= 1
    assert _body(recomputed) == _body(verdict)


def test_multitask_verdict_and_digest_matches_direct_run():
    """The verdict's trace digest is bit-identical to a direct
    SensorNode run of the same bundle — the pipeline adds no
    observable behaviour."""
    from repro.kernel import SensorNode
    from repro.pipeline.report import sim_digest
    sources = [("spin", SPIN), ("blink", BLINK)]
    verdict = Pipeline().submit(_request(sources))
    node = SensorNode.from_sources(sources)
    node.run(max_instructions=OPTIONS["max_instructions"])
    assert verdict["simulation"]["trace_digest"] == sim_digest(node)
    assert verdict["simulation"]["instructions"] == node.cpu.instret
    assert set(verdict["simulation"]["tasks"]) == {"spin", "blink"}


def test_adopt_seeds_the_verdict_key():
    source = Pipeline()
    verdict = source.submit(_request())
    target = Pipeline()
    target.adopt(_request(), verdict)
    before = COUNTERS.snapshot()
    warm = target.submit(_request())
    assert warm["cached"] is True
    assert COUNTERS.delta(before) == {}
    assert _body(warm) == _body(verdict)


# -- the process-default image cache ---------------------------------------------

def test_build_image_caches_by_content():
    sources = [("spin", SPIN)]
    first = build_image(sources)
    before = COUNTERS.snapshot()
    again = build_image(sources)
    assert again is first, "identical sources must reuse the image"
    assert COUNTERS.delta(before) == {}
    bypass = build_image(sources, cache=False)
    assert bypass is not first
    assert COUNTERS.delta(before) != {}


def test_reboot_relinks_nothing(tmp_path):
    """A chaos campaign's Nth reboot re-links zero programs."""
    from repro.kernel import SensorNode
    node = SensorNode.from_sources([("spin", SPIN)])
    before = COUNTERS.snapshot()
    node.crash()
    node.reboot()
    assert COUNTERS.delta(before) == {}
    node.run(max_instructions=OPTIONS["max_instructions"])
    assert node.finished
