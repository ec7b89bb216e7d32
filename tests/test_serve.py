"""The ``sensmart serve`` job server and its NDJSON protocol."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.pipeline.report import SERVE_STATS_SCHEMA, VERDICT_SCHEMA
from repro.pipeline.stages import COUNTERS, default_stages
from repro.serve import ServeClient, ServeServer, serve_in_thread

SPIN = """
start:
    ldi r24, 30
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
    ldi r24, 3
again:
    ldi r26, 0x01
    out 0x18, r26
    dec r24
    brne again
    break
"""

OPTIONS = {"max_instructions": 500_000}


def _programs(*sources):
    return [{"name": name, "source": source}
            for name, source in sources]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("artifacts")
    with serve_in_thread(store_path=str(store)) as live:
        yield live


@pytest.fixture
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


def test_cold_then_warm_submission(client):
    programs = _programs(("spin", SPIN))
    cold = client.submit(programs, options=OPTIONS, ident=1)
    assert cold["ok"] is True
    assert cold["id"] == 1
    verdict = cold["verdict"]
    assert verdict["schema"] == VERDICT_SCHEMA
    assert verdict["simulation"]["finished"] is True

    before = COUNTERS.snapshot()
    warm = client.submit(programs, options=OPTIONS, ident=2)
    assert warm["verdict"]["cached"] is True
    assert COUNTERS.delta(before) == {}, \
        "a repeated identical submission must do zero build work"
    body = {k: v for k, v in verdict.items() if k != "cached"}
    warm_body = {k: v for k, v in warm["verdict"].items()
                 if k != "cached"}
    assert warm_body == body


def test_distinct_submission_is_a_fresh_build(client):
    response = client.submit(_programs(("blink", BLINK)),
                             options=OPTIONS)
    assert response["ok"] is True
    assert response["verdict"]["programs"] == ["blink"]


def test_stats_op(client):
    client.submit(_programs(("spin", SPIN)), options=OPTIONS)
    stats = client.stats()["stats"]
    assert stats["schema"] == SERVE_STATS_SCHEMA
    assert stats["requests"] >= 1
    assert stats["errors"] >= 0
    assert stats["pipeline"]["store"]["hits"] >= 1
    assert stats["jobs"] == 1


def test_error_paths(client):
    bad = client.request({"programs": []})
    assert bad["ok"] is False
    assert "programs" in bad["error"]

    unknown = client.request({"op": "frobnicate"})
    assert unknown["ok"] is False
    assert "unknown op" in unknown["error"]

    not_json = client.request({"programs": [{"name": "x"}]})
    assert not_json["ok"] is False

    # a bad request must not wedge the connection
    good = client.submit(_programs(("spin", SPIN)), options=OPTIONS)
    assert good["ok"] is True


def test_bad_json_line(server):
    import socket
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        handle = sock.makefile("rwb")
        handle.write(b"{ not json\n")
        handle.flush()
        response = json.loads(handle.readline())
        assert response["ok"] is False
        assert "bad JSON" in response["error"]


def test_single_flight_coalescing():
    """Two identical concurrent submissions share one build."""
    async def scenario():
        server = ServeServer(port=0)
        await server.start()
        try:
            payload = {"programs": _programs(("spin", SPIN)),
                       "options": OPTIONS}
            v1, v2 = await asyncio.gather(server._submit(payload),
                                          server._submit(payload))
            assert server.coalesced == 1
            assert server.pipeline.submissions == 1
            body = {k: v for k, v in v1.items() if k != "cached"}
            assert {k: v for k, v in v2.items()
                    if k != "cached"} == body
        finally:
            await server.close()

    asyncio.run(scenario())


def test_process_pool_adopts_worker_verdicts(tmp_path):
    """``jobs=2`` forks two workers: a cold submission is built in a
    worker and adopted by the parent, and its identical resubmission
    is answered from the parent's memory tier."""
    import multiprocessing

    from repro.pipeline import BuildRequest, Pipeline
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the process pool needs fork")
    programs = _programs(("spin", SPIN))
    before = COUNTERS.snapshot()
    with serve_in_thread(store_path=str(tmp_path), jobs=2) as server:
        assert server.stats_dict()["workers"] == "processes"
        with ServeClient(port=server.port) as client:
            cold = client.submit(programs, options=OPTIONS)["verdict"]
            warm = client.submit(programs, options=OPTIONS)["verdict"]
            stats = client.stats()["stats"]["pipeline"]
        store = server.pipeline.store.stats
        assert (store.hits, store.disk_hits, store.misses) == (1, 0, 1)
    # The worker-built verdict counts as a submission that ran every
    # stage once; the warm one as a submission that ran none.
    assert stats["submissions"] == 2
    assert stats["stage_runs"] == {stage.name: 1
                                   for stage in default_stages()}
    assert cold["cached"] is False
    assert warm["cached"] is True
    assert COUNTERS.delta(before) == {}, \
        "the parent process must leave every build to its workers"
    direct = Pipeline().submit(BuildRequest.from_payload(
        {"programs": programs, "options": OPTIONS}))
    body = {k: v for k, v in direct.items() if k != "cached"}
    assert {k: v for k, v in cold.items() if k != "cached"} == body
    assert {k: v for k, v in warm.items() if k != "cached"} == body


def test_process_pool_builds_with_the_server_config(tmp_path):
    """With ``jobs=2`` the workers build under the server's kernel
    config, so a non-default config's verdict is the one its own
    pipeline gives (no trace JIT under ``fuse=False``)."""
    import multiprocessing

    from repro.kernel import KernelConfig
    from repro.pipeline import BuildRequest, Pipeline
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the process pool needs fork")
    config = KernelConfig(fuse=False)
    programs = _programs(("spin", SPIN))
    with serve_in_thread(store_path=str(tmp_path), jobs=2,
                         config=config) as server:
        with ServeClient(port=server.port) as client:
            served = client.submit(programs, options=OPTIONS)["verdict"]
    direct = Pipeline(config=config).submit(BuildRequest.from_payload(
        {"programs": programs, "options": OPTIONS}))
    assert served["jit"] == {}
    assert served == direct


def test_shutdown_op_stops_the_server(tmp_path):
    with serve_in_thread(store_path=str(tmp_path)) as server:
        with ServeClient(port=server.port) as client:
            ack = client.shutdown()
            assert ack["ok"] is True
            assert ack["stopping"] is True


def test_cli_serve_and_submit_round_trip(tmp_path):
    """The subprocess path: ``sensmart serve`` announces its port,
    ``sensmart submit`` gets a verdict, ``--shutdown`` stops it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    program = tmp_path / "spin.asm"
    program.write_text(SPIN)

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--store", str(tmp_path / "store")],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        announce = proc.stdout.readline()
        assert announce.startswith("sensmart serve listening on ")
        port = announce.strip().rsplit(":", 1)[1]
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "submit",
             str(program), "--port", port,
             "--max-instructions", "500000", "--shutdown"],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        response = json.loads(result.stdout)
        assert response["ok"] is True
        assert response["verdict"]["schema"] == VERDICT_SCHEMA
        proc.wait(timeout=30)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
