"""Command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import main

BLINK = """
main:
    ldi r16, 1
    ldi r20, 3
loop:
    out 0x1B, r16
    eor r16, r20
    dec r20
    brne loop
    break
"""


@pytest.fixture
def blink_file(tmp_path):
    path = tmp_path / "blink.asm"
    path.write_text(BLINK)
    return str(path)


def test_asm_command(blink_file, capsys):
    assert main(["asm", blink_file]) == 0
    out = capsys.readouterr().out
    assert "LDI r16, 0x01" in out
    assert "14 bytes" in out


def test_rewrite_command(blink_file, capsys):
    assert main(["rewrite", blink_file]) == 0
    out = capsys.readouterr().out
    assert "naturalized blink" in out
    assert "<- patched" in out
    assert "trampolines" in out


def test_run_command(blink_file, capsys):
    assert main(["run", blink_file]) == 0
    out = capsys.readouterr().out
    assert "finished: True" in out
    assert "'blink'" in out


def test_run_command_multiple_tasks(blink_file, tmp_path, capsys):
    second = tmp_path / "blink2.asm"
    second.write_text(BLINK)
    assert main(["run", blink_file, str(second)]) == 0
    out = capsys.readouterr().out
    assert "task 0" in out
    assert "task 1" in out


def test_exp_command_quick_table1(capsys):
    assert main(["exp", "table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out


def test_exp_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["exp", "fig99"])


def test_trace_command(blink_file, capsys):
    assert main(["trace", blink_file, "--limit", "20"]) == 0
    out = capsys.readouterr().out
    assert "main:" in out
    assert "LDI r16, 0x01" in out
    assert "halted" in out


def test_cli_compiles_c_files(tmp_path, capsys):
    path = tmp_path / "prog.c"
    path.write_text("""
u16 out;
void main() { out = 6 * 7; halt(); }
""")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "finished: True" in out


def test_lint_command_on_file(blink_file, capsys):
    assert main(["lint", blink_file]) == 0
    out = capsys.readouterr().out
    assert "100.0% coverage" in out
    assert "image is sound" in out


def test_lint_command_bounds(blink_file, tmp_path, capsys):
    assert main(["lint", blink_file, "--bounds"]) == 0
    out = capsys.readouterr().out
    assert "static stack bounds" in out
    # An IJMP with no address pool resolves to every label, and the
    # bounds say so.
    path = tmp_path / "nopool.asm"
    path.write_text("main:\n    mov r30, r24\n    mov r31, r25\n"
                    "    ijmp\nafter:\n    break\n")
    assert main(["lint", str(path), "--bounds"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"indirect branches at 0x[0-9a-f]+ resolved "
                     r"conservatively to every label", out), out


def test_lint_command_workloads(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    for workload in ("table1", "table2", "kernelbench", "bintree",
                     "errpath"):
        assert f"--- {workload} ---" in out
    assert "violation" not in out


def test_run_json_report(blink_file, capsys):
    import json
    assert main(["run", blink_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "sensmart-run/2"
    assert report["run"]["finished"] is True
    assert "blink" in report["run"]["tasks"]
    assert "trace_digest" in report["run"]
    assert "jit" not in report  # jit section needs --stats


def test_run_json_stats_report(blink_file, capsys):
    import json
    assert main(["run", blink_file, "--json", "--stats"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "sensmart-run/2"
    assert "block_cache" in report["jit"]
    tracer = report["jit"]["tracer"]
    # Generated lines count only traces compiled from scratch.
    assert (tracer["lines"] > 0) == (tracer["compiled"] > 0)
    # A dispatch is stepped (cold head), compiled or rebound.
    assert tracer["stepped"] + tracer["compiled"] + \
        tracer["cache_hits"] > 0


def test_run_stats_reports_containment(tmp_path, capsys):
    bad = tmp_path / "bad.asm"
    # Reads past the task's logical space -> an oob fault termination.
    bad.write_text("""
main:
    ldi r26, 0xFF
    ldi r27, 0x1F
    ld r16, X
    break
""")
    assert main(["run", str(bad), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "terminations: FAULT=1" in out
    assert "fault kinds: oob=1" in out
    assert " lines), " in out
    assert re.search(r"tracer: \d+ compiled \(\d+ lines\), \d+ cache hits,"
                     r" \d+ stepped", out)


def test_run_json_stats_containment(blink_file, capsys):
    import json
    assert main(["run", blink_file, "--json", "--stats"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["containment"]["terminations_by_reason"] == {"EXIT": 1}
    assert report["containment"]["faults_by_kind"] == {}


def test_chaos_json_report(monkeypatch, capsys):
    import json
    from repro.experiments import extra_faults
    from repro.experiments.extra_faults import ChaosResult, ChaosRow
    row = ChaosRow(mix="table1", level=1, tasks=9, finished=8,
                   restarted_ok=2, dead=1, terminations=3, restarts=2,
                   watchdog=1, crashes=1, recovered=1, delivered=64,
                   dropped=2, corrupted=1, duplicated=0)
    fake = ChaosResult(seed=0x5EED5, rows=[row])
    monkeypatch.setattr(extra_faults, "run",
                        lambda quick=False, seed=0: fake)
    assert main(["chaos", "--json", "--quick"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "sensmart-chaos/1"
    assert report["chaos"]["seed"] == 0x5EED5
    (got,) = report["chaos"]["rows"]
    assert got["mix"] == "table1" and got["delivered"] == 64
    assert report["chaos"]["moderate"]["terminations"] == 3


def test_attack_patch_family_json(capsys):
    import json
    assert main(["attack", "--family", "patch", "--quick",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "sensmart-attack/1"
    assert report["ok"] is True
    assert "inject" not in report["families"]
    patch = report["families"]["patch"]
    assert patch["ok"] is True
    assert patch["digest_match"] is True
    assert patch["network_alive"] is True
    assert patch["frames_rejected"] >= 1


def test_attack_inject_family_text(capsys):
    assert main(["attack", "--family", "inject", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "injection campaign" in out
    assert "campaign digest" in out
    assert "kernel cross-check" in out and "(ok)" in out
    assert "hot-patch" not in out


def test_fleet_accepts_attack_workload(capsys):
    import json
    assert main(["fleet", "--topology", "grid", "--rows", "2",
                 "--cols", "2", "--workload", "attack", "--count",
                 "40", "--max-cycles", "2000000", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    fleet = report["fleet"]
    assert fleet["finished_nodes"] == fleet["nodes"] == 4


def test_lint_json_report(blink_file, capsys):
    import json
    assert main(["lint", blink_file, "--json", "--bounds"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "sensmart-lint/2"
    assert report["ok"] is True
    (target,) = report["targets"]
    assert target["label"] == "cli"
    assert target["lint"]["ok"] is True
    assert target["lint"]["coverage"] == 1.0
    assert target["stack"]["blink"]["bounded"] is True
