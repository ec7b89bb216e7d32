"""Adversarial campaigns: injection containment and OTA hot-patching."""

from __future__ import annotations

import pytest

from repro.adversary import run_inject, run_patch
from repro.adversary.attacks import (
    DEFAULT_SEED, MARKER, SHAPE_NAMES, status_digest,
)
from repro.adversary.campaign import (
    CONTAINED_OUTCOMES, OUTCOMES, address_book, build_target,
)
from repro.adversary.patch import (
    FRAME_PAYLOAD, PatchSession, WORKER_V1, make_frames, updater_payload,
)

#: Tier overrides the campaign digests must be invariant under (the
#: default config — traced + elision — is the baseline fixture).
TIER_VARIANTS = (
    dict(fuse=False),
    dict(elide=False),
)


@pytest.fixture(scope="module")
def quick_inject():
    return run_inject(quick=True)


@pytest.fixture(scope="module")
def quick_patch():
    return run_patch(quick=True)


# -- injection campaign --------------------------------------------------------------


def test_campaign_covers_taxonomy(quick_inject):
    result = quick_inject
    # >= 5 distinct attack shapes, each classified (acceptance floor).
    assert len(result.shapes) >= 5
    assert set(result.shapes) <= set(SHAPE_NAMES)
    for trial in result.trials:
        assert trial.outcome in OUTCOMES
    # The anchors are chosen to exercise most of the taxonomy.
    assert result.count("TRAPPED_OOB") >= 1
    assert result.count("TASK_TERMINATED") >= 1
    assert result.count("WATCHDOG") >= 1
    assert result.count("SILENT_CORRUPTION") >= 1
    assert result.hijacked >= 1
    assert result.contained == sum(result.count(o)
                                   for o in CONTAINED_OUTCOMES)


def test_kernel_counters_cross_check(quick_inject):
    # The survivability table's TRAPPED_OOB row equals the kernels'
    # own oob fault-kind counters (satellite 6 wiring).
    assert quick_inject.kernel_oob_faults == \
        quick_inject.count("TRAPPED_OOB")


def test_trapped_distinguished_from_silent_by_canary(quick_inject):
    # At least one attack is contained by logical addressing with the
    # victim's integrity state provably intact...
    trapped = [t for t in quick_inject.trials
               if t.outcome == "TRAPPED_OOB"]
    assert trapped and all(t.canary_ok for t in trapped)
    # ...while a silent-corruption trial shows what "nothing trapped,
    # something is wrong" looks like: canary or self-digest damaged.
    silent = [t for t in quick_inject.trials
              if t.outcome == "SILENT_CORRUPTION"]
    assert silent
    for t in silent:
        assert not t.canary_ok or tuple(t.tx) != (status_digest(),)


def test_hijack_trials_show_attacker_execution(quick_inject):
    hijacked = [t for t in quick_inject.trials
                if t.outcome == "HIJACKED"]
    assert hijacked
    # At least one hijack transmits the gadget marker bytes.
    assert any(MARKER[0] in t.tx and MARKER[1] in t.tx
               for t in hijacked)


def test_inject_digest_tier_invariant(quick_inject):
    for tier in TIER_VARIANTS:
        result = run_inject(quick=True, **tier)
        assert result.digest == quick_inject.digest, tier


def test_elision_never_silences_a_trap():
    # Guard elision must never turn TRAPPED_OOB into
    # SILENT_CORRUPTION: compare trial-by-trial, elide on vs off.
    shapes = ["heap-ovf", "sp-pivot"]
    on = run_inject(quick=True, shapes=shapes, elide=True)
    off = run_inject(quick=True, shapes=shapes, elide=False)
    assert [t.key for t in on.trials] == [t.key for t in off.trials]


def test_campaign_reproduces_from_seed(quick_inject):
    again = run_inject(quick=True, seed=DEFAULT_SEED)
    assert again.digest == quick_inject.digest
    assert [t.key for t in again.trials] == \
        [t.key for t in quick_inject.trials]


def test_render_table_shape(quick_inject):
    text = quick_inject.render()
    for shape in quick_inject.shapes:
        assert shape in text
    assert "campaign digest" in text
    assert "(ok)" in text  # kernel cross-check line


# -- hot-patching --------------------------------------------------------------------


def test_patch_session_succeeds(quick_patch):
    report = quick_patch
    assert report.ok, report.failure
    assert report.network_alive
    assert report.beacons_before > 0 and report.beacons_after > 0
    assert report.flash_words > 0
    # Compaction really relocated resident state in the patch window.
    assert report.ram_bytes_moved > 0
    # The lossy updater link exercised the checksum reject path.
    assert report.frames_rejected >= 1


def test_patched_task_matches_cold_boot(quick_patch):
    assert quick_patch.worker_digest == quick_patch.cold_digest


def test_patch_digest_tier_invariant(quick_patch):
    for tier in (dict(fuse=False), dict(elide=False)):
        report = run_patch(quick=True, **tier)
        assert report.digest == quick_patch.digest, tier


# -- OTA framing ---------------------------------------------------------------------


def test_make_frames_round_trip():
    session = PatchSession()
    for frame in make_frames(WORKER_V1):
        session.feed(frame)
    assert session.complete
    assert session.assembled == WORKER_V1.encode("ascii")


def test_session_rejects_corrupt_and_dedups():
    frames = make_frames(WORKER_V1)
    bad = bytearray(frames[1])
    bad[-1] ^= 0x40  # checksum bit flip breaks the frame
    session = PatchSession()
    session.feed(b"\x99\x42")        # leading garbage: resync on magic
    session.feed(bytes(bad))         # rejected
    assert not session.complete
    for frame in frames:
        session.feed(frame)
        session.feed(frame)          # every frame again: duplicates
    assert session.complete
    assert session.assembled == WORKER_V1.encode("ascii")
    assert session.rejected >= 1
    assert session.duplicates >= len(frames) - 2


def test_session_incomplete_without_all_frames():
    frames = make_frames(WORKER_V1)
    session = PatchSession()
    for frame in frames[:-2] + [frames[-1]]:  # one data frame missing
        session.feed(frame)
    assert not session.complete


def test_updater_payload_repeats_shuffled_passes():
    payload = updater_payload(WORKER_V1, passes=3, seed=DEFAULT_SEED)
    one_pass = updater_payload(WORKER_V1, passes=1, seed=DEFAULT_SEED)
    assert len(payload) == 3 * len(one_pass)
    assert payload[:len(one_pass)] == one_pass  # pass 0 in order
    assert payload[len(one_pass):2 * len(one_pass)] != one_pass
    # Deterministic from the seed.
    assert payload == updater_payload(WORKER_V1, passes=3,
                                      seed=DEFAULT_SEED)
    # Frames are bounded so a length byte can never alias the magic.
    for frame in make_frames(WORKER_V1):
        assert len(frame) - 4 <= FRAME_PAYLOAD


# -- targeting map -------------------------------------------------------------------


def test_address_book_resolves_victim_labels():
    book = address_book(build_target("stack"))
    assert "gadget" in book.labels
    assert book.naturalized["gadget"] != book.labels["gadget"]
    lo, hi = book.victim_span
    assert lo <= book.labels["gadget"] < hi
    trap_lo, trap_hi = book.trap_region
    assert trap_lo < trap_hi <= book.flash_end
