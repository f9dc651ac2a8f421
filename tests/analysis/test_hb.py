"""Tests for the happens-before conflict sanitizer."""

from repro.analysis.hb import (
    HB_HEADER,
    NOOP_SANITIZER,
    ConflictSanitizer,
    NoopSanitizer,
    READ_WRITE,
    WRITE_WRITE,
    get_sanitizer,
    use_sanitizer,
)


def test_concurrent_writes_conflict():
    sanitizer = ConflictSanitizer()
    sanitizer.on_write("doc/s", "ann", at=1.0)
    sanitizer.on_write("doc/s", "bob", at=2.0)
    counts = sanitizer.conflict_counts()
    assert counts[WRITE_WRITE] == 1
    assert counts["total"] == 1
    assert sanitizer.conflicts[0].actors == ["ann", "bob"]


def test_read_after_unordered_write_conflicts():
    sanitizer = ConflictSanitizer()
    sanitizer.on_write("doc/s", "ann", at=1.0)
    sanitizer.on_read("doc/s", "bob", at=2.0)
    assert sanitizer.conflict_counts()[READ_WRITE] == 1


def test_write_after_unordered_read_conflicts():
    sanitizer = ConflictSanitizer()
    sanitizer.on_write("doc/s", "ann", at=1.0)
    sanitizer.on_read("doc/s", "bob", at=2.0)
    sanitizer.on_write("doc/s", "carol", at=3.0)
    counts = sanitizer.conflict_counts()
    # carol vs ann (ww), bob vs ann (rw), carol vs bob (rw).
    assert counts[WRITE_WRITE] == 1
    assert counts[READ_WRITE] == 2


def test_same_actor_never_conflicts_with_itself():
    sanitizer = ConflictSanitizer()
    sanitizer.on_write("doc/s", "ann", at=1.0)
    sanitizer.on_write("doc/s", "ann", at=2.0)
    sanitizer.on_read("doc/s", "ann", at=3.0)
    assert sanitizer.conflict_counts()["total"] == 0


def test_lock_handoff_orders_critical_sections():
    sanitizer = ConflictSanitizer()
    sanitizer.acquire("lock:s", "ann")
    sanitizer.on_write("doc/s", "ann", at=1.0)
    sanitizer.release("lock:s", "ann")
    sanitizer.acquire("lock:s", "bob")
    sanitizer.on_write("doc/s", "bob", at=2.0)
    sanitizer.release("lock:s", "bob")
    assert sanitizer.conflict_counts()["total"] == 0


def test_access_outside_the_lock_still_conflicts():
    sanitizer = ConflictSanitizer()
    sanitizer.acquire("lock:s", "ann")
    sanitizer.on_write("doc/s", "ann", at=1.0)
    sanitizer.release("lock:s", "ann")
    # bob writes without ever taking the lock: nothing ordered him.
    sanitizer.on_write("doc/s", "bob", at=2.0)
    assert sanitizer.conflict_counts()[WRITE_WRITE] == 1


def test_message_delivery_orders_accesses():
    sanitizer = ConflictSanitizer()
    sanitizer.on_write("doc/s", "ann", at=1.0)
    snapshot = sanitizer.send("ann")
    sanitizer.receive("bob", snapshot)
    sanitizer.on_write("doc/s", "bob", at=2.0)
    assert sanitizer.conflict_counts()["total"] == 0


def test_clock_snapshot_is_json_safe():
    sanitizer = ConflictSanitizer()
    sanitizer.local("ann")
    snapshot = sanitizer.send("ann")
    assert isinstance(snapshot, dict)
    assert all(isinstance(v, int) for v in snapshot.values())


def test_summary_shape():
    sanitizer = ConflictSanitizer()
    sanitizer.on_write("doc/s", "ann", at=1.0)
    sanitizer.on_write("doc/s", "bob", at=2.0)
    summary = sanitizer.summary()
    assert summary["accesses"] == 2
    assert summary["actors"] == ["ann", "bob"]
    assert summary["conflicts_by_object"] == {"doc/s": 1}
    trace = sanitizer.trace()
    assert trace == [[1.0, "ann", "write", "doc/s"],
                     [2.0, "bob", "write", "doc/s"]]


# -- global accessor / header plumbing --------------------------------------

def test_default_is_noop():
    assert get_sanitizer() is NOOP_SANITIZER
    assert not get_sanitizer().enabled


def test_enable_disable_roundtrip():
    with use_sanitizer(ConflictSanitizer()) as sanitizer:
        assert get_sanitizer() is sanitizer
        assert sanitizer.enabled
    assert get_sanitizer() is NOOP_SANITIZER


def test_use_sanitizer_restores_previous():
    with use_sanitizer(ConflictSanitizer()) as sanitizer:
        assert get_sanitizer() is sanitizer
    assert get_sanitizer() is NOOP_SANITIZER


def test_inject_extract_roundtrip_orders_actors():
    sanitizer = ConflictSanitizer()
    sanitizer.on_write("doc/s", "ann", at=1.0)
    headers = sanitizer.inject_clock({"type": "request"}, "ann")
    assert HB_HEADER in headers
    sanitizer.extract_clock(headers, "bob")
    sanitizer.on_write("doc/s", "bob", at=2.0)
    assert sanitizer.conflict_counts()["total"] == 0


def test_inject_is_identity_when_disabled():
    headers = {"type": "request"}
    assert NOOP_SANITIZER.inject_clock(headers, "ann") is headers
    assert HB_HEADER not in headers
    NOOP_SANITIZER.extract_clock({HB_HEADER: {"ann": 3}}, "bob")  # no-op


def test_noop_records_nothing():
    noop = NoopSanitizer()
    noop.on_write("doc/s", "ann", at=1.0)
    noop.acquire("lock:s", "ann")
    noop.release("lock:s", "ann")
    noop.receive("bob", {"ann": 1})
    assert noop.accesses == []
    assert noop.trace() == []
    assert noop.conflict_counts()["total"] == 0
    assert noop.summary()["accesses"] == 0
