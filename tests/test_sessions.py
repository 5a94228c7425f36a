"""Session fleet server: wire API, LRU eviction, warm-state reuse."""

import pytest

from repro.emu.sessions import (
    SessionClient,
    SessionClientError,
    SessionError,
    SessionManager,
    SessionServerThread,
)

COUNT_ASM = """
    li a0, 0
    li a1, 120
loop:
    add a0, a0, a1
    addi a1, a1, -1
    bnez a1, loop
    li a7, 93
    ecall
"""


@pytest.fixture
def fleet():
    manager = SessionManager(max_sessions=3, compile_cache=None)
    with SessionServerThread(manager) as handle:
        with SessionClient(handle.url) as client:
            yield manager, client


# --- manager (in-process) ---------------------------------------------------------

def test_manager_create_load_run_snapshot_restore():
    manager = SessionManager(compile_cache=None)
    session = manager.create({"board": "arty_a7_35t"})
    session.load({"assembly": COUNT_ASM, "region": "flash"})
    snap = session.snapshot()
    first = session.run({"max_instructions": 100_000})
    assert first["halted"] and first["exit_code"] == sum(range(1, 121))

    restored = session.restore({"snapshot_id": snap["snapshot_id"]})
    assert restored["pages_restored"] == 0   # register-only program
    second = session.run({"max_instructions": 100_000})
    assert (second["cycles"], second["instret"], second["instructions"]) == \
        (first["cycles"], first["instret"], first["instructions"])


def test_manager_lru_evicts_oldest_untouched():
    manager = SessionManager(max_sessions=2, compile_cache=None)
    manager.create({"session_id": "a"})
    manager.create({"session_id": "b"})
    manager.get("a")                   # touch: b is now least recent
    manager.create({"session_id": "c"})
    assert sorted(manager.sessions) == ["a", "c"]
    with pytest.raises(SessionError) as error:
        manager.get("b")
    assert error.value.status == 404


def test_manager_rejects_duplicate_session_id():
    manager = SessionManager(compile_cache=None)
    manager.create({"session_id": "dup"})
    with pytest.raises(SessionError) as error:
        manager.create({"session_id": "dup"})
    assert error.value.status == 409


def test_manager_shares_one_compile_cache(tmp_path):
    manager = SessionManager(compile_cache=str(tmp_path))
    first = manager.create({"sim_backend": "auto"})
    second = manager.create({"sim_backend": "auto"})
    assert first.emulator.machine.compile_cache \
        is second.emulator.machine.compile_cache
    for session in (first, second):
        session.load({"assembly": COUNT_ASM, "region": "flash"})
        session.run({"max_instructions": 100_000})
    # the second session bound the first session's translated blocks
    assert second.emulator.machine.block_cache_loads > 0
    assert manager.compile_cache.stats.hits > 0


# --- the wire ---------------------------------------------------------------------

def test_wire_round_trip(fleet):
    manager, client = fleet
    assert client.healthz()["ok"] is True

    created = client.create({"board": "arty_a7_35t", "cfu": "simd-add"})
    sid = created["session_id"]
    assert created["cfu_name"] == "simd-add"

    loaded = client.load(sid, assembly=COUNT_ASM, region="flash")
    assert loaded["pc"] == 0x2000_0000

    snap = client.snapshot(sid)
    first = client.run(sid, max_instructions=100_000)
    assert first["halted"]

    client.restore(sid, snap["snapshot_id"])
    second = client.run(sid, max_instructions=100_000)
    assert (second["cycles"], second["instret"]) == \
        (first["cycles"], first["instret"])

    status = client.status(sid)
    assert status["runs"] == 2
    assert snap["snapshot_id"] in status["snapshots"]

    client.discard_snapshot(sid, snap["snapshot_id"])
    assert snap["snapshot_id"] not in client.status(sid)["snapshots"]

    assert client.delete(sid)["deleted"] is True
    assert client.list()["sessions"] == []


def test_wire_step_is_resumable(fleet):
    _, client = fleet
    sid = client.create({})["session_id"]
    client.load(sid, assembly=COUNT_ASM, region="flash")
    stepped = client.step(sid, max_instructions=10)
    assert stepped["halted"] is False
    assert stepped["instructions"] == 10
    rest = client.run(sid, max_instructions=100_000)
    assert rest["halted"]
    assert stepped["instructions"] + rest["instructions"] == rest["instret"]


def test_wire_profile(fleet):
    _, client = fleet
    sid = client.create({})["session_id"]
    client.load(sid, assembly=COUNT_ASM, region="flash")
    profile = client.profile(sid, max_instructions=100_000)
    assert profile["total_cycles"] > 0
    assert any(entry["name"] == "loop" for entry in profile["entries"])

    # profiling after a completed run restarts from the entry point
    # rather than measuring one instruction at the final ecall (cycles
    # legitimately differ — the timing model's caches stay warm)
    client.run(sid, max_instructions=100_000)
    again = client.profile(sid, max_instructions=100_000)
    by_name = {e["name"]: e["instructions"] for e in profile["entries"]}
    assert {e["name"]: e["instructions"] for e in again["entries"]} == by_name


def test_wire_errors(fleet):
    _, client = fleet
    with pytest.raises(SessionClientError) as error:
        client.status("missing")
    assert error.value.status == 404

    sid = client.create({})["session_id"]
    with pytest.raises(SessionClientError) as error:
        client.restore(sid, "snap-99")
    assert error.value.status == 404

    with pytest.raises(SessionClientError) as error:
        client.profile(sid)              # no firmware loaded
    assert error.value.status == 400

    with pytest.raises(SessionClientError) as error:
        client.create({"board": "not-a-board"})
    assert error.value.status == 400

    with pytest.raises(SessionClientError) as error:
        client.create({"cfu": "not-a-cfu"})
    assert error.value.status == 400

    with pytest.raises(SessionClientError) as error:
        client.request("GET", "/no/such/route")
    assert error.value.status == 404


@pytest.mark.parametrize("offset", [16 * 1024 * 1024 - 4, 16 * 1024 * 1024])
def test_wire_load_past_region_end_is_400(fleet, offset):
    """A load that overruns its region (or starts past its end) is a
    400 naming the region; the region neither grows nor changes."""
    manager, client = fleet
    sid = client.create({})["session_id"]
    bus = manager.get(sid).emulator.bus
    flash = bus.backing("flash")
    assert flash.region.size == 16 * 1024 * 1024
    with pytest.raises(SessionClientError) as error:
        client.load(sid, binary_hex="0102030405060708", region="flash",
                    offset=offset)
    assert error.value.status == 400
    assert "'flash'" in error.value.payload["error"]
    assert len(flash.data) == flash.region.size
    assert flash.data[-4:] == bytes(4)


@pytest.mark.parametrize("name", ["bogus", "fast", "translated"])
def test_wire_unknown_sim_backend_is_400(fleet, name):
    """An unknown ISA backend is refused at the boundary with the valid
    names, never accepted and then failed as a 500 on every run."""
    manager, client = fleet
    with pytest.raises(SessionClientError) as error:
        client.create({"sim_backend": name})
    assert error.value.status == 400
    assert "expected one of auto, step" in error.value.payload["error"]
    assert manager.sessions == {}

    sid = client.create({})["session_id"]
    client.load(sid, assembly=COUNT_ASM, region="flash")
    for verb in (client.run, client.step, client.profile):
        with pytest.raises(SessionClientError) as error:
            verb(sid, max_instructions=100, backend=name)
        assert error.value.status == 400
        assert "expected one of auto, step" in error.value.payload["error"]
    assert client.status(sid)["instret"] == 0
    assert client.run(sid, max_instructions=100_000,
                      backend="step")["halted"]


def test_wire_metrics_and_eviction(fleet):
    manager, client = fleet
    for index in range(5):               # max_sessions=3: two evictions
        client.create({"session_id": f"s{index}"})
    listing = client.list()
    assert len(listing["sessions"]) == 3
    assert [s["session_id"] for s in listing["sessions"]] == \
        ["s2", "s3", "s4"]

    snapshot = client.metrics()
    flat = {}
    for name, series in snapshot.items():
        if isinstance(series, dict):
            flat[name] = series
    text = str(snapshot)
    assert "sessions_created" in text
    assert "sessions_evicted" in text
    assert "sessions_active" in text


def test_listing_is_in_creation_order():
    """Regression: listings used to sort ids lexicographically, so
    "session-10" came before "session-2"; and an LRU touch must not
    reorder the listing either."""
    manager = SessionManager(max_sessions=16, compile_cache=None)
    for _ in range(10):                  # session-1 .. session-10
        manager.create({})
    manager.create({"session_id": "aardvark"})
    manager.get("session-2")             # LRU touch: listing unaffected
    ids = [s["session_id"] for s in manager.list_statuses()]
    assert ids == [f"session-{n}" for n in range(1, 11)] + ["aardvark"]


def test_uart_round_trips_the_wire():
    manager = SessionManager(compile_cache=None)
    session = manager.create({})
    uart = session.emulator.soc.csr_bank.get("uart_rxtx").address
    session.load({"assembly": f"""
        li x5, {uart}
        li a0, 79
        sw a0, 0(x5)
        li a0, 75
        sw a0, 0(x5)
        li a7, 93
        ecall
    """, "region": "flash"})
    snap = session.snapshot()
    session.run({"max_instructions": 1000})
    assert session.status()["uart"] == "OK"
    session.restore({"snapshot_id": snap["snapshot_id"]})
    assert session.status()["uart"] == ""
