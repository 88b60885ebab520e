"""End-to-end overload protection: admission, shedding, retries.

The guarantee under test is the tentpole's net-layer contract: a shed
request is refused *before* any handler runs (zero partial writes),
surfaces as the typed retryable ``OverloadedError`` with a
``retry_after`` hint, the client's retry loop honours both the hint
and its one shared deadline, and a shard router refuses whole what
it cannot run on every target shard.
"""

import threading
import time

import pytest

from repro.core import (Column, ColumnType, LittleTable, OverloadedError,
                        Query, Schema, ShardDegradedError)
from repro.net import (AsyncLittleTableServer, ClientConfig, ConnectionLost,
                       LittleTableClient, protocol)
from repro.net.server import AdmissionController, RequestDispatcher
from repro.net.shard import ShardRouter
from repro.obs import MetricsRegistry
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY


def make_schema():
    return Schema(
        [Column("k", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("v", ColumnType.INT64)],
        key=["k", "ts"],
    )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAdmissionController:
    def test_admit_release_cycle(self):
        admission = AdmissionController(2, queue_timeout_s=0)
        admission.admit()
        admission.admit()
        assert admission.inflight == 2
        admission.release()
        assert admission.inflight == 1
        admission.admit()  # freed slot is reusable

    def test_full_house_sheds_with_retry_after(self):
        admission = AdmissionController(1, queue_timeout_s=0.1)
        admission.admit()
        started = time.monotonic()
        with pytest.raises(OverloadedError) as info:
            admission.admit()
        assert time.monotonic() - started < 5
        assert info.value.retry_after_s == pytest.approx(0.1)

    def test_queued_request_admitted_when_slot_frees(self):
        admission = AdmissionController(1, queue_timeout_s=5)
        admission.admit()
        threading.Timer(0.05, admission.release).start()
        waited = admission.admit()  # blocks briefly, then succeeds
        assert 0 < waited < 5

    def test_request_deadline_caps_queue_wait(self):
        clock = FakeClock()
        admission = AdmissionController(1, queue_timeout_s=100,
                                        clock=clock)
        admission.admit()
        # Deadline already passed: shed immediately despite the huge
        # queue budget (no wall-clock wait - the fake clock is frozen).
        with pytest.raises(OverloadedError):
            admission.admit(deadline=clock.now - 1)

    def test_shed_metrics(self):
        metrics = MetricsRegistry()
        admission = AdmissionController(1, queue_timeout_s=0,
                                        metrics=metrics)
        admission.admit()
        with pytest.raises(OverloadedError):
            admission.admit()
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["server.admission.shed"] == 1
        assert snapshot["gauges"]["server.admission.inflight"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(1, queue_timeout_s=-1)


class TestDispatcherShedding:
    def make_dispatcher(self, **admission_kwargs):
        db = LittleTable(clock=VirtualClock(start=BASE))
        admission_kwargs.setdefault("queue_timeout_s", 0)
        admission = AdmissionController(1, **admission_kwargs)
        dispatcher = RequestDispatcher(db, admission=admission)
        dispatcher.dispatch({"cmd": "create_table", "table": "t",
                             "schema": make_schema().to_dict()})
        return db, admission, dispatcher

    def test_shed_is_typed_retryable_and_never_partial(self):
        db, admission, dispatcher = self.make_dispatcher()
        admission.admit()  # hold the only slot
        response = dispatcher.dispatch(
            {"cmd": "insert", "table": "t", "rows": [[1, BASE, 10]]})
        assert not response["ok"]
        assert response["error"] == "OverloadedError"
        assert response["retry_after"] == pytest.approx(
            admission.retry_after_s())
        # Shed before the handler: the insert never touched the table.
        assert db.table("t").query(Query()).rows == []
        admission.release()
        assert dispatcher.dispatch(
            {"cmd": "insert", "table": "t",
             "rows": [[1, BASE, 10]]})["ok"]

    def test_exempt_commands_bypass_admission(self):
        _db, admission, dispatcher = self.make_dispatcher()
        admission.admit()
        for cmd in ("ping", "stats", "hello"):
            assert dispatcher.dispatch(
                {"cmd": cmd, "version": protocol.PROTOCOL_VERSION})["ok"], cmd

    def test_expired_deadline_shed_before_handler(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        dispatcher = RequestDispatcher(db)  # no admission: deadline
        dispatcher.dispatch({"cmd": "create_table", "table": "t",
                             "schema": make_schema().to_dict()})
        # Arrived 10 s ago with a 1 ms budget: already expired.
        response = dispatcher.dispatch({
            "cmd": "insert", "table": "t", "rows": [[1, BASE, 10]],
            "deadline_ms": 1,
            "_arrival_monotonic": time.monotonic() - 10})
        assert not response["ok"]
        assert response["error"] == "OverloadedError"
        assert response["retry_after"] == 0.0
        assert db.table("t").query(Query()).rows == []
        snapshot = db.metrics.snapshot()
        assert snapshot["counters"]["server.admission.deadline_sheds"] == 1

    def test_live_deadline_executes_normally(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        dispatcher = RequestDispatcher(db)
        dispatcher.dispatch({"cmd": "create_table", "table": "t",
                             "schema": make_schema().to_dict()})
        assert dispatcher.dispatch({
            "cmd": "insert", "table": "t", "rows": [[1, BASE, 10]],
            "deadline_ms": 60_000,
            "_arrival_monotonic": time.monotonic()})["ok"]


class TestClientRetryBudget:
    def make_client_against(self, server, **config_kwargs):
        host, port = server.address
        return LittleTableClient(
            host, port, config=ClientConfig(**config_kwargs))

    def test_overload_retries_honor_retry_after_hint(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(db, max_inflight_requests=1,
                               admission_queue_timeout_s=0.05) as server:
            client = self.make_client_against(
                server, max_retries=2, retry_backoff_s=10.0)
            sleeps = []
            client._sleep = sleeps.append
            server.admission.admit()  # jam the server
            try:
                with pytest.raises(OverloadedError):
                    client.list_tables()  # ping is admission-exempt
            finally:
                server.admission.release()
                client.close()
        # Backoff used the server's hint (0.05 s), not the huge
        # configured exponential base.
        assert len(sleeps) == 2
        assert all(s == pytest.approx(0.05) for s in sleeps)

    def test_overload_is_retryable_even_for_inserts(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(db, max_inflight_requests=1,
                               admission_queue_timeout_s=0.01) as server:
            client = self.make_client_against(
                server, max_retries=5, retry_backoff_s=0.01)
            client.create_table("t", make_schema())
            server.admission.admit()
            threading.Timer(0.15, server.admission.release).start()
            # Non-idempotent, but sheds are pre-execution: the client
            # retries through them and the insert lands exactly once.
            assert client.insert("t", [{"k": 1, "ts": BASE, "v": 1}]) == 1
            assert len(list(client.query("t"))) == 1
            client.close()

    def test_shared_deadline_caps_total_retry_time(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(db, max_inflight_requests=1,
                               admission_queue_timeout_s=0.01) as server:
            # retry_after hints (10 s) dwarf the 0.3 s overall budget:
            # the shared deadline must refuse to fund the sleeps, so
            # the call fails fast instead of taking ~attempts x hint.
            client = self.make_client_against(
                server, max_retries=8, request_timeout_s=0.3)
            server.admission.retry_after_s = lambda: 10.0
            server.admission.admit()
            started = time.monotonic()
            try:
                with pytest.raises(OverloadedError):
                    client.list_tables()  # ping is admission-exempt
            finally:
                server.admission.release()
                client.close()
            assert time.monotonic() - started < 2.0

    def test_deadline_propagates_to_server(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        captured = {}
        with AsyncLittleTableServer(db) as server:
            original = server.dispatcher.dispatch

            def spying(request):
                if request.get("cmd") == "ping":
                    captured["deadline_ms"] = request.get("deadline_ms")
                return original(request)

            server.dispatcher.dispatch = spying
            client = self.make_client_against(
                server, request_timeout_s=5.0)
            assert client.ping()
            client.close()
        assert 0 < captured["deadline_ms"] <= 5000


class TestEndToEndOverload:
    def test_jammed_server_sheds_then_serves(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        with AsyncLittleTableServer(db, max_inflight_requests=1,
                               admission_queue_timeout_s=0.02) as server:
            host, port = server.address
            client = LittleTableClient(host, port, config=ClientConfig(
                max_retries=1, retry_backoff_s=0.01))
            client.create_table("t", make_schema())
            client.insert("t", [{"k": 1, "ts": BASE, "v": 7}])
            server.admission.admit()
            with pytest.raises(OverloadedError):
                client.latest("t", [1])
            server.admission.release()
            # Same connection recovers without manual reconnect.
            assert client.latest("t", [1])[2] == 7
            client.close()


class TestShardOverloadCooldown:
    """What a shard router refuses, and that it refuses it whole.

    No engine raises ``OverloadedError`` - only the server front does,
    before a request reaches the router - so the router keeps no
    overload cooldown: it refuses for a shard that is *down*.
    """

    def make_router(self, shards=3):
        return ShardRouter(shards=shards,
                           clock=VirtualClock(start=BASE))

    @pytest.mark.parametrize("dicts", [True, False],
                             ids=["dict-rows", "positional-rows"])
    def test_shed_insert_applies_nothing_and_retries_whole(self, dicts):
        """Zero partial writes on a refusal: a batch touching a downed
        shard is refused before any worker runs, so the resend after
        the revive inserts every row (no DuplicateKeyError)."""
        router = self.make_router()
        router.create_table("t", make_schema())
        if dicts:
            rows = [{"k": k, "ts": BASE, "v": k} for k in range(12)]
            insert = router.table("t").insert
        else:
            rows = [(k, BASE, k) for k in range(12)]
            insert = router.table("t").insert_tuples
        router._down[1] = "crashed"

        def rows_held():
            return [len(engine.table("t").query(Query()).rows)
                    for engine in router.engines]

        with pytest.raises(ShardDegradedError):
            insert(rows)
        assert rows_held() == [0, 0, 0]
        router.revive_shard(1)
        assert insert(rows) == 12
        assert sum(rows_held()) == 12 and all(rows_held())
        router.close()

    def test_client_resends_a_shed_sharded_insert_exactly_once(self):
        """The production shape: the front door sheds before the
        router sees the request, so the client resends and every row
        lands once - on a sharded server too."""
        router = self.make_router()
        with AsyncLittleTableServer(
                router, max_inflight_requests=1,
                admission_queue_timeout_s=0.02) as server:
            host, port = server.address
            client = LittleTableClient(host, port, config=ClientConfig(
                max_retries=10, retry_backoff_s=0.05))
            client.create_table("t", make_schema())
            server.admission.admit()        # the one slot is taken...
            release = threading.Timer(0.1, server.admission.release)
            release.start()                 # ...for the first attempt
            rows = [{"k": k, "ts": BASE, "v": k} for k in range(12)]
            assert client.insert("t", rows) == 12
            release.join(timeout=5)
            assert len(list(client.query("t"))) == 12
            shed = router.metrics.snapshot()["counters"][
                "server.admission.shed"]
            assert shed >= 1
            client.close()
        router.close()

    def test_insert_ranks_errors_like_a_fanout(self):
        router = self.make_router()
        router.create_table("t", make_schema())
        rows = [(k, BASE, k) for k in range(12)]  # touches every shard
        calls = (lambda: router.query("t", Query()),
                 lambda: router.table("t").insert_tuples(rows))
        # Up front: a downed target refuses both before anything runs.
        router._down[2] = "crashed"
        for call in calls:
            with pytest.raises(ShardDegradedError):
                call()
        router.revive_shard(2)
        assert router.table("t").insert_tuples(rows) == 12
        # Mid-flight: one worker answers (a duplicate key), another
        # dies; the degradation surfaces, whichever shard came first.
        def dead(name):
            raise RuntimeError("worker died")

        router.engines[2].table = dead
        for call in calls:
            router._down.clear()
            with pytest.raises(ShardDegradedError):
                call()
        router.close()
