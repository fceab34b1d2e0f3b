"""The service daemon: protocol, admission control, batching, the
asyncio server end-to-end, graceful drain and the load generator."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.codegen.emitc import find_compiler
from repro.runtime.autotune import AutoTuner, tuning_key
from repro.runtime.execute import (
    execute_prepared,
    prepare_kernel,
    resolve_params,
)
from repro.serve.admission import AdmissionController, CostModel, QueuedRequest
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    ProtocolError,
    STATUS_DRAINING,
    STATUS_OVERLOADED,
    decode_line,
    encode_message,
    parse_request,
)
from repro.serve.server import FusionServer, ServerConfig

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_exec_round_trip(self):
        req = parse_request(
            b'{"op": "exec", "id": 7, "kernel": "jacobi", "n": 65,'
            b' "procs": 4, "tenant": "a", "deadline_ms": 250}')
        assert req.op == "exec"
        assert req.id == 7
        assert req.tenant == "a"
        assert req.deadline_ms == 250.0
        assert req.key.kernel == "jacobi"
        assert req.key.n == 65
        assert req.key.backend == "jit"  # the default
        assert req.wants_execution

    def test_status_needs_no_kernel(self):
        req = parse_request('{"op": "status", "id": "s1"}')
        assert req.key is None
        assert not req.wants_execution

    def test_health_and_chaos_round_trip(self):
        health = parse_request('{"op": "health", "id": 1}')
        assert health.key is None and not health.wants_execution
        chaos = parse_request(
            '{"op": "chaos", "id": 2, "spec": "crash@run=3"}')
        assert chaos.spec == "crash@run=3"
        clear = parse_request('{"op": "chaos", "id": 3, "spec": ""}')
        assert clear.spec == ""

    @pytest.mark.parametrize("line, fragment", [
        (b"not json", "not valid JSON"),
        (b"[1, 2]", "JSON object"),
        (b'{"op": "frob", "id": 1}', "op must be one of"),
        (b'{"op": "exec", "kernel": "jacobi"}', "needs an id"),
        (b'{"op": "exec", "id": 1}', "needs a kernel"),
        (b'{"op": "exec", "id": 1, "kernel": "jacobi", "dedline_ms": 9}',
         "unknown request fields"),
        (b'{"op": "exec", "id": 1, "kernel": "jacobi", "deadline_ms": -1}',
         "deadline_ms"),
        (b'{"op": "exec", "id": 1, "kernel": "jacobi", "deadline_ms": NaN}',
         "deadline_ms"),
        (b'{"op": "exec", "id": 1, "kernel": "jacobi", '
         b'"deadline_ms": Infinity}', "deadline_ms"),
        (b'{"op": "exec", "id": 1, "kernel": "jacobi", "deadline_ms": 1e400}',
         "deadline_ms"),
        pytest.param(b'{"op": "exec", "id": 1, "kernel": "jacobi", '
                     b'"deadline_ms": 1' + b"0" * 400 + b"}", "deadline_ms",
                     id="deadline_ms-int-past-float-range"),
        (b'{"op": "exec", "id": 1, "kernel": "jacobi", "procs": 0}',
         "procs"),
        (b'{"op": "exec", "id": 1, "kernel": "jacobi", "sync": "p2p"}',
         r"unknown request fields: \['sync'\]"),
        (b'{"op": "status", "id": 1, "kernel": "jacobi"}', "meaningless"),
        (b'{"op": "exec", "id": true, "kernel": "jacobi"}', "id must be"),
        (b'{"op": "chaos", "id": 1}', "chaos needs a spec"),
        (b'{"op": "chaos", "id": 1, "spec": 7}', "spec must be a string"),
        (b'{"op": "exec", "id": 1, "kernel": "jacobi", "spec": "x"}',
         "spec is meaningless"),
    ])
    def test_rejects_malformed(self, line, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_request(line)

    def test_encode_decode(self):
        wire = encode_message({"id": 1, "ok": True, "status": "ok"})
        assert wire.endswith(b"\n")
        assert b"\n" not in wire[:-1]
        assert decode_line(wire) == {"id": 1, "ok": True, "status": "ok"}


# ---------------------------------------------------------------------------
# admission control, fairness, batching, cost model


def _req(tenant="default", sig="sig-a", deadline_ms=None, kernel="jacobi",
         n=33, procs=2):
    request = parse_request(json.dumps({
        "op": "exec", "id": f"{tenant}-{time.monotonic_ns()}",
        "kernel": kernel, "n": n, "procs": procs, "tenant": tenant,
        **({"deadline_ms": deadline_ms} if deadline_ms else {}),
    }))
    return QueuedRequest(request=request, signature=sig)


class TestAdmission:
    def test_bounded_queue_sheds(self):
        adm = AdmissionController(max_queue=2)
        assert adm.try_admit(_req())[0]
        assert adm.try_admit(_req())[0]
        admitted, reason = adm.try_admit(_req())
        assert not admitted
        assert "queue full" in reason
        assert adm.stats["shed_queue_full"] == 1

    def test_measured_cost_drives_deadline_shed(self):
        """A known-expensive signature sheds hopeless deadlines; the
        same deadline is accepted while the signature is cold."""
        adm = AdmissionController(max_queue=64)
        # Cold: no estimate, no evidence to shed on -> accept.
        assert adm.try_admit(_req(sig="hot", deadline_ms=5.0))[0]
        # Now the daemon has measured this signature at 100 ms each.
        adm.cost_model.observe("hot", 0.1)
        admitted, reason = adm.try_admit(_req(sig="hot", deadline_ms=5.0))
        assert not admitted
        assert "projected wait" in reason
        assert adm.stats["shed_deadline"] == 1
        # A roomy deadline still gets in behind the queued work.
        assert adm.try_admit(_req(sig="hot", deadline_ms=10_000.0))[0]

    def test_autotune_winner_seeds_projected_wait(self):
        """Satellite: a persisted auto-tuner winner's measured cost is
        the projected-wait estimate before the daemon has run anything;
        a cold (no-winner) config falls back to accept."""
        from repro.kernels import get_kernel

        tuner = AutoTuner(persist=False)
        info = get_kernel("jacobi")
        program = info.program()
        params = resolve_params(info, program, n=33)
        key = tuning_key(program, params, 2)
        tuner.store(key, {
            "schema": "repro-autotune/1",
            "winner": {"config": {"backend": "jit"}, "seconds": 0.25},
        })
        model = CostModel(tuner=tuner)
        adm = AdmissionController(max_queue=64, cost_model=model)
        # One queued request of the tuned config = 250 ms of projected
        # work; a 50 ms deadline behind it is hopeless.
        assert adm.try_admit(_req(sig="tuned", n=33, procs=2))[0]
        admitted, reason = adm.try_admit(
            _req(sig="tuned", n=33, procs=2, deadline_ms=50.0))
        assert not admitted
        assert "projected wait" in reason
        # The estimate came from the tuner, not from observations.
        assert model.snapshot()["tuner_seeded"] == 1
        # Cold config (different shape, no winner): accepted.
        adm2 = AdmissionController(max_queue=64, cost_model=CostModel(tuner))
        assert adm2.try_admit(_req(sig="cold", n=65, procs=4))[0]
        assert adm2.try_admit(
            _req(sig="cold", n=65, procs=4, deadline_ms=1.0))[0]

    def test_weighted_fair_dequeue(self):
        """Weight 2 drains twice as often as weight 1 under contention."""
        adm = AdmissionController(max_queue=64, weights={"heavy": 2.0})
        for _ in range(8):
            assert adm.try_admit(_req(tenant="heavy", sig="h"))[0]
        for _ in range(8):
            assert adm.try_admit(_req(tenant="light", sig="l"))[0]
        order = []
        # Disable coalescing noise: each batch has one member because
        # tenants use distinct signatures and max_batch=1.
        adm.max_batch = 1
        for _ in range(6):
            batch = adm.next_batch()
            order.append(batch.requests[0].request.tenant)
        assert order.count("heavy") == 4
        assert order.count("light") == 2

    @pytest.mark.parametrize("weight", [float("inf"), float("nan"), 0.0, -1.0])
    def test_rejects_bad_weight(self, weight):
        """A stride pass advances by ``1/weight``: ``inf`` would pin its
        tenant's pass at 0 (served first forever) and ``nan`` would poison
        it, so both fail closed like a non-positive weight."""
        with pytest.raises(ValueError, match="tenant 'a'"):
            AdmissionController(weights={"a": weight})

    def test_server_config_bad_weight_fails_at_construction(self):
        """Weights set in code, not through ``--tenant-weight``, reach
        the same check before the daemon binds anything."""
        with pytest.raises(ValueError, match="positive and finite"):
            FusionServer(ServerConfig(tenant_weights={"b": float("inf")}))

    def test_idle_tenant_reenters_at_vtime(self):
        """A tenant that was idle cannot cash in saved-up credit and
        starve the tenant that kept the daemon busy."""
        adm = AdmissionController(max_queue=64)
        adm.max_batch = 1
        for _ in range(4):
            adm.try_admit(_req(tenant="busy", sig="b"))
            adm.next_batch()
        adm.try_admit(_req(tenant="busy", sig="b"))
        adm.try_admit(_req(tenant="late", sig="zz"))
        first = adm.next_batch().requests[0].request.tenant
        second = adm.next_batch().requests[0].request.tenant
        assert {first, second} == {"busy", "late"}

    def test_batch_coalesces_identical_signatures_across_tenants(self):
        adm = AdmissionController(max_queue=64, max_batch=16)
        adm.try_admit(_req(tenant="a", sig="same"))
        adm.try_admit(_req(tenant="b", sig="same"))
        adm.try_admit(_req(tenant="a", sig="other"))
        adm.try_admit(_req(tenant="c", sig="same"))
        batch = adm.next_batch()
        assert batch.signature == "same"
        assert len(batch) == 3
        assert adm.depth == 1
        assert adm.stats["batched_requests"] == 2
        leftover = adm.next_batch()
        assert leftover.signature == "other"
        assert len(leftover) == 1
        assert adm.depth == 0

    def test_max_batch_bounds_coalescing(self):
        adm = AdmissionController(max_queue=64, max_batch=3)
        for _ in range(5):
            adm.try_admit(_req(sig="same"))
        assert len(adm.next_batch()) == 3
        assert len(adm.next_batch()) == 2

    def test_riders_are_charged_to_their_tenants(self):
        """Coalescing must not let a tenant ride for free: its pass
        advances for every batched request it contributed."""
        adm = AdmissionController(max_queue=64)
        for _ in range(3):
            adm.try_admit(_req(tenant="a", sig="same"))
        adm.try_admit(_req(tenant="b", sig="solo"))
        batch = adm.next_batch()
        assert len(batch) == 3  # all of tenant a, coalesced
        assert adm._pass["a"] == pytest.approx(3.0)
        assert adm.next_batch().requests[0].request.tenant == "b"

    def test_cost_model_ewma(self):
        model = CostModel()
        assert model.estimate("s") is None
        model.observe("s", 1.0)
        model.observe("s", 2.0)
        est = model.estimate("s")
        assert 1.0 < est < 2.0


# ---------------------------------------------------------------------------
# the daemon end-to-end (in-process, unix socket)


class ServerHarness:
    """FusionServer on a background thread + unix socket."""

    def __init__(self, **config):
        # tmp_path can exceed the ~104-char AF_UNIX limit; use a short
        # private dir instead.
        self._dir = tempfile.mkdtemp(prefix="repro-serve-")
        self.socket_path = os.path.join(self._dir, "s.sock")
        config.setdefault("grace_seconds", 0.05)
        self.server = FusionServer(
            ServerConfig(socket_path=self.socket_path, **config))
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.server.serve()), daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while not os.path.exists(self.socket_path):
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never bound its socket")
            time.sleep(0.01)

    def client(self) -> ServeClient:
        return ServeClient(socket_path=self.socket_path)

    def stop(self):
        if self.thread.is_alive():
            try:
                with self.client() as c:
                    c.drain()
            except OSError:
                pass
        self.thread.join(timeout=15)
        assert not self.thread.is_alive()


@pytest.fixture
def harness():
    h = ServerHarness(max_queue=32)
    yield h
    h.stop()


class TestServerEndToEnd:
    def test_exec_matches_direct_execution(self, harness):
        with harness.client() as c:
            resp = c.exec("jacobi", req_id=1, n=33, procs=2, backend="jit")
        assert resp["ok"], resp
        result = resp["result"]
        prep = prepare_kernel("jacobi", n=33, procs=2, backend="vector")
        _s, counters, digest = execute_prepared(prep, "vector")
        assert result["checksum"] == digest
        assert result["iterations"] == (counters["fused_iterations"]
                                        + counters["peeled_iterations"])
        assert result["shape"] == "n=33"
        assert result["queue_ms"] >= 0

    def test_compile_then_exec_reuses_prepared_plan(self, harness):
        with harness.client() as c:
            compiled = c.compile("jacobi", req_id="c", n=33, procs=2)
            assert compiled["ok"], compiled
            assert compiled["result"]["signatures"]
            first = c.exec("jacobi", req_id=1, n=33, procs=2)
            second = c.exec("jacobi", req_id=2, n=33, procs=2)
            status = c.status()["result"]
        assert first["result"]["checksum"] == second["result"]["checksum"]
        # One prepared entry serves the execs; compile has its own
        # signature prefix but shares the plan cache underneath.
        assert status["prepared"]["entries"] == 2
        assert status["completed"] == 3

    @pytest.mark.parametrize("backend", ["warp-drive", "mp"])
    def test_unknown_kernel_and_backend_are_clean_errors(self, harness,
                                                         backend):
        with harness.client() as c:
            bad_kernel = c.exec("nope", req_id=1, n=33)
            bad_backend = c.exec("jacobi", req_id=2, n=33, backend=backend)
            garbage = c.request({"op": "exec", "id": 3})
            health = c.health()
            good = c.exec("jacobi", req_id=4, n=33)
        assert not bad_kernel["ok"]
        assert "unknown kernel" in bad_kernel["error"]
        assert not bad_backend["ok"]
        assert f"unknown backend {backend!r}" in bad_backend["error"]
        assert not garbage["ok"]
        # The connection survived all three and the daemon still serves.
        assert health["ok"], health
        assert good["ok"], good

    def test_theorem1_violation_is_invalid_input(self, harness):
        """``n=3`` passes the protocol's field check, but jacobi's block
        size 1 is below Nt=3 on any processor count: the daemon names
        the cause, says a retry cannot help, and then serves a valid
        request."""
        with harness.client() as c:
            bad = c.exec("jacobi", req_id=1, n=3, backend="jit")
            good = c.exec("jacobi", req_id=2, n=33, backend="jit")
        assert not bad["ok"], bad
        assert bad["failure"]["kind"] == "invalid_input", bad
        assert bad["failure"]["retryable"] is False
        assert "FusionLegalityError" in bad["error"]
        assert good["ok"], good

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_non_finite_deadline_refused_daemon_stays_healthy(
            self, harness, deadline):
        """Python's json reads ``NaN`` and ``Infinity``; a request
        carrying either as its deadline is a protocol error, not an
        admitted request, and the connection and daemon carry on."""
        with harness.client() as c:
            bad = c.request({"op": "exec", "id": 1, "kernel": "jacobi",
                             "n": 33, "deadline_ms": deadline})
            health = c.health()
            good = c.exec("jacobi", req_id=2, n=33)
            status = c.status()["result"]
        assert not bad["ok"] and "deadline_ms" in bad["error"], bad
        assert health["ok"], health
        assert good["ok"], good
        assert status["protocol_errors"] == 1

    def test_pipelined_identical_requests_batch(self, harness):
        """A slow head request holds the executor while identical
        requests pile up behind it — they must coalesce."""
        with harness.client() as c:
            # Head: a distinct, slower signature (vector, bigger shape).
            messages = [{"op": "exec", "id": "head", "kernel": "jacobi",
                         "n": 255, "procs": 2, "backend": "vector"}]
            messages += [
                {"op": "exec", "id": f"r{i}", "kernel": "jacobi",
                 "n": 33, "procs": 2, "backend": "jit"}
                for i in range(8)
            ]
            for message in messages:
                c._file.write(encode_message(message))
            c._file.flush()
            responses = [decode_line(c._file.readline())
                         for _ in messages]
            status = c.status()["result"]
        by_id = {r["id"]: r for r in responses}
        assert all(r["ok"] for r in responses), responses
        checksums = {by_id[f"r{i}"]["result"]["checksum"] for i in range(8)}
        assert len(checksums) == 1
        assert status["admission"]["batched_requests"] > 0
        assert any(by_id[f"r{i}"]["result"]["batched"] for i in range(8))

    def test_overload_sheds_instead_of_queueing_unboundedly(self):
        h = ServerHarness(max_queue=2)
        try:
            with h.client() as c:
                messages = [{"op": "exec", "id": "head", "kernel": "jacobi",
                             "n": 255, "procs": 2, "backend": "vector"}]
                messages += [
                    {"op": "exec", "id": f"r{i}", "kernel": "jacobi",
                     "n": 33, "procs": 2}
                    for i in range(12)
                ]
                for message in messages:
                    c._file.write(encode_message(message))
                c._file.flush()
                responses = [decode_line(c._file.readline())
                             for _ in messages]
            shed = [r for r in responses
                    if r["status"] == STATUS_OVERLOADED]
            served = [r for r in responses if r["ok"]]
            assert shed, "a 2-deep queue fed 13 requests must shed"
            assert served, "the queue must still serve what it admitted"
            for r in shed:
                assert "queue" in r["error"] or "wait" in r["error"]
                assert r["queue_depth"] <= 2
        finally:
            h.stop()

    def test_drain_finishes_inflight_then_refuses(self, harness):
        with harness.client() as c:
            ok = c.exec("jacobi", req_id=1, n=33, procs=2)
            assert ok["ok"]
            drained = c.drain()
            assert drained["ok"]
            assert drained["result"]["drained"] is True
        harness.thread.join(timeout=15)
        assert not harness.thread.is_alive()

    def test_draining_rejects_new_work(self):
        h = ServerHarness(max_queue=8)
        try:
            h.server.begin_drain()
            with h.client() as c:
                resp = c.exec("jacobi", req_id=1, n=33, procs=2)
            assert resp["status"] == STATUS_DRAINING
        finally:
            h.stop()


# ---------------------------------------------------------------------------
# self-healing: health op, chaos op, retry with degradation


needs_fork = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="worker pools rely on fork",
)


class TestSelfHealing:
    def test_health_op_reports_recovery_state(self, harness):
        with harness.client() as c:
            c.exec("jacobi", req_id=1, n=33, procs=2)
            health = c.health()
        assert health["ok"], health
        result = health["result"]
        assert result["draining"] is False
        assert result["faults"] is None
        assert result["failures"] == {}
        assert result["retry_budget"] == 2  # ServerConfig default
        assert "pool" in result and "supervisor" in result
        assert result["breaker"]["open"] == {}

    @pytest.mark.skipif(find_compiler() is None, reason="no C compiler")
    def test_status_reports_the_mpjit_engine(self, harness):
        """With the plan's ``.so`` cached by a cjit request, an mpjit
        request runs as a thread team, and ``status`` says so in the
        same pool-stats shape it reports before any run."""
        with harness.client() as c:
            before = c.status()["result"]["pool"]
            assert c.exec("jacobi", req_id=1, n=25, procs=2,
                          backend="cjit")["ok"]
            hit = c.exec("jacobi", req_id=2, n=25, procs=2,
                         backend="mpjit", max_workers=2)
            after = c.status()["result"]["pool"]
        assert hit["ok"], hit
        assert set(after) == set(before)
        assert (after["engine"], after["nworkers"]) == ("threads", 2)

    def test_chaos_op_installs_and_clears(self, harness):
        with harness.client() as c:
            installed = c.chaos("crash@run=3;cache_corrupt@exec=5")
            assert installed["ok"], installed
            desc = installed["result"]["chaos"]
            assert desc["source"] == "chaos op"
            assert [cl["kind"] for cl in desc["clauses"]] == \
                ["crash", "cache_corrupt"]
            health = c.health()
            assert health["result"]["faults"]["spec"] == \
                "crash@run=3;cache_corrupt@exec=5"
            bad = c.chaos("kaboom@run=1")
            assert not bad["ok"]
            assert "unknown fault kind" in bad["error"]
            cleared = c.chaos("")
            assert cleared["ok"] and cleared["result"]["chaos"] is None
            assert c.health()["result"]["faults"] is None

    @needs_fork
    def test_injected_crash_is_retried_with_degradation(self, harness):
        """A worker crash mid-request: the daemon answers ``ok`` anyway
        (one retry, one rung down, bit-identical checksum) and the
        failure shows up in ``health`` — not in the client's lap."""
        prep = prepare_kernel("jacobi", n=25, procs=2, backend="vector")
        _s, _c, reference = execute_prepared(prep, "vector")
        with harness.client() as c:
            warm = c.exec("jacobi", req_id="w", n=25, procs=2,
                          backend="mpjit", max_workers=2)
            assert warm["ok"], warm
            assert "retries" not in warm["result"]
            c.chaos("crash@run=1")
            hit = c.exec("jacobi", req_id="h", n=25, procs=2,
                         backend="mpjit", max_workers=2)
            assert hit["ok"], hit
            result = hit["result"]
            assert result["checksum"] == reference
            assert result["retries"] >= 1
            assert result["degraded"] is True
            assert result["backend_used"] in ("jit", "vector")
            c.chaos("")
            health = c.health()["result"]
        assert health["retries"] >= 1
        assert health["degraded"] >= 1
        # terminal failures stay zero — the client never saw the crash;
        # the supervisor's taxonomy counts record it
        assert health["failures"] == {}
        assert health["supervisor"]["failures"].get("worker_crash", 0) >= 1

    @needs_fork
    def test_poisoned_member_does_not_fail_riders(self, harness):
        """Batched members are executed (and retried) individually: the
        member that catches the injected crash degrades alone; its
        riders' responses are clean and every checksum agrees."""
        with harness.client() as c:
            warm = c.exec("jacobi", req_id="w", n=25, procs=2,
                          backend="mpjit", max_workers=2)
            assert warm["ok"], warm
            c.chaos("crash@run=1")
            # Slow distinct head holds the executor so the riders queue
            # up behind it and coalesce into one batch.
            messages = [{"op": "exec", "id": "head", "kernel": "jacobi",
                         "n": 255, "procs": 2, "backend": "vector"}]
            messages += [
                {"op": "exec", "id": f"r{i}", "kernel": "jacobi",
                 "n": 25, "procs": 2, "backend": "mpjit",
                 "max_workers": 2}
                for i in range(4)
            ]
            for message in messages:
                c._file.write(encode_message(message))
            c._file.flush()
            responses = [decode_line(c._file.readline())
                         for _ in messages]
            c.chaos("")
        by_id = {r["id"]: r for r in responses}
        riders = [by_id[f"r{i}"] for i in range(4)]
        assert all(r["ok"] for r in riders), riders
        checksums = {r["result"]["checksum"] for r in riders}
        assert len(checksums) == 1
        retried = [r for r in riders if r["result"].get("retries")]
        clean = [r for r in riders if "retries" not in r["result"]]
        assert retried, "the injected crash must have hit one member"
        assert clean, "riders behind the poisoned member must run clean"

    def test_cache_corruption_heals_transparently(self, harness):
        """A chaos-corrupted plan-cache entry: the fault drops the
        daemon's prepared tier, so the next exec re-prepares, finds the
        garbled disk entry, quarantines it to ``<entry>.bad`` and
        recompiles — same checksum, no error reaches any client."""
        with harness.client() as c:
            first = c.exec("jacobi", req_id=1, n=33, procs=2, backend="jit")
            assert first["ok"], first
            c.chaos("cache_corrupt@exec=1")
            # exec 1 of the plan fires the corruption (its own run still
            # uses the in-memory module; the *next* prepare pays).
            trigger = c.exec("jacobi", req_id=2, n=33, procs=2,
                             backend="jit")
            assert trigger["ok"], trigger
            healed = c.exec("jacobi", req_id=3, n=33, procs=2,
                            backend="jit")
            c.chaos("")
            status = c.status()["result"]
        assert healed["ok"], healed
        assert healed["result"]["checksum"] == first["result"]["checksum"]
        assert status["plancache"]["quarantined"] >= 1

    def test_serve_cli_rejects_bad_chaos_spec(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["serve", "--chaos", "kaboom@run=1",
                       "--socket", "/tmp/unused.sock"])
        assert rc == 2
        assert "bad --chaos spec" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["inf", "nan", "0", "x"])
    def test_serve_cli_rejects_bad_tenant_weight(self, weight, tmp_path,
                                                capsys):
        """A weight of ``inf`` would freeze its tenant's stride pass
        (``1/inf`` is 0) and ``nan`` would poison the comparisons.  The
        socket's directory does not exist, so a weight the check let
        through fails at bind instead of serving forever."""
        from repro.cli import main as cli_main

        rc = cli_main(["serve", "--tenant-weight", f"a={weight}",
                       "--socket", str(tmp_path / "absent" / "s.sock")])
        assert rc == 2
        assert "bad --tenant-weight" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# SIGTERM drain (real process)


class TestSigtermDrain:
    def test_sigterm_drains_inflight_before_exit(self, tmp_path):
        """Admitted requests get responses even when SIGTERM lands
        while they are queued; the daemon then exits 0."""
        short_dir = tempfile.mkdtemp(prefix="repro-sigterm-")
        sock = os.path.join(short_dir, "d.sock")
        env = dict(os.environ,
                   PYTHONPATH=SRC,
                   REPRO_JIT_CACHE_DIR=str(tmp_path / "daemon-cache"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            with ServeClient(socket_path=sock) as c:
                # Pipeline several requests, confirm the daemon is
                # mid-stream by reading the first response, THEN
                # deliver SIGTERM while the rest are still queued.
                for i in range(5):
                    c._file.write(encode_message(
                        {"op": "exec", "id": i, "kernel": "jacobi",
                         "n": 33, "procs": 2}))
                c._file.flush()
                first = decode_line(c._file.readline())
                assert first["ok"], first
                proc.send_signal(signal.SIGTERM)
                responses = [decode_line(c._file.readline())
                             for _ in range(4)]
            # Every admitted request was answered; any line the drain
            # beat to admission is refused, not dropped.
            for r in responses:
                assert r["ok"] or r["status"] == STATUS_DRAINING, r
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_sigterm_while_chaos_crashed_worker_mid_batch(self, tmp_path):
        """Drain-while-crashed: SIGTERM lands while an injected fault
        has just killed a pool worker with requests still queued.  Every
        in-flight request must complete (degraded is fine) or get a
        structured failure — never hang, never drop the connection — and
        the daemon must exit 0 leaving no children or shm segments."""
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("worker pools rely on fork")
        shm = Path("/dev/shm")
        shm_before = ({p.name for p in shm.iterdir()}
                      if shm.is_dir() else None)
        short_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        sock = os.path.join(short_dir, "d.sock")
        env = dict(os.environ,
                   PYTHONPATH=SRC,
                   REPRO_SYNC_TIMEOUT="15",
                   REPRO_JIT_CACHE_DIR=str(tmp_path / "daemon-cache"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--chaos", "crash@run=2", "--retries", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            with ServeClient(socket_path=sock, timeout=120.0) as c:
                # Pipeline mpjit requests: run 1 warms the pool, run 2
                # is the injected crash — SIGTERM arrives right after
                # the first response, while the remaining requests are
                # in flight behind the dead worker.
                for i in range(5):
                    c._file.write(encode_message(
                        {"op": "exec", "id": i, "kernel": "jacobi",
                         "n": 25, "procs": 2, "backend": "mpjit",
                         "max_workers": 2}))
                c._file.flush()
                first = decode_line(c._file.readline())
                assert first["ok"], first
                proc.send_signal(signal.SIGTERM)
                responses = [decode_line(c._file.readline())
                             for _ in range(4)]
            # Zero hangs is the gate: every line came back, each either
            # ok (possibly degraded), refused by the drain, or a
            # structured failure — never opaque, never dropped.
            for r in responses:
                if not r["ok"]:
                    assert (r["status"] == STATUS_DRAINING
                            or "failure" in r), r
            assert proc.wait(timeout=40) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        if shm_before is not None:
            leaked = {p.name for p in shm.iterdir()} - shm_before
            assert not leaked, f"shm segments leaked: {leaked}"


# ---------------------------------------------------------------------------
# the load generator


class TestLoadgen:
    def test_loadgen_records_service_telemetry(self, tmp_path):
        from repro.serve.loadgen import run_loadgen

        h = ServerHarness(max_queue=32)
        try:
            payload = run_loadgen(
                kernel="jacobi", n=33, procs=2, backend="jit",
                socket_path=h.socket_path, concurrency=4, duration=1.0,
                deadline_ms=5_000.0, tenants=2, progress=None,
            )
        finally:
            h.stop()
        entry = payload["entries"][0]
        assert entry["backend"] == "serve-jit"
        assert entry["requests"]["ok"] > 0
        assert entry["checksum_mismatches"] == 0
        assert not entry["client_failures"]
        assert entry["availability"] == 1.0
        # Tail-latency fields of the service run.
        for field in ("p50_seconds", "p95_seconds", "p99_seconds",
                      "deadline_misses", "median_seconds", "jitter"):
            assert field in entry
        assert entry["deadline_seconds"] == 5.0
        assert len(entry["samples"]) == entry["requests"]["ok"]
        assert entry["requests_per_second"] > 0
        assert payload["suite"]["service"] is True
        assert payload["suite"]["tenants"] == 2
        assert payload["server"] is not None
        assert payload["server"]["admission"]["admitted"] > 0
        # Nothing is stamped for a store: the payload is the whole result.
        for stamp in ("schema", "version", "run_id", "git_sha"):
            assert stamp not in payload

    def test_loadgen_chaos_window_records_recovery(self, tmp_path):
        """``--chaos``: the plan is installed for the measured window,
        cleared afterwards, and the entry carries the availability and
        failure-kind telemetry the soak gates on."""
        from repro.serve.loadgen import run_loadgen

        h = ServerHarness(max_queue=32)
        try:
            payload = run_loadgen(
                kernel="jacobi", n=33, procs=2, backend="jit",
                socket_path=h.socket_path, concurrency=2, duration=1.0,
                chaos="cache_corrupt@exec=2..50/4", progress=None,
            )
            with h.client() as c:
                faults_after = c.health()["result"]["faults"]
        finally:
            h.stop()
        entry = payload["entries"][0]
        assert entry["checksum_mismatches"] == 0
        assert 0.0 <= entry["availability"] <= 1.0
        assert "failure_kinds" in entry
        assert payload["suite"]["chaos"] == "cache_corrupt@exec=2..50/4"
        assert payload["health"] is not None
        assert faults_after is None  # cleared after the window

    def test_loadgen_cli_json_stdout(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        h = ServerHarness(max_queue=32)
        try:
            rc = cli_main([
                "loadgen", "--socket", h.socket_path, "--kernel", "jacobi",
                "--n", "33", "--procs", "2", "--concurrency", "2",
                "--duration", "0.5", "--json", "-",
            ])
        finally:
            h.stop()
        assert rc == 0
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["entries"][0]["requests"]["ok"] > 0
        assert "loadgen:" in out.err  # progress moved to stderr

    def test_loadgen_cli_json_path(self, tmp_path, capsys):
        """``--json PATH`` writes the payload ``run_loadgen`` returns to
        that file, and the human-readable report stays on stdout."""
        from repro.cli import main as cli_main

        target = tmp_path / "loadgen.json"
        h = ServerHarness(max_queue=32)
        try:
            rc = cli_main([
                "loadgen", "--socket", h.socket_path, "--kernel", "jacobi",
                "--n", "33", "--procs", "2", "--concurrency", "2",
                "--duration", "0.5", "--json", str(target),
            ])
        finally:
            h.stop()
        assert rc == 0
        assert f"wrote {target}" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["entries"][0]["requests"]["ok"] > 0
        assert payload["suite"]["service"] is True

    @pytest.mark.parametrize("flag", [["--no-store"], ["--run-dir", "runs"]])
    def test_loadgen_has_no_store_options(self, flag, capsys):
        """The run store is gone: its options are usage errors."""
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["loadgen", "--socket", "unused.sock", *flag])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err
