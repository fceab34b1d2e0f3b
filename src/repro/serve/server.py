"""The asyncio service daemon behind ``repro serve``.

One process, one event loop, ONE shared plan cache and ONE persistent
mpjit worker pool for every client:

* each client connection speaks the newline-delimited JSON protocol
  (:mod:`.protocol`) and may pipeline requests;
* ``exec``/``compile`` requests pass admission control
  (:mod:`.admission`) and park on a future; a single scheduler
  coroutine dequeues signature-keyed batches and runs them on a
  one-thread executor, so executions are strictly serialized — exactly
  the discipline the shared worker pool requires — while the event
  loop keeps accepting, answering ``status`` and shedding load;
* plan preparation (analysis → fuse → plan → compile) happens at most
  once per signature per daemon lifetime: a small LRU of
  :class:`~repro.runtime.execute.PreparedKernel` sits on top of
  the process-wide plan cache, so a batch of identical requests pays
  one compile and N executions;
* every observed execution feeds the admission cost model
  (EWMA, seeded by the auto-tuner's persisted winners), closing the
  static + dynamic loop: measured costs drive load-shedding decisions;
* SIGTERM (and the ``drain`` op) triggers a graceful drain — stop
  admitting, finish everything queued and in-flight, answer the drain
  request, close the shared pool via its idempotent ``close()`` — so a
  supervisor restart never loses accepted work.
"""

from __future__ import annotations

import asyncio
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .admission import AdmissionController, Batch, CostModel, QueuedRequest
from .protocol import (
    PROTOCOL,
    ExecKey,
    ProtocolError,
    Request,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_OVERLOADED,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)

#: Prepared-kernel LRU size: distinct (kernel, shape, procs, options)
#: configurations kept hot.  Eviction only costs re-preparation through
#: the on-disk plan cache (one compile(), no emission).
PREPARED_SLOTS = 32


@dataclass
class ServerConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 7455
    socket_path: Optional[str] = None
    max_queue: int = 64
    max_batch: int = 16
    tenant_weights: Mapping[str, float] = field(default_factory=dict)
    seed: int = 7
    grace_seconds: float = 0.1
    #: retry budget per exec request (attempts = retries + 1), stepping
    #: down the degradation ladder; 0 disables the retry machinery
    retries: int = 2
    #: fault-plan spec installed at boot (``repro serve --chaos``)
    chaos: Optional[str] = None


class FusionServer:
    """The daemon.  Construct, then ``asyncio.run(server.serve())``.

    ``on_listening`` (if given) is called once with the bound address
    string — the CLI prints it, tests parse it.
    """

    def __init__(self, config: Optional[ServerConfig] = None,
                 tuner=None,
                 on_listening: Optional[Callable[[str], None]] = None,
                 ) -> None:
        from ..runtime.autotune import default_tuner

        self.config = config or ServerConfig()
        self.cost_model = CostModel(tuner=tuner or default_tuner())
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
            weights=self.config.tenant_weights,
            cost_model=self.cost_model,
        )
        from ..runtime.supervisor import CircuitBreaker, RetryPolicy

        self.on_listening = on_listening
        self.address: Optional[str] = None
        self.stats = {
            "received": 0, "completed": 0, "errors": 0,
            "rejected_draining": 0, "protocol_errors": 0,
            "connections": 0, "retries": 0, "degraded": 0,
            "exec_failures": 0,
        }
        self.breaker = CircuitBreaker()
        self.retry_policy = RetryPolicy(
            max_attempts=max(1, self.config.retries + 1))
        self._failure_counts: dict[str, int] = {}
        self.started_monotonic = time.monotonic()
        self._sig_cache: dict[ExecKey, str] = {}
        self._prepared: OrderedDict[str, object] = OrderedDict()
        self._prepared_seconds = {"plan": 0.0, "compile": 0.0}
        self._kernels: Optional[frozenset[str]] = None
        self._backends: Optional[tuple[str, ...]] = None
        self._draining = False
        self._executor = None
        self._work: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None

    # -- validation and signatures ----------------------------------------

    def _known_kernels(self) -> frozenset[str]:
        if self._kernels is None:
            from ..kernels import all_kernels

            self._kernels = frozenset(k.name for k in all_kernels())
        return self._kernels

    def _known_backends(self) -> tuple[str, ...]:
        if self._backends is None:
            from ..runtime import available_backends

            self._backends = available_backends()
        return self._backends

    def validate_key(self, key: ExecKey) -> Optional[str]:
        if key.kernel not in self._known_kernels():
            return (f"unknown kernel {key.kernel!r}; known: "
                    f"{', '.join(sorted(self._known_kernels()))}")
        if key.backend not in self._known_backends():
            return (f"unknown backend {key.backend!r}; known: "
                    f"{', '.join(self._known_backends())}")
        return None

    def signature_for(self, op: str, key: ExecKey) -> str:
        """The batching signature: the structural program signature (the
        plan cache's program-alias key) plus the runtime options that
        change how the compiled plan executes.  Cached per key — the
        program build behind it costs about a millisecond."""
        base = self._sig_cache.get(key)
        if base is None:
            from ..kernels import get_kernel
            from ..runtime.execute import resolve_params
            from ..runtime.plancache import program_signature

            info = get_kernel(key.kernel)
            program = info.program()
            params = resolve_params(info, program, n=key.n)
            base = program_signature(program, params, key.procs, key.strip)
            self._sig_cache[key] = base
        return f"{op}:{base}:{key.backend}:{key.max_workers or '-'}"

    # -- executor-thread work ----------------------------------------------

    def _prepare(self, signature: str, key: ExecKey):
        """PreparedKernel for ``key``, LRU-cached (executor thread only)."""
        from ..runtime.execute import prepare_kernel

        prep = self._prepared.get(signature)
        if prep is not None:
            self._prepared.move_to_end(signature)
            return prep
        prep = prepare_kernel(
            key.kernel, n=key.n, procs=key.procs, seed=self.config.seed,
            backend=key.backend, strip=key.strip,
        )
        self._prepared_seconds["plan"] += prep.plan_seconds
        self._prepared_seconds["compile"] += prep.compile_seconds
        self._prepared[signature] = prep
        while len(self._prepared) > PREPARED_SLOTS:
            self._prepared.popitem(last=False)
        return prep

    def _maybe_cache_fault(self) -> None:
        """Chaos hook: fire any due ``cache_corrupt`` fault (executor
        thread).  Garbles one on-disk plan-cache module and drops both
        in-memory tiers, so a later prepare must take the quarantine +
        recompile path."""
        from ..runtime.faults import active_plan, corrupt_cache_entry

        try:
            plan = active_plan()
        except Exception:
            return  # a bad env spec is reported by the exec path
        if plan is None or not plan.take_cache_fault():
            return
        from ..runtime.plancache import default_cache

        corrupt_cache_entry(default_cache())
        self._prepared.clear()

    def _execute_batch(self, batch: Batch) -> list[tuple]:
        """Run one batch on the executor thread: prepare once, execute
        each member back-to-back.  Returns one ``("ok", result)`` or
        ``("err", failure_dict, message)`` per member (same order) —
        members are retried individually with backend degradation, so a
        poisoned request fails alone instead of taking its riders down.
        """
        from ..runtime.execute import execute_resilient
        from ..runtime.fastexec import FastExecError
        from ..runtime.supervisor import classify_failure

        key = batch.key
        try:
            prep = self._prepare(batch.signature, key)
        except Exception as exc:  # noqa: BLE001 - reported per member
            payload = classify_failure(exc).as_dict()
            message = f"{type(exc).__name__}: {exc}"
            return [("err", payload, message) for _ in batch.requests]
        results: list[tuple] = []
        for index, qreq in enumerate(batch.requests):
            t0 = time.perf_counter()
            if qreq.request.op == "compile":
                seconds = time.perf_counter() - t0
                results.append(("ok", {
                    "kernel": key.kernel, "shape": prep.shape,
                    "procs": key.procs, "backend": key.backend,
                    "plan_seconds": round(prep.plan_seconds, 6),
                    "compile_seconds": round(prep.compile_seconds, 6),
                    "signatures": [m.signature for m in prep.modules]
                    if prep.modules else [p.signature(strip=key.strip)
                                          for p in prep.plans],
                    "cache": dict(prep.cache_stats),
                    "seconds": round(seconds, 6),
                }))
                continue
            self._maybe_cache_fault()
            try:
                seconds, counters, digest, recovery = execute_resilient(
                    prep, key.backend, strip=key.strip,
                    max_workers=key.max_workers,
                    policy=self.retry_policy, breaker=self.breaker,
                    signature=batch.signature,
                )
            except FastExecError as exc:
                failure = classify_failure(exc)
                self.stats["exec_failures"] += 1
                self._failure_counts[failure.kind] = (
                    self._failure_counts.get(failure.kind, 0) + 1)
                results.append(("err", failure.as_dict(),
                                f"{type(exc).__name__}: {exc}"))
                continue
            result = {
                "kernel": key.kernel, "shape": prep.shape,
                "procs": key.procs, "backend": key.backend,
                "seconds": round(seconds, 6),
                "iterations": (counters["fused_iterations"]
                               + counters["peeled_iterations"]),
                "checksum": digest,
                "batch_size": len(batch), "batch_index": index,
                "batched": len(batch) > 1,
            }
            if recovery["retries"] or recovery["degraded"]:
                self.stats["retries"] += recovery["retries"]
                self.stats["degraded"] += int(recovery["degraded"])
                result["retries"] = recovery["retries"]
                result["backend_used"] = recovery["backend_used"]
                result["degraded"] = recovery["degraded"]
            results.append(("ok", result))
        return results

    # -- the scheduler -----------------------------------------------------

    async def _scheduler(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self.admission.depth == 0:
                if self._draining:
                    break
                self._work.clear()
                await self._work.wait()
                continue
            batch = self.admission.next_batch()
            if batch is None:  # pragma: no cover - depth>0 implies a batch
                continue
            self.admission.mark_inflight(batch)
            try:
                results = await loop.run_in_executor(
                    self._executor, self._execute_batch, batch)
            except Exception as exc:  # noqa: BLE001 - reported to clients
                self.stats["errors"] += len(batch)
                message = f"{type(exc).__name__}: {exc}"
                for qreq in batch.requests:
                    self._resolve(qreq, error_response(
                        qreq.request.id, STATUS_ERROR, message))
            else:
                exec_seconds = [r[1]["seconds"] for r in results
                                if r[0] == "ok" and "checksum" in r[1]]
                if exec_seconds:
                    self.cost_model.observe(
                        batch.signature,
                        sum(exec_seconds) / len(exec_seconds))
                now = time.monotonic()
                for qreq, outcome in zip(batch.requests, results):
                    if outcome[0] == "err":
                        _, failure, message = outcome
                        self.stats["errors"] += 1
                        self._resolve(qreq, error_response(
                            qreq.request.id, STATUS_ERROR, message,
                            failure=failure))
                        continue
                    result = outcome[1]
                    result["queue_ms"] = round(
                        (now - qreq.enqueued) * 1000.0, 3)
                    self.stats["completed"] += 1
                    self._resolve(qreq, ok_response(qreq.request.id, result))
            finally:
                self.admission.mark_done(batch)
        self._drained.set()

    @staticmethod
    def _resolve(qreq: QueuedRequest, response: dict) -> None:
        future = qreq.ticket
        if future is not None and not future.done():
            future.set_result(response)

    # -- request handling --------------------------------------------------

    def status_snapshot(self) -> dict:
        from ..runtime.plancache import default_cache
        from ..runtime.pool import pool_stats

        return {
            "protocol": PROTOCOL,
            "address": self.address,
            "uptime_seconds": round(
                time.monotonic() - self.started_monotonic, 3),
            "draining": self._draining,
            **{k: v for k, v in self.stats.items()},
            "admission": self.admission.snapshot(),
            "prepared": {
                "entries": len(self._prepared),
                "plan_seconds": round(self._prepared_seconds["plan"], 6),
                "compile_seconds": round(
                    self._prepared_seconds["compile"], 6),
            },
            "plancache": default_cache().stats.as_dict(),
            "pool": pool_stats(),
        }

    def health_snapshot(self) -> dict:
        """The ``health`` op: recovery-focused liveness — pool
        supervision, breaker state, failure taxonomy counts and the
        active fault plan (``status`` stays throughput-focused)."""
        from ..runtime.faults import active_plan
        from ..runtime.pool import pool_stats
        from ..runtime.supervisor import default_supervisor

        try:
            plan = active_plan()
        except Exception:
            plan = None
        return {
            "protocol": PROTOCOL,
            "draining": self._draining,
            "pool": pool_stats(),
            "supervisor": default_supervisor().stats(),
            "breaker": self.breaker.snapshot(),
            "failures": dict(self._failure_counts),
            "retries": self.stats["retries"],
            "degraded": self.stats["degraded"],
            "exec_failures": self.stats["exec_failures"],
            "retry_budget": self.config.retries,
            "faults": plan.describe() if plan is not None else None,
        }

    def _handle_chaos(self, req: Request) -> dict:
        from ..runtime import faults

        spec = (req.spec or "").strip()
        if not spec:
            faults.install_plan(None)
            return ok_response(req.id, {"chaos": None})
        try:
            plan = faults.FaultPlan.parse(spec, source="chaos op")
        except faults.FaultSpecError as exc:
            self.stats["errors"] += 1
            return error_response(req.id, STATUS_ERROR, str(exc))
        faults.install_plan(plan)
        return ok_response(req.id, {"chaos": plan.describe()})

    async def handle_request(self, req: Request) -> dict:
        if req.op == "ping":
            return ok_response(req.id, {"protocol": PROTOCOL})
        if req.op == "status":
            return ok_response(req.id, self.status_snapshot())
        if req.op == "health":
            return ok_response(req.id, self.health_snapshot())
        if req.op == "chaos":
            return self._handle_chaos(req)
        if req.op == "drain":
            self.begin_drain()
            await self._drained.wait()
            return ok_response(req.id, {
                "drained": True,
                "completed": self.stats["completed"],
                "admission": self.admission.snapshot(),
            })
        # exec / compile
        if self._draining:
            self.stats["rejected_draining"] += 1
            return error_response(req.id, STATUS_DRAINING,
                                  "daemon is draining; no new work accepted")
        problem = self.validate_key(req.key)
        if problem is not None:
            self.stats["errors"] += 1
            return error_response(req.id, STATUS_ERROR, problem)
        signature = self.signature_for(req.op, req.key)
        qreq = QueuedRequest(request=req, signature=signature,
                             ticket=asyncio.get_running_loop()
                             .create_future())
        admitted, reason = self.admission.try_admit(qreq)
        if not admitted:
            return error_response(
                req.id, STATUS_OVERLOADED, reason,
                queue_depth=self.admission.depth,
                projected_wait_ms=round(
                    self.admission.projected_wait_seconds() * 1000.0, 3),
            )
        self._work.set()
        return await qreq.ticket

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> None:
        try:
            req = parse_request(line)
        except ProtocolError as exc:
            self.stats["protocol_errors"] += 1
            response = error_response(None, STATUS_ERROR, str(exc))
        else:
            self.stats["received"] += 1
            response = await self.handle_request(req)
        async with lock:
            try:
                writer.write(encode_message(response))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away; nothing to tell it

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats["connections"] += 1
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                # Pipelining: each request is its own task so a queued
                # exec never blocks a status probe on the same socket.
                task = asyncio.create_task(
                    self._handle_line(line, writer, lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

    # -- lifecycle ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting, let the scheduler finish what was accepted.
        Idempotent; safe to call from a signal handler on the loop."""
        if self._draining:
            return
        self._draining = True
        if self._work is not None:
            self._work.set()

    async def serve(self) -> None:
        """Run until drained (``drain`` op or SIGTERM/SIGINT)."""
        from concurrent.futures import ThreadPoolExecutor

        if self.config.chaos:
            from ..runtime import faults

            faults.install_plan(faults.FaultPlan.parse(
                self.config.chaos, source="--chaos"))
        loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._drained = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-exec")
        if self.config.socket_path:
            server = await asyncio.start_unix_server(
                self._on_connection, path=self.config.socket_path)
            self.address = f"unix:{self.config.socket_path}"
        else:
            server = await asyncio.start_server(
                self._on_connection, host=self.config.host,
                port=self.config.port)
            host, port = server.sockets[0].getsockname()[:2]
            self.address = f"{host}:{port}"
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or exotic platform: drain op only
        if self.on_listening is not None:
            self.on_listening(self.address)
        scheduler = asyncio.create_task(self._scheduler())
        try:
            await self._drained.wait()
            # Give drain-op handlers a beat to flush their responses
            # before the sockets disappear.
            await asyncio.sleep(self.config.grace_seconds)
        finally:
            server.close()
            await server.wait_closed()
            await scheduler
            self._executor.shutdown(wait=True)
            from ..runtime import faults
            from ..runtime.pool import shutdown_pool

            # Clear any runtime-installed fault plan (env-based plans
            # are unaffected) before the pool is retired for good.
            faults.install_plan(None)
            shutdown_pool()
