"""``repro loadgen``: a closed-loop load generator for the daemon.

``concurrency`` worker threads each hold one connection and fire
``exec`` requests back-to-back for ``duration`` seconds — the classic
closed-loop client model, so measured latency includes queueing behind
other tenants and the batcher's coalescing shows up as throughput.

What it proves, in one run:

* **correctness** — every successful response's checksum is compared
  against a direct in-process execution of the same kernel/shape (the
  original, unfused program run by the reference interpreter, which
  shares no lowering with any tier); any mismatch is a hard failure;
* **tail latency** — per-request latencies aggregate through
  :func:`repro.runtime.benchmarking.summarize_samples` (the statistics
  ``repro exec`` records), yielding p50/p95/p99 and deadline-miss counts;
* **batching and shedding** — the daemon's ``status`` op is sampled at
  the end, recording ``batched_requests``, shed counts and per-tenant
  service shares next to the client-side numbers.

The payload comes back to the caller (``repro loadgen --json PATH|-``
writes it out); nothing is stored.  The repo's latency benchmark is the
``serve-mix`` workload of ``benchmarks/e2e``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..runtime.benchmarking import summarize_samples
from .client import ServeClient, ServeClientError
from .protocol import STATUS_DRAINING, STATUS_OK, STATUS_OVERLOADED

#: Back off this long after a shed response so an overloaded daemon
#: spends its cycles executing, not refusing.
SHED_BACKOFF_SECONDS = 0.002


class _WorkerLog:
    """One worker's observations (merged after the join)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.checksums: dict[str, int] = {}
        self.shapes: set[str] = set()
        self.ok = 0
        self.overloaded = 0
        self.draining = 0
        self.errors = 0
        self.batched = 0
        self.retried = 0
        self.degraded = 0
        self.failure_kinds: dict[str, int] = {}
        self.failure: Optional[str] = None


def _worker(log: _WorkerLog, stop: threading.Event, deadline: float,
            connect: Callable[[], ServeClient], tenant: str,
            exec_kwargs: dict) -> None:
    try:
        client = connect()
    except OSError as exc:
        log.failure = f"connect failed: {exc}"
        return
    try:
        seq = 0
        while not stop.is_set() and time.monotonic() < deadline:
            seq += 1
            t0 = time.monotonic()
            try:
                resp = client.exec(tenant=tenant,
                                   req_id=f"{tenant}-{seq}", **exec_kwargs)
            except (ServeClientError, OSError) as exc:
                log.failure = f"request failed: {exc}"
                return
            latency = time.monotonic() - t0
            status = resp.get("status")
            if status == STATUS_OK:
                log.ok += 1
                log.latencies.append(latency)
                result = resp.get("result", {})
                digest = result.get("checksum")
                if digest:
                    log.checksums[digest] = log.checksums.get(digest, 0) + 1
                if result.get("shape"):
                    log.shapes.add(result["shape"])
                if result.get("batched"):
                    log.batched += 1
                if result.get("retries"):
                    log.retried += 1
                if result.get("degraded"):
                    log.degraded += 1
            elif status == STATUS_OVERLOADED:
                log.overloaded += 1
                time.sleep(SHED_BACKOFF_SECONDS)
            elif status == STATUS_DRAINING:
                log.draining += 1
                return
            else:
                log.errors += 1
                kind = (resp.get("failure") or {}).get("kind", "unknown")
                log.failure_kinds[kind] = log.failure_kinds.get(kind, 0) + 1
    finally:
        client.close()


def reference_checksum(kernel: str, n: Optional[int], procs: int) -> str:
    """Direct in-process execution for the correctness cross-check.

    The original, unfused program, run by
    :func:`~repro.runtime.interp.run_sequence_serial` sequence by sequence
    over the daemon's default seeded inputs.  Nothing is derived, planned
    or emitted: the reference shares no code with the path every served
    tier runs, so no defect there can reproduce its checksum.  ``procs``
    names the request; the unfused result does not depend on it.
    """
    from ..kernels import get_kernel
    from ..runtime.backend import checksum
    from ..runtime.execute import PreparedKernel, resolve_params
    from ..runtime.interp import run_sequence_serial
    from .server import ServerConfig

    info = get_kernel(kernel)
    program = info.program()
    prep = PreparedKernel(
        name=kernel, program=program, params=resolve_params(info, program, n=n),
        plans=[], procs=procs, seed=ServerConfig.seed)
    arrays = prep.alloc()
    for seq in prep.program.sequences:
        run_sequence_serial(seq, prep.params, arrays)
    return checksum(arrays)


def run_loadgen(
    kernel: str = "jacobi",
    n: Optional[int] = None,
    procs: int = 4,
    backend: str = "jit",
    strip: Optional[int] = None,
    max_workers: Optional[int] = None,
    host: str = "127.0.0.1",
    port: int = 7455,
    socket_path: Optional[str] = None,
    concurrency: int = 8,
    duration: float = 10.0,
    deadline_ms: Optional[float] = None,
    tenants: int = 1,
    chaos: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = print,
) -> dict:
    """Drive the daemon; returns the telemetry payload, whose single
    entry is the service run (samples = per-request latencies).

    When ``chaos`` is set, the spec is installed on the daemon via the
    ``chaos`` op *after* the warm-up request (so the plan's run/exec
    counters start from the measured window) and cleared again once the
    window closes — the soak then reads ``availability`` and
    ``checksum_mismatches`` out of the entry to gate on.
    """

    def connect() -> ServeClient:
        return ServeClient(host=host, port=port, socket_path=socket_path)

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    reference = reference_checksum(kernel, n, procs)
    exec_kwargs = {"kernel": kernel, "n": n, "procs": procs,
                   "backend": backend, "strip": strip,
                   "max_workers": max_workers, "deadline_ms": deadline_ms}
    # Warm the daemon (plan + compile + first pool spawn happen here,
    # outside the measured window) and fail fast on an unreachable or
    # misconfigured target.
    with connect() as warm:
        resp = warm.exec(tenant="warmup", req_id="warmup", **exec_kwargs)
        if resp.get("status") not in (STATUS_OK, STATUS_OVERLOADED):
            raise RuntimeError(f"warm-up request failed: {resp}")
        if chaos:
            resp = warm.chaos(chaos, req_id="chaos-install")
            if not resp.get("ok"):
                raise RuntimeError(f"chaos install failed: {resp}")
            say(f"loadgen: chaos plan installed: {chaos}")
    say(f"loadgen: {concurrency} workers x {duration:.0f}s against "
        f"{kernel} n={n} P={procs} backend={backend} "
        f"({tenants} tenant(s), deadline "
        f"{deadline_ms if deadline_ms is not None else '-'} ms)")
    stop = threading.Event()
    logs = [_WorkerLog() for _ in range(concurrency)]
    t_start = time.monotonic()
    deadline = t_start + duration
    threads = [
        threading.Thread(
            target=_worker,
            args=(logs[w], stop, deadline, connect,
                  f"tenant-{w % max(1, tenants)}", exec_kwargs),
            daemon=True,
        )
        for w in range(concurrency)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=duration + 60.0)
    stop.set()
    elapsed = time.monotonic() - t_start
    server_stats = None
    server_health = None
    try:
        with connect() as control:
            status = control.status()
            if status.get("ok"):
                server_stats = status["result"]
            health = control.health()
            if health.get("ok"):
                server_health = health["result"]
            if chaos:
                control.chaos("", req_id="chaos-clear")
    except (OSError, ServeClientError, RuntimeError):
        pass  # the daemon may already be draining; client stats stand alone
    latencies = sorted(
        lat for log in logs for lat in log.latencies)
    counts = {
        "ok": sum(log.ok for log in logs),
        "overloaded": sum(log.overloaded for log in logs),
        "draining": sum(log.draining for log in logs),
        "errors": sum(log.errors for log in logs),
        "batched": sum(log.batched for log in logs),
        "retried": sum(log.retried for log in logs),
        "degraded": sum(log.degraded for log in logs),
    }
    failure_kinds: dict[str, int] = {}
    for log in logs:
        for kind, count in log.failure_kinds.items():
            failure_kinds[kind] = failure_kinds.get(kind, 0) + count
    answered = counts["ok"] + counts["errors"]
    availability = counts["ok"] / answered if answered else 1.0
    failures = [log.failure for log in logs if log.failure]
    checksums: dict[str, int] = {}
    for log in logs:
        for digest, count in log.checksums.items():
            checksums[digest] = checksums.get(digest, 0) + count
    mismatches = sum(count for digest, count in checksums.items()
                     if digest != reference)
    shapes = {shape for log in logs for shape in log.shapes}
    shape = shapes.pop() if shapes else (f"n={n}" if n else "n=default")
    rps = counts["ok"] / elapsed if elapsed > 0 else 0.0
    entry = {
        "kernel": kernel,
        "backend": f"serve-{backend}",
        "shape": shape,
        "procs": procs,
        "checksum": reference,
        "iterations": None,
        "samples": [{"seconds": round(lat, 6)} for lat in latencies],
        "requests": counts,
        "requests_per_second": round(rps, 3),
        "concurrency": concurrency,
        "tenants": tenants,
        "duration_seconds": round(elapsed, 3),
        "checksum_mismatches": mismatches,
        "client_failures": failures,
        "availability": round(availability, 6),
        "failure_kinds": failure_kinds,
    }
    if latencies:
        entry["seconds"] = round(min(latencies), 6)
        entry.update(summarize_samples(
            latencies,
            deadline_seconds=(deadline_ms / 1000.0
                              if deadline_ms is not None else None)))
    payload = {
        "suite": {
            "service": True,
            "kernel": kernel, "n": n, "procs": procs, "backend": backend,
            "concurrency": concurrency, "tenants": tenants,
            "duration_seconds": duration, "deadline_ms": deadline_ms,
            "chaos": chaos,
        },
        "server": server_stats,
        "health": server_health,
        "entries": [entry],
    }
    if latencies:
        say(f"  {counts['ok']} ok ({rps:.1f} req/s sustained), "
            f"{counts['overloaded']} overloaded, "
            f"{counts['errors']} errors, {mismatches} checksum mismatches, "
            f"availability {availability * 100:.2f}%")
        if counts["retried"] or counts["degraded"] or failure_kinds:
            kinds = ", ".join(f"{k}={v}" for k, v
                              in sorted(failure_kinds.items())) or "-"
            say(f"  recovery: {counts['retried']} retried, "
                f"{counts['degraded']} degraded, failure kinds: {kinds}")
        say(f"  latency p50 {entry['p50_seconds'] * 1000:.2f} ms, "
            f"p95 {entry['p95_seconds'] * 1000:.2f} ms, "
            f"p99 {entry['p99_seconds'] * 1000:.2f} ms, "
            f"deadline misses {entry.get('deadline_misses', 0)}")
    else:
        say(f"  no successful responses ({counts['overloaded']} "
            f"overloaded, {counts['errors']} errors)")
    if server_stats is not None:
        admission = server_stats.get("admission", {})
        say(f"  server: {admission.get('batches', 0)} batches, "
            f"{admission.get('batched_requests', 0)} batched requests "
            f"(max batch {admission.get('max_batch_size', 0)}), "
            f"{admission.get('shed_queue_full', 0)} shed on queue, "
            f"{admission.get('shed_deadline', 0)} shed on deadline")
    return payload
