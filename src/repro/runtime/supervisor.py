"""Supervised recovery: failure taxonomy, pool respawn, breaker, retry.

PR 3/7 made the multiprocess path *detect* failures well — dead or
raising workers surface as :class:`FastExecError` with tracebacks in
well under a second — but every failure was terminal for the caller and
for the pool.  This module adds the recovery half:

* :class:`ExecFailure` — a structured failure record with a small error
  taxonomy (``worker_crash`` / ``sync_timeout`` / ``compile_error`` /
  ``cache_corrupt`` / ``overload``, plus an ``internal`` fallback),
  derived from an exception by :func:`classify_failure` and carried on
  :class:`ExecError` so the serve layer can answer with machine-readable
  failures instead of opaque strings.
* :class:`PoolSupervisor` — quarantines dead-worker records and respawns
  the pool **in the background** the moment a failure is reported, so
  the spawn cost overlaps the caller's retry instead of serializing
  with it.  The pool is repaired *in place* first (only the dead
  workers are re-forked; warm survivors keep their compiled-module
  caches), with a full respawn only when the survivors do not settle.
* :class:`CircuitBreaker` — per-signature consecutive-failure counts
  that step the backend down the degradation ladder
  ``mpjit → jit → vector`` (every rung is bit-identical by
  construction, so degradation is invisible except in latency) and
  probe back up one rung per cooldown.
* :class:`RetryPolicy` — bounded, deterministic exponential backoff for
  idempotent exec requests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .fastexec import FastExecError
from .pool import SyncAborted

# -- error taxonomy -----------------------------------------------------

WORKER_CRASH = "worker_crash"
SYNC_TIMEOUT = "sync_timeout"
COMPILE_ERROR = "compile_error"
CACHE_CORRUPT = "cache_corrupt"
OVERLOAD = "overload"
#: fallback for failures the taxonomy cannot name (e.g. an application
#: exception raised inside a worker's compute phase)
INTERNAL = "internal"

FAILURE_KINDS = (
    WORKER_CRASH, SYNC_TIMEOUT, COMPILE_ERROR, CACHE_CORRUPT, OVERLOAD,
    INTERNAL,
)

#: how much of a failure message travels on the wire / into records
_MESSAGE_LIMIT = 2000


@dataclass
class ExecFailure:
    """A classified execution failure (the structured face of an error)."""

    kind: str
    message: str
    retryable: bool = True
    workers: tuple = ()
    exitcodes: tuple = ()

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "retryable": self.retryable,
            "workers": list(self.workers),
            "exitcodes": list(self.exitcodes),
            "message": self.message[:_MESSAGE_LIMIT],
        }


class ExecError(FastExecError):
    """A :class:`FastExecError` carrying its classified :class:`ExecFailure`.

    Subclassing keeps every existing ``except FastExecError`` handler
    working; new code reads ``exc.failure`` for the taxonomy."""

    def __init__(self, failure: ExecFailure, message: Optional[str] = None):
        super().__init__(message or failure.message)
        self.failure = failure


def classify_failure(exc: BaseException) -> ExecFailure:
    """Map an exception from the exec path onto the failure taxonomy."""
    from ..codegen.emitpy import JitCompileError

    if isinstance(exc, ExecError):
        return exc.failure
    msg = str(exc)
    if isinstance(exc, JitCompileError):
        kind = COMPILE_ERROR
        if "signature mismatch" in msg or "stale" in msg:
            kind = CACHE_CORRUPT
        return ExecFailure(kind=kind, message=msg)
    if isinstance(exc, SyncAborted):
        return ExecFailure(kind=SYNC_TIMEOUT, message=msg)
    if "died without reporting a result" in msg:
        import re

        workers = tuple(
            int(w) for w in re.findall(r"worker (\d+) died", msg)
        )
        exitcodes = tuple(
            int(c) for c in re.findall(r"exitcode (-?\d+)", msg)
        )
        return ExecFailure(kind=WORKER_CRASH, message=msg,
                           workers=workers, exitcodes=exitcodes)
    if "JitCompileError" in msg:
        kind = COMPILE_ERROR
        if "signature mismatch" in msg or "stale" in msg:
            kind = CACHE_CORRUPT
        return ExecFailure(kind=kind, message=msg)
    if "no fused-done signal" in msg or "sync aborted" in msg:
        return ExecFailure(kind=SYNC_TIMEOUT, message=msg)
    if isinstance(exc, FastExecError):
        return ExecFailure(kind=INTERNAL, message=msg)
    return ExecFailure(kind=INTERNAL, message=msg, retryable=False)


# -- degradation ladder -------------------------------------------------

#: Backends step down left to right; every rung computes bit-identical
#: results by construction (differential-tested), so a degraded answer
#: differs only in latency.  ``vector`` needs the execution plans (a
#: warm alias hit ships only compiled modules), so callers filter rungs
#: by what their PreparedKernel can actually run.
DEGRADE_LADDER = {
    "mpjit": ("mpjit", "jit", "vector"),
    "jit": ("jit", "vector"),
    "cjit": ("cjit", "jit", "vector"),
}


def degrade_ladder(backend: str) -> tuple:
    return DEGRADE_LADDER.get(backend, (backend,))


class CircuitBreaker:
    """Per-signature backend step-down with cooldown probing.

    ``threshold`` consecutive failures at the current rung step the
    signature one rung down the ladder; after ``cooldown_seconds``
    without a step the next request probes one rung back up.  State is
    keyed by plan signature so one poisoned kernel cannot degrade its
    neighbours."""

    def __init__(self, threshold: int = 2, cooldown_seconds: float = 30.0,
                 max_signatures: int = 256):
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self.max_signatures = max_signatures
        self._lock = threading.Lock()
        # signature -> [level, consecutive_failures, last_change]
        self._state: dict = {}
        self.trips = 0

    def effective_backend(self, signature: str, requested: str):
        """``(backend, degraded)`` for this request."""
        ladder = degrade_ladder(requested)
        with self._lock:
            st = self._state.get(signature)
            if st is None:
                return requested, False
            now = time.monotonic()
            if st[0] > 0 and now - st[2] >= self.cooldown_seconds:
                st[0] -= 1  # half-open: probe one rung up
                st[2] = now
            level = min(st[0], len(ladder) - 1)
            return ladder[level], level > 0

    def record_failure(self, signature: str, requested: str) -> None:
        ladder = degrade_ladder(requested)
        with self._lock:
            st = self._state.setdefault(
                signature, [0, 0, time.monotonic()]
            )
            st[1] += 1
            if st[1] >= self.threshold and st[0] < len(ladder) - 1:
                st[0] += 1
                st[1] = 0
                st[2] = time.monotonic()
                self.trips += 1
            if len(self._state) > self.max_signatures:
                # drop the least recently changed entry
                victim = min(self._state, key=lambda s: self._state[s][2])
                del self._state[victim]

    def record_success(self, signature: str) -> None:
        with self._lock:
            st = self._state.get(signature)
            if st is not None:
                st[1] = 0
                if st[0] == 0:
                    del self._state[signature]

    def snapshot(self) -> dict:
        with self._lock:
            open_sigs = {
                sig[:16]: {"level": st[0], "failures": st[1]}
                for sig, st in sorted(self._state.items())[:32]
            }
            return {
                "threshold": self.threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "trips": self.trips,
                "open": open_sigs,
            }


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded deterministic exponential backoff for idempotent execs."""

    max_attempts: int = 3
    backoff_base: float = 0.02
    backoff_factor: float = 4.0
    backoff_cap: float = 0.5

    def delay(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based first retry)."""
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** (attempt - 1))


# -- pool supervision ---------------------------------------------------


class PoolSupervisor:
    """Quarantine dead workers and respawn the pool off the hot path.

    :func:`repro.runtime.pool.run_mpjit_module` reports every mpjit
    failure here; for a pool failure the supervisor records the casualty
    (worker id, exitcode, run, kind) and kicks a background thread that
    repairs the process-wide pool under the pool module's lock — in
    place when the survivors settle, full respawn otherwise.  The
    caller's retry (or the next request) then finds a healthy pool
    instead of paying the spawn cost synchronously.  A thread-team
    failure is only counted: its threads are parked again when the call
    returns."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self.respawns = 0       # workers re-forked
        self.recoveries = 0     # successful recovery events
        self.failures: dict = {}
        self.quarantined: deque = deque(maxlen=16)
        self.last_failure: Optional[dict] = None

    def record_failure(self, failure: ExecFailure, pool=None) -> None:
        with self._lock:
            self.failures[failure.kind] = (
                self.failures.get(failure.kind, 0) + 1
            )
            self.last_failure = {
                "kind": failure.kind,
                "workers": list(failure.workers),
                "exitcodes": list(failure.exitcodes),
            }
            if pool is not None:
                for w, proc in pool.workers.items():
                    if not proc.is_alive():
                        self.quarantined.append({
                            "worker": w,
                            "exitcode": proc.exitcode,
                            "run": pool.runs,
                            "kind": failure.kind,
                        })

    def recover_in_background(self, pool) -> None:
        """Repair the process-wide pool on a daemon thread (idempotent:
        a recovery already in flight is left to finish)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            thread = threading.Thread(
                target=self._recover, args=(pool,),
                daemon=True, name="repro-pool-supervisor",
            )
            self._thread = thread
        thread.start()

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until any in-flight recovery finishes (tests/teardown)."""
        with self._lock:
            thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def _recover(self, broken_pool) -> None:
        from . import pool as pool_mod

        with pool_mod._lock:
            # Somebody (an explicit shutdown_pool, a resize, a fixture
            # teardown) already replaced or retired this pool: recovering
            # it now would leak workers past the owner's cleanup.
            if pool_mod._pool is not broken_pool or broken_pool.closed:
                return
            try:
                replaced = broken_pool.respawn_dead()
            except FastExecError:
                replaced = None
            if replaced is not None and broken_pool.healthy():
                with self._lock:
                    self.respawns += replaced
                    self.recoveries += 1
                return
            nworkers = broken_pool.nworkers
            pool_mod.stop_pool()
            try:
                pool_mod.get_pool(nworkers, len(broken_pool.p2p.events))
            except Exception:  # pragma: no cover - spawn failed; next
                return         # get_pool will surface the real error
            with self._lock:
                self.respawns += nworkers
                self.recoveries += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "respawns": self.respawns,
                "recoveries": self.recoveries,
                "failures": dict(self.failures),
                "quarantined": list(self.quarantined),
                "last_failure": self.last_failure,
                "recovering": (
                    self._thread is not None and self._thread.is_alive()
                ),
            }


# -- process-wide singletons -------------------------------------------

_supervisor: Optional[PoolSupervisor] = None
_breaker: Optional[CircuitBreaker] = None


def default_supervisor() -> PoolSupervisor:
    global _supervisor
    if _supervisor is None:
        _supervisor = PoolSupervisor()
    return _supervisor


def default_breaker() -> CircuitBreaker:
    global _breaker
    if _breaker is None:
        _breaker = CircuitBreaker()
    return _breaker


def reset_defaults() -> None:
    """Fresh supervisor/breaker state (test isolation).  Waits out any
    in-flight recovery so a test's teardown cannot race it."""
    global _supervisor, _breaker
    if _supervisor is not None:
        _supervisor.wait(timeout=10.0)
    _supervisor = None
    _breaker = None
