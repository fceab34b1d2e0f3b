"""Recovery policy: failure taxonomy, failure records, breaker, retry.

The mpjit engines detect failures promptly — dead or raising workers
surface in well under a second, and :mod:`repro.runtime.pool` kills a
pool whose run failed so the next run gets a fresh one.  This module
holds what the caller does next, and is the one place it is decided:

* :data:`RETRYABLE` — the recovery table: is a failure of each kind
  (``worker_crash`` / ``sync_timeout`` / ``compile_error`` /
  ``cache_corrupt`` / ``overload`` / ``invalid_input``, plus an
  ``internal`` fallback) retried one rung down the degradation ladder?
* :class:`ExecFailure` — a structured failure record whose
  ``retryable`` is read from that table, carried on :class:`ExecError`
  so the serve layer can answer with machine-readable failures instead
  of opaque strings.  Failures are classified where they are detected;
  :func:`classify_failure` maps the remaining exception types onto the
  taxonomy.
* :class:`PoolSupervisor` — the failure records: counts per kind, the
  last failure and a ring of dead pool workers.
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

# -- error taxonomy -----------------------------------------------------

WORKER_CRASH = "worker_crash"
SYNC_TIMEOUT = "sync_timeout"
COMPILE_ERROR = "compile_error"
CACHE_CORRUPT = "cache_corrupt"
OVERLOAD = "overload"
#: the request itself is wrong (a Theorem 1 violation, a bad strip)
INVALID_INPUT = "invalid_input"
#: fallback for failures the taxonomy cannot name (e.g. an application
#: exception raised inside a worker's compute phase)
INTERNAL = "internal"

#: The recovery table: is a failure of this kind retried one rung down
#: :data:`DEGRADE_LADDER`?  DESIGN.md §5d's taxonomy table has the same
#: rows (``tests/test_faults.py`` compares them).
RETRYABLE = {
    WORKER_CRASH: True,
    SYNC_TIMEOUT: True,
    COMPILE_ERROR: True,  # ``vector`` compiles afresh, past the cache
    CACHE_CORRUPT: True,
    OVERLOAD: True,
    INVALID_INPUT: False,  # the same input fails on every rung
    INTERNAL: True,
}

FAILURE_KINDS = tuple(RETRYABLE)

#: how much of a failure message travels on the wire / into records
_MESSAGE_LIMIT = 2000


@dataclass
class ExecFailure:
    """A classified execution failure (the structured face of an error)."""

    kind: str
    message: str
    workers: tuple = ()
    exitcodes: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in RETRYABLE:
            raise ValueError(f"unknown failure kind {self.kind!r}")

    @property
    def retryable(self) -> bool:
        return RETRYABLE[self.kind]

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
    """Map an exception from the exec path onto the failure taxonomy, by
    type: an :class:`ExecError` carries its own, a ``JitCompileError`` is
    ``compile_error`` (``cache_corrupt`` when the module is stale), a
    ``FusionLegalityError`` or ``StripError`` is ``invalid_input``, and
    anything else is ``internal``."""
    from ..codegen.emitpy import JitCompileError, StaleModuleError
    from ..core import FusionLegalityError, StripError

    if isinstance(exc, ExecError):
        return exc.failure
    if isinstance(exc, StaleModuleError):
        kind = CACHE_CORRUPT
    elif isinstance(exc, JitCompileError):
        kind = COMPILE_ERROR
    elif isinstance(exc, (FusionLegalityError, StripError)):
        kind = INVALID_INPUT
    else:
        kind = INTERNAL
    return ExecFailure(kind=kind, message=str(exc))


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


# -- failure records ----------------------------------------------------


class PoolSupervisor:
    """The record of mpjit failures, for ``repro serve``'s ``health``.

    :func:`repro.runtime.pool.run_mpjit_module` reports every failure
    here: counts per kind, the last failure, and — for a pool failure,
    before the pool is killed — each dead worker (id, exit code, run,
    kind).  Recovery itself is not its job: the failed pool is replaced
    at the next run, and a thread team's threads are parked again when
    the call returns."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
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

    def stats(self) -> dict:
        with self._lock:
            return {
                "failures": dict(self.failures),
                "quarantined": list(self.quarantined),
                "last_failure": self.last_failure,
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
    """Fresh supervisor/breaker state (test isolation)."""
    global _supervisor, _breaker
    _supervisor = None
    _breaker = None
