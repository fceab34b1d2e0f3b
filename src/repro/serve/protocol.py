"""Wire protocol of the ``repro serve`` daemon.

One request or response per line, encoded as UTF-8 JSON — trivially
speakable from any language (``nc``, ``socat``, a five-line python
script) and safely framable without length prefixes.  Requests::

    {"op": "exec", "id": 1, "kernel": "jacobi", "n": 65, "procs": 4,
     "backend": "jit", "tenant": "team-a", "deadline_ms": 250}
    {"op": "compile", "id": 2, "kernel": "ll18", "n": 65, "procs": 4}
    {"op": "status", "id": 3}
    {"op": "drain", "id": 4}
    {"op": "ping", "id": 5}
    {"op": "health", "id": 6}
    {"op": "chaos", "id": 7, "spec": "crash@run=3,9;cache_corrupt@exec=5"}

Responses always echo the request ``id`` and carry ``ok`` plus a
``status`` discriminator::

    {"id": 1, "ok": true, "status": "ok", "result": {...}}
    {"id": 1, "ok": false, "status": "overloaded", "error": "..."}
    {"id": 1, "ok": false, "status": "draining", "error": "..."}
    {"id": 1, "ok": false, "status": "error", "error": "..."}

``overloaded`` is the admission controller shedding load (bounded
queue, or the projected wait — seeded from the auto-tuner's measured
costs — already exceeds the request deadline); clients are expected to
back off and retry.  ``draining`` means the daemon is shutting down
gracefully and accepting no new work; in-flight requests still get
their ``ok`` responses before the process exits.

An exec that fails after the server's retries additionally carries a
structured ``failure`` object (the runtime's error taxonomy —
``worker_crash`` / ``sync_timeout`` / ``compile_error`` /
``cache_corrupt`` / ``overload`` / ``invalid_input`` / ``internal``,
with ``retryable`` read from :data:`repro.runtime.supervisor.RETRYABLE`).
``invalid_input`` is a request that passes the field checks here but
cannot be run on any backend — e.g. ``jacobi`` at ``n=3`` violates
Theorem 1 — so it comes back with ``retryable: false``::

    {"id": 1, "ok": false, "status": "error", "error": "...",
     "failure": {"kind": "worker_crash", "retryable": true, ...}}

``health`` reports liveness beyond ``status``: the pool (with
``respawns``, the workers spawned to replace failed pools), the failure
records (counts by kind, the last failure, dead workers),
circuit-breaker state, and the active fault plan.  ``chaos`` installs a deterministic
fault plan at runtime (spec grammar in :mod:`repro.runtime.faults`);
an empty ``spec`` clears it.

This module is pure data — no asyncio, no kernels, no numpy — so the
client, the tests and the server all share one source of truth for
field names and validation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

PROTOCOL = "repro-serve/1"

OPS = ("compile", "exec", "status", "drain", "ping", "health", "chaos")

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_OVERLOADED = "overloaded"
STATUS_DRAINING = "draining"

DEFAULT_TENANT = "default"

#: Fields an ``exec``/``compile`` request may set to pick its
#: configuration; everything else is rejected loudly rather than
#: silently ignored (a typoed ``dedline_ms`` must not admit a request
#: that should have been shed).
CONFIG_FIELDS = ("kernel", "n", "procs", "strip", "backend", "max_workers")
REQUEST_FIELDS = frozenset(("op", "id", "tenant", "deadline_ms", "spec",
                            *CONFIG_FIELDS))


class ProtocolError(ValueError):
    """A malformed line or an invalid field; the server answers with a
    ``status: error`` response instead of dropping the connection."""


@dataclass(frozen=True)
class ExecKey:
    """The batching equivalence class of an exec/compile request.

    Two requests with equal keys run the same compiled plan with the
    same runtime options, so the batcher may coalesce them: the plan is
    prepared once and the executions run back-to-back on the shared
    pool.
    """

    kernel: str
    n: Optional[int] = None
    procs: int = 4
    strip: Optional[int] = None
    backend: str = "jit"
    max_workers: Optional[int] = None

    def describe(self) -> str:
        shape = f"n={self.n}" if self.n is not None else "n=default"
        return f"{self.kernel}[{shape}] {self.backend} P={self.procs}"


@dataclass
class Request:
    """One validated request line."""

    op: str
    id: Any
    tenant: str = DEFAULT_TENANT
    deadline_ms: Optional[float] = None
    key: Optional[ExecKey] = field(default=None)
    spec: Optional[str] = None

    @property
    def wants_execution(self) -> bool:
        return self.op in ("exec", "compile")


def _opt_int(raw: Mapping[str, Any], name: str,
             minimum: int = 1) -> Optional[int]:
    value = raw.get(name)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise ProtocolError(f"{name} must be an integer >= {minimum}, "
                            f"got {value!r}")
    return value


def parse_request(line: bytes | str) -> Request:
    """Decode and validate one request line (raises :class:`ProtocolError`).

    Field presence and types are checked here; *semantic* validation
    (does the kernel exist, is the backend registered) belongs to the
    server, which owns the registries.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from None
    try:
        raw = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ProtocolError("request must be a JSON object")
    unknown = set(raw) - REQUEST_FIELDS
    if unknown:
        raise ProtocolError(f"unknown request fields: {sorted(unknown)}")
    op = raw.get("op")
    if op not in OPS:
        raise ProtocolError(f"op must be one of {OPS}, got {op!r}")
    if "id" not in raw:
        raise ProtocolError("request needs an id (echoed in the response)")
    req_id = raw["id"]
    if not isinstance(req_id, (str, int)) or isinstance(req_id, bool):
        raise ProtocolError("id must be a string or integer")
    tenant = raw.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("tenant must be a non-empty string")
    deadline_ms = raw.get("deadline_ms")
    if deadline_ms is not None:
        # NaN fails both comparisons; Infinity and integers past the
        # float range fail the upper one (json accepts all three).
        if not isinstance(deadline_ms, (int, float)) \
                or isinstance(deadline_ms, bool) \
                or not 0 < deadline_ms <= sys.float_info.max:
            raise ProtocolError("deadline_ms must be a positive, finite "
                                "number")
        deadline_ms = float(deadline_ms)
    spec = raw.get("spec")
    if spec is not None:
        if op != "chaos":
            raise ProtocolError(f"spec is meaningless for op {op!r}")
        if not isinstance(spec, str):
            raise ProtocolError("spec must be a string (fault-plan spec; "
                                "empty clears the active plan)")
    elif op == "chaos":
        raise ProtocolError("chaos needs a spec (empty string clears "
                            "the active plan)")
    key = None
    if op in ("exec", "compile"):
        kernel = raw.get("kernel")
        if not isinstance(kernel, str) or not kernel:
            raise ProtocolError(f"{op} needs a kernel name")
        backend = raw.get("backend", "jit")
        if not isinstance(backend, str):
            raise ProtocolError("backend must be a string")
        key = ExecKey(
            kernel=kernel,
            n=_opt_int(raw, "n", minimum=3),
            procs=_opt_int(raw, "procs") or 4,
            strip=_opt_int(raw, "strip"),
            backend=backend,
            max_workers=_opt_int(raw, "max_workers"),
        )
    else:
        for name in CONFIG_FIELDS:
            if name in raw:
                raise ProtocolError(f"{name} is meaningless for op {op!r}")
    return Request(op=op, id=req_id, tenant=tenant,
                   deadline_ms=deadline_ms, key=key, spec=spec)


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON + newline."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Decode one response line into a dict (raises ProtocolError)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        raw = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ProtocolError("response must be a JSON object")
    return raw


def ok_response(req_id: Any, result: Mapping[str, Any]) -> dict:
    return {"id": req_id, "ok": True, "status": STATUS_OK,
            "result": dict(result)}


def error_response(req_id: Any, status: str, message: str,
                   **extra: Any) -> dict:
    resp = {"id": req_id, "ok": False, "status": status, "error": message}
    resp.update(extra)
    return resp
