"""``repro serve``: the compile-and-execute service daemon.

The execution stack built by the earlier PRs — plan → structural
signature → plan cache → jit/mpjit with point-to-point sync and a
persisted auto-tuner — is shaped like a server's hot path, but every
``repro exec`` still pays process startup and owns its worker pool.
This package puts a long-running service in front of the stack:

* :mod:`.protocol` — the newline-delimited-JSON wire protocol
  (``compile`` / ``exec`` / ``status`` / ``drain`` requests with ids,
  tenants and deadlines);
* :mod:`.admission` — the bounded request queue with per-tenant
  weighted fair dequeue, the signature-keyed batcher, and the
  measured-cost model (auto-tuner winners seed projected-wait
  estimates) behind load shedding;
* :mod:`.server` — the asyncio daemon sharing ONE plan cache and ONE
  persistent mpjit worker pool across every client, with graceful
  drain on SIGTERM;
* :mod:`.client` — a small blocking client used by the load generator,
  the tests and external tooling;
* :mod:`.loadgen` — ``repro loadgen``: a closed-loop load generator
  reporting sustained req/s and p50/p95/p99 + deadline-miss latency,
  cross-checking every checksum against direct execution.

Everything is stdlib + numpy — no new dependencies.
"""

from .admission import AdmissionController, Batch, CostModel, QueuedRequest
from .client import ServeClient
from .protocol import (
    PROTOCOL,
    ProtocolError,
    Request,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from .server import FusionServer, ServerConfig

__all__ = [
    "AdmissionController",
    "Batch",
    "CostModel",
    "FusionServer",
    "PROTOCOL",
    "ProtocolError",
    "QueuedRequest",
    "Request",
    "STATUS_DRAINING",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "ServeClient",
    "ServerConfig",
    "decode_line",
    "encode_message",
    "error_response",
    "ok_response",
    "parse_request",
]
