"""Admission control for the service daemon: bounded queueing, weighted
fair scheduling across tenants, signature-keyed batching and
measured-cost load shedding.

The controller is deliberately synchronous and asyncio-free — plain
data structures driven from the server's event loop (single-threaded,
so no locking) and unit-testable without sockets.

**Fairness** is stride scheduling: every tenant carries a virtual
``pass``; dequeuing always picks the backlogged tenant with the lowest
pass and advances it by ``1/weight`` per request served.  A tenant with
weight 2 therefore drains twice as fast as a weight-1 tenant under
contention, and an idle tenant re-enters at the current virtual time
instead of burning saved-up credit.

**Batching** is keyed by the execution signature (the structural plan
signature plus runtime options): dequeuing one request also pulls every
other queued request with the same signature — across tenants, each
charged to its own tenant's pass — so the plan is prepared once and the
executions run back-to-back on the warm pool.

**Load shedding** keeps latency bounded instead of queues unbounded: a
request is refused with ``overloaded`` when the queue is full, or when
its ``deadline_ms`` is provably hopeless — the projected wait (cost of
everything queued plus the in-flight batch, estimated from the online
EWMA of observed executions seeded by the auto-tuner's persisted
measured winners) already exceeds the deadline.  A *cold* signature has
no estimate and contributes zero projected wait: with no measurement
there is no evidence to shed on, so cold traffic is admitted.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from .protocol import ExecKey, Request

#: EWMA smoothing for observed execution costs: heavy enough that one
#: scheduler hiccup cannot triple the estimate, light enough that a
#: real shift shows up within a few batches.
EWMA_ALPHA = 0.3


class CostModel:
    """Per-signature execution-cost estimates (seconds).

    Two sources, in order of trust: the **online EWMA** of executions
    this daemon has actually run, and — before the first observation —
    the **auto-tuner's persisted winner** for the same (kernel IR,
    shape, procs, machine), whose ``seconds`` field is a real
    measurement from :func:`repro.runtime.autotune.resolve_config`.
    A signature with neither returns ``None``: unknown, not free.
    """

    def __init__(self, tuner=None) -> None:
        self._tuner = tuner
        self._ewma: dict[str, float] = {}
        self._tuner_cost: dict[str, Optional[float]] = {}

    def observe(self, signature: str, seconds: float) -> None:
        prev = self._ewma.get(signature)
        if prev is None:
            self._ewma[signature] = seconds
        else:
            self._ewma[signature] = (EWMA_ALPHA * seconds
                                     + (1.0 - EWMA_ALPHA) * prev)

    def _tuner_estimate(self, signature: str,
                        key: Optional[ExecKey]) -> Optional[float]:
        if signature in self._tuner_cost:
            return self._tuner_cost[signature]
        seconds: Optional[float] = None
        if self._tuner is not None and key is not None:
            try:
                from ..kernels import get_kernel
                from ..runtime.autotune import tuning_key
                from ..runtime.execute import resolve_params

                info = get_kernel(key.kernel)
                program = info.program()
                params = resolve_params(info, program, n=key.n)
                payload = self._tuner.lookup(
                    tuning_key(program, params, key.procs))
                if payload is not None:
                    raw = payload["winner"].get("seconds")
                    if isinstance(raw, (int, float)) and raw > 0:
                        seconds = float(raw)
            except (KeyError, TypeError, ValueError):
                seconds = None
        self._tuner_cost[signature] = seconds
        return seconds

    def estimate(self, signature: str,
                 key: Optional[ExecKey] = None) -> Optional[float]:
        """Best cost estimate for one execution, or None when cold."""
        hit = self._ewma.get(signature)
        if hit is not None:
            return hit
        return self._tuner_estimate(signature, key)

    def snapshot(self) -> dict:
        return {"ewma_signatures": len(self._ewma),
                "tuner_seeded": sum(1 for v in self._tuner_cost.values()
                                    if v is not None)}


@dataclass
class QueuedRequest:
    """One admitted request waiting for (or riding in) a batch.

    ``ticket`` is an opaque slot for the caller — the server parks the
    asyncio future that resolves the client response here; the
    controller never touches it.
    """

    request: Request
    signature: str
    enqueued: float = field(default_factory=time.monotonic)
    ticket: Any = None

    @property
    def key(self) -> ExecKey:
        return self.request.key


@dataclass
class Batch:
    """Identical-signature requests executed back-to-back."""

    signature: str
    requests: list[QueuedRequest]

    @property
    def key(self) -> ExecKey:
        return self.requests[0].key

    def __len__(self) -> int:
        return len(self.requests)


class AdmissionController:
    """Bounded per-tenant queues with weighted fair, batch-coalescing
    dequeue and measured-cost load shedding."""

    def __init__(
        self,
        max_queue: int = 64,
        max_batch: int = 16,
        weights: Optional[Mapping[str, float]] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.cost_model = cost_model or CostModel()
        self._weights = {tenant: float(w)
                         for tenant, w in (weights or {}).items()}
        for tenant, w in self._weights.items():
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weight of tenant {tenant!r} must be "
                                 f"positive and finite, got {w!r}")
        # OrderedDict so equal-pass ties break round-robin, not by name.
        self._queues: OrderedDict[str, deque[QueuedRequest]] = OrderedDict()
        self._pass: dict[str, float] = {}
        self._vtime = 0.0
        self.depth = 0
        self.inflight_cost = 0.0
        self.inflight = 0
        self.stats = {
            "admitted": 0, "shed_queue_full": 0, "shed_deadline": 0,
            "batches": 0, "batched_requests": 0, "max_batch_size": 0,
        }
        self._tenant_stats: dict[str, dict[str, int]] = {}

    # -- bookkeeping -------------------------------------------------------

    def weight(self, tenant: str) -> float:
        return max(self._weights.get(tenant, 1.0), 1e-6)

    def _tenant(self, tenant: str) -> dict[str, int]:
        return self._tenant_stats.setdefault(
            tenant, {"admitted": 0, "served": 0, "shed": 0})

    def queued_cost(self) -> float:
        """Estimated seconds of work sitting in the queues (cold
        signatures count zero — no measurement, no projection)."""
        total = 0.0
        for queue in self._queues.values():
            for qreq in queue:
                est = self.cost_model.estimate(qreq.signature, qreq.key)
                if est is not None:
                    total += est
        return total

    def projected_wait_seconds(self) -> float:
        """What a newly admitted request is expected to wait before it
        starts executing: everything queued plus the in-flight batch."""
        return self.queued_cost() + self.inflight_cost

    # -- admission ---------------------------------------------------------

    def try_admit(self, qreq: QueuedRequest) -> tuple[bool, str]:
        """Admit or shed one request; returns ``(admitted, reason)``.

        Shedding reasons are wire-visible so clients can distinguish a
        full queue (back off) from a hopeless deadline (raise it or ask
        for a cheaper config).
        """
        tenant = qreq.request.tenant
        if self.depth >= self.max_queue:
            self.stats["shed_queue_full"] += 1
            self._tenant(tenant)["shed"] += 1
            return False, (f"queue full ({self.depth}/{self.max_queue} "
                           f"requests queued)")
        deadline_ms = qreq.request.deadline_ms
        if deadline_ms is not None:
            wait_ms = self.projected_wait_seconds() * 1000.0
            if wait_ms > deadline_ms:
                self.stats["shed_deadline"] += 1
                self._tenant(tenant)["shed"] += 1
                return False, (f"projected wait {wait_ms:.1f} ms exceeds "
                               f"deadline {deadline_ms:.1f} ms")
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue:
            # An idle tenant re-enters at the current virtual time; it
            # must not cash in credit saved while it sent nothing.
            self._pass[tenant] = max(self._pass.get(tenant, 0.0),
                                     self._vtime)
        queue.append(qreq)
        self.depth += 1
        self.stats["admitted"] += 1
        self._tenant(tenant)["admitted"] += 1
        return True, "admitted"

    # -- dequeue + batching ------------------------------------------------

    def _charge(self, tenant: str, count: int = 1) -> None:
        self._pass[tenant] = (self._pass.get(tenant, self._vtime)
                              + count / self.weight(tenant))
        self._tenant(tenant)["served"] += count

    def next_batch(self) -> Optional[Batch]:
        """The next identical-signature batch, fairness first.

        The head request comes from the lowest-pass backlogged tenant
        (stride scheduling); everything else queued with the same
        signature coalesces into the batch — riders are charged to
        their own tenants, so batching never distorts fairness
        accounting.
        """
        head_tenant = None
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            if head_tenant is None \
                    or self._pass[tenant] < self._pass[head_tenant]:
                head_tenant = tenant
        if head_tenant is None:
            return None
        self._vtime = self._pass[head_tenant]
        head = self._queues[head_tenant].popleft()
        self._charge(head_tenant)
        self.depth -= 1
        members = [head]
        for tenant, queue in self._queues.items():
            if len(members) >= self.max_batch:
                break
            taken = 0
            kept: deque[QueuedRequest] = deque()
            while queue:
                qreq = queue.popleft()
                if (qreq.signature == head.signature
                        and len(members) < self.max_batch):
                    members.append(qreq)
                    taken += 1
                else:
                    kept.append(qreq)
            queue.extend(kept)
            if taken:
                self._charge(tenant, taken)
                self.depth -= taken
        self.stats["batches"] += 1
        self.stats["batched_requests"] += len(members) - 1
        self.stats["max_batch_size"] = max(self.stats["max_batch_size"],
                                           len(members))
        return Batch(signature=head.signature, requests=members)

    # -- in-flight accounting ---------------------------------------------

    def mark_inflight(self, batch: Batch) -> None:
        est = self.cost_model.estimate(batch.signature, batch.key)
        self.inflight_cost = (est or 0.0) * len(batch)
        self.inflight = len(batch)

    def mark_done(self, batch: Batch) -> None:
        self.inflight_cost = 0.0
        self.inflight = 0

    # -- observability -----------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "depth": self.depth,
            "max_queue": self.max_queue,
            "max_batch": self.max_batch,
            "inflight": self.inflight,
            "projected_wait_ms": round(
                self.projected_wait_seconds() * 1000.0, 3),
            "tenants": {
                tenant: dict(stats, queued=len(self._queues.get(tenant, ())),
                             weight=self.weight(tenant))
                for tenant, stats in sorted(self._tenant_stats.items())
            },
            "cost_model": self.cost_model.snapshot(),
            **self.stats,
        }
