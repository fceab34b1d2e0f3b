"""Deterministic fault injection (chaos) for the execution runtime.

A :class:`FaultPlan` describes *when* and *where* synthetic failures
fire: worker crashes, slow workers, withheld fused-done signals, and
corrupted on-disk plan-cache entries.  Plans are parsed from a compact
spec string supplied via the ``REPRO_FAULTS`` environment variable or
the ``--chaos`` flag of ``repro serve`` / ``repro loadgen``.

Spec grammar (clauses separated by ``;``)::

    clause  := KIND [ "@" key "=" value { ":" key "=" value } ]
    KIND    := crash | slow | stall | cache_corrupt

    crash@run=3,7          worker 0 exits hard on pool runs 3 and 7
    crash@run=2..20/6:worker=1
                           worker 1 exits on runs 2, 8, 14, 20
    slow@run=4:seconds=0.2 worker 0 sleeps 0.2 s before its fused phase
    stall@run=5:proc=1     processor 1's fused-done signal is withheld
                           (peers hit the sync timeout)
    stall@run=5:proc=1:seconds=0.5
                           ... delayed by 0.5 s instead of withheld
    cache_corrupt@exec=10  the 10th served exec garbles one on-disk
                           plan-cache entry (exercises quarantine)

``run`` counts pool dispatches *seen by this plan* (1-based), so a plan
installed at daemon boot indexes runs over the daemon's lifetime and a
plan installed in a test indexes runs within that test — deterministic
either way, and independent of unrelated pool traffic before install.
``exec`` counts served exec requests the same way.

Everything here is parent-side bookkeeping: the pool asks the active
plan for this run's directives and ships them to workers inside the
task tuple, so runtime-installed plans (the ``chaos`` protocol op) work
without any fork-inheritance tricks.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

from .fastexec import EnvConfigError

ENV_FAULTS = "REPRO_FAULTS"

FAULT_KINDS = ("crash", "slow", "stall", "cache_corrupt")

#: exit code used by injected worker crashes (recognizable in failures)
CHAOS_EXITCODE = 97


class FaultSpecError(EnvConfigError):
    """A chaos spec string could not be parsed (source named in message)."""


def _parse_indices(value: str, source: str, clause: str) -> frozenset:
    """Parse ``3``, ``3,7,11`` or ``2..20/6`` into a set of ints."""
    out = set()
    for part in value.split(","):
        part = part.strip()
        step = 1
        if "/" in part:
            part, _, step_s = part.partition("/")
            try:
                step = int(step_s)
            except ValueError:
                step = 0
            if step <= 0:
                raise FaultSpecError(
                    f"{source}: bad step in {clause!r} (want a positive int)"
                )
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise FaultSpecError(
                    f"{source}: bad range in {clause!r} (want N..M)"
                ) from None
            if lo < 1 or hi < lo:
                raise FaultSpecError(
                    f"{source}: bad range bounds in {clause!r}"
                )
            out.update(range(lo, hi + 1, step))
        else:
            try:
                index = int(part)
            except ValueError:
                raise FaultSpecError(
                    f"{source}: bad index {part!r} in {clause!r}"
                ) from None
            if index < 1:
                raise FaultSpecError(
                    f"{source}: indices are 1-based, got {index} in {clause!r}"
                )
            out.add(index)
    return frozenset(out)


@dataclass
class FaultClause:
    kind: str
    runs: frozenset = frozenset()
    execs: frozenset = frozenset()
    worker: int = 0
    proc: Optional[int] = None
    seconds: Optional[float] = None
    exitcode: int = CHAOS_EXITCODE
    fired: int = 0

    def directive(self) -> dict:
        """Wire form shipped to a worker inside its task tuple."""
        out = {"action": self.kind}
        if self.seconds is not None:
            out["seconds"] = self.seconds
        if self.proc is not None:
            out["proc"] = self.proc
        if self.kind == "crash":
            out["exitcode"] = self.exitcode
        return out

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "runs": sorted(self.runs),
            "execs": sorted(self.execs),
            "worker": self.worker,
            "proc": self.proc,
            "seconds": self.seconds,
            "fired": self.fired,
        }


class FaultPlan:
    """A parsed chaos spec plus its own deterministic run/exec counters."""

    def __init__(self, clauses: list, spec: str, source: str = "--chaos"):
        self.clauses = clauses
        self.spec = spec
        self.source = source
        self._lock = threading.Lock()
        self._runs_seen = 0
        self._execs_seen = 0

    @classmethod
    def parse(cls, spec: str, source: str = "--chaos") -> "FaultPlan":
        clauses = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            kind, _, rest = raw.partition("@")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise FaultSpecError(
                    f"{source}: unknown fault kind {kind!r} in {raw!r} "
                    f"(known: {', '.join(FAULT_KINDS)})"
                )
            clause = FaultClause(kind=kind)
            for pair in filter(None, rest.split(":")):
                key, eq, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not eq or not value:
                    raise FaultSpecError(
                        f"{source}: expected key=value, got {pair!r} in {raw!r}"
                    )
                if key == "run":
                    clause.runs = _parse_indices(value, source, raw)
                elif key == "exec":
                    clause.execs = _parse_indices(value, source, raw)
                elif key == "worker":
                    try:
                        clause.worker = int(value)
                    except ValueError:
                        raise FaultSpecError(
                            f"{source}: bad worker {value!r} in {raw!r}"
                        ) from None
                elif key == "proc":
                    try:
                        clause.proc = int(value)
                    except ValueError:
                        raise FaultSpecError(
                            f"{source}: bad proc {value!r} in {raw!r}"
                        ) from None
                elif key == "seconds":
                    try:
                        clause.seconds = float(value)
                    except ValueError:
                        clause.seconds = math.nan
                    if not math.isfinite(clause.seconds) \
                            or clause.seconds < 0:
                        raise FaultSpecError(
                            f"{source}: bad seconds {value!r} in {raw!r} "
                            "(want a finite number >= 0)"
                        )
                elif key == "exitcode":
                    try:
                        clause.exitcode = int(value)
                    except ValueError:
                        raise FaultSpecError(
                            f"{source}: bad exitcode {value!r} in {raw!r}"
                        ) from None
                else:
                    raise FaultSpecError(
                        f"{source}: unknown key {key!r} in {raw!r} "
                        "(known: run, exec, worker, proc, seconds, exitcode)"
                    )
            if clause.kind == "cache_corrupt":
                if not clause.execs:
                    raise FaultSpecError(
                        f"{source}: cache_corrupt needs exec=N in {raw!r}"
                    )
            elif not clause.runs:
                raise FaultSpecError(
                    f"{source}: {kind} needs run=N[,M|..M[/K]] in {raw!r}"
                )
            clauses.append(clause)
        if not clauses:
            raise FaultSpecError(f"{source}: empty fault spec")
        return cls(clauses, spec, source)

    # -- deterministic firing -------------------------------------------

    def take_worker_faults(self, nworkers: int) -> dict:
        """Advance the run counter; return {worker_id: directive} to inject."""
        out = {}
        with self._lock:
            self._runs_seen += 1
            run = self._runs_seen
            for clause in self.clauses:
                if clause.kind == "cache_corrupt" or run not in clause.runs:
                    continue
                worker = clause.worker % max(nworkers, 1)
                # first clause targeting a worker wins
                if worker not in out:
                    clause.fired += 1
                    out[worker] = clause.directive()
        return out

    def take_cache_fault(self) -> bool:
        """Advance the exec counter; True if a cache entry should be garbled."""
        with self._lock:
            self._execs_seen += 1
            count = self._execs_seen
            for clause in self.clauses:
                if clause.kind == "cache_corrupt" and count in clause.execs:
                    clause.fired += 1
                    return True
        return False

    def describe(self) -> dict:
        with self._lock:
            return {
                "spec": self.spec,
                "source": self.source,
                "runs_seen": self._runs_seen,
                "execs_seen": self._execs_seen,
                "clauses": [c.describe() for c in self.clauses],
            }


# -- process-wide active plan ------------------------------------------

_installed: Optional[FaultPlan] = None
_env_cache: tuple = ("", None)


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or clear, with None) the runtime fault plan.

    An installed plan takes precedence over ``REPRO_FAULTS``; used by
    ``repro serve --chaos`` and the ``chaos`` protocol op.
    """
    global _installed
    _installed = plan


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``REPRO_FAULTS``, else None.

    Raises :class:`FaultSpecError` (naming the variable) on a bad spec.
    """
    global _env_cache
    if _installed is not None:
        return _installed
    raw = os.environ.get(ENV_FAULTS, "").strip()
    if not raw:
        return None
    if _env_cache[0] != raw:
        _env_cache = (raw, FaultPlan.parse(raw, source=f"${ENV_FAULTS}"))
    return _env_cache[1]


def reset() -> None:
    """Clear installed plan and env-parse cache (test isolation)."""
    global _installed, _env_cache
    _installed = None
    _env_cache = ("", None)


def corrupt_cache_entry(cache) -> Optional[str]:
    """Garble one on-disk plan-cache module and drop the memory tier.

    Returns the corrupted entry's filename, or None when the cache has
    no compiled modules on disk yet.  The next warm load of that
    signature must quarantine the entry and recompile from the plan.
    """
    try:
        entries = sorted(p for p in cache.version_dir.glob("*.py"))
    except OSError:
        return None
    if not entries:
        return None
    path = entries[0]
    try:
        path.write_text("# chaos: corrupted entry\ndef run(:\n",
                        encoding="utf-8")
    except OSError:
        return None
    cache.clear_memory()
    return path.name
