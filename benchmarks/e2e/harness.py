"""Shared pieces of the e2e benchmark: the product's entry points, statistics,
the box's speed probe, spans, reference checksums, per-run sandbox (cache dir,
socket, hygiene), the reaping of every process a run started, and provenance.
Nothing here knows a workload.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: The paper's three kernels plus its Fig. 15 example (see README).
KERNELS = ("jacobi", "ll18", "calc", "filter")
BACKENDS = ("jit", "cjit", "mpjit")
PROCS = 4
DATA_SEED = 7
#: mpjit is pinned to two workers: the pool really runs (one worker bypasses
#: it) and the count does not follow the core count of the box.
WORKERS = 2
SMALL = {k: 65 for k in KERNELS}


class BenchError(RuntimeError):
    """The benchmark cannot measure what it claims to (named reason)."""


def import_product() -> float:
    """Put ``src/`` on the path and import the entry points; returns the
    seconds that took (part of every ``setup_s``)."""
    if not (SRC / "repro").is_dir():
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in ("prepare_kernel", "execute_prepared", "execute_resilient"):
        entry(name)
    import repro.runtime.pool  # noqa: F401 - the other half of the hot path
    return time.perf_counter() - t0


@functools.cache  # a failed import searches the whole path every time
def entry(name: str):
    """A stable entry point, wherever ROADMAP item 2d has moved it."""
    for module in ("repro.runtime.execute", "repro.runtime.benchmarking"):
        try:
            return getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            continue
    raise BenchError(f"entry point {name} not found")


@functools.cache
def probe(path: str):
    """``module:attr`` of a layer's public function, or None when a later
    PR removed it: the metric then reads null and the run goes on."""
    module, _, attr = path.partition(":")
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


# -- statistics --------------------------------------------------------------


def pct(values, q: float) -> float:
    """The q-quantile (0..1) with linear interpolation."""
    data = sorted(values)
    if not data:
        raise BenchError("percentile of no samples")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ms(seconds: float) -> float:
    return seconds * 1e3


#: What ``Speed``'s probe takes on the reference box in a quiet hour; bounded
#: times are reported as at this speed.
REFERENCE_PROBE_MS = 5.0


class Speed:
    """How fast the box is while a run measures: a fixed numpy + Python probe
    of ~5 ms between ops, at most every 0.1 s.

    The reference box is a few vCPUs of a shared host whose speed shifts by
    10-40 % for minutes at a time; the probe shifts with it (README:
    steadiness), so a time multiplied by ``factor`` reads as at the
    reference speed whatever the host was doing.
    """

    def __init__(self) -> None:
        import numpy as np

        self.base = np.arange(200_000, dtype=np.float64)
        self.np = np
        self.times: list[float] = []
        self.last = 0.0

    def tick(self, n: int = 1) -> None:
        """Between two ops: ``n`` probes, unless the last were just now."""
        if time.perf_counter() - self.last < 0.1:
            return
        for _ in range(n):
            t0 = time.perf_counter()
            a = self.base
            for _ in range(4):
                a = self.np.sqrt(a * a + 1.0)
            sum(i * i for i in range(20_000))
            self.times.append(time.perf_counter() - t0)
        self.last = time.perf_counter()

    def factor(self, q: float) -> float:
        """Reference speed over this run's: ``q`` is 0.1 for a metric made of
        the fastest ops (the probe's own minimum is one sample) and 0.5 for
        one made of medians."""
        return REFERENCE_PROBE_MS / ms(pct(self.times, q))

    def at_reference(self, measured: dict, q: float) -> dict:
        """The bounded metrics of a run: times at the reference speed
        (``setup_s`` is a median of set-ups), memory as measured."""
        return {name: value if name == "peak_rss_mb"
                else value * self.factor(0.5 if name == "setup_s" else q)
                for name, value in measured.items()}

    def summary(self) -> dict:
        return {"probes": len(self.times),
                "p10_ms": ms(pct(self.times, 0.1)),
                "median_ms": ms(median(self.times)),
                "reference_ms": REFERENCE_PROBE_MS}


# -- spans -------------------------------------------------------------------


class Trace:
    """Spans kept in memory: (name, start, end, parent index, op id).

    All spans of one op share the op id; a layer's self time is its span
    minus the part its children cover.  ``Trace(on=False)`` records
    nothing, so the untraced run pays one attribute test per span.
    """

    def __init__(self, on: bool = True) -> None:
        self.on = on
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def next_op(self) -> None:
        self.op += 1

    @contextlib.contextmanager
    def span(self, name: str, out: list | None = None):
        """Time the block; append the seconds to ``out`` when given."""
        index = len(self.spans)
        if self.on:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent, self.op])
            self._stack.append(index)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if self.on:
                self._stack.pop()
                self.spans[index][1:3] = (t0, t1)
            if out is not None:
                out.append(t1 - t0)

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        """A span whose ends were observed, not timed by a ``with``; returns
        its index, which a child passes as ``parent``."""
        if self.on:
            if parent is None and self._stack:
                parent = self._stack[-1]
            self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _p, _op), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + ms(end - start - child)
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps({
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "self_ms": self.self_ms(),
        }))


# -- op accounting -----------------------------------------------------------


class Tally:
    """Attempted and failed ops of one run, with a named reason each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def note(self, reason: str | None) -> None:
        self.fail(reason) if reason else self.ok()


# -- reference checksums -----------------------------------------------------

EXPECTED_PATH = HERE / "expected.json"


def expected_key(kernel: str, n: int) -> str:
    """``kernel|shape|procs|data seed`` with the shape as the product prints
    it (``n=65``; ``m=65,n=65`` for filter)."""
    info = probe("repro.kernels:get_kernel")(kernel)
    params = entry("resolve_params")(info, info.program(), n=n)
    shape = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{kernel}|{shape}|procs={PROCS}|seed={DATA_SEED}"


def interp_checksum(kernel: str, n: int) -> str:
    """The checksum by the independent interpreter, never a backend under
    test."""
    prep = entry("prepare_kernel")(kernel, n=n, procs=PROCS, seed=DATA_SEED,
                                   backend="interp")
    return entry("execute_prepared")(prep, "interp")[2]


def load_expected(shapes: dict[str, int]) -> dict[str, str]:
    """kernel -> checksum for ``shapes``; the n=65 entries are re-derived
    live from ``interp`` and must agree with the file."""
    table = json.loads(EXPECTED_PATH.read_text())
    want = {}
    for kernel, n in shapes.items():
        key = expected_key(kernel, n)
        if key not in table:
            raise BenchError(f"expected.json has no entry {key}; run "
                             f"run.py --regen-expected")
        want[kernel] = table[key]
        if n == 65 and interp_checksum(kernel, n) != table[key]:
            raise BenchError(f"expected.json disagrees with interp on {key}")
    return want


# -- per-run sandbox ---------------------------------------------------------


def shm_segments() -> set[str]:
    """The ``multiprocessing.shared_memory`` segments that exist now."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def hwm_mb(pid: int | str) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    raise BenchError(f"cannot read the peak RSS of pid {pid} from /proc")


def children_of(pid: int) -> list[int]:
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


def peak_rss_mb(daemon_pid: int | None = None) -> float:
    """Harness + its live pool workers (+ the daemon and its workers)."""
    pids: list = ["self"] + [p.pid for p in multiprocessing.active_children()]
    if daemon_pid is not None:
        pids += [daemon_pid] + children_of(daemon_pid)
    return sum(hwm_mb(pid) for pid in pids)


class Sandbox:
    """Where one invocation keeps everything it writes: ``out/<run_id>/``
    holds the results, ``out/<run_id>/tmp/`` every cache dir and socket (and
    the C compiler's temp files).  Never ``~/.cache/repro/jit``."""

    def __init__(self, run_id: str) -> None:
        self.dir = HERE / "out" / run_id
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir(parents=True)
        self._count = 0
        self._shm_before = shm_segments()
        os.environ["TMPDIR"] = str(self.tmp)

    def fresh(self, stem: str) -> Path:
        """A path under tmp/ that no earlier call returned."""
        self._count += 1
        return self.tmp / f"{stem}{self._count}"

    def fresh_cache(self) -> Path:
        """Point the product at a new empty plan cache."""
        path = self.fresh("jit")
        path.mkdir()
        use_cache(path)
        return path

    def check_clean(self, tally: Tally) -> None:
        """Stop the pool, empty tmp/, and count what a workload left behind
        as a failed op."""
        probe("repro.runtime.pool:shutdown_pool")()
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir()
        if multiprocessing.active_children():
            tally.fail("hygiene: live child processes")
        if shm_segments() - self._shm_before:
            tally.fail("hygiene: leftover /dev/shm segments")


def use_cache(path: Path) -> None:
    """What a new process with this cache dir sees: nothing in memory."""
    os.environ["REPRO_JIT_CACHE_DIR"] = str(path)
    probe("repro.runtime.plancache:reset_default_cache")()


def pool_reason(runs_before: int) -> str | None:
    """Why an mpjit op did not really run on the pool, if so."""
    stats = probe("repro.runtime.pool:pool_stats")()
    if stats["nworkers"] < WORKERS:
        return "mpjit: pool bypassed"
    if stats["runs"] <= runs_before:
        return "mpjit: no pool run"
    return None


def pool_runs() -> int:
    return probe("repro.runtime.pool:pool_stats")()["runs"]


# -- no process outlives the run ---------------------------------------------


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``).  A grandchild whose parent exits first — the
    daemon's resource tracker and, after a kill, its pool workers — then
    becomes a child of this process, not of init, and ``reap_all`` can wait
    for it.  SIGTERM becomes an exit, so that ``finally`` blocks run."""
    import ctypes

    if ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) != 0:
        raise BenchError("prctl(PR_SET_CHILD_SUBREAPER) failed: cannot "
                         "promise to leave no process behind")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def reap_all(grace: float = 5.0) -> int:
    """Stop the pool and multiprocessing's resource tracker (it serves the
    pool's shared memory, ignores SIGTERM and would outlive this process by
    some milliseconds), then wait until this process has no child left.
    Returns how many had to be killed because they did not end by themselves
    within ``grace`` seconds."""
    from multiprocessing import resource_tracker

    if "repro.runtime.pool" in sys.modules:  # never import it just for this
        probe("repro.runtime.pool:shutdown_pool")()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes its pipe: it cleans up, exits and is waited for
    killed: set[int] = set()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in children_of(os.getpid()):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
                killed.add(child)
        time.sleep(0.005)


# -- a box that stays awake --------------------------------------------------

_SPINNER = """
import os
try:
    os.sched_setaffinity(0, {{{cpu}}})
except (AttributeError, OSError):
    pass
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while os.getppid() == {parent}:  # an orphan stops by itself
    for _ in range(1_000_000):
        pass
"""


class KeepAwake:
    """One idle-priority spinner per CPU while a run measures.

    On a virtual machine an idle vCPU is descheduled by the host, and what
    it costs to wake it follows the host's load: on the reference box that
    alone moved medians by 20-40 % between minutes (README).  The spinners
    run only when nothing else wants the CPU, so they take no time from the
    program; they keep every wake-up a plain context switch.
    """

    def __enter__(self) -> "KeepAwake":
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:
            cpus = range(os.cpu_count() or 1)
        self.procs = [
            subprocess.Popen([sys.executable, "-c", _SPINNER.format(
                cpu=cpu, parent=os.getpid())])
            for cpu in cpus]
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


# -- provenance --------------------------------------------------------------


def provenance(**extra) -> dict:
    import numpy

    emitc = probe("repro.codegen.emitc:compiler_fingerprint")
    find = probe("repro.codegen.emitc:find_compiler")
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "worker_cap": WORKERS,
        "procs": PROCS,
        "data_seed": DATA_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "compiler": find() if find else None,
        "compiler_fingerprint": emitc() if emitc else None,
        **extra,
    }
