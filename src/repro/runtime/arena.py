"""The execution arena: one shared-memory segment that every run's arrays
live in.

:func:`repro.runtime.execute.execute_prepared` fills a kernel's inputs in
place inside the process-wide arena, runs the jit/cjit module over views
of it, and hashes the same views; ``mpjit`` hands the pool the views'
``(segment, offset, shape, dtype)`` specs, and each pool worker maps the
segment once (:class:`Attachment`) and keeps the mapping until the specs
name another segment.  No run allocates, exports or copies back.

Layout (the paper's Fig. 19 concern, *gaps between arrays*): array ``i``
starts on a page boundary plus ``(i mod 16) x 5`` cache lines, so no two
of sixteen consecutive arrays share a 4 KiB set offset — equal-sized
power-of-two arrays (ll18's nine 512 x 512 doubles at n=511) would
otherwise all start at the same offset and compete for the same sets.

Inputs: :func:`fill_seeded` draws a layout's seeded inputs straight into
its views.  Above ``2 * MIN_PART`` elements it splits the draw across the
usable CPUs, so each core writes the part of the inputs it alone owns:
contiguous parts of the concatenated stream, each drawn from its own
``PCG64(seed)`` advanced to the part's first element.  The bits do not
depend on the part count.  The PCG64 loop and ``+= 1.0`` release the GIL,
so the caller and the fill helpers (persistent ``repro-fill`` threads)
really draw at once.

Lifecycle: the segment grows to the largest request seen so far and never
shrinks (growing is a new segment); a run that raises retires it (close +
unlink, so a stalled or zombie worker can only ever write into memory no
later run uses); :func:`retire_shared` retires it on pool shutdown and at
interpreter exit.  Retiring never unmaps memory a call still holds: a busy
arena is retired by its holder on release, and a mapping whose views are
still referenced is unmapped by the last of them.  A second thread that
finds the arena busy gets a private :class:`Arena`, retired after its call.
"""

from __future__ import annotations

import atexit
import mmap
import os
import secrets
import threading
from contextlib import contextmanager
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import _posixshmem
import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

PAGE = 4096
LINE = 64
#: Array ``i`` is staggered by ``(i % STAGGER_PERIOD) * STAGGER_LINES``
#: cache lines past its page boundary.
STAGGER_LINES = 5
STAGGER_PERIOD = 16
#: Layouts (views) kept per segment before the cache starts over.
MAX_LAYOUTS = 64

#: Fewest elements one part of a parallel fill draws: a layout below
#: ``2 * MIN_PART`` elements in all is filled by one serial loop.  Above
#: every n=65 layout the benchmark runs (filter's 52 272 is the largest);
#: two parts beat one from about 64 K elements on a 2-vCPU box.
MIN_PART = 1 << 16

#: ``((name, shape, dtype), ...)`` in declaration order: what a run needs.
Layout = tuple[tuple[str, tuple[int, ...], str], ...]

_helpers: ThreadPoolExecutor | None = None
_helpers_lock = threading.Lock()


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    exposes one (``taskset``, cgroup cpusets), else the machine's core
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fill_seeded(arrays: Iterable[np.ndarray], seed: int) -> None:
    """The seeded inputs, in place: ``rng.random(shape) + 1.0`` drawn in
    iteration order, bit for bit, without a temporary.

    The arrays' concatenated stream is drawn in ``min(available_cpus(),
    total // MIN_PART)`` contiguous parts, or in one below ``2 * MIN_PART``
    elements.  Each part has its own ``Generator(PCG64(seed))``, advanced
    with ``advance(start)`` past the ``start`` elements before the part.
    ``random`` takes exactly one 64-bit draw per double, so a part that
    starts inside an array, or spans array boundaries, draws what the
    serial loop draws there.  The caller's thread draws the first part and
    the fill helpers the rest; the call returns, or raises, only once
    every part has finished."""
    arrays = list(arrays)
    parts = sum(arr.size for arr in arrays) // MIN_PART
    _fill_parts(arrays, seed, min(parts, available_cpus()) if parts > 1 else 1)


def _fill_parts(arrays: Sequence[np.ndarray], seed: int, parts: int) -> None:
    """:func:`fill_seeded` in exactly ``parts`` parts: part ``k`` draws
    elements ``[total*k//parts, total*(k+1)//parts)`` of the stream."""
    if parts <= 1:
        _fill_part(seed, 0, arrays)
        return
    from concurrent.futures import wait

    # views in memory order: ``random(out=)`` only takes contiguous arrays
    flat = [np.ravel(arr, order="K") for arr in arrays]
    total = sum(f.size for f in flat)
    bounds = [total * k // parts for k in range(parts + 1)]
    jobs = []
    for lo, hi in zip(bounds, bounds[1:]):
        segments, start = [], 0
        for f in flat:
            end = start + f.size
            if start < hi and lo < end:
                segments.append(f[max(lo, start) - start:min(hi, end) - start])
            start = end
        jobs.append((lo, segments))
    helpers = _fill_helpers()
    futures = [helpers.submit(_fill_part, seed, lo, segments)
               for lo, segments in jobs[1:]]
    try:
        _fill_part(seed, *jobs[0])
    finally:
        wait(futures)  # no part outlives the call, not even after a raise
    for future in futures:
        future.result()


def _fill_part(seed: int, start: int, arrays: Iterable[np.ndarray]) -> None:
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.bit_generator.advance(start)
    for arr in arrays:
        rng.random(out=arr)
        arr += 1.0


def _fill_helpers() -> ThreadPoolExecutor:
    """The process's fill helpers, one thread per usable CPU but the
    caller's, created on first use (so is the import: no small fill
    pays for it)."""
    global _helpers
    from concurrent.futures import ThreadPoolExecutor

    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(max(1, available_cpus() - 1),
                                          thread_name_prefix="repro-fill")
        return _helpers


def layout_offsets(nbytes: Sequence[int]) -> tuple[list[int], int]:
    """Start offset of each array and the end of the last one."""
    offsets: list[int] = []
    end = 0
    for i, size in enumerate(nbytes):
        start = (-(-end // PAGE) * PAGE
                 + (i % STAGGER_PERIOD) * STAGGER_LINES * LINE)
        offsets.append(start)
        end = start + size
    return offsets, end


def _carve(buf, entries) -> dict[str, np.ndarray]:
    return {name: np.ndarray(shape, dtype, buffer=buf, offset=offset)
            for name, offset, shape, dtype in entries}


def attach(segment: str) -> mmap.mmap:
    """Map ``segment`` read-write without registering it with any
    resource tracker: a pool worker's tracker would report the parent's
    segment as leaked and unlink it when the worker exits."""
    fd = _posixshmem.shm_open(segment, os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _create(size: int) -> tuple[str, mmap.mmap]:
    while True:
        segment = f"/psm_{secrets.token_hex(4)}"
        try:
            fd = _posixshmem.shm_open(
                segment, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
        except FileExistsError:
            continue
        break
    try:
        os.ftruncate(fd, size)
        buf = mmap.mmap(fd, size)
    except OSError:
        _posixshmem.shm_unlink(segment)
        raise
    finally:
        os.close(fd)
    # the parent's tracker unlinks the segment should this process die
    resource_tracker.register(segment, "shared_memory")
    return segment, buf


class Arena:
    """One owned shared-memory segment and the layouts carved from it."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.segment: str | None = None
        self.retire_pending = False
        self._buf: mmap.mmap | None = None
        self._layouts: dict = {}

    def layout(self, arrays: Layout) -> tuple[dict[str, np.ndarray], tuple]:
        """``(views, specs)`` for ``arrays``; computed once per layout and
        segment, growing the segment when it is too small."""
        got = self._layouts.get(arrays)
        if got is None:
            offsets, end = layout_offsets(
                [np.dtype(dtype).itemsize * int(np.prod(shape))
                 for _, shape, dtype in arrays])
            if self._buf is None or len(self._buf) < end:
                self.retire()
                self.segment, self._buf = _create(-(-max(end, 1) // PAGE)
                                                  * PAGE)
            if len(self._layouts) >= MAX_LAYOUTS:
                self._layouts.clear()
            entries = tuple((name, offset, shape, dtype) for
                            (name, shape, dtype), offset in zip(arrays, offsets))
            got = self._layouts[arrays] = (_carve(self._buf, entries),
                                           (self.segment, entries))
        return got

    def retire(self) -> None:
        """Unlink the segment and unmap it once no view holds it; the
        next :meth:`layout` creates a new one."""
        self.retire_pending = False
        self._layouts.clear()
        segment, buf = self.segment, self._buf
        self.segment = self._buf = None
        if segment is not None:
            try:
                _posixshmem.shm_unlink(segment)
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            resource_tracker.unregister(segment, "shared_memory")
        if buf is not None:
            try:
                buf.close()
            except BufferError:
                pass  # a view outlives the call (a traceback): it unmaps


class Attachment:
    """A pool worker's mapping of the parent's arena, kept until the specs
    it is handed name another segment."""

    def __init__(self) -> None:
        self.segment: str | None = None
        self._buf: mmap.mmap | None = None
        self._views: dict = {}

    def views(self, specs: tuple) -> dict[str, np.ndarray]:
        segment, entries = specs
        if segment != self.segment:
            self.segment, self._views = None, {}
            self._buf = attach(segment)  # the old one unmaps with its views
            self.segment = segment
        views = self._views.get(entries)
        if views is None:
            if len(self._views) >= MAX_LAYOUTS:
                self._views.clear()
            views = self._views[entries] = _carve(self._buf, entries)
        return views


_shared = Arena()


@contextmanager
def borrow() -> Iterator[Arena]:
    """The process-wide arena for one call — or, while another thread
    holds it, a private arena retired when the call ends.  A call that
    raises retires the arena it used."""
    arena = _shared
    shared = arena.lock.acquire(blocking=False)
    if not shared:
        arena = Arena()
    try:
        if arena.retire_pending:
            arena.retire()
        yield arena
    except BaseException:
        arena.retire()
        raise
    finally:
        if shared:
            arena.lock.release()
            if arena.retire_pending:
                retire_shared()
        else:
            arena.retire()


def retire_shared() -> None:
    """Retire the process-wide arena now, or — while a call holds it —
    when that call releases it."""
    arena = _shared
    arena.retire_pending = True
    if arena.lock.acquire(blocking=False):
        try:
            arena.retire()
        finally:
            arena.lock.release()


def _forget_in_child() -> None:
    # A forked child never owns (or unlinks) its parent's segment, and
    # has none of its parent's fill helpers (only the forking thread).
    global _shared, _helpers, _helpers_lock
    _shared = Arena()
    _helpers, _helpers_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_in_child)
atexit.register(retire_shared)
