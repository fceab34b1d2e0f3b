"""The execution arena: layout, lifecycle and every module backend over it.

Every test that runs the pool is under ``test_mp_failures``' ``leak_check``
(no worker and no ``/dev/shm`` segment may outlive it), and every checksum
is compared with the interpreter's.
"""

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from test_mp_failures import _fresh_pool, leak_check, needs_fork  # noqa: F401

from repro.codegen import emitc
from repro.kernels import all_kernels, get_kernel
from repro.runtime import arena, faults
from repro.runtime.backend import checksum
from repro.runtime.execute import (
    PreparedKernel,
    execute_prepared,
    execute_resilient,
    prepare_kernel,
    resolve_params,
)
from repro.runtime.pool import ENV_SYNC_TIMEOUT, pool_stats, shutdown_pool
from repro.runtime.supervisor import (
    CircuitBreaker,
    ExecError,
    RetryPolicy,
)

HAVE_CC = emitc.find_compiler() is not None
SRC = str(Path(__file__).resolve().parent.parent / "src")
#: The benchmark's kernels at the smallest size every one is legal at.
SIZES = {"jacobi": 21, "ll18": 21, "calc": 21, "filter": 21}
BACKENDS = ["jit", pytest.param("cjit", marks=pytest.mark.skipif(
    not HAVE_CC, reason="no C compiler on PATH")), "mpjit"]


def _interp(kernel, n, procs):
    prep = prepare_kernel(kernel, n=n, procs=procs, backend="interp")
    return execute_prepared(prep, "interp")[2]


def _segments():
    return {p.name for p in Path("/dev/shm").iterdir()}


@needs_fork
@pytest.mark.parametrize("procs", [1, 2, 4])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", sorted(SIZES))
def test_every_module_backend_matches_interp(kernel, backend, procs,
                                             leak_check):
    n = SIZES[kernel]
    prep = prepare_kernel(kernel, n=n, procs=procs, backend=backend)
    want = _interp(kernel, n, procs)
    for _ in range(2):  # the second run reuses the layout and the mapping
        assert execute_prepared(prep, backend, max_workers=2)[2] == want


class TestLayout:
    def test_sixteen_arrays_start_at_distinct_set_offsets(self):
        """Equal 2 MiB arrays (ll18 at n=511) must not all start at the
        same set offset: each starts on its own page boundary plus a
        stagger that differs for every one of sixteen arrays."""
        two_mib = 2 << 20
        offsets, end = arena.layout_offsets([two_mib] * 16)
        assert len({o % arena.PAGE for o in offsets}) == 16
        for prev, start in zip(offsets, offsets[1:]):
            assert start >= prev + two_mib
            assert start - (start % arena.PAGE) >= prev + two_mib
        assert end == offsets[-1] + two_mib
        # array 1 ends 320 B past a page, so array 2 starts a page later
        assert offsets[:3] == [0, two_mib + 320,
                               2 * two_mib + arena.PAGE + 640]
        # the seventeenth array wraps around to the first one's offset
        assert arena.layout_offsets([8] * 17)[0][16] % arena.PAGE == 0

    def test_views_live_at_the_layout_offsets(self):
        space = arena.Arena()
        try:
            layout = tuple((f"a{i}", (64, 64), "<f8") for i in range(16))
            views, (segment, entries) = space.layout(layout)
            assert segment == space.segment
            addresses = [v.ctypes.data for v in views.values()]
            assert len({a % arena.PAGE for a in addresses}) == 16
            base = addresses[0] - entries[0][1]
            assert [a - base for a in addresses] == [e[1] for e in entries]
            assert space.layout(layout)[0] is views  # computed once
        finally:
            space.retire()

    def test_retire_unlinks_and_the_next_layout_gets_a_new_segment(self):
        space = arena.Arena()
        layout = (("a", (8,), "<f8"),)
        try:
            space.layout(layout)
            first = space.segment
            assert first.lstrip("/") in _segments()
            space.retire()
            assert space.segment is None
            assert first.lstrip("/") not in _segments()
            space.layout(layout)
            assert space.segment != first
        finally:
            space.retire()


def _reference_draw(shapes, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.random(shape) + 1.0 for shape in shapes]


class TestSeededInputs:
    #: Per kernel, a size whose layout holds at least ``2 * MIN_PART``
    #: elements (jacobi's two 261 x 261 arrays are the smallest), so the
    #: fill splits wherever two CPUs are usable; spem's arrays are 3-D.
    SPLIT_N = {"spem": 40}

    @pytest.mark.parametrize("kernel", [k.name for k in all_kernels()])
    def test_alloc_and_arena_fill_equal_the_reference_draw(self, kernel,
                                                           monkeypatch):
        info = get_kernel(kernel)
        program = info.program()
        split = arena._fill_parts
        parts = []

        def spy(arrays, seed, count):
            parts.append(count)
            split(arrays, seed, count)

        monkeypatch.setattr(arena, "_fill_parts", spy)
        for n in (20, self.SPLIT_N.get(kernel, 260)):
            params = resolve_params(info, program, n=n)
            prep = PreparedKernel(name=kernel, program=program, params=params,
                                  plans=[], procs=1, seed=7)
            want = dict(zip(
                [d.name for d in program.arrays],
                _reference_draw(d.concrete_shape(params)
                                for d in program.arrays)))
            total = sum(ref.size for ref in want.values())
            parts.clear()
            owned = prep.alloc()
            space = arena.Arena()
            try:
                views, _ = space.layout(prep.layout)
                arena.fill_seeded(views.values(), prep.seed)
                for name, ref in want.items():
                    assert owned[name].tobytes() == ref.tobytes(), name
                    assert views[name].tobytes() == ref.tobytes(), name
                assert list(views) == list(want)
            finally:
                space.retire()
            count = max(1, min(arena.available_cpus(),
                               total // arena.MIN_PART))
            assert parts == [count, count], (n, total)
            assert (total >= 2 * arena.MIN_PART) == (n != 20), (n, total)


class TestSplitFill:
    """The private splitter at forced part counts: every part draws what
    the serial loop draws there, wherever its boundaries fall."""

    #: Part boundaries at ``total * k // parts`` for parts 2, 3 and 4.
    LAYOUTS = {
        # 60 elements: every boundary (15, 20, 30, 40, 45) falls inside
        # an array
        "inside_an_array": [(23,), (3, 7), (16,)],
        # 24 elements: 2 and 4 parts cut exactly between arrays (6, 12,
        # 18), 3 parts inside them (8, 16)
        "on_an_array_boundary": [(2, 3), (6,), (3, 2), (6,)],
        # 20 elements: 4 parts cut at 5, right next to the 0-size array,
        # and 2 and 4 parts at 10, where the 1-element array starts
        "next_to_empty_and_single": [(5,), (0,), (5,), (1,), (0, 3), (9,)],
        "nothing_to_draw": [(0,), (4, 0)],
    }

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_parts_equal_the_reference_draw(self, layout, parts):
        shapes = self.LAYOUTS[layout]
        arrays = [np.full(shape, np.nan) for shape in shapes]
        arena._fill_parts(arrays, 7, parts)
        for got, ref in zip(arrays, _reference_draw(shapes)):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kernel", [k.name for k in all_kernels()])
    def test_every_kernel_is_byte_equal_at_every_part_count(self, kernel):
        info = get_kernel(kernel)
        program = info.program()
        params = resolve_params(info, program, n=20)
        serial = [np.empty(d.concrete_shape(params)) for d in program.arrays]
        arena._fill_parts(serial, 7, 1)
        for parts in (2, 3, 4):
            arrays = [np.empty_like(arr) for arr in serial]
            arena._fill_parts(arrays, 7, parts)
            for got, ref in zip(arrays, serial):
                assert got.tobytes() == ref.tobytes(), parts

    def test_concurrent_callers_share_the_helpers(self):
        """More callers than cores, each splitting its own fill over the
        one set of helpers, with thread switches forced often: every fill
        is still the reference draw."""
        shapes = self.LAYOUTS["inside_an_array"]
        want = [ref.tobytes() for ref in _reference_draw(shapes)]
        wrong = []

        def caller():
            for _ in range(20):
                arrays = [np.empty(shape) for shape in shapes]
                arena._fill_parts(arrays, 7, 3)
                if [arr.tobytes() for arr in arrays] != want:
                    wrong.append(arrays)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    @pytest.mark.parametrize("raiser", [0, 1], ids=["caller", "helper"])
    def test_a_raising_part_propagates_after_every_other_part(
            self, raiser, monkeypatch):
        """No part outlives the call: the error surfaces only once every
        other part has written its last element."""
        fill = arena._fill_part
        finished = []

        def part(seed, start, arrays):
            if start == bounds[raiser]:
                raise RuntimeError("part failed")
            time.sleep(0.2)
            fill(seed, start, arrays)
            finished.append(start)

        monkeypatch.setattr(arena, "_fill_part", part)
        bounds = [0, 1000, 2000]
        with pytest.raises(RuntimeError, match="part failed"):
            arena._fill_parts([np.empty(3000)], 7, 3)
        assert sorted(finished) == [b for b in bounds if b != bounds[raiser]]

    @needs_fork
    def test_forked_child_fills_after_a_parallel_fill_in_the_parent(self):
        """The child has none of the parent's helper threads: it starts its
        own instead of waiting on threads that do not exist there."""
        shape = (3 * arena.MIN_PART,)
        want = _reference_draw([shape])[0].tobytes()
        arrays = [np.empty(shape)]
        arena._fill_parts(arrays, 7, 2)  # the parent's helpers now exist
        assert arrays[0].tobytes() == want
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            code = 1
            try:
                split, public = [np.empty(shape)], [np.empty(shape)]
                arena._fill_parts(split, 7, 2)
                arena.fill_seeded(public, 7)
                code = 0 if (split[0].tobytes() == want
                             and public[0].tobytes() == want) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's fill hung")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0


class TestChecksumInPlace:
    @staticmethod
    def _reference(arrays):
        digest = hashlib.sha256()
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            digest.update(name.encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()[:16]

    def test_digest_is_the_contract_for_every_memory_order(self):
        base = np.random.default_rng(3).random((6, 10))
        cases = {
            "c_order": base,
            "f_order": np.asfortranarray(base),
            "transposed": base.T,
            "sliced": base[1:5, ::3],
            "row_slice": base[2:4],
            "zero_size": base[:0],
            "zero_d": np.array(2.5),
            "empty_f": np.zeros((0, 4), order="F"),
        }
        for name, arr in cases.items():
            assert checksum({name: arr}) == self._reference({name: arr}), name
        assert checksum(cases) == self._reference(cases)


class TestLifecycle:
    @needs_fork
    def test_small_large_small_regrows_and_workers_reattach(self, leak_check):
        want = {n: _interp("jacobi", n, 4) for n in (17, 65)}
        preps = {n: prepare_kernel("jacobi", n=n, procs=4, backend="mpjit")
                 for n in (17, 65)}
        segments = []
        spawns = pool_stats()["spawns"]
        for n in (17, 65, 17, 65):
            assert execute_prepared(preps[n], "mpjit",
                                    max_workers=2)[2] == want[n]
            segments.append(arena._shared.segment)
        assert segments[0] != segments[1]  # grew: a new segment
        assert segments[1] == segments[2] == segments[3]  # never shrinks
        # one pool: the same workers re-attached after the name changed
        assert pool_stats()["spawns"] == spawns + 1
        assert pool_stats()["runs"] == 4

    def test_busy_arena_gives_a_private_one(self, leak_check):
        prep = prepare_kernel("jacobi", n=17, procs=2, backend="jit")
        want = _interp("jacobi", 17, 2)
        execute_prepared(prep, "jit")
        shared = arena._shared.segment
        before = _segments()
        with arena._shared.lock:  # another thread's call holds it
            assert execute_prepared(prep, "jit")[2] == want
        assert arena._shared.segment == shared
        assert _segments() == before  # the private arena is gone

    @pytest.mark.parametrize("backend", BACKENDS[:2])
    def test_threads_stay_bit_identical(self, backend, leak_check):
        preps = {k: prepare_kernel(k, n=33, procs=4, backend=backend)
                 for k in ("jacobi", "ll18")}
        want = {k: execute_prepared(p, backend)[2] for k, p in preps.items()}
        got: list = []

        def worker(kernels):
            for _ in range(30):
                for k in kernels:
                    got.append((k, execute_prepared(preps[k], backend)[2]))

        threads = [threading.Thread(target=worker, args=(ks,)) for ks in
                   (["jacobi"], ["jacobi"], ["jacobi", "ll18"], ["ll18"])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 30 * 5
        assert all(digest == want[k] for k, digest in got)

    @needs_fork
    @pytest.mark.parametrize("spec", ["crash@run=1", "stall@run=1"])
    def test_failed_run_retires_the_arena(self, spec, monkeypatch,
                                          leak_check):
        """A zombie or stalled worker can only write into a retired
        segment: the retry runs on a new one, with the right answer."""
        monkeypatch.setenv(ENV_SYNC_TIMEOUT, "2")
        shutdown_pool()  # workers fork with the short timeout
        prep = prepare_kernel("jacobi", n=33, procs=4, backend="mpjit")
        want = _interp("jacobi", 33, 4)
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == want
        first = arena._shared.segment
        faults.install_plan(faults.FaultPlan.parse(spec, source="test"))
        try:
            with pytest.raises(ExecError) as excinfo:
                execute_prepared(prep, "mpjit", max_workers=2)
        finally:
            faults.install_plan(None)
        assert excinfo.value.failure.kind == {
            "crash@run=1": "worker_crash", "stall@run=1": "sync_timeout"}[spec]
        assert arena._shared.segment is None
        assert first.lstrip("/") not in _segments()
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == want
        assert arena._shared.segment not in (None, first)

    @needs_fork
    def test_resilient_retry_runs_on_a_new_segment(self, leak_check):
        prep = prepare_kernel("jacobi", n=33, procs=4, backend="mpjit")
        want = _interp("jacobi", 33, 4)
        execute_prepared(prep, "mpjit", max_workers=2)
        first = arena._shared.segment
        faults.install_plan(faults.FaultPlan.parse("crash@run=1",
                                                   source="test"))
        try:
            digest, recovery = execute_resilient(
                prep, "mpjit", max_workers=2,
                policy=RetryPolicy(max_attempts=3),
                breaker=CircuitBreaker())[2:]
        finally:
            faults.install_plan(None)
        assert digest == want and recovery["retries"] == 1
        assert arena._shared.segment not in (None, first)

    @needs_fork
    def test_exiting_process_leaves_no_segment_and_no_tracker_warning(self):
        """The pool forks before the first segment exists (the resource
        tracker starts after it) and the process exits without an
        explicit shutdown: no worker may register the parent's segment
        with a tracker of its own."""
        before = _segments()
        script = (
            "from repro.runtime.pool import get_pool\n"
            "from repro.runtime.execute import prepare_kernel, "
            "execute_prepared\n"
            "get_pool(2)\n"
            "prep = prepare_kernel('jacobi', n=33, procs=4, backend='mpjit')\n"
            "for _ in range(3):\n"
            "    print(execute_prepared(prep, 'mpjit', max_workers=2)[2])\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert len(set(out.stdout.split())) == 1
        assert "leaked" not in out.stderr, out.stderr
        assert "resource_tracker" not in out.stderr, out.stderr
        assert _segments() - before == set()


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_cjit_memo_rejects_a_transposed_view():
    """A transposed square view has the address and shape of the array it
    views; the marshalling memo must not let it through as C order."""
    prep = prepare_kernel("jacobi", n=17, procs=2, backend="cjit")
    native = prep.native_modules[0]
    arrays = prep.alloc()
    native.run(arrays)
    with pytest.raises(emitc.CJitError, match="C-contiguous"):
        native.run({k: v.T for k, v in arrays.items()})
