"""The execution arena: layout, lifecycle and every module backend over it.

Every test that runs the pool is under ``test_mp_failures``' ``leak_check``
(no worker and no ``/dev/shm`` segment may outlive it), and every checksum
is compared with the interpreter's.
"""

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from test_mp_failures import _fresh_pool, leak_check, needs_fork  # noqa: F401

from repro.codegen import emitc
from repro.kernels import all_kernels, get_kernel
from repro.runtime import arena, faults
from repro.runtime import fastexec
from repro.runtime.backend import checksum
from repro.runtime.execute import (
    PreparedKernel,
    execute_prepared,
    execute_resilient,
    prepare_kernel,
    resolve_params,
)
from repro.runtime.pool import pool_stats, shutdown_pool
from repro.runtime.supervisor import (
    CircuitBreaker,
    ExecError,
    RetryPolicy,
    default_supervisor,
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


class TestSeededInputs:
    @pytest.mark.parametrize("kernel", [k.name for k in all_kernels()])
    def test_alloc_and_arena_fill_equal_the_reference_draw(self, kernel):
        info = get_kernel(kernel)
        program = info.program()
        params = resolve_params(info, program, n=20)
        prep = PreparedKernel(name=kernel, program=program, params=params,
                              plans=[], procs=1, seed=7)
        rng = np.random.default_rng(7)
        want = {d.name: rng.random(d.concrete_shape(params)) + 1.0
                for d in program.arrays}
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
        monkeypatch.setenv(fastexec.ENV_SYNC_TIMEOUT, "2")
        shutdown_pool()  # workers fork with the short timeout
        prep = prepare_kernel("jacobi", n=33, procs=4, backend="mpjit")
        want = _interp("jacobi", 33, 4)
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == want
        first = arena._shared.segment
        faults.install_plan(faults.FaultPlan.parse(spec, source="test"))
        try:
            with pytest.raises(ExecError):
                execute_prepared(prep, "mpjit", max_workers=2)
        finally:
            faults.install_plan(None)
        assert arena._shared.segment is None
        assert first.lstrip("/") not in _segments()
        default_supervisor().wait(timeout=10.0)
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
    def test_mpjit_hot_path_never_exports(self, monkeypatch, leak_check):
        """Arrays reach the workers as arena specs only (the spies are in
        place before the pool forks, so workers would trip them too)."""
        calls = []
        for name in ("export_arrays", "attach_arrays", "copy_back_arrays",
                     "release_segments"):
            def spy(*args, _name=name, **kwargs):
                calls.append(_name)
                raise AssertionError(f"{_name} on the mpjit hot path")

            monkeypatch.setattr(fastexec, name, spy)
        shutdown_pool()
        prep = prepare_kernel("ll18", n=33, procs=4, backend="mpjit")
        want = _interp("ll18", 33, 4)
        for _ in range(3):
            assert execute_prepared(prep, "mpjit", max_workers=2)[2] == want
        assert pool_stats()["runs"] == 3
        assert calls == []

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
