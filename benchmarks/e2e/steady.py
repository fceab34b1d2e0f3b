"""steady-small and steady-large: kernels prepared once in set-up, then
cycles of ``execute_prepared`` over 4 kernels x 3 backends.

Per op two times are kept: *wall*, this harness's clock around the whole
call (alloc -> run -> checksum), and *run*, the seconds the call returns.
"""

from __future__ import annotations

import random
import time

import harness as h

SHAPES = {
    "steady-small": h.SMALL,
    # ~512^2: the paper's array sizes; odd n keeps the blocks unequal
    "steady-large": {"jacobi": 511, "ll18": 511, "calc": 513, "filter": 512},
}
#: Fixed per workload so that >=10 samples lie beyond it in every class
#: (~1000 samples per class on small, ~40 on large, in a 20 s phase).
TAIL = {"steady-small": 0.90, "steady-large": 0.75}
CLASSES = [(k, b) for k in h.KERNELS for b in h.BACKENDS]


def checked_op(prep, backend: str, want: str, tally: h.Tally):
    """One end-to-end op: (wall, run, counters), judged against the
    reference and against silently measuring the wrong tier."""
    runs_before = h.pool_runs() if backend == "mpjit" else 0
    t0 = time.perf_counter()
    try:
        run, counters, digest = h.entry("execute_prepared")(
            prep, backend, max_workers=h.WORKERS)
    except Exception as exc:  # noqa: BLE001 - a failed op, not a failed run
        tally.fail(f"{backend}: {type(exc).__name__}")
        return None
    wall = time.perf_counter() - t0
    if digest != want:
        tally.fail(f"{backend}: wrong checksum")
    elif backend == "cjit" and prep.native_modules is None:
        tally.fail(f"cjit: fell back to jit ({prep.native_reason})")
    else:
        tally.note(h.pool_reason(runs_before) if backend == "mpjit" else None)
    return wall, run, counters


def set_up(box: h.Sandbox, shapes, want, tally: h.Tally) -> dict:
    """Fresh cache dir and pool; prepare every class (incl. ``cc``), then one
    warm-up cycle so the pool is spawned and its workers hold the modules."""
    h.probe("repro.runtime.pool:shutdown_pool")()
    box.fresh_cache()
    prepare = h.entry("prepare_kernel")
    preps = {
        (k, b): prepare(k, n=shapes[k], procs=h.PROCS, seed=h.DATA_SEED,
                        backend=b)
        for k, b in CLASSES
    }
    for (k, b), prep in preps.items():
        checked_op(prep, b, want[k], tally)
    return preps


def run(box: h.Sandbox, name: str, seconds: float, seed: int,
        trace: h.Trace, setups: int, import_s: float,
        tally: h.Tally) -> dict:
    shapes = SHAPES[name]
    want = h.load_expected(shapes)
    speed = h.Speed()
    setup_s = []
    for _ in range(setups):
        speed.tick(3)
        t0 = time.perf_counter()
        preps = set_up(box, shapes, want, tally)
        setup_s.append(time.perf_counter() - t0)

    rng = random.Random(seed)
    walls = {c: [] for c in CLASSES}
    runs = {c: [] for c in CLASSES}
    cycles: list[float] = []
    layers = Layers(trace, preps, want, tally) if trace.on else None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not cycles:
        order = CLASSES[:]
        rng.shuffle(order)
        cycle = 0.0
        for cls in order:
            speed.tick()
            trace.next_op()
            with trace.span(f"op:{cls[0]}.{cls[1]}"):
                with trace.span("execute_prepared"):
                    got = checked_op(preps[cls], cls[1], want[cls[0]], tally)
                if got is None:
                    continue
                walls[cls].append(got[0])
                runs[cls].append(got[1])
                cycle += got[0]
                if layers:
                    layers.replay(cls, got[2])
        cycles.append(cycle)
        if layers:
            layers.once_per_cycle()

    def best_run_ms(backend: str) -> float:
        return h.ms(h.geomean(min(runs[k, backend]) for k in h.KERNELS))

    measured = {
        "setup_s": import_s + h.median(setup_s),
        "wall_ms": h.ms(h.geomean(min(v) for v in walls.values())),
        "jit_ms": best_run_ms("jit"),
        "cjit_ms": best_run_ms("cjit"),
        "mpjit_ms": best_run_ms("mpjit"),
        "peak_rss_mb": h.peak_rss_mb(),
    }
    result = {
        "samples_per_class": min(len(v) for v in walls.values()),
        "tail_percentile": TAIL[name],
        "per_class": {
            f"{k}.{b}": {"wall_ms": h.ms(h.median(walls[k, b])),
                         "run_ms": h.ms(h.median(runs[k, b])),
                         "best_wall_ms": h.ms(min(walls[k, b])),
                         "best_run_ms": h.ms(min(runs[k, b])),
                         "samples": len(walls[k, b])}
            for k, b in CLASSES},
        # bounded: the fastest op of each class (README: on a shared box
        # the median follows the host, the minimum the code), at the
        # reference speed
        "end_to_end": speed.at_reference(measured, 0.1),
        "measured": measured,
        "speed": speed.summary(),
        "unbounded": {
            "e2e.median_wall_ms": h.ms(h.geomean(
                h.median(v) for v in walls.values())),
            "e2e.tail_ms": h.ms(h.geomean(h.pct(v, TAIL[name])
                                          for v in walls.values())),
            "e2e.ops_per_s": len(CLASSES) / h.median(cycles),
        },
    }
    if layers:
        result["layers"] = layers.metrics(walls, runs)
        result["layers"]["machine.calib_ms"] = result["speed"]["median_ms"]
    box.check_clean(tally)
    return result


class Layers:
    """The steady path's layer probes: each calls one public function of a
    module on the inputs of the op just run and times it."""

    def __init__(self, trace, preps, want, tally) -> None:
        self.trace, self.preps, self.want, self.tally = (
            trace, preps, want, tally)
        self.t: dict[str, dict] = {}      # metric -> key -> [seconds]
        self.counters: dict[str, dict] = {}
        stats = h.probe("repro.runtime.pool:pool_stats")
        self.pool_before = stats() if stats else None

    def times(self, metric: str, key) -> list:
        return self.t.setdefault(metric, {}).setdefault(key, [])

    def replay(self, cls, counters) -> None:
        """alloc -> (fused, peeled | shm round trip) -> checksum, the same
        work ``execute_prepared`` just did, one public call at a time."""
        kernel, backend = cls
        prep, span = self.preps[cls], self.trace.span
        if backend == "jit":
            self.counters[kernel] = counters
        with span("plancache.mem_hit", self.times("plancache.mem_hit", cls)):
            h.entry("prepare_kernel")(
                kernel, params=prep.params, procs=h.PROCS, seed=h.DATA_SEED,
                backend=backend)
        with span("exec.alloc", self.times("exec.alloc", cls)):
            arrays = prep.alloc()
        if backend == "mpjit":
            self.shm_round_trip(kernel, arrays)
        else:
            self.two_phases(cls, arrays)
        checksum = h.probe("repro.runtime.backend:checksum")
        with span("exec.checksum", self.times("exec.checksum", cls)):
            digest = checksum(arrays)
        if backend != "mpjit":  # the round trip computes nothing
            self.tally.note(None if digest == self.want[kernel]
                            else "replay: wrong checksum")

    def two_phases(self, cls, arrays) -> None:
        """All ``run_fused`` then all ``run_peeled`` of each compiled module:
        the paper's two phases."""
        kernel, backend = cls
        prep = self.preps[cls]
        modules = prep.native_modules if backend == "cjit" else prep.modules
        fused = peeled = 0.0
        for module in modules or ():
            t0 = time.perf_counter()
            for p in range(module.nprocs):
                module.run_fused(p, arrays)
            t1 = time.perf_counter()
            for p in range(module.nprocs):
                module.run_peeled(p, arrays)
            t2 = time.perf_counter()
            self.trace.add("codegen.fused", t0, t1)
            self.trace.add("codegen.peeled", t1, t2)
            fused += t1 - t0
            peeled += t2 - t1
        self.times(f"codegen.fused.{backend}", kernel).append(fused)
        self.times(f"codegen.peeled.{backend}", kernel).append(peeled)

    def shm_round_trip(self, kernel, arrays) -> None:
        names = ("export_arrays", "copy_back_arrays", "release_segments")
        fns = [h.probe(f"repro.runtime.fastexec:{n}") for n in names]
        if not all(fns):
            return
        export, copy_back, release = fns
        with self.trace.span("pool.shm_roundtrip",
                             self.times("pool.shm_roundtrip", kernel)):
            segments, _specs = export(arrays)
            try:
                copy_back(arrays, segments)
            finally:
                release(segments)

    def once_per_cycle(self) -> None:
        span = self.trace.span
        self.trace.next_op()
        for kernel in h.KERNELS:
            prep = self.preps[kernel, "jit"]
            with span("supervisor.resilient", self.times("resilient", kernel)):
                digest = h.entry("execute_resilient")(
                    prep, "jit", max_workers=h.WORKERS)[2]
            self.tally.note(None if digest == self.want[kernel]
                            else "resilient: wrong checksum")
            # the last rung of the degrade ladder, on the same kernel
            vprep = self.preps.get((kernel, "vector"))
            if vprep is None:
                vprep = self.preps[kernel, "vector"] = h.entry(
                    "prepare_kernel")(kernel, params=prep.params,
                                      procs=h.PROCS, seed=h.DATA_SEED,
                                      backend="vector")
            with span("backend.vector"):
                seconds, _c, digest = h.entry("execute_prepared")(
                    vprep, "vector")
            self.times("backend.vector", kernel).append(seconds)
            self.tally.note(None if digest == self.want[kernel]
                            else "vector: wrong checksum")

    def metrics(self, walls, runs) -> dict:
        def geo(metric):
            keyed = self.t.get(metric)
            if not keyed:
                return None
            return h.ms(h.geomean(h.median(v) for v in keyed.values()))

        out = {f"{m}_ms": geo(m) for m in (
            "plancache.mem_hit", "exec.alloc", "exec.checksum",
            "pool.shm_roundtrip", "backend.vector")}
        for phase in ("fused", "peeled"):
            for b in ("jit", "cjit"):
                out[f"codegen.{phase}_ms.{b}"] = geo(f"codegen.{phase}.{b}")
        fused = sum(c["fused_iterations"] for c in self.counters.values())
        peeled = sum(c["peeled_iterations"] for c in self.counters.values())
        out["core.iterations"] = fused + peeled
        out["core.peel_share"] = peeled / (fused + peeled)
        med = {c: h.median(v) for c, v in runs.items()}
        out["pool.overhead_ms"] = h.ms(h.geomean(
            max(med[k, "mpjit"] - med[k, "jit"], 1e-9) for k in h.KERNELS))
        out["supervisor.resilient_overhead_ms"] = h.ms(sum(
            h.median(self.t["resilient"][k]) - h.median(walls[k, "jit"])
            for k in h.KERNELS) / len(h.KERNELS))
        # alloc + run + checksum of a class against its wall
        out["trace.steady_accounted_share"] = h.geomean(
            (h.median(self.t["exec.alloc"][c]) + med[c]
             + h.median(self.t["exec.checksum"][c])) / h.median(walls[c])
            for c in CLASSES)
        out.update(pool_deltas(self.pool_before))
        return out


def pool_deltas(before) -> dict:
    stats = h.probe("repro.runtime.pool:pool_stats")
    if before is None or stats is None:
        return {}
    now = stats()
    return {
        "pool.workers": now["nworkers"],
        "pool.runs": now["runs"] - before["runs"],
        "pool.spawns": now["spawns"] - before["spawns"],
        "pool.respawns": now["respawns"] - before["respawns"],
        "pool.sync_mode": int(now["last_sync"] == "p2p"),
    }
