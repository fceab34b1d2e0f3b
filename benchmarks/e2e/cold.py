"""cold-compile: time to the first checksum when nothing is cached.

Per kernel at n=65, each op in its own plan-cache directory: ``miss.*`` is
``prepare_kernel`` + the first ``execute_prepared`` on an empty directory
(the whole pipeline, incl. ``cc`` for cjit; for mpjit the pool's workers
have never seen the module and load it from disk by signature); ``disk.*``
is the same call on a byte copy of the directory its miss just filled, with
nothing in memory — what a new process sees.
"""

from __future__ import annotations

import random
import shutil
import time
from multiprocessing import resource_tracker

import harness as h

KINDS = ("miss.jit", "miss.cjit", "miss.mpjit", "disk.jit", "disk.cjit")
CLASSES = [(k, kind) for k in h.KERNELS for kind in KINDS]
#: ~10 samples per class in a 20 s phase (a cycle is ~2 s, four ``cc`` runs):
#: too few for ten beyond any percentile of one class, so the tail is the
#: upper quartile and its steadiness comes from the geomean over 20 classes.
TAIL = 0.75


def cold_op(kernel: str, kind: str, cache_dir, want: str, tally: h.Tally,
            trace: h.Trace):
    """One op in ``cache_dir``: (prepare seconds, first-run seconds, cache
    count deltas, prep) or None when it raised."""
    op, backend = kind.split(".")
    h.use_cache(cache_dir)
    if backend == "mpjit":  # new workers, spawned outside the timed region
        h.probe("repro.runtime.pool:shutdown_pool")()
        # as in the product, where the first shm segment precedes the fork:
        # workers forked before the tracker each start one of their own,
        # which then reports every segment they attached as leaked
        resource_tracker.ensure_running()
        h.probe("repro.runtime.pool:get_pool")(h.WORKERS)
    cache = h.probe("repro.runtime.plancache:default_cache")()
    before = cache.stats.snapshot()
    runs_before = h.pool_runs()
    t0 = time.perf_counter()
    try:
        prep = h.entry("prepare_kernel")(
            kernel, n=h.SMALL[kernel], procs=h.PROCS, seed=h.DATA_SEED,
            backend=backend)
        t1 = time.perf_counter()
        _run, _counters, digest = h.entry("execute_prepared")(
            prep, backend, max_workers=h.WORKERS)
    except Exception as exc:  # noqa: BLE001 - a failed op, not a failed run
        tally.fail(f"{kind}: {type(exc).__name__}")
        return None
    t2 = time.perf_counter()
    trace.add(f"plancache.{op}", t0, t1)
    trace.add("plancache.first_run", t1, t2)
    counts = {k: v for k, v in cache.stats.delta(before).items()
              if isinstance(v, int)}  # the seconds in there do not repeat
    modules = len(prep.modules)
    native = modules if backend == "cjit" else 0
    if op == "miss":  # exactly one compile per module and tier, no disk read
        exact = {"misses": modules, "native_misses": native,
                 "disk_hits": 0, "native_disk_hits": 0}
    else:
        exact = {"misses": 0, "native_misses": 0,
                 "disk_hits": modules, "native_disk_hits": native}
    if digest != want:
        tally.fail(f"{kind}: wrong checksum")
    elif backend == "cjit" and prep.native_modules is None:
        tally.fail(f"cjit: fell back to jit ({prep.native_reason})")
    elif any(counts[k] != v for k, v in exact.items()):
        tally.fail(f"{kind}: cache counts {counts} are not {exact}")
    elif backend == "mpjit":
        loads = h.probe("repro.runtime.pool:pool_stats")()["last_load_modes"]
        tally.note(h.pool_reason(runs_before) or (
            None if set(loads) == {"disk"}
            else f"mpjit: workers loaded from {loads}, not from disk"))
    else:
        tally.ok()
    return t1 - t0, t2 - t1, counts, prep


def cycle(box, rng, want, tally, trace, speed, record) -> None:
    """Every (kernel, backend) miss in shuffled order, each followed by its
    disk op; ``record(kernel, kind, result)`` sees each."""
    order = [(k, b) for k in h.KERNELS for b in h.BACKENDS]
    rng.shuffle(order)
    for kernel, backend in order:
        kinds = [f"miss.{backend}"]
        if backend != "mpjit":
            kinds.append(f"disk.{backend}")
        cache_dir = box.fresh("cold")
        cache_dir.mkdir()
        for kind in kinds:
            if kind.startswith("disk"):
                # a copy is a new inode: dlopen maps it anew, as it would
                # in a new process
                filled, cache_dir = cache_dir, box.fresh("cold")
                shutil.copytree(filled, cache_dir)
                shutil.rmtree(filled)
            speed.tick()
            trace.next_op()
            with trace.span(f"op:{kernel}.{kind}"):
                got = cold_op(kernel, kind, cache_dir, want[kernel], tally,
                              trace)
                if got is not None:
                    record(kernel, kind, got)
        shutil.rmtree(cache_dir)


def run(box: h.Sandbox, name: str, seconds: float, seed: int,
        trace: h.Trace, setups: int, import_s: float,
        tally: h.Tally) -> dict:
    want = h.load_expected(h.SMALL)
    speed = h.Speed()
    setup_s = []
    for _ in range(setups):
        # imports + pool spawn (inside the first miss.mpjit) + one untimed
        # cycle, which also warms the interpreter's own lazy imports
        h.probe("repro.runtime.pool:shutdown_pool")()
        t0 = time.perf_counter()
        cycle(box, random.Random(seed), want, tally, h.Trace(on=False),
              speed, lambda *a: None)
        setup_s.append(time.perf_counter() - t0)

    firsts = {c: [] for c in CLASSES}          # time to first checksum
    parts = {c: ([], []) for c in CLASSES}     # (prepare, first run)
    counts: dict = {}
    cycles: list[float] = [0.0]
    rng = random.Random(seed)
    layers = Layers(box, trace, tally) if trace.on else None

    def record(kernel, kind, got) -> None:
        prepare_s, run_s, delta, prep = got
        firsts[kernel, kind].append(prepare_s + run_s)
        cycles[-1] += prepare_s + run_s
        parts[kernel, kind][0].append(prepare_s)
        parts[kernel, kind][1].append(run_s)
        if counts.setdefault((kernel, kind), delta) != delta:
            tally.fail(f"{kind}: cache counts do not repeat")
        if layers and kind == "miss.mpjit":
            layers.steady_mpjit(kernel, prep, want[kernel])

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(cycles) < 3:
        cycle(box, rng, want, tally, trace, speed, record)
        cycles.append(0.0)
        if layers:
            layers.pipeline()
    cycles.pop()

    def best_ms(kind: str) -> float:
        return h.ms(h.geomean(min(firsts[k, kind]) for k in h.KERNELS))

    measured = {
        "setup_s": import_s + h.median(setup_s),
        "wall_ms": h.ms(h.geomean(min(v) for v in firsts.values())),
        "jit_ms": best_ms("miss.jit"),
        "cjit_ms": best_ms("miss.cjit"),
        "mpjit_ms": best_ms("miss.mpjit"),
        "peak_rss_mb": h.peak_rss_mb(),
    }
    result = {
        "samples_per_class": min(len(v) for v in firsts.values()),
        "tail_percentile": TAIL,
        "per_class": {
            f"{k}.{kind}": {
                "first_checksum_ms": h.ms(h.median(firsts[k, kind])),
                "best_first_checksum_ms": h.ms(min(firsts[k, kind])),
                "samples": len(firsts[k, kind])}
            for k, kind in CLASSES},
        # bounded: the fastest op of each class, at the reference speed
        # (README)
        "end_to_end": speed.at_reference(measured, 0.1),
        "measured": measured,
        "speed": speed.summary(),
        "unbounded": {
            "e2e.median_wall_ms": h.ms(h.geomean(
                h.median(v) for v in firsts.values())),
            "e2e.tail_ms": h.ms(h.geomean(h.pct(v, TAIL)
                                          for v in firsts.values())),
            "e2e.ops_per_s": len(CLASSES) / h.median(cycles),
        },
    }
    if layers:
        result["layers"] = layers.metrics(parts, counts)
        result["layers"]["machine.calib_ms"] = result["speed"]["median_ms"]
    box.check_clean(tally)
    return result


#: layer metric -> the public function its span is around
PIPELINE = {
    "kernels.program": "repro.kernels:get_kernel",
    "lang.parse": "repro.lang.parser:parse_program",
    "plancache.signature": "repro.runtime.plancache:program_signature",
    "dependence.analyze": "repro.dependence:analyze_sequence",
    "core.derive": "repro.core:derive_shift_peel",
    "core.legality": "repro.core:max_processors",
    "core.execplan": "repro.core:build_execution_plan",
    "core.syncdeps": "repro.core.syncdeps:peel_predecessors",
    "codegen.emitpy": "repro.codegen.emitpy:emit_plan_source",
    "codegen.pycompile": "repro.codegen.emitpy:compile_source",
    "codegen.emitc": "repro.codegen.emitc:emit_plan_c_source",
    "codegen.cc": "repro.codegen.emitc:compile_c",
    "codegen.dlopen": "repro.codegen.emitc:load_native",
}
#: what a jit miss runs; a cjit miss runs all of PIPELINE (``core.syncdeps``
#: is a child of both emitters, so it is never added on its own)
JIT_STEPS = ("kernels.program", "plancache.signature", "dependence.analyze",
             "core.derive", "core.legality", "core.execplan",
             "codegen.emitpy", "codegen.pycompile")
CJIT_STEPS = JIT_STEPS + ("codegen.emitc", "codegen.cc", "codegen.dlopen")


class Layers:
    """The cold pipeline, one public function at a time on the same inputs
    the ``miss.*`` ops compile."""

    def __init__(self, box, trace, tally) -> None:
        self.box, self.trace, self.tally = box, trace, tally
        self.fn = {name: h.probe(path) for name, path in PIPELINE.items()}
        get_kernel = self.fn["kernels.program"]
        if get_kernel:
            self.fn["kernels.program"] = lambda k: get_kernel(k).program()
        self.t: dict[str, dict] = {}     # metric -> kernel -> [seconds]
        self.sizes: dict[str, dict] = {}  # metric -> kernel -> bytes
        fmt = h.probe("repro.ir:format_program")
        self.text = {k: fmt(self.fn["kernels.program"](k))
                     for k in h.KERNELS} if fmt and get_kernel else {}

    def call(self, name, *args, **kwargs):
        """Time ``fn[name]`` into the kernel's running total for this cycle
        (a kernel with several sequences calls each step once per sequence)."""
        out: list = []
        with self.trace.span(name, out):
            value = self.fn[name](*args, **kwargs)
        self.now[name] = self.now.get(name, 0.0) + out[0]
        return value

    def size(self, metric, kernel, nbytes) -> None:
        per = self.sizes.setdefault(metric, {})
        per[kernel] = per.get(kernel, 0) + nbytes

    def pipeline(self) -> None:
        if not all(self.fn.values()) or not self.text:
            return  # a later PR moved a function: these metrics read null
        self.sizes = {}
        for kernel in h.KERNELS:
            self.trace.next_op()
            self.now: dict[str, float] = {}
            with self.trace.span(f"pipeline:{kernel}"):
                self.one_kernel(kernel)
            for name, seconds in self.now.items():
                self.t.setdefault(name, {}).setdefault(kernel, []).append(
                    seconds)

    def one_kernel(self, kernel: str) -> None:
        call = self.call
        program = call("kernels.program", kernel)
        call("lang.parse", self.text[kernel])
        self.size("lang.dsl_bytes", kernel, len(self.text[kernel]))
        names = tuple(program.params)
        params = {p: h.SMALL[kernel] for p in names}
        call("plancache.signature", program, params, h.PROCS, None)
        scratch = self.box.fresh("cc")
        for seq in program.sequences:
            depth = seq.fusable_depth()
            summary = call("dependence.analyze", seq, names, depth)
            plan = call("core.derive", seq, names, depth, summary=summary)
            legal = call("core.legality", plan, params)[0]
            ep = call("core.execplan", plan, params,
                      num_procs=min(h.PROCS, legal))
            call("core.syncdeps", ep)
            signature = ep.signature(strip=None)
            source = call("codegen.emitpy", ep)
            call("codegen.pycompile", source, expected_signature=signature)
            c_source = call("codegen.emitc", ep)
            so = call("codegen.cc", c_source, scratch / f"{signature}.so")
            call("codegen.dlopen", so, expected_signature=signature)
            self.size("codegen.emitpy_bytes", kernel, len(source))
            self.size("codegen.emitc_bytes", kernel, len(c_source))
            self.size("codegen.so_bytes", kernel, so.stat().st_size)
        shutil.rmtree(scratch)

    def steady_mpjit(self, kernel, prep, want) -> None:
        """A second mpjit run of the module the workers now hold: the
        first run minus this one is what loading it cold cost."""
        run, _c, digest = h.entry("execute_prepared")(
            prep, "mpjit", max_workers=h.WORKERS)
        self.t.setdefault("mpjit.steady", {}).setdefault(kernel, []).append(
            run)
        self.tally.note(None if digest == want else "mpjit: wrong checksum")

    def metrics(self, parts, counts) -> dict:
        med = {c: (h.median(p), h.median(r)) for c, (p, r) in parts.items()}

        def over_kernels(kind, index):
            return h.ms(h.geomean(med[k, kind][index] for k in h.KERNELS))

        out = {}
        for b in ("jit", "cjit"):
            out[f"plancache.miss_ms.{b}"] = over_kernels(f"miss.{b}", 0)
            out[f"plancache.disk_hit_ms.{b}"] = over_kernels(f"disk.{b}", 0)
        for b in h.BACKENDS:
            out[f"plancache.first_run_ms.{b}"] = over_kernels(f"miss.{b}", 1)
        for kind in KINDS:
            deltas = [counts[k, kind] for k in h.KERNELS]
            out[f"plancache.counts.{kind}.compiles"] = sum(
                d["misses"] + d["native_misses"] for d in deltas)
            out[f"plancache.counts.{kind}.disk_loads"] = sum(
                d["disk_hits"] + d["native_disk_hits"] for d in deltas)
        steady = self.t.pop("mpjit.steady", None)
        if steady:
            out["pool.cold_load_ms"] = h.ms(h.geomean(
                max(med[k, "miss.mpjit"][1] - h.median(steady[k]), 1e-9)
                for k in h.KERNELS))
        step = {name: {k: h.median(v) for k, v in per.items()}
                for name, per in self.t.items()}
        for name, per in step.items():
            out[f"{name}_ms"] = h.ms(h.geomean(per.values()))
        for metric, per in self.sizes.items():
            out[metric] = sum(per.values())
        if "codegen.cc" in step:
            # the layer spans of a miss against the miss itself
            out["trace.cold_accounted_share"] = h.geomean(
                sum(step[s][k] for s in steps) / med[k, kind][0]
                for k in h.KERNELS
                for kind, steps in (("miss.jit", JIT_STEPS),
                                    ("miss.cjit", CJIT_STEPS)))
        return out
