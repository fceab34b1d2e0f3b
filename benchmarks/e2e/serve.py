"""serve-mix: ``python -m repro serve`` as a child process under a seeded
request mix, spoken to over the ``repro-serve/1`` wire protocol only.

One asyncio load generator, two pipelined connections.  Phases: sequential
pings; then rounds of an **open loop** at three fixed rates (seeded
exponential gaps, a request's latency counted from the time it was *due*, so
a stall delays the requests behind it and that delay is seen) and a **closed
loop** of 2 connections x 8 requests in flight (each reply triggers the next
request).
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import time

import harness as h

#: (kernel, backend, share): small shapes, so the service around the run is
#: most of the latency; four signatures give the batcher neighbours it can
#: and cannot coalesce; the mpjit class occupies the one executor longest.
MIX = (("jacobi", "jit", 0.60), ("filter", "jit", 0.15),
       ("ll18", "cjit", 0.15), ("calc", "mpjit", 0.10))
TENANTS = (("a", 0.75), ("b", 0.25))
#: Requests per second, frozen on the reference box (2 cores): r2 is about
#: half the closed-loop capacity measured there, r1 = r2/2, r3 = 1.5 r2 —
#: all below capacity, so nothing should be shed.
RATES = {"r1": 100.0, "r2": 200.0, "r3": 300.0}
LIMIT_MS = 20.0
PINGS = 200
LINKS = 2
DEPTH = 8
#: Share of ``--seconds`` each phase gets; r2 carries the end-to-end
#: latencies and gets the most; the rest is pings, status ops and slack.
SHARE = {"r1": 0.10, "r2": 0.50, "r3": 0.10, "closed": 0.25}
#: Each phase runs as this many slices, one per round of r1, r2, r3, closed:
#: the box's speed moves over seconds, and a phase spread over the whole run
#: sees the same box as the others.
ROUNDS = 8
#: The open loop never has more than this many requests in flight, fewer
#: than the daemon's default queue of 64: after a stall of the box the
#: backlog shows as latency from the due times, not as shed requests.
IN_FLIGHT = 48
TAIL = 0.90
N = h.SMALL["jacobi"]


def wire(name: str):
    fn = h.probe(f"repro.serve.protocol:{name}")
    if fn is None:
        raise h.BenchError(f"wire protocol function {name} not found")
    return fn


def exec_message(req_id, kernel: str, backend: str, tenant: str,
                 op: str = "exec") -> dict:
    msg = {"op": op, "id": req_id, "kernel": kernel, "n": N,
           "procs": h.PROCS, "backend": backend, "tenant": tenant}
    if backend == "mpjit":
        msg["max_workers"] = h.WORKERS
    return msg


class Link:
    """One pipelined connection; each response goes to ``sink(now, resp)``."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.sink = lambda now, resp: None
        self.pump = asyncio.create_task(self._pump())
        self.encode, self.decode = wire("encode_message"), wire("decode_line")

    async def _pump(self) -> None:
        while line := await self.reader.readline():
            self.sink(time.perf_counter(), self.decode(line))

    def send(self, message: dict) -> None:
        self.writer.write(self.encode(message))

    async def call(self, message: dict) -> tuple[float, dict]:
        """One request, one response: (round-trip seconds, response)."""
        reply = asyncio.get_running_loop().create_future()
        self.sink = lambda now, resp: reply.set_result((now, resp))
        t0 = time.perf_counter()
        self.send(message)
        now, resp = await asyncio.wait_for(reply, 120)
        return now - t0, resp

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        await asyncio.wait([self.pump], timeout=5)


class Daemon:
    """The service under test, with its own plan cache and unix socket."""

    def __init__(self, box: h.Sandbox) -> None:
        cache = box.fresh("serve-jit")
        cache.mkdir()
        # relative: an AF_UNIX name holds ~107 bytes and a checkout's
        # absolute path may be longer
        self.socket = os.path.relpath(box.fresh("sock"))
        path = os.pathsep.join(
            [str(h.SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.log = open(box.dir / "daemon.log", "ab")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket],
            env=dict(os.environ, PYTHONPATH=path,
                     REPRO_JIT_CACHE_DIR=str(cache)),
            stdout=self.log, stderr=subprocess.STDOUT)

    async def connect(self) -> Link:
        deadline = time.perf_counter() + 60
        while True:
            try:
                return Link(*await asyncio.open_unix_connection(self.socket))
            except OSError:
                if (self.proc.poll() is not None
                        or time.perf_counter() > deadline):
                    raise h.BenchError("repro serve did not come up; see "
                                       f"{self.log.name}") from None
                await asyncio.sleep(0.005)

    async def drain(self, link: Link, tally: h.Tally) -> float:
        """The ``drain`` op to process exit, in seconds; the exit code
        must be 0."""
        t0 = time.perf_counter()
        _rtt, resp = await link.call({"op": "drain", "id": "drain"})
        await link.close()
        try:
            code = await asyncio.to_thread(self.proc.wait, 60)
        except subprocess.TimeoutExpired:
            self.kill()
            code = "timeout"
        self.log.close()
        if code != 0 or not resp.get("ok"):
            tally.fail(f"hygiene: daemon drain, exit code {code}")
        return time.perf_counter() - t0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Rows:
    """The requests of one phase: [class, due, sent, received, response]."""

    def __init__(self, want, rng, first_id: int) -> None:
        self.want, self.rng, self.first_id = want, rng, first_id
        self.rows: list[list] = []

    def draw(self, table) -> int:
        x, acc = self.rng.random(), 0.0
        for index, entry in enumerate(table):
            acc += entry[-1]
            if x < acc:
                return index
        return len(table) - 1

    def message(self, due: float) -> dict:
        """Draw the next request of the mix and book it."""
        cls = self.draw(MIX)
        tenant = TENANTS[self.draw(TENANTS)][0]
        req_id = self.first_id + len(self.rows)
        self.rows.append([cls, due, time.perf_counter(), None, None])
        return exec_message(req_id, MIX[cls][0], MIX[cls][1], tenant)

    def receive(self, now: float, resp: dict) -> list | None:
        req_id = resp.get("id")
        index = req_id - self.first_id if isinstance(req_id, int) else -1
        if not 0 <= index < len(self.rows):
            return None  # not of this phase
        row = self.rows[index]
        row[3], row[4] = now, resp
        return row

    def judge(self, tally: h.Tally) -> None:
        """A wrong checksum, a refused or errored response, a retry or a
        degraded run is a failed op (and misses any limit)."""
        for row in self.rows:
            resp = row[4]
            result = (resp or {}).get("result") or {}
            if resp is None:
                reason = "serve: no response"
            elif not resp.get("ok"):
                reason = f"serve: {resp.get('status')}"
            elif result.get("checksum") != self.want[MIX[row[0]][0]]:
                reason = "serve: wrong checksum"
            elif result.get("degraded") or result.get("retries"):
                reason = "serve: degraded or retried"
            else:
                reason = None
            tally.note(reason)
            if reason:
                row[4] = None

    # -- what the phase measured ------------------------------------------

    def good(self):
        return [r for r in self.rows if r[4] is not None]

    def latencies_ms(self, backend=None, cls=None) -> list[float]:
        return [h.ms(r[3] - r[1]) for r in self.good()
                if (backend is None or MIX[r[0]][1] == backend)
                and (cls is None or r[0] == cls)]

    def field(self, name: str) -> list:
        return [r[4]["result"][name] for r in self.good()]

    def spans(self, trace: h.Trace) -> None:
        for _cls, due, sent, received, resp in self.good():
            trace.next_op()
            parent = trace.add("serve.request", due, received)
            trace.add("loadgen.late", due, sent, parent)
            trace.add("serve.roundtrip", sent, received, parent)


async def open_loop(links, rows: Rows, rate: float, seconds: float) -> None:
    """Send on a schedule whatever the daemon does; wait for the replies."""
    gaps, at = [], rows.rng.expovariate(rate)
    while at < seconds:
        gaps.append(at)
        at += rows.rng.expovariate(rate)
    if not gaps:
        return
    waiting = len(gaps)
    in_flight = 0
    done, room = asyncio.Event(), asyncio.Event()

    def sink(now, resp) -> None:
        nonlocal waiting, in_flight
        if rows.receive(now, resp) is not None:
            waiting -= 1
            in_flight -= 1
            room.set()
            if not waiting:
                done.set()

    for link in links:
        link.sink = sink
    start = time.perf_counter() + 0.02
    for index, gap in enumerate(gaps):
        delay = start + gap - time.perf_counter()
        # when late, still let the replies in now and then
        if delay > 0 or index % 8 == 0:
            await asyncio.sleep(max(delay, 0))
        while in_flight >= IN_FLIGHT:
            room.clear()
            await room.wait()
        in_flight += 1
        links[index % len(links)].send(rows.message(start + gap))
    try:
        await asyncio.wait_for(done.wait(), 60)
    except asyncio.TimeoutError:
        pass  # judged as "no response"


async def closed_loop(links, rows: Rows, seconds: float) -> float:
    """DEPTH requests in flight per connection until time is up; returns
    the completions per second within that time."""
    end = time.perf_counter() + seconds
    waiting = len(links) * DEPTH
    completed = 0
    done = asyncio.Event()

    def sink_for(link):
        def sink(now, resp) -> None:
            nonlocal waiting, completed
            if rows.receive(now, resp) is None:
                return
            if now < end:
                completed += 1
                link.send(rows.message(time.perf_counter()))
            else:
                waiting -= 1
                if not waiting:
                    done.set()
        return sink

    for link in links:
        link.sink = sink_for(link)
        for _ in range(DEPTH):
            link.send(rows.message(time.perf_counter()))
    try:
        await asyncio.wait_for(done.wait(), seconds + 60)
    except asyncio.TimeoutError:
        pass
    return completed / seconds


async def set_up(box, want, tally) -> tuple:
    """Daemon spawn -> first pong, one ``compile`` op per key, a warm-up
    exec per key (spawns the daemon's pool)."""
    daemon = Daemon(box)
    try:
        link = await daemon.connect()
        await link.call({"op": "ping", "id": "boot"})
        facts = {"boot_s": time.perf_counter() - daemon.spawned,
                 "compile_ms": []}
        for kernel, backend, _share in MIX:
            rtt, resp = await link.call(
                exec_message("compile", kernel, backend, "a", op="compile"))
            facts["compile_ms"].append(h.ms(rtt))
            tally.note(None if resp.get("ok") else "serve: compile failed")
            for _ in range(3):
                _rtt, resp = await link.call(
                    exec_message("warm", kernel, backend, "a"))
                digest = (resp.get("result") or {}).get("checksum")
                tally.note(None if digest == want[kernel]
                           else "serve: wrong checksum in warm-up")
    except BaseException:
        daemon.kill()
        raise
    return daemon, link, facts


def counters(status: dict) -> dict:
    result = status["result"]
    admission = result["admission"]
    return {"shed": admission["shed_queue_full"] + admission["shed_deadline"],
            "errors": result["errors"], "retries": result["retries"],
            "degraded": result["degraded"]}


async def session(box, seconds, seed, trace, setups, import_s,
                  tally) -> dict:
    want = h.load_expected(h.SMALL)
    speed = h.Speed()  # probes only while the daemon is idle
    setup_s, daemon, link = [], None, None
    for _ in range(setups):
        if daemon:
            await daemon.drain(link, tally)
        speed.tick(3)
        t0 = time.perf_counter()
        daemon, link, facts = await set_up(box, want, tally)
        setup_s.append(time.perf_counter() - t0)
    try:
        links = [link] + [await daemon.connect() for _ in range(LINKS - 1)]
        pings = [h.ms((await link.call({"op": "ping", "id": i}))[0])
                 for i in range(PINGS)]
        before = counters((await link.call({"op": "status", "id": "s"}))[1])
        rng = random.Random(seed)
        # ids a million apart: a late reply never lands in another phase
        phases = {phase: Rows(want, rng, index * 1_000_000)
                  for index, phase in enumerate(SHARE)}
        throughput = []
        for _ in range(ROUNDS):
            for phase, rows in phases.items():
                speed.tick(5)
                slice_s = seconds * SHARE[phase] / ROUNDS
                if phase == "closed":
                    throughput.append(
                        await closed_loop(links, rows, slice_s))
                else:
                    await open_loop(links, rows, RATES[phase], slice_s)
        for rows in phases.values():
            rows.judge(tally)
        after = counters((await link.call({"op": "status", "id": "s"}))[1])
        rss = h.peak_rss_mb(daemon.proc.pid)
        for extra in links[1:]:
            await extra.close()
        drain_s = await daemon.drain(link, tally)
    finally:
        daemon.kill()

    r2 = phases["r2"]
    per_class = {i: r2.latencies_ms(cls=i) for i in range(len(MIX))}
    wall_ms = h.geomean(h.median(v) for v in per_class.values())
    measured = {
        "setup_s": import_s + h.median(setup_s),
        "wall_ms": wall_ms,
        "jit_ms": h.median(r2.latencies_ms(backend="jit")),
        "cjit_ms": h.median(r2.latencies_ms(backend="cjit")),
        "mpjit_ms": h.median(r2.latencies_ms(backend="mpjit")),
        "peak_rss_mb": rss,
    }
    result = {
        "samples_per_class": min(len(v) for v in per_class.values()),
        "tail_percentile": TAIL,
        "per_class": {
            f"{k}.{b}": {"latency_ms_r2": h.median(per_class[i]),
                         "best_latency_ms_r2": min(per_class[i]),
                         "samples": len(per_class[i])}
            for i, (k, b, _s) in enumerate(MIX)},
        # medians, not the fastest request as on the in-process workloads:
        # under load latency is a queueing quantity, and its minimum (a
        # request that met an idle daemon) repeats worse than its median;
        # at the reference speed
        "end_to_end": speed.at_reference(measured, 0.5),
        "measured": measured,
        "speed": speed.summary(),
        "unbounded": {
            "e2e.median_wall_ms": wall_ms,
            "e2e.tail_ms": h.geomean(h.pct(v, TAIL)
                                     for v in per_class.values()),
            # all closed-loop completions over all closed-loop seconds
            "e2e.ops_per_s": sum(throughput) / len(throughput),
        },
    }
    if trace.on:
        for rows in phases.values():
            rows.spans(trace)
        result["layers"] = layer_metrics(phases, facts, pings, drain_s,
                                         before, after)
        result["layers"]["machine.calib_ms"] = result["speed"]["median_ms"]
    box.check_clean(tally)
    return result


def layer_metrics(phases, facts, pings, drain_s, before, after) -> dict:
    r2 = phases["r2"]
    run_ms = [h.ms(s) for s in r2.field("seconds")]
    out = {
        "serve.boot_s": facts["boot_s"],
        "serve.compile_op_ms": h.geomean(facts["compile_ms"]),
        "serve.ping_rtt_ms": h.median(pings),
        "serve.run_ms": h.median(run_ms),
        "serve.overhead_ms": h.median(
            [lat - run for lat, run in zip(r2.latencies_ms(), run_ms)]),
        "serve.drain_s": drain_s,
        "protocol.codec_us": codec_us(),
    }
    late, slo = [], 0.0
    for phase, rows in phases.items():
        batched = rows.field("batched")
        if phase in ("r2", "closed"):
            out[f"serve.batched_share.{phase}"] = sum(batched) / len(batched)
            out[f"serve.batch_size_mean.{phase}"] = (
                sum(rows.field("batch_size")) / len(batched))
        if phase == "closed":
            continue
        lat, queue = rows.latencies_ms(), rows.field("queue_ms")
        for q in (50, 90, 99):
            out[f"serve.open.{phase}.p{q}_ms"] = h.pct(lat, q / 100)
        out[f"serve.queue_ms.{phase}.p50"] = h.pct(queue, 0.5)
        out[f"serve.queue_ms.{phase}.p90"] = h.pct(queue, 0.9)
        late += [h.ms(r[2] - r[1]) for r in rows.rows]
        # of the requests *sent*: a failed one misses the limit
        if sum(x <= LIMIT_MS for x in lat) >= 0.99 * len(rows.rows):
            slo = max(slo, RATES[phase])
    out["serve.slo_rate_rps"] = slo
    out["loadgen.late_ms_p90"] = h.pct(late, 0.9)
    for name, value in after.items():
        out[f"serve.{name}"] = value - before[name]
    return out


def codec_us(reps: int = 2000) -> float:
    """``parse_request`` + ``encode_message`` of one exec request and its
    response, in process."""
    parse, encode = wire("parse_request"), wire("encode_message")
    line = encode(exec_message(1, "jacobi", "jit", "a"))
    response = {"id": 1, "ok": True, "status": "ok", "result": {
        "kernel": "jacobi", "shape": f"n={N}", "procs": h.PROCS,
        "backend": "jit", "seconds": 0.000123, "iterations": 7938,
        "checksum": "142b91d7f4a947cd", "batch_size": 1, "batch_index": 0,
        "batched": False, "queue_ms": 0.321}}
    t0 = time.perf_counter()
    for _ in range(reps):
        parse(line)
        encode(response)
    return (time.perf_counter() - t0) / reps * 1e6


def run(box: h.Sandbox, name: str, seconds: float, seed: int,
        trace: h.Trace, setups: int, import_s: float,
        tally: h.Tally) -> dict:
    return asyncio.run(
        session(box, seconds, seed, trace, setups, import_s, tally))
