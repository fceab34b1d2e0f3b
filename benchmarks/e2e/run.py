#!/usr/bin/env python3
"""The repo's end-to-end + per-layer benchmark (see README.md here).

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--quick] [--repeat-check]
    python3 benchmarks/e2e/run.py --regen-expected

Prints every metric by name with its unit, per workload, then one JSON line
per workload ({"correct", "attempted", "failed", "metrics"}).  Exits non-zero
when any op failed.  The names, units and bounds are those of
``BENCHMARK.json`` at the repo root, which this program reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness as h

WORKLOADS = {"steady-small": "steady", "steady-large": "steady",
             "cold-compile": "cold", "serve-mix": "serve"}
QUICK_SECONDS = 3.0


def contract() -> dict:
    return json.loads((h.ROOT / "BENCHMARK.json").read_text())


class Runner:
    """One invocation: a sandbox, the import time every set-up pays, and the
    ops of every run it made."""

    def __init__(self) -> None:
        self.import_s = h.import_product()
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        self.box = h.Sandbox(f"{stamp}-{os.getpid()}")
        self.tally = h.Tally()
        self.results: list[dict] = []

    def run(self, workload, seconds, seed, traced, setups) -> dict:
        module = __import__(WORKLOADS[workload])
        trace = h.Trace(on=traced)
        with h.KeepAwake():
            result = module.run(self.box, workload, seconds, seed, trace,
                                setups, self.import_s, self.tally)
        if h.probe("repro.codegen.emitc:find_compiler")() is None:
            self.tally.fail("no C compiler: cjit cannot be native")
        if traced:
            trace.dump(self.box.dir / f"trace-{workload}.json")
        return result

    def end_to_end(self, workload, seconds, seed, setups) -> dict:
        result = self.run(workload, seconds, seed, False, setups)
        self.results.append({"workload": workload, "seed": seed,
                             "seconds": seconds, "trace": 0, **result})
        return result

    def per_layer(self, workload, seconds, seed, names) -> dict:
        """Half the phase untraced, half traced (the difference is what
        tracing costs); then the quick form of the other workloads, so that
        every layer has a measurement from this box at this time.  A layer's
        full-length numbers are the ones on the workload built for it."""
        plain = self.run(workload, seconds / 2, seed, False, 1)
        traced = self.run(workload, seconds / 2, seed, True, 1)
        layers, measured_on = {}, {}
        for other in ("steady-small", "cold-compile", "serve-mix"):
            if WORKLOADS[other] != WORKLOADS[workload]:
                seen = self.run(other, min(QUICK_SECONDS, seconds / 2), seed,
                                True, 1)["layers"]
                seen = {k: v for k, v in seen.items() if v is not None}
                layers.update(seen)
                measured_on.update(dict.fromkeys(seen, other))
        own = {k: v for k, v in traced.pop("layers").items() if v is not None}
        layers.update(own)
        measured_on.update(dict.fromkeys(own, workload))
        layers.update(plain["unbounded"])
        measured_on.update(dict.fromkeys(plain["unbounded"], workload))
        layers["trace.overhead_share"] = (
            traced["end_to_end"]["wall_ms"] / plain["end_to_end"]["wall_ms"]
            - 1.0)
        measured_on["trace.overhead_share"] = workload
        missing = [n for n in names if n not in layers]
        self.results.append({
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": 1, **traced, "untraced_half": plain["end_to_end"],
            "layers": {n: layers.get(n) for n in names},
            "measured_on": measured_on,
            "null": {n: "its public function is gone" for n in missing}})
        extra = set(layers) - set(names)
        if extra:
            raise h.BenchError(f"layers not in BENCHMARK.json: {sorted(extra)}")
        return self.results[-1]

    def write(self, args) -> None:
        path = self.box.dir / "result.json"
        path.write_text(json.dumps({
            "provenance": h.provenance(
                argv=sys.argv[1:], seed=args.seed, seconds=args.seconds,
                quick=args.quick),
            "attempted": self.tally.attempted, "failed": self.tally.failed,
            "failure_reasons": self.tally.reasons,
            "results": self.results}, indent=1))
        print(f"# results in {os.path.relpath(path)}")


def show(title: str, metrics: dict, specs: list[dict]) -> dict:
    """Print name, value, unit; return the JSON-line form."""
    print(title)
    line = {}
    for spec in specs:
        value = metrics.get(spec["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {spec['name']:42s} {shown:>12s} {spec['unit']}")
        # a layer whose public function is gone reads null in result.json;
        # the line the driver reads wants a number for every name
        line[spec["name"]] = {"value": 0 if value is None else value,
                              "unit": spec["unit"]}
    return line


def regen_expected() -> None:
    """Rewrite expected.json through ``interp`` alone, and hold it against
    the interp rows already committed in benchmarks/BENCH_fastexec.json."""
    import steady

    h.import_product()
    table = {}
    for shapes in steady.SHAPES.values():
        for kernel, n in shapes.items():
            table[h.expected_key(kernel, n)] = h.interp_checksum(kernel, n)
            print(h.expected_key(kernel, n), table[h.expected_key(kernel, n)])
    committed = h.ROOT / "benchmarks" / "BENCH_fastexec.json"
    if committed.exists():
        for row in json.loads(committed.read_text())["entries"]:
            key = (f"{row['kernel']}|{row['shape']}|procs={row['procs']}"
                   f"|seed={h.DATA_SEED}")
            if row["backend"] == "interp" and key in table:
                if table[key] != row["checksum"]:
                    raise h.BenchError(f"{key} disagrees with {committed}")
                print(f"agrees with BENCH_fastexec.json: {key}")
    h.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                               + "\n")


def measure_here(args, spec) -> int:
    """One workload in this process: what the driver runs."""
    e2e, layer_specs = spec["end_to_end"], spec["per_layer"]
    runner = Runner()
    if args.trace:
        result = runner.per_layer(args.workload, args.seconds, args.seed,
                                  [s["name"] for s in layer_specs])
        metrics, specs = result["layers"], layer_specs
    else:
        result = runner.end_to_end(args.workload, args.seconds, args.seed,
                                   1 if args.quick else 3)
        metrics, specs = result["end_to_end"], e2e
    line = show(f"== {args.workload}: seed {args.seed}, {args.seconds:g} s, "
                f"{result['samples_per_class']} samples in the smallest "
                f"class, tail p{result['tail_percentile'] * 100:g} ==",
                metrics, specs)
    if not args.trace:
        speed = result["speed"]
        show(f"  -- as measured, the box's speed probe at {speed['p10_ms']:.3g}"
             f" (p10) / {speed['median_ms']:.3g} (median) ms of its reference "
             f"{speed['reference_ms']:g} --", result["measured"], e2e)
        show("  -- reported without a bound, as measured (README: steadiness)"
             " --", result["unbounded"],
             [s for s in layer_specs if s["name"] in result["unbounded"]])
    killed = h.reap_all()
    if killed:
        runner.tally.fail(f"hygiene: {killed} processes had to be killed")
    runner.write(args)
    for reason, count in runner.tally.reasons.items():
        print(f"FAILED x{count}: {reason}", file=sys.stderr)
    print(json.dumps({  # the last line is the result
        "correct": runner.tally.failed == 0,
        "attempted": runner.tally.attempted, "failed": runner.tally.failed,
        "metrics": line}), flush=True)
    return 1 if runner.tally.failed else 0


def measure_each(args, spec, workloads) -> int:
    """Several runs: each in a process of its own, as the driver makes them,
    so that no run inherits another's memory or pool."""
    status = 0
    sets: list[dict] = []
    for _ in range(2 if args.repeat_check else 1):
        sets.append({})
        for workload in workloads:
            command = [sys.executable, __file__, "--workload", workload,
                       "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(command + ["--quick"] * args.quick,
                                  stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="", flush=True)
            status = status or done.returncode
            if done.returncode == 0:
                sets[-1][workload] = json.loads(
                    done.stdout.splitlines()[-1])["metrics"]
    if args.repeat_check and not status:
        for workload in workloads:
            for s in spec["per_layer" if args.trace else "end_to_end"]:
                a, b = (sets[i][workload][s["name"]]["value"] for i in (0, 1))
                drift = abs(b - a) / a if a else 0.0
                differs = drift > s.get("bound", float("inf"))
                status = status or int(differs)
                print(f"repeat {workload:13s} {s['name']:12s} {a:12.6g} "
                      f"{b:12.6g} {drift:7.2%} "
                      f"{'DIFFERS' if differs else 'ok'}")
    return status


def main() -> int:
    spec = contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="a few seconds per workload, one set-up, "
                             "same code paths")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two full sets back to back; non-zero exit if "
                             "an end-to-end metric differs by more than "
                             "its bound")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args()
    if args.regen_expected:
        regen_expected()
        return 0
    if args.quick:
        args.seconds = QUICK_SECONDS
    if args.workload and not args.repeat_check:
        return measure_here(args, spec)
    return measure_each(
        args, spec, [args.workload] if args.workload else list(WORKLOADS))


if __name__ == "__main__":
    try:
        h.adopt_orphans()
        sys.exit(main())
    except h.BenchError as exc:
        sys.exit(f"benchmark refused to run: {exc}")
    finally:  # on every path out: no process is left behind, none unwaited
        h.reap_all()
