"""The measured-cost auto-tuner: keys, persistence, hit/miss accounting.

The tuner's contract is that a configuration is *timed once per
(kernel IR, shape, procs, machine)* and replayed from the persisted
store forever after — so the tests drive ``resolve_config`` twice (and
through a fresh tuner instance, standing in for a fresh process) and
assert the second resolution is a pure lookup: hit counted, zero
candidates timed, identical winner.  Corrupt store files must degrade
to an invalid-miss and a re-tune, never an exception or a trusted
payload.
"""

import json


from repro.kernels import get_kernel
from repro.runtime.autotune import (
    SCHEMA,
    AutoTuner,
    candidate_configs,
    machine_fingerprint,
    resolve_config,
    tuning_key,
)
from repro.runtime.benchmarking import measure_kernel
from repro.runtime.execute import resolve_params


def _key(kernel="jacobi", n=21, procs=4):
    info = get_kernel(kernel)
    program = info.program()
    params = resolve_params(info, program, n=n)
    return tuning_key(program, params, procs)


class TestKeying:
    def test_key_is_stable_and_shape_sensitive(self):
        assert _key() == _key()
        assert _key(n=21) != _key(n=33)
        assert _key(procs=4) != _key(procs=2)
        assert _key(kernel="jacobi") != _key(kernel="ll18")

    def test_key_embeds_machine_fingerprint(self, monkeypatch):
        """A winner measured on one machine must never be replayed on
        another — faking the fingerprint must change the key."""
        before = _key()
        import repro.runtime.autotune as autotune_mod

        monkeypatch.setattr(autotune_mod, "machine_fingerprint",
                            lambda: "cpu64-loongarch")
        assert _key() != before

    def test_fingerprint_mentions_core_count(self):
        from repro.runtime.pool import available_cpus

        assert f"cpu{available_cpus()}" in machine_fingerprint()

    def test_affinity_restricts_candidates_and_fingerprint(self, monkeypatch):
        """Under ``taskset -c 0`` the tuner times no pooled candidate, and
        a winner tuned there is not replayed on the full machine."""
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert all(c["backend"] != "mpjit"
                   for c in candidate_configs(procs=4))
        assert machine_fingerprint().startswith("cpu1-")

    def test_fingerprint_covers_python_codegen_and_compiler(self):
        """A toolchain change (interpreter, codegen version, C compiler)
        must invalidate stored winners — all three live in the key."""
        import sys

        from repro.codegen.emitc import compiler_fingerprint
        from repro.codegen.emitpy import CODEGEN_VERSION

        fp = machine_fingerprint()
        assert f"py{sys.version_info[0]}.{sys.version_info[1]}" in fp
        assert f"cg{CODEGEN_VERSION}" in fp
        cc = compiler_fingerprint() or "none"
        assert f"cc{cc}" in fp


class TestCandidates:
    def test_serial_always_parallel_gated_on_cores(self):
        single = candidate_configs(procs=4, cpu_count=1)
        assert single and all(c["backend"] in ("jit", "cjit")
                              for c in single)
        multi = candidate_configs(procs=16, cpu_count=8)
        mpjit = [c for c in multi if c["backend"] == "mpjit"]
        assert mpjit
        assert {c.get("max_workers") for c in mpjit} == {None, 4}
        # a serial plan never gets a parallel candidate
        assert all(c["backend"] in ("jit", "cjit")
                   for c in candidate_configs(procs=1, cpu_count=8))

    def test_worker_counts_deduped_by_effective_pool_size(self):
        """On cpu_count=8 with procs=4 the half-cores option resolves to
        the same effective pool as all-cores (min(4, 8) == max(2, 4)) —
        it must be timed once, spelled ``max_workers=None``."""
        mpjit = [c for c in candidate_configs(procs=4, cpu_count=8)
                 if c["backend"] == "mpjit"]
        assert [c["max_workers"] for c in mpjit] == [None]
        # distinct counts emitted sorted by effective size, ints first
        mpjit = [c for c in candidate_configs(procs=16, cpu_count=8)
                 if c["backend"] == "mpjit"]
        assert [c["max_workers"] for c in mpjit] == [4, None]

    def test_cjit_candidates_gated_on_compiler(self, monkeypatch):
        import repro.codegen.emitc as emitc

        if emitc.find_compiler() is not None:
            cjit = [c for c in candidate_configs(procs=4, cpu_count=8)
                    if c["backend"] == "cjit"]
            assert cjit and {c.get("strip") for c in cjit} == {None, 32}
        # a numpy module runs whole boxes at every strip: one candidate
        assert [c for c in candidate_configs(procs=4, cpu_count=8)
                if c["backend"] == "jit"] == [{"backend": "jit",
                                               "strip": None}]
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        assert all(c["backend"] != "cjit"
                   for c in candidate_configs(procs=4, cpu_count=8))


class TestResolveConfig:
    def test_miss_times_then_hit_reuses(self):
        tuner = AutoTuner()
        config, info = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                      tuner=tuner)
        assert info["hit"] is False
        assert info["candidates_timed"] == len(candidate_configs(procs=4))
        assert config["backend"] in ("jit", "cjit", "mpjit")
        assert tuner.stats.misses == 1 and tuner.stats.stores == 1
        # Second resolution: pure lookup, nothing timed.
        config2, info2 = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                        tuner=tuner)
        assert info2["hit"] is True
        assert info2["candidates_timed"] == 0
        assert config2 == config
        assert tuner.stats.hits == 1

    def test_cold_tuning_compiles_one_object_per_plan(self):
        """The strip candidates run one module per plan: a cold tuner
        run on jacobi (one plan) counts exactly one numpy compile and,
        with a compiler, one native compile."""
        import repro.codegen.emitc as emitc
        from repro.runtime.plancache import default_cache

        stats = default_cache().stats
        resolve_config("jacobi", n=21, procs=4, repeat=1,
                       tuner=AutoTuner(persist=False))
        assert stats.misses == 1
        assert stats.native_misses == int(emitc.find_compiler() is not None)

    def test_persisted_winner_survives_a_fresh_tuner(self):
        """A fresh tuner instance (a fresh process, in effect) hits the
        on-disk winner without re-timing anything."""
        first = AutoTuner()
        config, _ = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                   tuner=first)
        fresh = AutoTuner()
        config2, info = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                       tuner=fresh)
        assert info["hit"] is True and fresh.stats.hits == 1
        assert config2 == config
        path = fresh.path(info["key"])
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert payload["machine"] == machine_fingerprint()
        assert payload["winner"]["config"] == config
        assert payload["candidates"]
        assert all("seconds" in c for c in payload["candidates"])

    def test_corrupt_store_file_is_invalid_miss(self):
        tuner = AutoTuner()
        _, info = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                 tuner=tuner)
        path = tuner.path(info["key"])
        path.write_text("{ not json")
        fresh = AutoTuner()
        _, info2 = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                  tuner=fresh)
        assert info2["hit"] is False
        assert fresh.stats.invalid == 1 and fresh.stats.misses == 1
        # the re-tune repaired the store
        assert json.loads(path.read_text())["schema"] == SCHEMA

    def test_foreign_schema_rejected(self):
        tuner = AutoTuner()
        _, info = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                 tuner=tuner)
        path = tuner.path(info["key"])
        path.write_text(json.dumps({"schema": "someone-else/9",
                                    "winner": {"config": {"backend": "rm"}}}))
        fresh = AutoTuner()
        config, info2 = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                       tuner=fresh)
        assert info2["hit"] is False and fresh.stats.invalid == 1
        assert config["backend"] != "rm"

    def test_in_memory_only_tuner_touches_no_disk(self):
        tuner = AutoTuner(persist=False)
        _, info = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                 tuner=tuner)
        assert not tuner.path(info["key"]).exists()
        _, info2 = resolve_config("jacobi", n=21, procs=4, repeat=1,
                                  tuner=tuner)
        assert info2["hit"] is True  # memory hit still works


class TestMeasureKernelIntegration:
    def test_autotune_record_and_warm_reuse(self):
        tuner = AutoTuner()
        record = measure_kernel("jacobi", "vector", n=21, procs=4, repeat=2,
                                autotune=True, tuner=tuner)
        tune = record["autotune"]
        assert tune["hit"] is False and tune["candidates_timed"] >= 2
        # the tuner overrode the requested backend with its winner
        assert record["backend"] == tune["winner"]["config"]["backend"]
        record2 = measure_kernel("jacobi", "vector", n=21, procs=4, repeat=2,
                                 autotune=True, tuner=tuner)
        assert record2["autotune"]["hit"] is True
        assert record2["autotune"]["candidates_timed"] == 0
        assert record2["autotune"]["stats"]["hits"] == 1
        assert record2["checksum"] == record["checksum"]


class TestCliAutotune:
    def test_exec_autotune_cold_then_warm(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["exec", "jacobi", "--backend", "jit", "--n", "21",
                       "--repeat", "1", "--autotune"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "auto-tuner: miss" in out and "candidates timed" in out
        rc = cli_main(["exec", "jacobi", "--backend", "jit", "--n", "21",
                       "--repeat", "1", "--autotune"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "auto-tuner: hit" in out
        assert "0 candidates timed" in out

    def test_exec_no_autotune_is_default(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["exec", "jacobi", "--backend", "jit", "--n", "21",
                       "--repeat", "1", "--no-autotune"])
        assert rc == 0
        assert "auto-tuner" not in capsys.readouterr().out
