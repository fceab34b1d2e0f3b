"""The self-healing subsystem: fault specs, taxonomy, breaker, retry.

Chaos engineering is only trustworthy when the chaos itself is
deterministic: the same spec against the same request sequence must
fire the same faults.  These tests pin the spec grammar (good and bad,
with errors naming their source), the plan's run/exec counters, the
failure taxonomy of :func:`classify_failure`, the recovery table (against
DESIGN.md §5d and against the ladder it drives), the circuit breaker's
step-down/probe-up state machine, the retry policy's deterministic
backoff, and — end to end — :func:`execute_resilient` recovering from
an injected worker crash by degrading one rung down the ladder while
still producing the reference bits.
"""

import dataclasses
import multiprocessing as mp
import pathlib

import pytest

from repro.codegen import emitc
from repro.runtime import backend as backend_mod
from repro.runtime import faults
from repro.runtime.faults import FaultPlan, FaultSpecError, _parse_indices
from repro.runtime.supervisor import (
    FAILURE_KINDS,
    RETRYABLE,
    CircuitBreaker,
    ExecError,
    ExecFailure,
    RetryPolicy,
    classify_failure,
    degrade_ladder,
)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="crash injection relies on fork inheritance",
)
HAVE_CC = emitc.find_compiler() is not None


@pytest.fixture
def vector_calls(monkeypatch):
    """The plans the registry's ``vector`` backend runs, recorded by a spy
    around the real runner."""
    vector = backend_mod.get_backend("vector")
    calls = []

    def spy(exec_plan, *args, **kwargs):
        calls.append(exec_plan)
        return vector.runner(exec_plan, *args, **kwargs)

    monkeypatch.setitem(backend_mod._REGISTRY, "vector",
                        dataclasses.replace(vector, runner=spy))
    return calls


class TestIndexParsing:
    def test_forms(self):
        assert _parse_indices("3", "t", "c") == frozenset({3})
        assert _parse_indices("3,7,11", "t", "c") == frozenset({3, 7, 11})
        assert _parse_indices("2..5", "t", "c") == frozenset({2, 3, 4, 5})
        assert _parse_indices("2..20/6", "t", "c") == frozenset({2, 8, 14, 20})

    def test_bad_forms_raise(self):
        for bad in ("x", "0", "-1", "5..2", "0..3", "2..8/0", "2..8/x"):
            with pytest.raises(FaultSpecError):
                _parse_indices(bad, "t", "c")


class TestSpecParsing:
    def test_multi_clause_spec(self):
        plan = FaultPlan.parse(
            "crash@run=3,7;slow@run=4:seconds=0.2:worker=1;"
            "stall@run=5:proc=1;cache_corrupt@exec=10")
        kinds = [c.kind for c in plan.clauses]
        assert kinds == ["crash", "slow", "stall", "cache_corrupt"]
        assert plan.clauses[0].runs == frozenset({3, 7})
        assert plan.clauses[1].seconds == 0.2
        assert plan.clauses[1].worker == 1
        assert plan.clauses[2].proc == 1
        assert plan.clauses[3].execs == frozenset({10})

    def test_crash_directive_carries_exitcode(self):
        plan = FaultPlan.parse("crash@run=1:exitcode=41")
        assert plan.clauses[0].directive() == {"action": "crash",
                                               "exitcode": 41}

    @pytest.mark.parametrize("spec, fragment", [
        ("explode@run=1", "unknown fault kind"),
        ("crash", "needs run="),
        ("crash@worker=1", "needs run="),
        ("cache_corrupt@run=1", "needs exec="),
        ("crash@run=", "expected key=value"),
        ("crash@run=1:color=red", "unknown key"),
        ("crash@run=1:seconds=fast", "bad seconds"),
        ("slow@run=1:seconds=nan", "bad seconds"),
        ("slow@run=1:seconds=inf", "bad seconds"),
        ("stall@run=1:seconds=-1", "bad seconds"),
        ("crash@run=1:worker=two", "bad worker"),
        ("", "empty fault spec"),
        (";;", "empty fault spec"),
    ])
    def test_bad_specs_raise_with_source(self, spec, fragment):
        with pytest.raises(FaultSpecError) as excinfo:
            FaultPlan.parse(spec, source="--chaos")
        message = str(excinfo.value)
        assert fragment in message
        assert "--chaos" in message


class TestEnvActivation:
    def test_no_plan_by_default(self):
        assert faults.active_plan() is None

    def test_env_variable_activates(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@run=2")
        plan = faults.active_plan()
        assert plan is not None and plan.clauses[0].kind == "crash"
        # parse once, then cached by raw string
        assert faults.active_plan() is plan

    def test_bad_env_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "kaboom@run=1")
        with pytest.raises(FaultSpecError, match=faults.ENV_FAULTS):
            faults.active_plan()

    def test_installed_plan_wins_and_reset_clears(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@run=2")
        installed = FaultPlan.parse("slow@run=1:seconds=0.01")
        faults.install_plan(installed)
        assert faults.active_plan() is installed
        faults.install_plan(None)
        assert faults.active_plan().spec == "crash@run=2"
        monkeypatch.delenv(faults.ENV_FAULTS)
        faults.reset()
        assert faults.active_plan() is None


class TestDeterministicFiring:
    def test_run_counter_is_plan_local(self):
        plan = FaultPlan.parse("crash@run=2")
        assert plan.take_worker_faults(2) == {}
        fired = plan.take_worker_faults(2)
        assert fired == {0: {"action": "crash",
                             "exitcode": faults.CHAOS_EXITCODE}}
        assert plan.take_worker_faults(2) == {}
        assert plan.clauses[0].fired == 1
        assert plan.describe()["runs_seen"] == 3

    def test_worker_selector_clamped_to_pool_size(self):
        plan = FaultPlan.parse("crash@run=1:worker=5")
        fired = plan.take_worker_faults(2)
        assert list(fired) == [5 % 2]

    def test_first_clause_per_worker_wins(self):
        plan = FaultPlan.parse(
            "slow@run=1:seconds=0.01;crash@run=1")
        fired = plan.take_worker_faults(2)
        assert fired[0]["action"] == "slow"

    def test_range_step_fires_each_match(self):
        plan = FaultPlan.parse("crash@run=1..5/2")
        hits = [bool(plan.take_worker_faults(2)) for _ in range(6)]
        assert hits == [True, False, True, False, True, False]

    def test_cache_fault_counter(self):
        plan = FaultPlan.parse("cache_corrupt@exec=2")
        assert plan.take_cache_fault() is False
        assert plan.take_cache_fault() is True
        assert plan.take_cache_fault() is False


class _Queue:
    """A result queue holding ``items``; empty afterwards."""

    def __init__(self, items):
        self.items = list(items)

    def get(self, timeout):
        import queue

        if not self.items:
            raise queue.Empty
        return self.items.pop(0)


class _Worker:
    def __init__(self, exitcode=None):
        self.exitcode = exitcode

    def is_alive(self):
        return self.exitcode is None


class _Sync:
    aborted = False

    def abort(self):
        self.aborted = True


def _collect(workers, items):
    """The failure :func:`collect_worker_results` raises for ``items``."""
    from repro.runtime.pool import collect_worker_results

    sync = _Sync()
    with pytest.raises(ExecError) as excinfo:
        collect_worker_results(_Queue(items), workers, sync, "mpjit")
    assert sync.aborted
    return excinfo.value.failure


class TestClassifyFailure:
    def test_jit_compile_error_kinds(self):
        """By type, not by message: only a stale module is corrupt."""
        from repro.codegen.emitpy import JitCompileError, StaleModuleError

        assert (classify_failure(JitCompileError("stale syntax error")).kind
                == "compile_error")
        assert (classify_failure(
            StaleModuleError("signature mismatch")).kind
            == "cache_corrupt")

    def test_worker_death_extracts_casualties(self):
        """The dead workers and their exit codes come from the pool's
        liveness poll, and a death outranks the peers' sync fallout."""
        failure = _collect(
            {0: _Worker(exitcode=97), 1: _Worker()},
            [(1, False, ("sync_timeout", "p2p sync aborted (a peer "
                                         "failed first)"))])
        assert failure.kind == "worker_crash"
        assert failure.workers == (0,)
        assert failure.exitcodes == (97,)
        assert failure.retryable is True
        assert "worker 0 died without reporting" in failure.message

    def test_root_cause_outranks_sync_fallout(self):
        """A worker ships its exception's kind; a peer's sync abort names
        the run only when nothing else failed."""
        fallout = (0, False, ("sync_timeout", "p2p sync aborted"))
        failure = _collect({0: _Worker(), 1: _Worker()}, [
            fallout, (1, False, ("compile_error", "JitCompileError: x"))])
        assert failure.kind == "compile_error"
        assert failure.message.index("JitCompileError") \
            < failure.message.index("p2p sync aborted")
        assert (failure.workers, failure.exitcodes) == ((), ())
        failure = _collect({0: _Worker(), 1: _Worker()}, [
            fallout, (1, False, ("sync_timeout", "no fused-done signal"))])
        assert failure.kind == "sync_timeout"

    def test_messages_are_not_parsed(self):
        from repro.runtime.fastexec import FastExecError

        for msg in ("mpjit worker 1 died without reporting a result "
                    "(exitcode 97)", "no fused-done signal from processor 2",
                    "p2p sync aborted (a peer failed first)",
                    "JitCompileError: stale"):
            failure = classify_failure(FastExecError(msg))
            assert (failure.kind, failure.workers) == ("internal", ())

    def test_exec_error_passthrough_and_fallbacks(self):
        from repro.runtime.fastexec import FastExecError

        original = ExecFailure(kind="overload", message="shed")
        assert classify_failure(ExecError(original)) is original
        assert classify_failure(FastExecError("weird")).kind == "internal"
        unknown = classify_failure(ValueError("app bug"))
        assert unknown.kind == "internal"
        assert unknown.retryable is RETRYABLE["internal"]

    def test_invalid_input_kinds(self):
        """A Theorem 1 violation or a bad strip fails on every rung."""
        from repro.core import FusionLegalityError, StripError

        for exc in (FusionLegalityError("block size 1 < Nt=3"),
                    StripError("strip must be a positive integer")):
            failure = classify_failure(exc)
            assert failure.kind == "invalid_input"
            assert failure.retryable is False

    def test_as_dict_truncates_message(self):
        failure = ExecFailure(kind="internal", message="x" * 5000)
        assert len(failure.as_dict()["message"]) == 2000


def _design_recovery_table() -> list:
    """``(kind, retryable)`` rows of DESIGN.md §5d's taxonomy table."""
    design = pathlib.Path(__file__).resolve().parents[1] / "DESIGN.md"
    section = design.read_text(encoding="utf-8").split(
        "## 5d.", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("| \n").split("|")]
            verdict = {"yes": True, "no": False}.get(cells[-1], cells[-1])
            rows.append((cells[0].strip("`"), verdict))
    return rows


class TestRecoveryTable:
    def test_every_kind_has_one_answer(self):
        assert FAILURE_KINDS == tuple(RETRYABLE)
        assert all(isinstance(v, bool) for v in RETRYABLE.values())
        # the same input fails on every rung; everything else steps down
        assert [k for k, v in RETRYABLE.items() if not v] == [
            "invalid_input"]

    def test_design_table_matches_code(self):
        assert _design_recovery_table() == list(RETRYABLE.items())

    def test_retryable_is_not_a_field(self):
        assert "retryable" not in {
            f.name for f in dataclasses.fields(ExecFailure)}
        with pytest.raises(TypeError):
            ExecFailure(kind="internal", message="x", retryable=False)
        with pytest.raises(ValueError, match="unknown failure kind"):
            ExecFailure(kind="gremlins", message="x")

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_ladder_follows_the_table(self, kind, monkeypatch):
        """A failure of ``kind`` raised by the jit rung's modules: a
        retryable kind steps down to ``vector`` and returns the jit
        bits; any other raises after one attempt."""
        from repro.runtime import execute
        from repro.runtime.execute import execute_resilient, prepare_kernel

        prep = prepare_kernel("jacobi", n=33, procs=2, backend="jit")
        reference = execute.execute_prepared(prep, "jit")[2]
        calls = []

        def failing_run_modules(backend, *args, **kwargs):
            calls.append(backend)
            raise ExecError(ExecFailure(kind=kind, message="injected"))

        monkeypatch.setattr(execute, "run_modules", failing_run_modules)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
        if RETRYABLE[kind]:
            _s, _c, digest, recovery = execute_resilient(
                prep, "jit", policy=policy, breaker=CircuitBreaker())
            assert digest == reference
            assert recovery["retries"] == 1
            assert recovery["backend_used"] == "vector"
            assert recovery["attempts"] == [{"backend": "jit", "kind": kind}]
        else:
            with pytest.raises(ExecError) as excinfo:
                execute_resilient(prep, "jit", policy=policy,
                                  breaker=CircuitBreaker())
            assert excinfo.value.failure.kind == kind
        assert calls == ["jit"]


class TestCircuitBreaker:
    def test_steps_down_after_threshold(self):
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=3600)
        assert breaker.effective_backend("sig", "mpjit") == ("mpjit", False)
        breaker.record_failure("sig", "mpjit")
        assert breaker.effective_backend("sig", "mpjit") == ("mpjit", False)
        breaker.record_failure("sig", "mpjit")
        assert breaker.effective_backend("sig", "mpjit") == ("jit", True)
        assert breaker.trips == 1
        # a different signature is unaffected
        assert breaker.effective_backend("other", "mpjit") == ("mpjit", False)

    def test_success_clears_and_cooldown_probes_up(self):
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=0.0)
        breaker.record_failure("sig", "mpjit")
        # cooldown 0: the very next request probes one rung back up
        assert breaker.effective_backend("sig", "mpjit") == ("mpjit", False)
        breaker.record_success("sig")
        assert "sig" not in breaker._state

    def test_bottom_rung_is_sticky(self):
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=3600)
        for _ in range(5):
            breaker.record_failure("sig", "mpjit")
        assert breaker.effective_backend("sig", "mpjit") == ("vector", True)

    def test_signature_cap_evicts_oldest(self):
        breaker = CircuitBreaker(threshold=1, max_signatures=2)
        for sig in ("a", "b", "c"):
            breaker.record_failure(sig, "mpjit")
        assert len(breaker._state) == 2 and "a" not in breaker._state

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("s" * 40, "mpjit")
        snap = breaker.snapshot()
        assert snap["trips"] == 1
        assert list(snap["open"]) == ["s" * 16]


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy()
        assert [policy.delay(a) for a in (1, 2, 3, 4)] == \
            [0.02, 0.08, 0.32, 0.5]

    def test_ladders(self):
        assert degrade_ladder("mpjit") == ("mpjit", "jit", "vector")
        assert degrade_ladder("jit") == ("jit", "vector")
        assert degrade_ladder("interp") == ("interp",)


class TestExecuteResilient:
    @needs_fork
    def test_crash_degrades_one_rung_and_matches_reference(self):
        """An injected worker crash on the first attempt: the retry runs
        ``jit`` and must produce the vector reference checksum."""
        from repro.runtime.execute import (
            execute_prepared,
            execute_resilient,
            prepare_kernel,
        )
        from repro.runtime.pool import shutdown_pool

        try:
            prep = prepare_kernel("jacobi", n=25, procs=2, backend="mpjit")
            _s, _c, reference = execute_prepared(
                prepare_kernel("jacobi", n=25, procs=2, backend="vector"),
                "vector")
            faults.install_plan(FaultPlan.parse("crash@run=1", source="test"))
            breaker = CircuitBreaker()
            _s, _c, digest, recovery = execute_resilient(
                prep, "mpjit", max_workers=2,
                policy=RetryPolicy(max_attempts=3), breaker=breaker)
            assert digest == reference
            assert recovery["retries"] == 1
            assert recovery["degraded"] is True
            assert recovery["backend_used"] == "jit"
            assert recovery["attempts"] == [
                {"backend": "mpjit", "kind": "worker_crash"}]
        finally:
            faults.install_plan(None)
            shutdown_pool()

    @needs_fork
    def test_exhausted_attempts_raise_structured_error(self):
        from repro.runtime.execute import (
            execute_resilient,
            prepare_kernel,
        )
        from repro.runtime.pool import shutdown_pool

        try:
            prep = prepare_kernel("jacobi", n=25, procs=2, backend="mpjit")
            faults.install_plan(FaultPlan.parse("crash@run=1", source="test"))
            with pytest.raises(ExecError) as excinfo:
                execute_resilient(prep, "mpjit", max_workers=2,
                                  policy=RetryPolicy(max_attempts=1),
                                  breaker=CircuitBreaker())
            assert excinfo.value.failure.kind == "worker_crash"
        finally:
            faults.install_plan(None)
            shutdown_pool()

    def test_vector_rung_really_runs_vector(self, vector_calls):
        """A jit failure injected twice on a warm alias hit (no plans):
        mpjit and jit fail, the last rung re-prepares for ``vector`` and
        really runs it — same bits, and ``backend_used`` tells the truth."""
        from repro.runtime.execute import (
            execute_prepared,
            execute_resilient,
            prepare_kernel,
        )
        from repro.runtime.fastexec import FastExecError

        prepare_kernel("jacobi", n=33, procs=2, backend="mpjit")
        prep = prepare_kernel("jacobi", n=33, procs=2, backend="mpjit")
        assert prep.plans == [] and prep.modules
        _s, _c, reference = execute_prepared(prep, "jit")

        def boom(arrays):
            raise FastExecError("injected jit failure")

        prep = dataclasses.replace(prep, modules=[
            dataclasses.replace(m, run=boom) for m in prep.modules])
        # one worker: mpjit runs the module in-process, so both the mpjit
        # and the jit rung hit the injected failure
        _s, _c, digest, recovery = execute_resilient(
            prep, "mpjit", max_workers=1,
            policy=RetryPolicy(max_attempts=3), breaker=CircuitBreaker())
        assert vector_calls, "the vector rung never called run_vector"
        assert digest == reference
        assert recovery["backend_used"] == "vector"
        assert recovery["retries"] == 2
        assert [a["backend"] for a in recovery["attempts"]] == ["mpjit", "jit"]

    def test_requested_vector_reprepares_once(self, vector_calls, monkeypatch):
        """Asked for ``vector`` with a plan-less prep, the first attempt
        re-prepares for ``vector`` exactly once and runs it undegraded."""
        from repro.runtime import execute
        from repro.runtime.execute import execute_resilient, prepare_kernel

        prepare_kernel("jacobi", n=33, procs=2, backend="jit")
        prep = prepare_kernel("jacobi", n=33, procs=2, backend="jit")
        assert prep.plans == [] and prep.modules
        reference = execute.execute_prepared(prep, "jit")[2]
        prepared = []

        def counting_prepare(*args, **kwargs):
            prepared.append(kwargs["backend"])
            return prepare_kernel(*args, **kwargs)

        monkeypatch.setattr(execute, "prepare_kernel", counting_prepare)
        _s, _c, digest, recovery = execute_resilient(
            prep, "vector", breaker=CircuitBreaker())
        assert prepared == ["vector"]
        assert vector_calls
        assert digest == reference
        assert recovery["backend_used"] == "vector"
        assert recovery["retries"] == 0 and not recovery["degraded"]

    def test_healthy_planless_run_never_reprepares(self, monkeypatch):
        """The zero-failure path on a warm alias hit runs the compiled
        modules as they are: re-preparing belongs to the failure path."""
        from repro.runtime import execute
        from repro.runtime.execute import execute_resilient, prepare_kernel

        prepare_kernel("jacobi", n=33, procs=2, backend="jit")
        prep = prepare_kernel("jacobi", n=33, procs=2, backend="jit")
        assert prep.plans == [] and prep.modules

        def no_prepare(*args, **kwargs):
            raise AssertionError("re-prepared on the healthy path")

        monkeypatch.setattr(execute, "prepare_kernel", no_prepare)
        _s, _c, digest, recovery = execute_resilient(
            prep, "jit", breaker=CircuitBreaker())
        assert digest == execute.execute_prepared(prep, "jit")[2]
        assert recovery["backend_used"] == "jit"
        assert recovery["retries"] == 0 and recovery["attempts"] == []


class TestExecutePrepared:
    @pytest.mark.parametrize("backend", ["jit", "mpjit", pytest.param(
        "cjit", marks=pytest.mark.skipif(
            not HAVE_CC, reason="no C compiler on PATH"))])
    def test_planless_prep_runs_module_backends(self, backend):
        """A warm alias hit runs on every module backend and produces the
        bits the planned vector run produces."""
        from repro.runtime.execute import execute_prepared, prepare_kernel
        from repro.runtime.pool import shutdown_pool

        reference = execute_prepared(
            prepare_kernel("jacobi", n=33, procs=2, backend="vector"),
            "vector")[2]
        prepare_kernel("jacobi", n=33, procs=2, backend=backend)
        prep = prepare_kernel("jacobi", n=33, procs=2, backend=backend)
        assert prep.plans == [] and prep.modules
        if backend == "cjit":
            assert prep.native_modules is not None
        try:
            _s, counters, digest = execute_prepared(prep, backend,
                                                    max_workers=1)
        finally:
            shutdown_pool()
        assert digest == reference
        assert counters["fused_iterations"] > 0

    @pytest.mark.parametrize("backend", ["interp", "vector"])
    def test_planless_prep_refuses_other_backends(self, backend):
        """A warm alias hit carries compiled modules, not plans: asking it
        for a registry backend must fail by name, not run the jit module."""
        from repro.runtime.execute import execute_prepared, prepare_kernel

        prepare_kernel("jacobi", n=33, procs=2, backend="jit")
        prep = prepare_kernel("jacobi", n=33, procs=2, backend="jit")
        assert prep.plans == [] and prep.modules
        with pytest.raises(ValueError, match=repr(backend)):
            execute_prepared(prep, backend)

    def test_planned_prep_runs_the_named_backend(self, vector_calls):
        """With plans present, a non-module backend runs through the
        registry even though compiled modules are there too."""
        from repro.runtime.execute import execute_prepared, prepare_kernel

        prep = prepare_kernel("jacobi", n=33, procs=2, backend="jit")
        assert prep.plans and prep.modules
        _s, _c, digest = execute_prepared(prep, "vector")
        assert vector_calls == prep.plans
        assert digest == execute_prepared(prep, "jit")[2]


class TestCacheCorruption:
    def test_corrupt_cache_entry_quarantined_on_next_load(self, tmp_path):
        """The chaos corruption primitive garbles a real entry; the next
        load must quarantine it to ``<entry>.bad`` and recompile."""
        from repro.runtime.plancache import PlanCache
        from test_plancache import _chain_plan

        cache = PlanCache(root=tmp_path / "c")
        ep = _chain_plan()
        module = cache.get(ep)
        name = faults.corrupt_cache_entry(cache)
        assert name == cache.source_path(module.signature).name
        assert cache.peek(module.signature) is None  # corrupt: dropped
        assert cache.stats.quarantined == 1
        bad = cache.source_path(module.signature).with_suffix(".bad")
        assert bad.exists() and "chaos" in bad.read_text()
        fresh = cache.get(ep)  # recompiled from the plan
        assert fresh.source == module.source

    def test_corrupt_cache_entry_empty_cache(self, tmp_path):
        from repro.runtime.plancache import PlanCache

        cache = PlanCache(root=tmp_path / "c")
        assert faults.corrupt_cache_entry(cache) is None
