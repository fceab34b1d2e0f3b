"""Freeze the generated code: sha256 of the numpy and C sources per case.

The plan cache keys compiled modules by plan signature under a
``CODEGEN_VERSION`` directory, so a change to what the emitters print that
forgets to bump the version would serve stale objects.  These digests pin
the output of :func:`~repro.codegen.emitpy.emit_plan_source` and
:func:`~repro.codegen.emitc.emit_plan_c_source` for four kernels at n=65,
one and four processors (one module and one unit per plan serve every
strip, so there is no strip axis).  A deliberate codegen change bumps
``CODEGEN_VERSION`` and records the new digests under the new version.
"""

import ast
import hashlib

import pytest

from conftest import kernel_plans

from repro.codegen.emitc import emit_plan_c_source
from repro.codegen.emitpy import CODEGEN_VERSION, emit_plan_source
from repro.runtime.execute import prepare_kernel

#: CODEGEN_VERSION -> (kernel, procs, plan index) -> (py, c) sha256.  Since
#: v7 neither source depends on the strip (it is run-time data), so a
#: case has one pair.  v9's C digests differ from v8's by the version
#: lines only (checked by re-hashing with them reverted); its numpy
#: modules hold per-nest bodies and row tables.
DIGESTS = {
    9: {
        ("jacobi", 1, 0): (
            "dce895e2e9b86df9f97d2b4248272b075efe95ee94049c27a5303c730c2faf8d",
            "8b42ace70e784c3bf94a405403aea54fa6fc95dbc64ab219ddecb61c0e56d684"),
        ("jacobi", 4, 0): (
            "713e135a00acbb4e9626b76dc0ec414826a0d30563f2de8009d5b25cc3f474a6",
            "a75adc4a3b31b937a316a9be662aa653d3faa35d6eb02c73f856d61b675ad78b"),
        ("ll18", 1, 0): (
            "1a404aee72732d81fd0ec761dc04ce843fe444b8adb92bad36fc29098739abd9",
            "4a5518d66f7e5fa010c991dfccb88bce0d87d3c89be6ee55c6d3695c6b841c42"),
        ("ll18", 4, 0): (
            "d3be99696e294921a8b0246d730aa147bd659527f3ca9151008e3d0be53d60fe",
            "02e94fdb1ca8051e22a5bb21e3cd595cc80078c6b3d45a4b9ebc3c8d618bebd9"),
        ("calc", 1, 0): (
            "8c8ef505b194608610ebce0b29f5be1bec0271d31ae20f91b49363a8714a4b62",
            "b7d9ccf3407cc81e48d8fbcfd2bc37c72a9c42be193a2028efa87080c0c86d14"),
        ("calc", 4, 0): (
            "e7f682e319237698ce9632e433f245d156143c38db35d1d29e384c5aa1c48350",
            "bdd7b3e7cbf9234a269acdbd1c0ec0203d24c16829d87e9039f76f687eaf805c"),
        ("filter", 1, 0): (
            "d4d780fd81d5098b3513aac464646f039607949353427be6c6d15951a5194730",
            "d3092231ad40481bb8b18733916dbae27e9b180f14cd728a1c3902edd6a366d3"),
        ("filter", 4, 0): (
            "fbe7bed1fc076e75ef019b8308c3efd0027bb7ddae29d8661ff1224b051d8f21",
            "0eb836991a9dafcae26653349fef9c966b0a598ba5d5d96090c1bff11cc3386b"),
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kernel", ["jacobi", "ll18", "calc", "filter"])
@pytest.mark.parametrize("procs", [1, 4])
def test_generated_code_is_frozen(kernel, procs):
    assert CODEGEN_VERSION in DIGESTS, (
        f"no digests recorded for codegen version {CODEGEN_VERSION}")
    frozen = DIGESTS[CODEGEN_VERSION]
    plans = prepare_kernel(kernel, n=65, procs=procs).plans
    for index, ep in enumerate(plans):
        got = (_sha256(emit_plan_source(ep)), _sha256(emit_plan_c_source(ep)))
        assert got == frozen[(kernel, procs, index)], (
            f"{kernel} procs={procs} plan={index}: "
            "generated code changed without a CODEGEN_VERSION bump")


def _numpy_bodies(source: str) -> str:
    """The code of a numpy module: everything between the import and
    the ``BODIES`` table."""
    return source[source.index("import numpy as np"):
                  source.index("\nBODIES = ")]


@pytest.mark.parametrize("kernel", ["jacobi", "ll18", "calc", "filter"])
def test_numpy_bodies_independent_of_processor_count(kernel):
    """The numpy twin of the C unit's test: the bodies take their box as
    an argument, so their text is the same on 2 and 8 processors; only
    the row tables grow."""
    code = {}
    for procs in (2, 8):
        # n=129: all four kernels are legal on 8 processors
        _, _, plans = kernel_plans(kernel, 129, procs)
        assert [len(ep.processors) for ep in plans] == [procs]
        code[procs] = _numpy_bodies(emit_plan_source(plans[0]))
    assert code[8] == code[2]


@pytest.mark.parametrize("kernel", ["jacobi", "ll18", "calc", "filter",
                                    "spem"])
def test_numpy_module_defines_only_nest_bodies(kernel):
    """A module's only functions are its ``nest_<k>`` bodies, one per
    nest; the walk is not generated code."""
    for ep in prepare_kernel(kernel, n=65, procs=4).plans:
        nodes = list(ast.walk(ast.parse(emit_plan_source(ep))))
        assert not any(isinstance(node, ast.Lambda) for node in nodes)
        defined = [node.name for node in nodes if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        assert defined == [f"nest_{k}" for k in range(len(ep.plan.seq))]


def test_numpy_modules_stay_small():
    """The four benchmark kernels' modules at n=65, P=4 summed to
    30 799 bytes while every processor's boxes were printed as code;
    per-nest bodies must keep them under half of that."""
    total = sum(len(emit_plan_source(ep))
                for kernel in ("jacobi", "ll18", "calc", "filter")
                for ep in prepare_kernel(kernel, n=65, procs=4).plans)
    assert total < 30799 // 2, total
