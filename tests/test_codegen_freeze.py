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

import hashlib

import pytest

from repro.codegen.emitc import emit_plan_c_source
from repro.codegen.emitpy import CODEGEN_VERSION, emit_plan_source
from repro.runtime.execute import prepare_kernel

#: CODEGEN_VERSION -> (kernel, procs, plan index) -> (py, c) sha256.  Since
#: v7 neither source depends on the strip (it is run-time data), so a
#: case has one pair.
DIGESTS = {
    7: {
        ("jacobi", 1, 0): (
            "b158f9d406b38b6b239a6831d87d5bd89c4627ab1af56f74d7a3ffa1d9abd372",
            "6be3e63dddb2413fdfbe197064debaebcbf8ea403f0aa579f9c508e3533073f3"),
        ("jacobi", 4, 0): (
            "a6a80c2aab3081a04926d96b6a9e5cd4ae1574a30cb3e0125b2b3d125287ea0a",
            "dc51c8c64130aeee71a823c2e7fa635cd6256dda9dee15b26ad8815a3b9731a5"),
        ("ll18", 1, 0): (
            "2676a458915cfe2a26ec2cdceb1d001c27ab28f9ec870e9dcf41467defba4048",
            "491db70df0304ee6cc8554af2333111abb41f375e7b006ee553447879bf473a0"),
        ("ll18", 4, 0): (
            "f576601d4dc0af505c13b18985b0fc8374b869b1fd610ac7e79a8b9e70b9b564",
            "dc3519085d1c3113ba9172b82f8a8b8e2f9b6524a8929e00aaa1d305b53ac56b"),
        ("calc", 1, 0): (
            "5d82a6c4c99e02feae5a75c32b220fb20ed901bfd780d1aee647fcdbd3df4150",
            "770da90b7315599e9ee5e82a7311b79e51d587f91206bee45d5972020494bb4e"),
        ("calc", 4, 0): (
            "8dda9d5d9f7767cf75b97d85a87ef01cc0aaed7e37990548f0c3335f516b5928",
            "66d061a7bab8aa8849ed8b2b6d7ef40c785f2afb42a35bf2706de18e02191fe2"),
        ("filter", 1, 0): (
            "b59d1b23e67f12a7935b20e173e7960e2d8b526e67156007c7baf8e13f0736c3",
            "20f05e27740afc4afec5e499256e335299c48aec4f38413613df1558de818c4e"),
        ("filter", 4, 0): (
            "102d8efdcb361b857d26fa95aa663a846dc5cbeb434af666d3d7073c0f16fa20",
            "f4e56b5433395f0bc7329eca68f334f0d77cea2f8bb7032f0638dad1cea7ed05"),
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
