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
#: case has one pair.  v8's numpy digests differ from v7's by the version
#: line only; its C units lost the walker functions.
DIGESTS = {
    8: {
        ("jacobi", 1, 0): (
            "78f6a95e41cb27f5a13be0b143f71a02ddb8f73c58db821ce5ca24804bcccb18",
            "624214e9576cbfbc438e3e715b69e96a32d7c5614d7d1bde7b2b217bc23775d1"),
        ("jacobi", 4, 0): (
            "3a6c09d5695bad652eeab7758c180785a73be11261ffdfbfc6c5edef0a72ae15",
            "c9a0bcf52bd365160050f5c644fadb9b40c71f4322ba2c0bc3d26c0578416e81"),
        ("ll18", 1, 0): (
            "91b505dca58180d618ae72a358304804c8be7d34daf3460d308dfc02793052dc",
            "e041cd04f6ff91c36894981e1e56c555c121d70cba63d768595ab21633f7d0b8"),
        ("ll18", 4, 0): (
            "d41c8a59bc5ccccdb86c424209b59f6e27cdf8c4a0a4cc5ba700796dc994dfd0",
            "c0c3d1be646d7d7139856e5341e2c7cff6b5bf6954fe3bff88831010bf1e2bce"),
        ("calc", 1, 0): (
            "f70b1670737b0f78f675fa14a614c42c1681a3058916858a78c1da8a27391384",
            "a3564de92b39e2faf68550e42c2ebe1e382ded241fe0be7fa5fed9f7c28ef4d5"),
        ("calc", 4, 0): (
            "24bef2467bb8f1efb4582a8abcfcc4308068297f254812a5b1487a5e234e5e7c",
            "fbacf492c34cd36e5cfab6b20952d1ed3d41a1f7ac9c8e0cf100a18ab1e686c7"),
        ("filter", 1, 0): (
            "80bc4b48915f1c22e5f3b06cc7adb14b715a907cc5221988d8fc939529085ebf",
            "62f9b26a25d03150ba3a0ed4448bef2056b8649f5bc8e6b1a923e77728bee45e"),
        ("filter", 4, 0): (
            "4223bdade213b943d457b266d60b81da1f1082b1b6ad3a9b9695375835865ff6",
            "fbc6d85544310bba8a4e72a5b601723ec218076d11f0eb2f977097324286aa03"),
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
