"""Freeze the generated code: sha256 of the numpy and C sources per case.

The plan cache keys compiled modules by plan signature under a
``CODEGEN_VERSION`` directory, so a change to what the emitters print that
forgets to bump the version would serve stale objects.  These digests pin
the output of :func:`~repro.codegen.emitpy.emit_plan_source` and
:func:`~repro.codegen.emitc.emit_plan_c_source` for four kernels at n=65,
one and four processors, whole boxes and 4-wide strips.  A deliberate
codegen change bumps ``CODEGEN_VERSION`` and records the new digests under
the new version.
"""

import hashlib

import pytest

from repro.codegen.emitc import emit_plan_c_source
from repro.codegen.emitpy import CODEGEN_VERSION, emit_plan_source
from repro.runtime.execute import prepare_kernel

#: CODEGEN_VERSION -> (kernel, procs, plan index, strip) -> (py, c) sha256
DIGESTS = {
    6: {
        ("jacobi", 1, 0, None): (
            "caf02642ae13b69760876458e626ca23981dc266749dc5cf2a4dda3515dccb36",
            "1648d2f7897203c360f867ecf86627ad4be19f9855cea1ea706be5e62e469e4d"),
        ("jacobi", 1, 0, 4): (
            "4f5644a9bbba44d60a0d0d1d2d4129121a41c7921c166c1a4a61264d810c2dab",
            "d1be6cca2fe0bf411b9e0d9ddc3fbb433f4632c37041501a096d8319e5d30884"),
        ("jacobi", 4, 0, None): (
            "8395e76d18033ded6e49939c3ad7ccdb8c244869836a0c32a9934f8439d0ec81",
            "b6b5af40b4c1e9d5c4d72a02a074748ccbb029c28cb24e77f102c5b9c76519d1"),
        ("jacobi", 4, 0, 4): (
            "4b44ea83a98fdbd97362f67090081cda04941049148153feb92b6ff8eb030c6a",
            "917ba201fd2ddd30a0898950a856ea14687b667b5234167fa5e6a6f32ea6a6d9"),
        ("ll18", 1, 0, None): (
            "21eaebed130eab3846efee30464bcb6c13fe12d782477eeca5106a5f2abdf956",
            "a361aeda90ff8ecb52bf435dc695708fc8fe8e8c918807d3fce4674adec512ff"),
        ("ll18", 1, 0, 4): (
            "bb07834c913432fb1edbb81e0530ef4274ba67d29dc9b070b691eb2a3ae33441",
            "9e2ed283169672a113e2e0710662028abb6268640b227635e87786273315a4df"),
        ("ll18", 4, 0, None): (
            "a104891a8e02b79dbb4b8c3c9749c0a3b584c9357f18825006431167fc2a3c24",
            "621cfe5dec1a459b8911740bd281fbd40ef3562705269fa492a8f0cbdac08ad2"),
        ("ll18", 4, 0, 4): (
            "fb70ff9691e528d25246ef994b85b61a381476c19c447409e4954a707f00af7f",
            "660e5855b440b70bc22b2b19a94b6f6a6d9f26285442c811e69c01ba03a958f2"),
        ("calc", 1, 0, None): (
            "108f24412ff6a16087e50528621c79c46c17d8f0b3064610566c59d6d8fe8180",
            "f6782378dc28324bbfc1aa1b91d548583e4194f7c00575a4a88cea2c632aadc9"),
        ("calc", 1, 0, 4): (
            "e026d22816bf8d37d8cf07d55d1769bebeb0a7c6793e9d13fe968c7fdfc774fe",
            "956d735045f44e2d1376bc05ddfe32c050cd0ceb85b1712fe03de6ff1fe64cb4"),
        ("calc", 4, 0, None): (
            "50b4f452d6bc40ffd963142741b3c910298b3a2aad6b7f772854b0e2a5c1e1cd",
            "0cc8cbf7dbbbc6b88563992c22444fc391e1393b19a6de079c82598675a83cfc"),
        ("calc", 4, 0, 4): (
            "3bffdd11e751e4668afd0486c73d22419d179b3888e4fa6f30b8aba0de42e281",
            "4d56ff02b6f38d0f95ccc8f666ce456403e1309236f8c829264781af8a031a96"),
        ("filter", 1, 0, None): (
            "ccb4ff4af53e2ebae3a63b3eec91415bd5b31c219a29554c8b6216c3c0b7c91e",
            "192ea72549e799ed3c4844368839d59de4733a789b076f4cf333897a858d5a4f"),
        ("filter", 1, 0, 4): (
            "02d22d393d497bc2802a54e462332c280534cdf375021397194339abe036f056",
            "a7aa6c10cb8e99efc3462bcd9c256200e3f8306b301cc4526f958e4842a1feee"),
        ("filter", 4, 0, None): (
            "8d71761f290b7bb9330973621c3f74fbc0a7a5a404d7680a97a530574f732042",
            "5f63dddf3c075469a29be6b963562b676476b928e74d246e164361425add42a4"),
        ("filter", 4, 0, 4): (
            "49eb19dfb133d9c57913d69f38b789106f791ec6ce1c39f2db0ae6a466f3b054",
            "35dca73bcb0985e4138219d73ceffd6ac598118b73bd12169931900244f24ee5"),
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
        for strip in (None, 4):
            want = frozen[(kernel, procs, index, strip)]
            got = (_sha256(emit_plan_source(ep, strip=strip)),
                   _sha256(emit_plan_c_source(ep, strip=strip)))
            assert got == want, (
                f"{kernel} procs={procs} plan={index} strip={strip}: "
                "generated code changed without a CODEGEN_VERSION bump")
