"""Byte-stability pins of the bundles that `construct` and `tensor` write.

Each case runs one CLI construction and compares the sha256 of the written
bundle file with a pinned value. A case's input is either a base bundle or
the output of an earlier case. Polynomial fractions are never gcd-reduced,
so over Q(params) the printed coefficients depend on the order in which
sums and map products are formed; the dense dim-2 bundle over Q(k) shows a
change of that order in every ternary kind.
"""

from __future__ import annotations

import hashlib

import pytest

from bihomcheck.catalog import get_entry
from bihomcheck.cli import cli_main
from bihomcheck.construct import truncated_polynomial_algebra
from bihomcheck.fileio import save_bundle
from bihomcheck.linear import LinMap
from conftest import euler_map, make_bundle

ALLOW = "--allow-hypothesis-failures"


def neg_identity(bundle):
    rows = LinMap.identity(bundle.space, bundle.ring.params).rows
    return LinMap(bundle.space, bundle.ring.params, [[-c for c in row] for row in rows])


def _bundles():
    qt4 = truncated_polynomial_algebra(("t",), 4)
    quv = truncated_polynomial_algebra(("u", "v"), 3)
    e26 = get_entry(26).completed_bundle()
    return {
        "qt4e": qt4.replace(maps={**qt4.maps, "E": euler_map(qt4)}),
        "quv": quv.replace(maps={
            **quv.maps, "E1": euler_map(quv, 1), "E2": euler_map(quv, 2),
            "f": neg_identity(quv),
        }),
        "e20": get_entry(20).completed_bundle(),
        "e26": e26,
        "e26s": e26.replace(ops={**e26.ops, "star": e26.ops["mul"]}),
        # dense, non-triangular a and b over Q(k): b^-1 has the denominator
        # k - 1, so map products print differently when re-associated
        "qk": make_bundle(
            ["e1", "e2"],
            ("k",),
            {
                "mul": (2, {(0, 0): ("0", "1")}),
                "br": (2, {(0, 1): ("1", "0"), (1, 0): ("-1", "0")}),
                "star": (2, {(0, 0): ("0", "1")}),
            },
            {
                "a": [["2", "1"], ["1", "1"]],
                "b": [["1", "1"], ["1", "k"]],
                "D": [["1", "0"], ["0", "-1"]],
                "f": [["-1", "0"], ["0", "-1"]],
            },
        ),
    }


# case -> argv; an argument naming a base bundle or an earlier case is
# replaced by that bundle's file, and -o is added
CASES = {
    "derivation-tbp-qt4e": ("construct", "derivation-tbp", "qt4e", "--derivation", "E"),
    "pre-lie-qt4e": ("construct", "pre-lie", "qt4e", "--derivation", "E"),
    "np-commutator-qt4e": ("construct", "np-commutator", "pre-lie-qt4e"),
    "tensor-pre-lie-qt4e": (
        "tensor", "pre-lie-qt4e", "pre-lie-qt4e", "--kind", "pre-lie-poisson",
    ),
    # the perfbench dim6_ternary recipe, plus the other two ternary kinds
    "derivation-tbp-quv-E1": ("construct", "derivation-tbp", "quv", "--derivation", "E1"),
    "ternary-d-quv-E2": (
        "construct", "ternary-d", "derivation-tbp-quv-E1", "--derivation", "E2",
    ),
    "ternary-f-quv": ("construct", "ternary-f", "derivation-tbp-quv-E1"),
    "ternary-m-quv": ("construct", "ternary-m", "derivation-tbp-quv-E1", ALLOW),
    # the perfbench bad_ternary recipe
    "derivation-tbp-quv-Du": ("construct", "derivation-tbp", "quv", "--derivation", "Du", ALLOW),
    "ternary-d-quv-Dv": (
        "construct", "ternary-d", "derivation-tbp-quv-Du", "--derivation", "Dv", ALLOW,
    ),
    "twist-e20": ("construct", "twist", "e20", "--op", "mul=a,b^-1", ALLOW),
    "twist-e26": (
        "construct", "twist", "e26", "--op", "mul=a^-1,b^2", "--op", "br=b^-1,a", ALLOW,
    ),
    "ternary-m-e20": ("construct", "ternary-m", "e20", ALLOW),
    "np-commutator-e26s": ("construct", "np-commutator", "e26s", ALLOW),
    "tensor-e20": ("tensor", "e20", "e20", "--kind", "bp-tbp"),
    "tensor-e26": ("tensor", "e26", "e26", "--kind", "bp-tbp"),
    "derivation-tbp-qk": ("construct", "derivation-tbp", "qk", ALLOW),
    "pre-lie-qk": ("construct", "pre-lie", "qk", ALLOW),
    "np-commutator-qk": ("construct", "np-commutator", "qk", ALLOW),
    "ternary-d-qk": ("construct", "ternary-d", "qk", ALLOW),
    "ternary-f-qk": ("construct", "ternary-f", "qk", ALLOW),
    "ternary-m-qk": ("construct", "ternary-m", "qk", ALLOW),
    "twist-qk": (
        "construct", "twist", "qk", "--op", "mul=a^-1,b^2", "--op", "br=b^-2,a", ALLOW,
    ),
}

# case -> sha256 of the written bundle
PINNED = {
    "derivation-tbp-qt4e": "1996d7c1ea7395f83e7e1ef0315388ff66fe150e22228ca71281da99ba845c4d",
    "pre-lie-qt4e": "f35edf10c948cd849537623e2c839c0bd9659cfe9494cc5b89b6e8ea8cabcccc",
    "np-commutator-qt4e": "3a4e15b4e3c57fccb3b95078944d443b995e4ba980eb278114fe4b4c2a53b47f",
    "tensor-pre-lie-qt4e": "2b1b27eda1cd997de9d709786d124a74bbd86c3b71f678c909633c5aed383564",
    "derivation-tbp-quv-E1": "2f3377fcfc6c9507f55d32985c699423a5a8e38d4076330e31ac1e4525ecdd84",
    "ternary-d-quv-E2": "0418462aaacc2adfea994a5a9b093457963abf0db347d620d18a438430d886e2",
    "ternary-f-quv": "0f295b243994e97f9eff34173459b6b0419ca41d071667b471f913fd4dcd1ae0",
    "ternary-m-quv": "fa1c5a52551ff539efc58ded7cbf021579a51635abdb24bfc0239a5efd5326fc",
    "derivation-tbp-quv-Du": "4b6414cc31b6edcfe0449ddb6e1ae4c82a474ab02a2d863650b4b2214e5f4cc1",
    "ternary-d-quv-Dv": "9980b3d6579faa0a573366917db8a8c3852389646ffcab690786b6034fc06abf",
    "twist-e20": "29d50c81e8a5d00375326507e2fc1af7affaeae8491a79c50f69d7337750c6b7",
    "twist-e26": "c668f6c8978d1d88d20f7d01a329ffa3526cfaf496d457ad22f4cfc224173ebf",
    "ternary-m-e20": "3522b21f4ed100dec4e7391e238ede8f6f1e36935e9bfb647b61e33c3af1b196",
    "np-commutator-e26s": "9ff770f00a1110703cd368086198dc15cd25716e2cba70df58c68a9b42f6ccf4",
    "tensor-e20": "02f0faf3084a5c2dec89148b9ccf0a9c047beef3d8865502678cf879f82a5965",
    "tensor-e26": "55189ec5e75a26f8d35828601854c1897dfd79901e45323334e44dbae47289c9",
    "derivation-tbp-qk": "e40a8aea34df826481e567b57df32fa05c302abd7235ff766d6ff9670b2f88de",
    "pre-lie-qk": "4801b0d065ea06752e910f7d8e605ef8ac7e3806974c501989747d59560870c6",
    "np-commutator-qk": "5d8a1355cc627b80511fb6dd4b7bec96f08d09296c1d38145092e1738ad6147a",
    "ternary-d-qk": "7568952143fb126be6b9ef93a798253751c5dd9e778376d7565744b5ed66d2f6",
    "ternary-f-qk": "8b853ef053696d83dd03e281eac489548bd61d0a9066f2140f0dce4a6b1efaeb",
    "ternary-m-qk": "9e8b1f0ec6a072e990c39d8a758f16373f352cc9378eaa39278ff75423b4b74f",
    "twist-qk": "2b78e3c5c6277b8622a94547deef5584cff1e01f773779481cac4988cffffe3a",
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The sha256 of every case's output, in CASES order."""
    folder = tmp_path_factory.mktemp("construct-bytes")
    paths = {}
    for name, bundle in _bundles().items():
        paths[name] = str(folder / f"{name}.bundle")
        save_bundle(bundle, paths[name])
    digests = {}
    for case, argv in CASES.items():
        out = folder / f"{case}.bundle"
        argv = [paths.get(arg, arg) for arg in argv]
        assert cli_main([*argv, "-o", str(out)]) == 0, case
        paths[case] = str(out)
        digests[case] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", list(CASES))
def test_written_bundle_bytes_pinned(case, written):
    assert written[case] == PINNED[case]
