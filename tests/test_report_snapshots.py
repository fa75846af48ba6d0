"""Byte-stability snapshots of CLI reports.

Each case runs one CLI command with `--report` and compares the sha256 of the
written bytes with a pinned value. The pins were recorded before the verdict
pipeline was consolidated; any change to a verdict, a counterexample, a
reason text, a note or the key order of a report shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from bihomcheck.catalog import get_entry
from bihomcheck.cli import cli_main
from bihomcheck.construct import (
    derivation_tbp,
    ternary_from_derivation,
    ternary_from_involution,
    truncated_polynomial_algebra,
)
from bihomcheck.fileio import save_bundle
from bihomcheck.linear import LinMap, MultiOp
from conftest import euler_map


def neg_identity(bundle):
    rows = LinMap.identity(bundle.space, bundle.ring.params).rows
    return LinMap(bundle.space, bundle.ring.params, [[-c for c in row] for row in rows])


def _bundles():
    e26 = get_entry(26).completed_bundle()
    e24 = get_entry(24).completed_bundle()
    quv = truncated_polynomial_algebra(("u", "v"), 3)
    maps = {**quv.maps, "E1": euler_map(quv, 1), "E2": euler_map(quv, 2)}
    t6 = ternary_from_derivation(derivation_tbp(quv.replace(maps=maps), d_name="E1"), "E2")
    e24t = e24.replace(
        ops={**e24.ops, "tbr": MultiOp(e24.space, e24.ring.params, 3, {})},
        maps={**e24.maps, "f": neg_identity(e24)},
    )
    return {
        "e26": e26,
        "e24": e24,
        # tbr and f over invertible maps: every overlap form applies
        "t26": ternary_from_involution(e26.replace(maps={**e26.maps, "f": neg_identity(e26)})),
        # singular maps: the plain forms and invol-compat are inapplicable
        "e24t": e24t,
        "t6": t6.replace(ops={**t6.ops, "nbr": t6.ops["tbr"]}),
    }


CASES = {
    "identities-thm25-e26": ("identities", "e26", "--set", "thm25"),
    "identities-thm25-e24": ("identities", "e24", "--set", "thm25"),
    "identities-eq2.20-e26": ("identities", "e26", "--set", "eq2.20"),
    "identities-eq2.20-e24": ("identities", "e24", "--set", "eq2.20"),
    "identities-eq3.3-e26": ("identities", "e26", "--set", "eq3.3"),
    "identities-eq3.3-e24": ("identities", "e24", "--set", "eq3.3"),
    "identities-eq3.15-t26": ("identities", "t26", "--set", "eq3.15"),
    "identities-eq3.15-e24t": ("identities", "e24t", "--set", "eq3.15"),
    "identities-eq3.15-t6": ("identities", "t6", "--set", "eq3.15"),
    "identities-eq3.18-t26": ("identities", "t26", "--set", "eq3.18"),
    "identities-eq3.18-e24t": ("identities", "e24t", "--set", "eq3.18"),
    "identities-lemma31-e26": ("identities", "e26", "--set", "lemma31"),
    "identities-lemma31-e24": ("identities", "e24", "--set", "lemma31", "--seed", "3"),
    "check-tbp-symbolic-e26": ("check", "e26", "--structure", "tbp"),
    "check-bp-symbolic-e26": ("check", "e26", "--structure", "bp"),
    "check-strong-bp-symbolic-e26": ("check", "e26", "--structure", "strong-bp"),
    "check-regular-symbolic-e26": ("check", "e26", "--structure", "bihom-lie-regular"),
    "check-regular-symbolic-e24": ("check", "e24", "--structure", "bihom-lie-regular"),
    "check-tbp-sampled-e26": (
        "check", "e26", "--structure", "tbp", "--mode", "sampled", "--samples", "3",
    ),
    "check-bp-sampled-e26": (
        "check", "e26", "--structure", "bp", "--mode", "sampled", "--seed", "7",
    ),
    "check-regular-sampled-e26": (
        "check", "e26", "--structure", "bihom-lie-regular", "--mode", "sampled",
    ),
    "check-nlie-symbolic-t6": ("check", "t6", "--structure", "tbp-nlie"),
    "check-nlie-sampled-t6": (
        "check", "t6", "--structure", "tbp-nlie", "--mode", "sampled", "--samples", "1",
    ),
    "catalog-symbolic-seed0": ("catalog", "verify", "--mode", "symbolic", "--seed", "0"),
    "catalog-symbolic-seed1": ("catalog", "verify", "--mode", "symbolic", "--seed", "1"),
    "catalog-sampled-seed0": ("catalog", "verify", "--mode", "sampled", "--seed", "0"),
    "catalog-sampled-seed1": ("catalog", "verify", "--mode", "sampled", "--seed", "1"),
}

# case -> (exit code, sha256 of the report bytes)
PINNED = {
    "catalog-sampled-seed0": (0, "b2e17731d6ec0213b6dc430b269c4e3d59fcc7be7ac33549da756fa599a4fa64"),
    "catalog-sampled-seed1": (0, "fa158f263c8cb58eefb83ed479cb9b7d02a275d1ef84fbcb79b23344a933dc28"),
    "catalog-symbolic-seed0": (0, "642348c3ba99fa65b2e4990aeb7e641a2eb035276a34b7351fe96d518e2dd522"),
    "catalog-symbolic-seed1": (0, "cb784c8944b4e988c452abbdc6cc111a733dcba2ada016f8f7220fe07b615f92"),
    "check-bp-sampled-e26": (1, "8e1a21aa7c858e1fcb85f6110b5808198927584f59eea2a694f994a9e76b7d87"),
    "check-bp-symbolic-e26": (1, "f71ffdcd70a35d2b63ce805326580a743af9114f697198a1b8f9c9a6007f7327"),
    "check-nlie-sampled-t6": (0, "ebdfffc914a108b02aee6f945bfadcdd4c3387808a1e912e78bd1a66b0a8b3ab"),
    "check-nlie-symbolic-t6": (0, "d5d0938188f3333caad7a58ecaf058071fea6efce78392f821c91c9aa320468e"),
    "check-regular-sampled-e26": (0, "0d2f2dce14b89fdcb6faa9ddd06e84cfca33a2f1477b38693909b9d84bb5e10f"),
    "check-regular-symbolic-e24": (1, "345893dd154dba13524714a9bf99a021c3f47f30ec1de73820c9353080ef3d89"),
    "check-regular-symbolic-e26": (0, "ff34586866b22388fbf075e0439866fc0e095c1224023f5acab9aaf38562d0d3"),
    "check-strong-bp-symbolic-e26": (1, "83851a4caf6b376b8d447a68a4956379f56c4b824a5a391fc633c536e3f14c2e"),
    "check-tbp-sampled-e26": (0, "df0218d3bbc2f37f4200444fdebf84576e771ce0385812048488b30d2f1550a0"),
    "check-tbp-symbolic-e26": (0, "dc00c253eca63d3eb8cd6506ca94879d3a55f5cc47c9dfa35bb225775143c5f7"),
    "identities-eq2.20-e24": (2, "c13bad9ba08aa351dca3f7f3317da5fb97ed1a4f3ec7f3f592f3ab2d9e911c11"),
    "identities-eq2.20-e26": (1, "dd481792171a3972df2d402cbebe8a8796d6092ef83beebf421b68cde0706fb8"),
    "identities-eq3.15-e24t": (2, "c94bb5209bf747738622543dc7e7732438a2a64d07cdaa26e21abe9fd6f553cb"),
    "identities-eq3.15-t26": (0, "c5f51dc24ccebc5a922bcf4514e47f08fb1e148c807fceb6e529901450ff8979"),
    "identities-eq3.15-t6": (1, "afaf94229382903204ada810051863aadb157b9c3a3a8413ee99e053f3ca44b7"),
    "identities-eq3.18-e24t": (2, "285b2ccae941870cade53ee55e3a2c0041c7b80f8ebed2187f89ee9521a465cf"),
    "identities-eq3.18-t26": (0, "d9eb29f3e012810438fff99ccd3e5edc664061f33438efb903203075bc514039"),
    "identities-eq3.3-e24": (2, "1f395d40f75ba8afbcbaaaad92745655e94f45ba3428994cda8c70190c8ec7b9"),
    "identities-eq3.3-e26": (0, "c906caa975f674cedfca91011a9c36cdfc5bf80eaa482341ec00249f453f8171"),
    "identities-lemma31-e24": (2, "67b21a48ddaf02d727c647b605e81e144e1b3fe462a259b87a4f57b374ffb515"),
    "identities-lemma31-e26": (0, "24556fa611430f07e86d77060eb2df3200ae94ddb83f7fa7fea85c6de957f449"),
    "identities-thm25-e24": (0, "b95145cf38939db3d552af225b6147a284d5c2613b12d39bdb0982a0de48686f"),
    "identities-thm25-e26": (0, "0c0e3dc388b78c9ca01ab7434d695a07acd62f62cf880b3d8f2a851f59644d17"),
}


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("snapshot-bundles")
    paths = {}
    for name, bundle in _bundles().items():
        paths[name] = str(folder / f"{name}.bundle")
        save_bundle(bundle, paths[name])
    return paths


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_pinned(case, bundle_files, tmp_path, capsys):
    argv = list(CASES[case])
    if argv[0] != "catalog":
        argv[1] = bundle_files[argv[1]]
    report = tmp_path / "report.json"
    code = cli_main(argv + ["--report", str(report)])
    capsys.readouterr()
    assert (code, hashlib.sha256(report.read_bytes()).hexdigest()) == PINNED[case]
