"""Byte-stability snapshots of CLI reports, printed output and `--help`.

Each case runs one CLI command with `--report` and compares the sha256 of the
written bytes and of the printed output with pinned values. The report pins
were recorded before the verdict pipeline was consolidated; any change to a
verdict, a counterexample, a reason text, a note or the key order of a report
shows up here. The report sorts verdicts by id, so only the output pin fixes
the order in which a definition runs its checks.
"""

from __future__ import annotations

import hashlib
import platform
import sys
from importlib import resources

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
from bihomcheck.structures import REGISTRY
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
        # every op a registered structure names, so each one runs to its end
        "t6s": t6.replace(ops={**t6.ops, "nbr": t6.ops["tbr"], "star": t6.ops["mul"]}),
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
    # dsl check writes no report: only its exit code and output are pinned
    "dsl-check-eq2.20-e26": (
        "dsl", "check", str(resources.files("bihomcheck") / "data/suites/eq2.20.idl"), "e26",
    ),
}

# every registered structure on one bundle: the output pin fixes the order in
# which each definition prints its checks
STRUCTURES = (
    "3-bihom-lie", "bihom-assoc", "bihom-comm", "bihom-lie", "bihom-lie-regular",
    "bihom-novikov", "bihom-np", "bihom-pre-lie", "bp", "bp-3lie", "diff-np",
    "pre-lie-comm", "pre-lie-poisson", "strong-bp", "strong-bp-3lie", "tbp", "tbp-3lie",
)
CASES.update({f"check-{s}-t6s": ("check", "t6s", "--structure", s) for s in STRUCTURES})

# case -> (exit code, sha256 of the report bytes, sha256 of the output)
PINNED = {
    "catalog-sampled-seed0": (
        0,
        "b2e17731d6ec0213b6dc430b269c4e3d59fcc7be7ac33549da756fa599a4fa64",
        "72cacb05978d585b53a9b173eb12240426cb6c95bd2c0b4a59c36f16d1cf75ba",
    ),
    "catalog-sampled-seed1": (
        0,
        "fa158f263c8cb58eefb83ed479cb9b7d02a275d1ef84fbcb79b23344a933dc28",
        "72cacb05978d585b53a9b173eb12240426cb6c95bd2c0b4a59c36f16d1cf75ba",
    ),
    "catalog-symbolic-seed0": (
        0,
        "642348c3ba99fa65b2e4990aeb7e641a2eb035276a34b7351fe96d518e2dd522",
        "72cacb05978d585b53a9b173eb12240426cb6c95bd2c0b4a59c36f16d1cf75ba",
    ),
    "catalog-symbolic-seed1": (
        0,
        "cb784c8944b4e988c452abbdc6cc111a733dcba2ada016f8f7220fe07b615f92",
        "72cacb05978d585b53a9b173eb12240426cb6c95bd2c0b4a59c36f16d1cf75ba",
    ),
    "check-bp-sampled-e26": (
        1,
        "8e1a21aa7c858e1fcb85f6110b5808198927584f59eea2a694f994a9e76b7d87",
        "e5d10de6d98169daf15ff1a189729f03fa248d977f6a2f50cc2be3d90f9b1275",
    ),
    "check-bp-symbolic-e26": (
        1,
        "f71ffdcd70a35d2b63ce805326580a743af9114f697198a1b8f9c9a6007f7327",
        "0189d8a40450f6f3b84b2f7d9b4eabef99837c6ddddf646d9cf724d88b00f54c",
    ),
    "check-nlie-sampled-t6": (
        0,
        "ebdfffc914a108b02aee6f945bfadcdd4c3387808a1e912e78bd1a66b0a8b3ab",
        "d8f4d231b1c2a75613349cbf133d5a3e2b396a92c314c5752f1e7b02f880cad0",
    ),
    "check-nlie-symbolic-t6": (
        0,
        "d5d0938188f3333caad7a58ecaf058071fea6efce78392f821c91c9aa320468e",
        "91da7dc31f2b4800444ba1c17919881fe88860426c698b7926845678181e2a0d",
    ),
    "check-regular-sampled-e26": (
        0,
        "0d2f2dce14b89fdcb6faa9ddd06e84cfca33a2f1477b38693909b9d84bb5e10f",
        "779b8dd38d0594aaef5a9a25bdf889f308a55e6c0a5e5a929091adacd541d711",
    ),
    "check-regular-symbolic-e24": (
        1,
        "345893dd154dba13524714a9bf99a021c3f47f30ec1de73820c9353080ef3d89",
        "d4c9aa49f4a9449280091694435b2449a92b0f5a4b9f66fb60d523a6d656037b",
    ),
    "check-regular-symbolic-e26": (
        0,
        "ff34586866b22388fbf075e0439866fc0e095c1224023f5acab9aaf38562d0d3",
        "9ec404500fdae3becc22fc5dd8fa145115965133d2810981f4710c35f6fbeef0",
    ),
    "check-strong-bp-symbolic-e26": (
        1,
        "83851a4caf6b376b8d447a68a4956379f56c4b824a5a391fc633c536e3f14c2e",
        "38881be4ef5d7f831576f5204c737dd303110b82278c942da94d432d8e5f23be",
    ),
    "check-tbp-sampled-e26": (
        0,
        "df0218d3bbc2f37f4200444fdebf84576e771ce0385812048488b30d2f1550a0",
        "52838e82c65e335053e8eaa94d20872edafb9c53c785bda7505432eee3f1e8b3",
    ),
    "check-tbp-symbolic-e26": (
        0,
        "dc00c253eca63d3eb8cd6506ca94879d3a55f5cc47c9dfa35bb225775143c5f7",
        "9f2c8374212120f7c97a97023673a9c3381ab3b92c3bfbdbd2108f0d6a0fcb09",
    ),
    "dsl-check-eq2.20-e26": (
        1,
        None,
        "08eb5e64009582be6ac1a1dbb4e2fecb1eeb492331019f35619ea27573f29354",
    ),
    "identities-eq2.20-e24": (
        2,
        "c13bad9ba08aa351dca3f7f3317da5fb97ed1a4f3ec7f3f592f3ab2d9e911c11",
        "41bda0137a4533bd9393b2d25797caf3b4e1e3b04be86f0d7a8e7370a2acba6c",
    ),
    "identities-eq2.20-e26": (
        1,
        "dd481792171a3972df2d402cbebe8a8796d6092ef83beebf421b68cde0706fb8",
        "9f3b47fef7093964b3a4abf710b6554acee739a79254b7e9bead4333689f5d1c",
    ),
    "identities-eq3.15-e24t": (
        2,
        "c94bb5209bf747738622543dc7e7732438a2a64d07cdaa26e21abe9fd6f553cb",
        "75b813e5445893bc31e3c53823df42a5778daba77cc8a4e1fe7fbf40de814ec4",
    ),
    "identities-eq3.15-t26": (
        0,
        "c5f51dc24ccebc5a922bcf4514e47f08fb1e148c807fceb6e529901450ff8979",
        "344f44f3288d41882aa589e4af190a5f290df05b942632709fe6a062ee4f3cf2",
    ),
    "identities-eq3.15-t6": (
        1,
        "afaf94229382903204ada810051863aadb157b9c3a3a8413ee99e053f3ca44b7",
        "0f844ea94c8a9a96ddb4ea508ab84c2b993a07ba475f191d0e09641b3ec8935f",
    ),
    "identities-eq3.18-e24t": (
        2,
        "285b2ccae941870cade53ee55e3a2c0041c7b80f8ebed2187f89ee9521a465cf",
        "c62f38902b96f81b48018e660c33eab70b5e748d3ba423b2503b3f7de81da3d3",
    ),
    "identities-eq3.18-t26": (
        0,
        "d9eb29f3e012810438fff99ccd3e5edc664061f33438efb903203075bc514039",
        "d2d79b08810a90cd5e0713bf9c41ac075ac10d2c6e5c85b13a7e3fde82988626",
    ),
    "identities-eq3.3-e24": (
        2,
        "1f395d40f75ba8afbcbaaaad92745655e94f45ba3428994cda8c70190c8ec7b9",
        "021e4a108953b89bdea624b52592a627a09cf03445be9181c2871fadcc05df37",
    ),
    "identities-eq3.3-e26": (
        0,
        "c906caa975f674cedfca91011a9c36cdfc5bf80eaa482341ec00249f453f8171",
        "31f20f8131d9a97fc15698bad8d02ce6929ba8544bc9d372dc3610bb84dd2025",
    ),
    "identities-lemma31-e24": (
        2,
        "67b21a48ddaf02d727c647b605e81e144e1b3fe462a259b87a4f57b374ffb515",
        "b4227ed904ccd72bd3c06aa3229483d184e0e1c007b1ae340fcf0b1ed7ae2a7d",
    ),
    "identities-lemma31-e26": (
        0,
        "24556fa611430f07e86d77060eb2df3200ae94ddb83f7fa7fea85c6de957f449",
        "1c0bdb352f6c2a455d2f4fee736ed2b3dff33172344690292020abca8769f783",
    ),
    "identities-thm25-e24": (
        0,
        "b95145cf38939db3d552af225b6147a284d5c2613b12d39bdb0982a0de48686f",
        "d7cd8a4fb0ad509e821dc6d356c68a658f4bed276e54cdb086a774d924a09d5c",
    ),
    "identities-thm25-e26": (
        0,
        "0c0e3dc388b78c9ca01ab7434d695a07acd62f62cf880b3d8f2a851f59644d17",
        "fb45799e44b666ffd29964a1943d38b836ff52fc084bbd9e89995970a12445f0",
    ),
    "check-3-bihom-lie-t6s": (
        0,
        "550795eb57d230d18d8964e4a1d60245901152c6ef9d3076ec5caea9888862bf",
        "b0b9439a859331c6c59eccf3c3da1945f6b7b36f3c2323d5c4e016e55a6e462c",
    ),
    "check-bihom-assoc-t6s": (
        0,
        "73c8bea07be3d40d184620becc1fe948bbb9a99cbeda9d2edc6cc79f9c3427ca",
        "4e8cd09d664657586c9e9438f6a97ada9f3ba33015b3b6e8e3a4fc4a0d07403e",
    ),
    "check-bihom-comm-t6s": (
        0,
        "c1737d0a92c20243cdc9c16c863dba238ba98e00cfa18b27c7c8b5de728ce16a",
        "b64edba3e3bb021e0bb744ceac5ce650175bc903843b8a500495784dd3f6afb0",
    ),
    "check-bihom-lie-t6s": (
        0,
        "4ff31b0000aef56cbe676fae428a9504bfe1fd9b3fb6f49b9d2be22db251f9ee",
        "fbfb68654572eb4151d860f285e7532a880e9e94e8e62c84bc21c45eaf943f16",
    ),
    "check-bihom-lie-regular-t6s": (
        0,
        "6cc49a6dae0c7166fb07f6609be5820679784845bd64aa9ccb3d0f2f9f857ead",
        "3427ae59f7650cbc4edba0f0a515d30342d4f8ae4b4e1625da5320508fdd404b",
    ),
    "check-bihom-novikov-t6s": (
        0,
        "ad42517b0974da0bb4965ac44fb33335dc596c46f06466659e294f5effe358c7",
        "2afd762c12c614152545723502e9cb1520c7f762bebf98625b8a9302d9f7da7d",
    ),
    "check-bihom-np-t6s": (
        0,
        "3f74ae9f14ace3033eb6c70243dc6ef5a733ab94c3de02fe749ef1a64fd009a8",
        "c88ee2db3e7876f2629bf12f16e2d5f0c7f3ff99af8aa4ac53291c333ffe1a48",
    ),
    "check-bihom-pre-lie-t6s": (
        0,
        "6551f2b3e71aa6900ac9f51b94ea6c86a7f572021e236d6901a91a34821352ad",
        "825d6cbec6bedc5922fd66d8439f88dd3298d5d412dd6c23ceb13a486c6ed4f7",
    ),
    "check-bp-t6s": (
        1,
        "2c642d2c01441502f3e44a077505f471db4d05fbc0723f45b5e8ce6b3cca8515",
        "3e9ddfc314c102658f3775745d5e3bf7e75cd120b0385beb1e01eb06fe7c5044",
    ),
    "check-bp-3lie-t6s": (
        1,
        "39d51075586575e14b15b10e4c61b8df388f38e735b67213f213913e5a043aca",
        "7b95c59433a3e25520fe643d06316ec414d032d654e56e284180518eafba9701",
    ),
    "check-diff-np-t6s": (
        1,
        "e33529dd09fd611e6a78bdaf391ca91c145715073e60ce0fdd78d1366ce85f4a",
        "8ab44bf18e72a37e64fb4c2fcaafbc1e064285d5d034d03131dac8d65811ae48",
    ),
    "check-pre-lie-comm-t6s": (
        1,
        "874a323a73373ce9e411ac38906ddcfee930cc1edc1eea7c02c24c17a8002f62",
        "39f88cbc3eef79ae9dc981cdb44f0702b952ccfc192768e9e87c060ba0bd4316",
    ),
    "check-pre-lie-poisson-t6s": (
        0,
        "f81d8f4b079901a1ddabdd724ac24526f015a5f559aa1a52f38c37abb60a075c",
        "808f8829d378dd41148e0aa7bede4368c9ad8255a7d999ecd67a1af3d3b57c9d",
    ),
    "check-strong-bp-t6s": (
        1,
        "e4590fd9a037e8b9288cd4ec3ce021dec5a7edccfd1046ba3aebc36c680cb9d1",
        "cd05d0b84396f66f1eccb8a9c02b9e1dee1dd3d0dad0a8ffa4a2d4c907776fee",
    ),
    "check-strong-bp-3lie-t6s": (
        1,
        "bcb3eed7f3d85e35498e0c3d08c56a769f7ea391d1ce3ff90dd33e87b6d5fd5b",
        "3fbe96b06b9fcc5a630ea45f1ddcd07cdd7c756df973068c0310aed1567a60a2",
    ),
    "check-tbp-t6s": (
        0,
        "52e8a300bc8587787a0f8338fd2626b303fc96cd0dafc7dedfcf6fad7101416c",
        "336ed0faf3fdd596e19ace478d3e7815551ab20fe5361bec1dc65773f45c5a91",
    ),
    "check-tbp-3lie-t6s": (
        0,
        "6c38adf06fa5aa316808e1eb060c1cb9128dfd9b3343436a3c013b9c5083179a",
        "a8377de6b484c0eebf0f5bb46aebcb61717fdb908ee402cd0268462996677e16",
    ),
}


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("snapshot-bundles")
    paths = {}
    for name, bundle in _bundles().items():
        paths[name] = str(folder / f"{name}.bundle")
        save_bundle(bundle, paths[name])
    return paths


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_pinned(case, bundle_files, tmp_path, capsys):
    argv = [bundle_files.get(arg, arg) for arg in CASES[case]]
    report = tmp_path / "report.json"
    if argv[0] != "dsl":
        argv += ["--report", str(report)]
    code = cli_main(argv)
    out = capsys.readouterr().out.encode()
    written = sha256(report.read_bytes()) if report.exists() else None
    assert (code, written, sha256(out)) == PINNED[case]


def test_every_structure_pinned():
    assert STRUCTURES == tuple(sorted(REGISTRY))


# --help of the top level and of every subcommand -> sha256 of the output
HELP_PINNED = {
    "": "2a7b0d17cfec507db582408c4b54dcf41fff285549706dd38a1e4d14a09d980b",
    "catalog": "b5aed44f73c6598fbb591981a557076dc3b28bb4f902070c5c41a03366b10bb6",
    "catalog list": "d565d7fb79869d92c8bc2b838241e4358ff17c568bb08e94295e98cd65eda126",
    "catalog show": "527950e4b8ae6ec716d28b7e528b1a764c0c5529376f6c74d3d5d613912f7e32",
    "catalog verify": "383aab2ffeb46f83749bf8ddafc4a72c629e55dea1e59a9b8e7393226dcb977d",
    "check": "f3b5362ffba0920b0bd46a4b72f7b94dd7cb9cf369bf24a21adfcc7c7e309104",
    "construct": "5329444e178c0c70a13d273d7c0450f6c691d4e8b6dd908a79add5ed500ace99",
    "dsl": "3dc72e97531e2f1ac7efec0c80e7c9888dddc521f5d1cb873b57d4e2252131bc",
    "dsl check": "3eadee1178ed8230b01d13b8b3abe92fa5c9c25e2290ecd64546fb65486ba8a2",
    "identities": "f5051b75db21e7cca3ff57c6115dcca819c8c54bbbf096a432ed2888c105929b",
    "tensor": "c35dec8bec9e7699fcd33c9c34f91d3627238441c431dc2f27013f43e85d7489",
}


@pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="the --help pins were recorded with the argparse of CPython 3.11",
)
@pytest.mark.parametrize("command", sorted(HELP_PINNED))
def test_help_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_main([*command.split(), "--help"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == HELP_PINNED[command]
