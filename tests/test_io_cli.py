"""Bundle/report file formats and the command-line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import bihomcheck
from bihomcheck.cli import cli_main
from bihomcheck.errors import BundleFormatError
from bihomcheck.fileio import (
    bundle_from_dict,
    load_bundle,
    report_to_json,
    save_bundle,
)

from conftest import make_bundle


def shipped_catalog_paths():
    folder = resources.files("bihomcheck").joinpath("data/catalog")
    return sorted(p for p in folder.iterdir() if p.name.endswith(".json"))


MINIMAL = {
    "schema": 1,
    "dim": 1,
    "basis": ["e"],
    "ring": {"params": [], "constraints": []},
    "ops": {},
    "maps": {},
}


class TestBundleFormat:
    def test_round_trip_every_shipped_file(self, tmp_path):
        for item in shipped_catalog_paths():
            data = json.loads(item.read_text())
            data.pop("catalog")  # entry metadata is not part of the core schema
            bundle = bundle_from_dict(data)
            out = tmp_path / item.name
            save_bundle(bundle, out)
            again = load_bundle(out)
            assert again.canonical_dict() == bundle.canonical_dict()
            # canonical writes are byte-stable
            save_bundle(again, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == out.read_bytes()

    def test_round_trip_constructed_bundles(self, tmp_path, euler_wronskian, entry26):
        for i, bundle in enumerate((euler_wronskian, entry26)):
            path = tmp_path / f"b{i}.json"
            save_bundle(bundle, path)
            again = load_bundle(path)
            assert again.canonical_dict() == bundle.canonical_dict()

    def test_round_trip_fraction_entries(self, tmp_path, entry26):
        """Computed bundles can carry fraction-of-polynomial coefficients;
        they must survive a save/load cycle."""
        inverted = entry26.replace(
            maps={**entry26.maps, "binv": entry26.maps["b"].power(-1)}
        )
        # make the entries genuinely fractional
        from bihomcheck.linear import LinMap
        from bihomcheck.scalars import parse_scalar

        P = entry26.ring.params
        frac = parse_scalar("k1", P) / parse_scalar("k2 + 1", P)
        mixed = LinMap(
            entry26.space, P, [[frac, parse_scalar("0", P)], [parse_scalar("0", P), frac]]
        )
        bundle = inverted.replace(maps={**inverted.maps, "m": mixed})
        path = tmp_path / "frac.json"
        save_bundle(bundle, path)
        assert load_bundle(path).canonical_dict() == bundle.canonical_dict()

    def test_save_load_keeps_content_hash(self, tmp_path):
        """Every completed catalog entry, each of its constraint-branch
        bundles and the tensor squares of entries 20 and 26 hash the same
        after a save and a load."""
        from bihomcheck.catalog import entries, get_entry
        from bihomcheck.construct import tensor_bundle

        bundles = []
        for entry in entries().values():
            bundles.append(entry.completed_bundle())
            bundles.extend(b for _desc, b in entry.branch_bundles())
        for entry_id in (20, 26):
            square = get_entry(entry_id).completed_bundle()
            bundles.append(tensor_bundle(square, square, "bp-tbp"))
        path = tmp_path / "b.json"
        for bundle in bundles:
            save_bundle(bundle, path)
            assert load_bundle(path).content_hash() == bundle.content_hash()

    def test_trivial_bundle(self):
        bundle = bundle_from_dict(MINIMAL)
        assert bundle.space.dim == 1 and not bundle.ops and not bundle.maps

    def test_unknown_field_rejected(self):
        bad = dict(MINIMAL, extra=1)
        with pytest.raises(BundleFormatError):
            bundle_from_dict(bad)

    def test_unsupported_schema(self):
        with pytest.raises(BundleFormatError):
            bundle_from_dict(dict(MINIMAL, schema=99))

    @pytest.mark.parametrize("schema", [True, 1.0, "1"])
    def test_schema_is_the_json_integer_one(self, schema):
        """true and 1.0 equal 1 in Python, but only the integer 1 names the schema."""
        with pytest.raises(BundleFormatError, match=re.escape(f"unsupported schema {schema!r}")):
            bundle_from_dict(dict(MINIMAL, schema=schema))

    def test_index_out_of_range(self):
        bad = dict(
            MINIMAL,
            dim=2,
            basis=["e1", "e2"],
            ops={"mul": {"arity": 2, "entries": [[0, 3, 0, "1"]]}},
        )
        with pytest.raises(BundleFormatError):
            bundle_from_dict(bad)

    def test_unknown_parameter_in_coefficient(self, tmp_path):
        bad = dict(MINIMAL, maps={"a": [["k9"]]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(BundleFormatError):
            load_bundle(path)

    def test_dim_mismatch(self):
        with pytest.raises(BundleFormatError):
            bundle_from_dict(dict(MINIMAL, dim=2))

    @pytest.mark.parametrize("name", ["a^2", "b^-1", "D-1", "cyc", "2a", ""])
    def test_names_idl_can_not_spell(self, name):
        """Generated laws are .idl text, so a map named a^2 would read as
        the square of map a; such names are refused when a bundle is built."""
        with pytest.raises(BundleFormatError, match="can not be written in .idl text"):
            bundle_from_dict(dict(MINIMAL, maps={name: [["1"]]}))
        with pytest.raises(BundleFormatError, match="can not be written in .idl text"):
            bundle_from_dict(dict(MINIMAL, ops={name: {"arity": 2, "entries": []}}))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(BundleFormatError):
            load_bundle(path)


def malformed(**fields):
    good = {
        "schema": 1,
        "dim": 2,
        "basis": ["e1", "e2"],
        "ops": {"mul": {"arity": 2, "entries": []}},
        "maps": {"a": [["1", "0"], ["0", "1"]]},
    }
    return dict(good, **fields)


@pytest.fixture(scope="module")
def entry26_file(tmp_path_factory, entry26):
    path = tmp_path_factory.mktemp("bundles") / "entry26.bundle"
    save_bundle(entry26, path)
    return str(path)


@pytest.fixture(scope="module")
def qt3_file(tmp_path_factory):
    from bihomcheck.construct import truncated_polynomial_algebra

    path = tmp_path_factory.mktemp("bundles") / "qt3.json"
    save_bundle(truncated_polynomial_algebra(("t",), 3), path)
    return str(path)


class TestCli:
    def test_check_pass_exit_zero(self, entry26_file, capsys):
        assert cli_main(["check", entry26_file, "--structure", "tbp"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_check_fail_exit_one(self, entry26_file, capsys):
        code = cli_main(
            ["check", entry26_file, "--structure", "bp", "--mode", "sampled",
             "--samples", "1", "--seed", "7"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "leibniz" in out and "FAIL" in out

    def test_unknown_structure_exit_two(self, entry26_file, capsys):
        assert cli_main(["check", entry26_file, "--structure", "nope"]) == 2
        assert "unknown structure" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert cli_main(["check", "/nonexistent.bundle", "--structure", "tbp"]) == 2

    def test_malformed_bundle_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.bundle"
        path.write_text("{}")
        assert cli_main(["check", str(path), "--structure", "tbp"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, data",
        [
            ("op-without-arity", malformed(ops={"mul": {"entries": []}})),
            ("dim-not-a-number", malformed(dim="two")),
            ("map-not-a-matrix", malformed(maps={"a": 5})),
            ("duplicate-labels", malformed(basis=["e", "e"])),
            ("ring-not-an-object", malformed(ring=[])),
            ("ops-not-an-object", malformed(ops=5)),
            ("maps-not-an-object", malformed(maps=[])),
            pytest.param("deep-json", "[" * 100000 + "]" * 100000, id="deep-json"),
            pytest.param(
                "deep-coefficient",
                malformed(maps={"a": [["(" * 3000 + "1" + ")" * 3000, "0"], ["0", "1"]]}),
                id="deep-coefficient",
            ),
            pytest.param(
                "deep-idl", "forall x: " + "a(" * 3000 + "x" + ")" * 3000 + " = 0\n", id="deep-idl"
            ),
            pytest.param("long-integer", '{"schema": 1, "dim": ' + "1" * 5000 + "}", id="long-integer"),
            ("dim-a-string", malformed(dim="2")),
            ("arity-a-float", malformed(ops={"mul": {"arity": 2.0, "entries": []}})),
            ("index-a-fraction", malformed(ops={"mul": {"arity": 2, "entries": [[0.9, 0, 0, "1"]]}})),
            ("index-a-bool", malformed(ops={"mul": {"arity": 2, "entries": [[True, 0, 0, "1"]]}})),
            ("component-a-string", malformed(ops={"mul": {"arity": 2, "entries": [[0, 0, "1", "1"]]}})),
            ("schema-a-bool", malformed(schema=True)),
            ("schema-a-float", malformed(schema=1.0)),
        ],
    )
    def test_malformed_bundle_fields_exit_two(self, case, data, tmp_path, capsys):
        """Input nested past Python's recursion limit, or a JSON integer past
        int()'s 4300-digit limit, is malformed input too; the deep-idl case is
        a .idl file run with `dsl check`."""
        path = tmp_path / f"{case}.bundle"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        argv = ["check", str(path), "--structure", "tbp"]
        if case == "deep-idl":
            bundle = tmp_path / "good.bundle"
            bundle.write_text(json.dumps(malformed()))
            argv = ["dsl", "check", str(path), str(bundle)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if case.startswith("deep-"):
            assert err == "error: input nested too deeply\n"

    @pytest.mark.parametrize(
        "field, data",
        [
            ("basis", malformed(basis="ab")),
            ("params", malformed(ring={"params": "k"})),
            ("constraints", malformed(ring={"params": ["k1"], "constraints": "k1"})),
            ("entries", malformed(ops={"mul": {"arity": 2, "entries": "ab"}})),
            ("entry", malformed(ops={"mul": {"arity": 2, "entries": ["0011"]}})),
            ("map", malformed(maps={"a": "ab"})),
            ("map-row", malformed(maps={"a": ["10", "01"]})),
        ],
    )
    def test_string_for_array_exit_two(self, field, data, tmp_path, capsys):
        """A JSON string where the schema has an array is refused: iterated,
        "ab" would read as the list ["a", "b"]."""
        path = tmp_path / f"{field}.bundle"
        path.write_text(json.dumps(data))
        assert cli_main(["check", str(path), "--structure", "bihom-comm"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be a JSON array" in err

    @pytest.mark.parametrize(
        "a, report, code",
        [
            pytest.param([["1", "0"], ["1", "1"]], False, 2, id="residual"),
            pytest.param([["1", "0"], ["1", "1"]], True, 2, id="residual-report"),
            pytest.param([["1", "0"], ["0", "1"]], False, 0, id="pass"),
            pytest.param([["1", "0"], ["0", "1"]], True, 2, id="pass-report"),
        ],
    )
    def test_number_too_long_to_print_exit_two(self, a, report, code, tmp_path, capsys):
        """3^5000*3^5000 is short text but a 4772-digit value (3^10000 is
        refused as text, by the digit bound on a power). Where it must be
        printed, in the commute(a,b) residual of a non-commuting a or in the
        bundle hash of a report, the check ends in a one-line error."""
        data = malformed(
            ops={"mul": {"arity": 2, "entries": []}, "br": {"arity": 2, "entries": []}},
            maps={"a": a, "b": [["3^5000*3^5000", "0"], ["0", "1"]]},
            provenance={"name": "big"},
        )
        path = tmp_path / "big.bundle"
        path.write_text(json.dumps(data))
        argv = ["check", str(path), "--structure", "tbp"]
        if report:
            argv += ["--report", str(tmp_path / "r.json")]
        assert cli_main(argv) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == "error: number too long to print (more than 4300 digits)\n"

    def test_unreadable_paths_exit_two(self, entry26_file, tmp_path, capsys):
        """A directory, a file that is not UTF-8 or a report path that is a
        directory is a one-line error, not a traceback."""
        folder = tmp_path / "folder"
        folder.mkdir()
        latin = tmp_path / "latin1.txt"
        latin.write_bytes("forall x: b(x) - x = 0 # \xe9".encode("latin-1"))
        idl = tmp_path / "ok.idl"
        idl.write_text("forall x: b(x) - x = 0\n")
        for argv in (
            ["check", str(folder), "--structure", "tbp"],
            ["check", str(latin), "--structure", "tbp"],
            ["dsl", "check", str(folder), entry26_file],
            ["dsl", "check", str(latin), entry26_file],
            ["check", entry26_file, "--structure", "tbp", "--report", str(folder)],
            ["identities", entry26_file, "--set", "eq3.3", "--report", str(folder)],
            ["catalog", "verify", "--entries", "26", "--report", str(folder)],
        ):
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert cli_main(["dsl", "check", str(idl), entry26_file]) == 1
        capsys.readouterr()

    def test_unary_op_in_generated_law_exit_two(self, tmp_path, capsys):
        """A one-argument call is a map in the .idl grammar, so a generated
        law over an arity-1 bracket is refused instead of misread."""
        ident = [["1", "0"], ["0", "1"]]
        data = malformed(
            ops={"mul": {"arity": 2, "entries": []}, "nbr": {"arity": 1, "entries": []}},
            maps={"a": ident, "b": ident},
        )
        path = tmp_path / "unary.bundle"
        path.write_text(json.dumps(data))
        assert cli_main(["check", str(path), "--structure", "tbp-nlie"]) == 2
        err = capsys.readouterr().err
        assert err == "error: 'nbr' has arity 1; generated laws need at least 2\n"

    def test_malformed_twist_power_exit_two(self, entry26_file, tmp_path, capsys):
        out = tmp_path / "tw.bundle"
        code = cli_main(["construct", "twist", entry26_file, "-o", str(out), "--op", "mul=a^x"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad power in twist spec 'mul=a^x'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("twist", "--op", "mul=b(a,b(a"), "bundle has no linear map 'b(a'"),
            (("twist", "--op", "mul=a"), "need 2 maps, got 1"),
            (("twist", "--op", "mul=a,b,a"), "need 2 maps, got 3"),
            (
                ("derivation-tbp", "--map-a", "zz", "--allow-hypothesis-failures"),
                "bundle has no linear map 'zz'",
            ),
        ],
        ids=["unknown-slot-map", "too-few-slots", "too-many-slots", "unknown-map-a"],
    )
    def test_construct_names_checked_first(self, argv, message, qt3_file, tmp_path, capsys):
        """Every map and op a construction names is looked up, and every
        twist's slot count checked against its op, before any law is
        written or checked."""
        kind, *options = argv
        out = tmp_path / "out.json"
        assert cli_main(["construct", kind, qt3_file, "-o", str(out), *options]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_sampled_regular_singular_point(self, seed, tmp_path, capsys):
        """At a point where a is singular, regular(a) fails with a reason and
        no counterexample; the sampled report must still come out."""
        data = malformed(
            ring={"params": ["k1", "k2"], "constraints": []},
            ops={"br": {"arity": 2, "entries": []}},
            maps={"a": [["k1", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]},
        )
        path = tmp_path / "reg.bundle"
        path.write_text(json.dumps(data))
        code = cli_main(
            ["check", str(path), "--structure", "bihom-lie-regular", "--mode", "sampled",
             "--samples", "5", "--seed", str(seed)]
        )
        out = capsys.readouterr().out
        assert code == 1 and "regular(a)" in out and "determinant is zero" in out

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sampled_rational_function_bundle(self, seed, tmp_path, capsys):
        """Entry 20's branch bundle has denominators k1^2 - k1: sample points
        where they vanish are skipped, not reported as errors."""
        from bihomcheck.catalog import get_entry

        path = tmp_path / "e20-branch.bundle"
        save_bundle(get_entry(20).branch_bundles()[0][1], path)
        code = cli_main(
            ["check", str(path), "--structure", "tbp", "--mode", "sampled", "--seed", str(seed)]
        )
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert "overall: PASS" in out

    def test_point_errors_print_points_plainly(self):
        from fractions import Fraction

        from bihomcheck.errors import DenominatorVanishes

        point = {"k1": Fraction(0), "k2": Fraction(5)}
        assert str(DenominatorVanishes(point)) == "denominator vanishes at k1=0, k2=5"

    def test_usage_error_exit_two(self, capsys):
        assert cli_main(["check"]) == 2
        capsys.readouterr()

    def test_inapplicable_exit_two(self, tmp_path, capsys):
        from bihomcheck.catalog import get_entry

        path = tmp_path / "e24.bundle"
        save_bundle(get_entry(24).completed_bundle(), path)
        # the fixed power-template identity needs invertible maps
        assert cli_main(["identities", str(path), "--set", "eq3.3"]) == 2
        assert "INAPPLICABLE" in capsys.readouterr().out

    def test_report_files_byte_stable(self, entry26_file, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            code = cli_main(
                ["check", entry26_file, "--structure", "tbp", "--mode", "sampled",
                 "--samples", "2", "--seed", "5", "--report", str(r)]
            )
            assert code == 0
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()
        data = json.loads(r1.read_text())
        assert data["seed"] == 5 and data["overall"] == "pass"
        assert "tool_version" in data and "bundle_hash" in data

    def test_identity_suites(self, entry26_file, capsys):
        for name in ("thm25", "eq2.20", "eq3.3", "lemma31"):
            code = cli_main(["identities", entry26_file, "--set", name])
            capsys.readouterr()
            assert code == (1 if name == "eq2.20" else 0)

    def test_lemma31_explicit_exponents(self, entry26_file, capsys):
        code = cli_main(
            ["identities", entry26_file, "--set", "lemma31",
             "--exponents", "0,0,0,0,0,0,0,0", "--exponents=-2,0,-1,-1,-2,0,-1,-1"]
        )
        capsys.readouterr()
        assert code == 0

    def test_malformed_entry_list_exit_two(self, capsys):
        assert cli_main(["catalog", "verify", "--entries", "1-x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad entry list '1-x'") and err.count("\n") == 1

    def test_empty_entry_range_exit_two(self, capsys):
        assert cli_main(["catalog", "verify", "--entries", "5-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad entry list '5-3'") and err.count("\n") == 1

    def test_malformed_exponents_exit_two(self, entry26_file, capsys):
        for bad in ("1,2", "0,0,0,0,0,0,0,x"):
            code = cli_main(
                ["identities", entry26_file, "--set", "lemma31", "--exponents", bad]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: bad exponent tuple '{bad}'") and err.count("\n") == 1

    def test_sampled_zero_samples_exit_two(self, tmp_path, capsys):
        from bihomcheck.catalog import get_entry

        path = tmp_path / "e20.bundle"
        save_bundle(get_entry(20).bundle, path)
        code = cli_main(
            ["check", str(path), "--structure", "tbp", "--mode", "sampled", "--samples", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: sampled mode needs at least one point\n"

    def test_sampled_check_specialises_each_point_once(self, entry26_file, monkeypatch, capsys):
        """The structure check runs on the sampler's (point, bundle) cases."""
        from bihomcheck.bundle import AlgebraBundle

        points = []
        eval_at = AlgebraBundle.eval_at
        monkeypatch.setattr(
            AlgebraBundle, "eval_at", lambda b, point: points.append(point) or eval_at(b, point)
        )
        args = ["check", entry26_file, "--structure", "tbp", "--mode", "sampled"]
        assert cli_main([*args, "--samples", "5"]) == 0
        assert len(points) == 5
        capsys.readouterr()

    def test_sampled_check_without_points_exit_two(self, tmp_path, capsys):
        """3*k1 - 1 has no integer root, so no sample point can be drawn."""
        ident = [["1", "0"], ["0", "1"]]
        bundle = make_bundle(
            ["e1", "e2"],
            ("k1",),
            {"mul": (2, {}), "br": (2, {})},
            {"a": ident, "b": ident},
            constraints=["3*k1 - 1"],
        )
        path = tmp_path / "rootless.bundle"
        save_bundle(bundle, path)
        code = cli_main(["check", str(path), "--structure", "tbp", "--mode", "sampled"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: could not sample 5 constraint-satisfying points")

    def test_catalog_sampled_zero_samples_exit_two(self, capsys):
        code = cli_main(
            ["catalog", "verify", "--entries", "1", "--mode", "sampled", "--samples", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: sampled mode needs at least one point\n"

    def test_construct_and_tensor(self, tmp_path, capsys):
        from bihomcheck.construct import truncated_polynomial_algebra
        from conftest import euler_map

        qt = truncated_polynomial_algebra(("t",), 3)
        src = tmp_path / "qt.bundle"
        save_bundle(qt.replace(maps={**qt.maps, "E": euler_map(qt)}), src)
        out = tmp_path / "wr.bundle"
        code = cli_main(
            ["construct", "derivation-tbp", str(src), "-o", str(out), "--derivation", "E"]
        )
        assert code == 0
        assert cli_main(["check", str(out), "--structure", "tbp"]) == 0
        tens = tmp_path / "tt.bundle"
        assert cli_main(["tensor", str(out), str(out), "--kind", "bp-tbp", "-o", str(tens)]) == 0
        assert cli_main(["check", str(tens), "--structure", "tbp"]) == 0
        capsys.readouterr()

    def test_construct_strict_refusal(self, tmp_path, capsys):
        from bihomcheck.construct import truncated_polynomial_algebra

        qt = truncated_polynomial_algebra(("t",), 4)
        src = tmp_path / "qt4.bundle"
        save_bundle(qt, src)
        out = tmp_path / "w.bundle"
        assert cli_main(["construct", "derivation-tbp", str(src), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "derivation" in err
        code = cli_main(
            ["construct", "derivation-tbp", str(src), "-o", str(out),
             "--allow-hypothesis-failures"]
        )
        assert code == 0 and out.exists()
        capsys.readouterr()

    def test_twist_via_cli(self, entry26_file, tmp_path, capsys):
        out = tmp_path / "tw.bundle"
        code = cli_main(
            ["construct", "twist", entry26_file, "-o", str(out),
             "--op", "mul=a,b", "--op", "br=a,b"]
        )
        assert code == 0
        capsys.readouterr()

    def test_catalog_subcommands(self, capsys, tmp_path):
        assert cli_main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 27
        assert cli_main(["catalog", "show", "26"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["catalog"]["id"] == 26
        assert cli_main(["catalog", "verify", "--entries", "24-26"]) == 0
        table = capsys.readouterr().out
        assert len([l for l in table.splitlines() if l.strip()]) == 5  # header+rule+3
        report = tmp_path / "cat.json"
        assert cli_main(["catalog", "verify", "--entries", "1,26", "--report", str(report)]) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert len(data["reports"]) == 2

    @pytest.mark.parametrize("path", shipped_catalog_paths(), ids=lambda p: p.name)
    def test_catalog_show_prints_the_shipped_file(self, path, capsys):
        entry_id = int(path.name[len("entry"):-len(".json")])
        assert cli_main(["catalog", "show", str(entry_id)]) == 0
        assert capsys.readouterr().out == path.read_text(encoding="utf-8")

    def test_full_catalog_verify_byte_stable(self, tmp_path, capsys):
        r1, r2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for r in (r1, r2):
            assert cli_main(["catalog", "verify", "--report", str(r), "--seed", "3"]) == 0
            capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()

    def test_dsl_check(self, entry26_file, tmp_path, capsys):
        idl = tmp_path / "laws.idl"
        idl.write_text(
            "# id: my-law\nforall x,y: br(b(x), a(y)) + br(b(y), a(x)) = 0\n"
        )
        assert cli_main(["dsl", "check", str(idl), entry26_file]) == 0
        out = capsys.readouterr().out
        assert "my-law" in out

    def test_dsl_check_syntax_error(self, entry26_file, tmp_path, capsys):
        idl = tmp_path / "bad.idl"
        idl.write_text("forall x: mul(x, x) = 0\n")
        assert cli_main(["dsl", "check", str(idl), entry26_file]) == 2
        assert "error" in capsys.readouterr().err

    def test_dsl_check_repeated_id_exit_two(self, entry26_file, tmp_path, capsys):
        """Two laws under one id: the first fails on entry 26, so dropping it
        would print a lone PASS and exit 0."""
        idl = tmp_path / "twice.idl"
        idl.write_text(
            "# id: comm-check\nforall x,y: mul(x, y) = 0\n"
            "# id: comm-check\nforall x,y: mul(x, y) - mul(y, x) = 0\n"
        )
        assert cli_main(["dsl", "check", str(idl), entry26_file]) == 2
        assert capsys.readouterr().err == "error: at position 43: repeated id 'comm-check'\n"

    def test_dsl_check_missing_map(self, entry26_file, tmp_path, capsys):
        """A law naming a map the bundle lacks is the bundle's MissingMap
        error, as in every other lookup of a name."""
        idl = tmp_path / "missing.idl"
        idl.write_text("# id: zz-law\nforall x,y: br(zz(x), y) = 0\n")
        assert cli_main(["dsl", "check", str(idl), entry26_file]) == 2
        assert capsys.readouterr().err == "error: bundle has no linear map 'zz'\n"

    def test_dsl_check_decides_a_law_named_like_a_gated_one(self, tmp_path, capsys):
        """Only the library's plain overlap laws are inapplicable on singular
        maps; a law of a .idl file is decided whatever its id."""
        bundle = make_bundle(
            ["e"], (), {"mul": (2, {(0, 0): ("1",)}), "br": (2, {})}, {"a": [["0"]], "b": [["1"]]}
        )
        save_bundle(bundle, tmp_path / "singular.json")
        idl = tmp_path / "plain.idl"
        idl.write_text("# id: overlap-mul-br-plain\nforall x,y,z: mul(z, br(x, y)) = 0\n")
        assert cli_main(["dsl", "check", str(idl), str(tmp_path / "singular.json")]) == 0
        assert "overlap-mul-br-plain             PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text",
        ["forall x,y,z: mul(cyc(x,y){ br(x,y) }, z) = 0", "forall x: a(cyc(x){x}) = 0"],
    )
    def test_dsl_check_cyc_inside_a_call(self, text, entry26_file, tmp_path, capsys):
        idl = tmp_path / "bad.idl"
        idl.write_text(f"# id: bad\n{text}\n")
        assert cli_main(["dsl", "check", str(idl), entry26_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at position ") and err.count("\n") == 1

    def test_report_to_json_sorted(self, entry26):
        from bihomcheck.structures import check_structure

        text = report_to_json(check_structure("tbp", entry26))
        data = json.loads(text)
        ids = [v["identity"] for v in data["verdicts"]]
        assert ids == sorted(ids)


# argv of each byte-writing subcommand; {src} is the case's input bundle
# and {out} the file it writes
HASH_SEED_CASES = {
    "construct-derivation-tbp": (
        "construct", "derivation-tbp", "{src}", "-o", "{out}", "--allow-hypothesis-failures",
    ),
    "construct-twist": (
        "construct", "twist", "{src}", "-o", "{out}", "--op", "mul=a^-1,b^2",
        "--allow-hypothesis-failures",
    ),
    "construct-pre-lie": (
        "construct", "pre-lie", "{src}", "-o", "{out}", "--allow-hypothesis-failures",
    ),
    "construct-np-commutator": (
        "construct", "np-commutator", "{src}", "-o", "{out}", "--allow-hypothesis-failures",
    ),
    "construct-ternary-d": (
        "construct", "ternary-d", "{src}", "-o", "{out}", "--allow-hypothesis-failures",
    ),
    "construct-ternary-f": (
        "construct", "ternary-f", "{src}", "-o", "{out}", "--allow-hypothesis-failures",
    ),
    "construct-ternary-m": (
        "construct", "ternary-m", "{src}", "-o", "{out}", "--allow-hypothesis-failures",
    ),
    "tensor": ("tensor", "{src}", "{src}", "--kind", "bp-tbp", "-o", "{out}"),
    "check-symbolic": ("check", "{src}", "--structure", "tbp", "--report", "{out}"),
    "check-sampled": (
        "check", "{src}", "--structure", "tbp", "--mode", "sampled", "--seed", "1",
        "--report", "{out}",
    ),
    "identities-thm25": ("identities", "{src}", "--set", "thm25", "--report", "{out}"),
    "catalog-verify-symbolic": ("catalog", "verify", "--entries", "16,20,26", "--report", "{out}"),
    "catalog-verify-sampled": (
        "catalog", "verify", "--entries", "16,20,26", "--mode", "sampled", "--seed", "2",
        "--report", "{out}",
    ),
    "dsl-check": ("dsl", "check", "{idl}", "{src}"),
}


def hash_seed_source(case):
    """The input bundle of a case. construct gets a poly[t]<3 bundle whose a,
    b and D pairwise do not commute, so derivation-tbp records three
    commutation warnings in the written bundle; ternary-d and ternary-m get
    that derivation-tbp output, ternary-f gets it with an involution f
    added, and np-commutator gets the pre-lie output. check, identities,
    tensor and dsl check get a dim-2 bundle over Q(k1) on which every law
    they check fails, with residuals over Q(k1) and, when sampled, over Q."""
    if case.startswith("construct"):
        from bihomcheck.construct import truncated_polynomial_algebra
        from bihomcheck.linear import LinMap
        from bihomcheck.scalars import Scalar

        qt = truncated_polynomial_algebra(("t",), 3)

        def matrix(rows):
            return LinMap(qt.space, (), [[Scalar.rational(c) for c in row] for row in rows])

        a = matrix([[1, 1, 0], [0, 2, 0], [0, 0, 4]])
        b = matrix([[1, 0, 0], [1, 3, 0], [0, 1, 9]])
        qt = qt.replace(maps={**qt.maps, "a": a, "b": b})
        if case == "construct-np-commutator":
            from bihomcheck.construct import pre_lie_from_derivation

            return pre_lie_from_derivation(qt, require=False)
        if case.startswith("construct-ternary"):
            from bihomcheck.construct import derivation_tbp

            tbp = derivation_tbp(qt, require=False)
            if case == "construct-ternary-f":
                f = matrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
                tbp = tbp.replace(maps={**tbp.maps, "f": f})
            return tbp
        return qt
    return make_bundle(
        ["e1", "e2"],
        ("k1",),
        {
            "mul": (2, {(0, 0): ("1", "k1"), (0, 1): ("0", "1"), (1, 0): ("0", "1")}),
            "br": (2, {(0, 1): ("k1", "1"), (1, 0): ("-k1", "-1")}),
        },
        {"a": [["1", "1"], ["0", "1"]], "b": [["k1", "0"], ["0", "1"]]},
    )


@pytest.mark.parametrize("case", list(HASH_SEED_CASES))
def test_written_bytes_do_not_depend_on_hash_seed(case, tmp_path):
    """Every byte-writing subcommand prints and writes the same bytes under
    every PYTHONHASHSEED (hash seeds 0-3); dsl check prints only."""
    src = tmp_path / "input.bundle"
    save_bundle(hash_seed_source(case), src)
    idl = resources.files("bihomcheck").joinpath("data/suites/thm25.idl")
    env = dict(os.environ, PYTHONPATH=str(Path(bihomcheck.__file__).parents[1]))
    outputs = set()
    for seed in range(4):
        out = tmp_path / f"out{seed}"
        argv = [arg.format(src=src, out=out, idl=idl) for arg in HASH_SEED_CASES[case]]
        run = subprocess.run(
            [sys.executable, "-m", "bihomcheck.cli", *argv],
            env={**env, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
        )
        assert run.returncode in (0, 1), run.stderr
        written = out.read_bytes() if "{out}" in HASH_SEED_CASES[case] else b""
        outputs.add((run.stdout.replace(bytes(out), b"OUT"), written))
    assert len(outputs) == 1
