"""Catalog: entry data, skew completions, per-axiom verification reports."""

from __future__ import annotations

import importlib.util
import itertools
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from bihomcheck.catalog import (
    AXIS_IDS,
    CATALOG_AXES,
    entries,
    get_entry,
    sample_points,
    solve_skew_completion,
    summary_table,
    verify_all,
    verify_entry,
)
from bihomcheck.errors import BihomError, Inconsistent, UnknownEntry
from bihomcheck.linear import Vector
from bihomcheck.rng import SplitRng
from bihomcheck.structures import check_definition, check_suite

from conftest import column, entry_cases, make_bundle, verdict


def test_all_entries_present():
    assert sorted(entries()) == list(range(1, 27))
    for entry in entries().values():
        assert entry.case in {"I", "II", "III"}
        assert entry.bundle.space.dim == 2


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        get_entry(27)


def test_case_assignment():
    # bracket trivial up to entry 20, product trivial for 21..25
    for i in range(1, 21):
        assert get_entry(i).case == "I"
        assert not get_entry(i).bundle.ops["br"].constants
    for i in range(21, 26):
        assert get_entry(i).case == "II"
        assert not get_entry(i).bundle.ops["mul"].constants
    assert get_entry(26).case == "III"


def numeric_completion(entry, point):
    """The skew completion at one parameter point: the solver run on the
    entry's given constants and maps specialised there."""
    at = entry.bundle.eval_at(point)
    return solve_skew_completion(
        at.ops["br"].constants, entry.given_br_slots, at.maps["a"], at.maps["b"]
    )


class TestCompletion:
    def test_entry26_completion_values(self):
        e = get_entry(26)
        comp = {k: tuple(c.text() for c in v) for k, v in e.completion.items()}
        # all-zero slots stay implicit, so only the (e2, e1) slot is stored
        assert comp == {(1, 0): ("0", "-1")}
        br = e.completed_bundle().ops["br"]
        assert br.value_at((1, 1)).is_zero()

    def test_entry24_all_zero(self):
        e = get_entry(24)
        assert e.completion == {}  # solved: every unknown slot is zero
        br = e.completed_bundle().ops["br"]
        for slot in ((0, 1), (1, 0), (1, 1)):
            assert br.value_at(slot).is_zero()

    def test_fully_listed_bracket_unchanged(self):
        e = get_entry(3)  # trivial bracket: every slot is listed (as zero)
        assert e.completion == {}
        assert e.completed_bundle().ops["br"] == e.bundle.ops["br"]

    def test_numeric_completion_at_points(self):
        e = get_entry(26)
        sol = numeric_completion(e, {"k1": 3, "k2": 5})
        assert {k: tuple(c.text() for c in v) for k, v in sol.items()} == {
            (1, 0): ("0", "-1"),
            (1, 1): ("0", "0"),
        }

    def test_stored_completions_rederived_at_random_points(self):
        """Every shipped completion agrees with a fresh numeric solve at five
        distinct constraint-satisfying points (so the stored data really is
        parameter-independent)."""
        unknown_dims = 0
        for entry_id, entry in entries().items():
            if entry.completion is None:
                continue  # entry 21: unsolvable, checked separately
            unknown = [
                (i, j)
                for i in range(2)
                for j in range(2)
                if (i, j) not in entry.given_br_slots
            ]
            if not unknown:
                continue
            unknown_dims += 1
            for point, _ in entry_cases(entry, 5, seed=100 + entry_id):
                sol = numeric_completion(entry, point)
                for slot in unknown:
                    stored = entry.completion.get(slot)
                    want = (
                        tuple(c.eval(point) for c in stored)
                        if stored is not None
                        else (Fraction(0), Fraction(0))
                    )
                    got = tuple(c.eval({}) for c in sol[slot])
                    assert got == want, (entry_id, slot, point)
        assert unknown_dims == 5  # entries 22..26 have open bracket slots

    def test_completion_satisfies_skew_exactly(self):
        """The completed bracket satisfies the twisted skew equations at the
        solved point, for every basis pair."""
        for entry_id in (22, 23, 24, 25, 26):
            entry = get_entry(entry_id)
            [(point, bundle)] = entry_cases(entry, 1, seed=7 + entry_id)
            br, a, b = bundle.ops["br"], bundle.maps["a"], bundle.maps["b"]
            for i in range(2):
                for j in range(2):
                    lhs = br.apply([column(b, i), column(a, j)])
                    rhs = br.apply([column(b, j), column(a, i)])
                    assert (lhs + rhs).is_zero(), (entry_id, i, j)

    def test_unsolvable_completion_raises(self):
        """The slot the listing leaves open in entry 21 admits no skew
        completion at generic constraint points."""
        entry = get_entry(21)
        assert entry.completion is None
        [(point, _)] = entry_cases(entry, 1, seed=3)
        with pytest.raises(Inconsistent):
            numeric_completion(entry, point)

    def test_symbolic_solver_matches_stored(self):
        e = get_entry(26)
        sol = solve_skew_completion(
            e.bundle.ops["br"].constants,
            e.given_br_slots,
            e.bundle.maps["a"],
            e.bundle.maps["b"],
        )
        assert {k: tuple(c.text() for c in v) for k, v in sol.items()} == {
            (1, 0): ("0", "-1"),
            (1, 1): ("0", "0"),
        }


class TestVerification:
    def test_entry26_symbolic_pass(self):
        report = verify_entry(26, "symbolic")
        assert report.passed
        assert {v.identity for v in report.verdicts} == set(AXIS_IDS)

    def test_entries_24_25_pass(self):
        assert verify_entry(24, "symbolic").passed
        assert verify_entry(25, "symbolic").passed

    def test_entry1_commute_discrepancy(self):
        report = verify_entry(1, "symbolic")
        v = verdict(report, "commute(a,b)")
        assert v.status == "fail"
        assert v.counterexample.basis_tuple == (0,)
        assert list(v.counterexample.residual) == ["0", "k1 - k2"]
        assert get_entry(1).status == "report-only"

    def test_entry6_needs_unprinted_constraint(self):
        report = verify_entry(6, "symbolic")
        assert verdict(report, "assoc").status == "fail"
        assert get_entry(6).status == "report-only"

    def test_asserted_pass_entries_pass(self):
        for entry_id, entry in entries().items():
            if entry.status == "asserted-pass":
                assert verify_entry(entry_id, "symbolic").passed, entry_id

    def test_asserted_pass_superset(self):
        asserted = {i for i, e in entries().items() if e.status == "asserted-pass"}
        assert asserted >= {24, 25, 26}

    def test_sampled_agrees_with_symbolic_for_unconstrained(self):
        for entry_id in (1, 5, 24, 26):
            sym = verify_entry(entry_id, "symbolic")
            samp = verify_entry(entry_id, "sampled", samples=3, seed=11)
            sym_status = {v.identity: v.status for v in sym.verdicts}
            samp_status = {v.identity: v.status for v in samp.verdicts}
            # a symbolic pass forces a pass at every point; symbolic failures
            # can evade detection at unlucky points but not in these entries
            assert sym_status == samp_status, entry_id

    def test_branch_verification_notes(self):
        report = verify_entry(16, "symbolic")
        assert any("branches" in n for n in report.notes)

    def test_sampled_report_points_are_the_drawn_cases(self):
        for entry_id in (16, 20, 26):
            report = verify_entry(entry_id, "sampled", samples=3, seed=2)
            drawn = entry_cases(get_entry(entry_id), 3, seed=2)
            assert report.points == [point for point, _ in drawn]

    def test_constrained_sampling_exact(self):
        for entry_id in (16, 17, 20, 21, 22, 23):
            entry = get_entry(entry_id)
            for point, _ in entry_cases(entry, 4, seed=5):
                assert entry.bundle.ring.check_point(point) is None


class TestAggregate:
    def test_verify_all_shape_and_stability(self):
        reports = verify_all("symbolic")
        assert len(reports) == 26
        table = summary_table(reports)
        assert len(table.splitlines()) == 28  # header + rule + 26 rows
        again = verify_all("symbolic")
        first = json.dumps([r.to_dict() for r in reports], sort_keys=True)
        second = json.dumps([r.to_dict() for r in again], sort_keys=True)
        assert first == second

    def test_zero_point_specialization_stable(self):
        """Specializing every parameter to 0 reduces all axes to checks over
        plain rationals; the resulting report is identical across runs."""
        outputs = []
        for _ in range(2):
            rows = {}
            for entry_id, entry in entries().items():
                bundle = entry.completed_bundle()
                point = {p: Fraction(0) for p in bundle.ring.params}
                cases = [(None, bundle.eval_at(point))]
                report = check_definition(CATALOG_AXES, bundle, cases=cases)
                rows[entry_id] = [v.to_dict() for v in report.verdicts]
            outputs.append(json.dumps(rows, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_asserted_pass_entries_satisfy_consequences(self):
        """Every asserted-pass entry also passes the cyclic consequence suite
        (including the strongness law)."""
        for entry_id, entry in entries().items():
            if entry.status != "asserted-pass":
                continue
            report = check_suite("thm25", entry.completed_bundle())
            assert report.passed, entry_id


def test_sampler_redraws_vanishing_denominators():
    """A point where a coefficient's denominator vanishes is drawn again; the
    other draws keep their order."""
    bundle = make_bundle(["e1", "e2"], ("k",), {}, {"a": [["1/k", "0"], ["0", "1"]]})
    rng = SplitRng(4).child("t")
    raw = [rng.randint(-10, 10) for _ in range(40)]
    assert 0 in raw
    cases = sample_points(bundle, 30, SplitRng(4).child("t"))
    assert [point["k"] for point, _ in cases] == [k for k in raw if k != 0][:30]
    assert all(not specialised.ring.params for _, specialised in cases)


def test_sampler_raises_when_no_point_satisfies_the_constraints():
    """3*k1 - 1 has no integer root, so no draw lands on the constraint
    variety: the sampler itself refuses, with a plain BihomError."""
    bundle = make_bundle(["e1", "e2"], ("k1",), {}, {}, constraints=["3*k1 - 1"])
    with pytest.raises(BihomError) as info:
        sample_points(bundle, 2, SplitRng(0).child("t"))
    assert not isinstance(info.value, Inconsistent)
    assert str(info.value).startswith("could not sample 2 constraint-satisfying points")


def test_split_rng_is_deterministic_and_splittable():
    a = SplitRng(42).child("x")
    b = SplitRng(42).child("x")
    assert [a.randint(0, 100) for _ in range(5)] == [b.randint(0, 100) for _ in range(5)]
    c = SplitRng(42).child("y")
    assert [c.randint(0, 100) for _ in range(5)] != [b.randint(0, 100) for _ in range(5)]


def build_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "build_catalog.py"
    spec = importlib.util.spec_from_file_location("build_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_script_regenerates_the_shipped_entries(capsys):
    """The build script derives every shipped entry file byte for byte, and
    prints the same inconsistent row for entry 21; the completion solve's
    pivot order decides that row's unreduced fraction."""
    built = build_script().build_entries()
    folder = resources.files("bihomcheck").joinpath("data/catalog")
    assert [e.entry_id for e in built] == list(range(1, 27))
    for entry in built:
        text = json.dumps(entry.to_dict(), indent=2, ensure_ascii=False, sort_keys=True) + "\n"
        shipped = folder.joinpath(f"entry{entry.entry_id:02d}.json").read_text(encoding="utf-8")
        assert text == shipped, entry.entry_id
    assert capsys.readouterr().out == (
        "  entry 21: completion inconsistent (inconsistent system row: "
        "0 = (k1^4*k3^2 + 2*k1^3*k2*k3^2"
        " - k1^4*k3 - 2*k1^3*k2*k3 - k1^3*k3^2 + k1^3*k3)/(k1^3*k3))\n"
    )
