"""Structure registry and the report-producing checkers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bihomcheck.construct import truncated_polynomial_algebra
from bihomcheck.errors import (
    MissingMap,
    MissingOp,
    NoSamplePoints,
)
from bihomcheck.linear import LinMap, MultiOp
from bihomcheck.scalars import Scalar
from bihomcheck.structures import (
    IDENTITIES,
    REGISTRY,
    StructureDef,
    check_definition,
    check_involution,
    check_structure,
    check_suite,
    commute,
    derivation_identity,
)

from conftest import (
    COMPAT_FORMS,
    basis_vector,
    euler_map,
    make_bundle,
    point_cases,
    verdict,
    zero_map,
)
from oracles import classical_transposed_poisson, rational_constants


def check_ids(defn):
    return [c if isinstance(c, str) else c[0] for c in defn.checks]


def test_registry_identities_resolve():
    for name, defn in REGISTRY.items():
        for identity_id in defn.checks:
            if isinstance(identity_id, str):
                assert identity_id in IDENTITIES, (name, identity_id)


def test_registry_composition():
    tbp = REGISTRY["tbp"]
    assert set(check_ids(tbp)) == {
        "commute(a,b)", "multiplicative(a,br)", "multiplicative(b,br)",
        "comm", "skew", "jacobi", "tcompat",
    }
    strong = check_ids(REGISTRY["strong-bp"])
    assert "leibniz" in strong and "strongness" in strong
    dnp = REGISTRY["diff-np"]
    assert set(check_ids(dnp)) == {
        "commute(a,b)",
        "comm", "novikov-left", "novikov-right", "np-compat-right", "prelie-comm-compat",
    }


def test_structure_pass_and_fail(entry26):
    assert check_structure("tbp", entry26).passed
    report = check_structure("bp", entry26)
    assert report.overall == "fail"
    bad = verdict(report, "leibniz")
    assert bad.status == "fail" and bad.counterexample.basis_tuple == (0, 0, 0)


def test_zero_bundle_is_everything(zero_bundle):
    for name in ("tbp", "bp", "strong-bp"):
        assert check_structure(name, zero_bundle).passed


def test_missing_requirements(zero_bundle, entry26):
    with pytest.raises(MissingOp):
        check_structure("bihom-novikov", entry26)
    no_maps = make_bundle(["e"], (), {"mul": (2, {})}, {})
    with pytest.raises(MissingMap):
        check_structure("bihom-comm", no_maps)


@pytest.mark.parametrize("name", ["tbp", "3-bihom-lie"])
def test_missing_name_follows_first_use(name):
    """The name reported missing is the first one the definition uses: the
    first check, commute(a,b), meets the missing map b before any law
    meets the missing bracket."""
    bundle = make_bundle(["e"], (), {"mul": (2, {})}, {"a": [["1"]]})
    with pytest.raises(MissingMap) as excinfo:
        check_structure(name, bundle)
    assert str(excinfo.value) == "bundle has no linear map 'b'"


def test_sampled_structure_mode(entry26):
    cases = point_cases(entry26, [{"k1": 2, "k2": -7}])
    report = check_structure("tbp", entry26, "sampled", cases, seed=4)
    assert report.passed and report.mode == "sampled" and report.seed == 4


def test_sampled_points_validated_on_both_paths():
    """check_structure and the n-ary path share one runner: an empty case
    list is refused, and a case on the constraint variety is checked."""
    ident = [["1", "0"], ["0", "1"]]
    bundle = make_bundle(
        ["e1", "e2"],
        ("k1", "k2"),
        {"mul": (2, {}), "br": (2, {}), "nbr": (3, {})},
        {"a": ident, "b": ident},
        constraints=["(k1 - 1)*k2"],
    )
    for name in ("tbp", "tbp-nlie"):
        with pytest.raises(NoSamplePoints):
            check_structure(name, bundle, "sampled", [])
        cases = point_cases(bundle, [{"k1": 1, "k2": 3}])
        assert check_structure(name, bundle, "sampled", cases).passed


def test_sampled_regular_fail_has_no_counterexample():
    """regular(a) fails with a reason and no counterexample at a point where
    a is singular; merging the sampled verdicts keeps it that way."""
    bundle = make_bundle(
        ["e1", "e2"],
        ("k1", "k2"),
        {"br": (2, {})},
        {"a": [["k1", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]},
    )
    cases = point_cases(bundle, [{"k1": 3, "k2": 1}, {"k1": 0, "k2": 1}])
    report = check_structure("bihom-lie-regular", bundle, "sampled", cases)
    v = verdict(report, "regular(a)")
    assert (v.status, v.reason, v.counterexample) == ("fail", "determinant is zero", None)
    assert verdict(report, "regular(b)").passed and report.overall == "fail"


def test_unknown_mode_raises_on_every_structure():
    ident = [["1", "0"], ["0", "1"]]
    bundle = make_bundle(
        ["e1", "e2"],
        (),
        {"mul": (2, {}), "br": (2, {}), "nbr": (3, {})},
        {"a": ident, "b": ident},
    )
    for name in ("tbp", "tbp-nlie"):
        with pytest.raises(ValueError, match="unknown mode"):
            check_structure(name, bundle, "bogus", [{}])


def test_consequence_suite(entry26, zero_bundle, euler_wronskian):
    assert check_suite("thm25", entry26).passed
    assert check_suite("thm25", zero_bundle).passed
    assert check_suite("thm25", euler_wronskian).passed


def degenerate_product_bundle():
    """Nonzero twisted-commutative product, zero bracket, invertible maps."""
    qt = truncated_polynomial_algebra(("t",), 3)
    ops = dict(qt.ops)
    ops["br"] = MultiOp(qt.space, (), 2, {})
    ops["tbr"] = MultiOp(qt.space, (), 3, {})
    return qt.replace(ops=ops)


def test_overlap_degenerate_bundle_passes():
    bundle = degenerate_product_bundle()
    assert check_structure("bp", bundle).passed
    assert check_structure("tbp", bundle).passed
    report = check_suite("eq2.20", bundle)
    assert report.passed  # including the plain forms: maps are invertible
    assert {v.identity for v in report.verdicts} == {
        "overlap-mul-br", "overlap-br-mul", "overlap-mul-br-plain", "overlap-br-mul-plain",
    }
    ternary = check_suite("eq3.15", bundle)
    assert ternary.passed


def test_overlap_entry26_fails(entry26):
    report = check_suite("eq2.20", entry26)
    assert report.overall == "fail"
    assert verdict(report, "overlap-br-mul").status == "fail"


def test_overlap_plain_forms_inapplicable_on_singular_maps():
    from bihomcheck.catalog import get_entry

    report = check_suite("eq2.20", get_entry(24).completed_bundle())
    assert verdict(report, "overlap-mul-br-plain").status == "inapplicable"


def derivation_report(bundle, map_name, op_names):
    """The Leibniz rule of one map over the named ops, and the map's
    commutation with both structure maps, as one definition."""
    laws = tuple(
        (f"derivation({map_name},{op})", derivation_identity(map_name, op, 2)) for op in op_names
    )
    checks = (commute(map_name, "a"), commute(map_name, "b"), *laws)
    return check_definition(StructureDef(f"derivation({map_name})", checks), bundle)


class TestDerivation:
    def test_truncated_derivative_fails_top_degree(self):
        """The plain derivative is NOT a derivation of a truncated product:
        D(t * t^3) = 0 but D(t)t^3 + tD(t^3) = 4t^3."""
        qt = truncated_polynomial_algebra(("t",), 4)
        report = derivation_report(qt, "D", ["mul"])
        assert verdict(report, "derivation(D,mul)").status == "fail"
        assert verdict(report, "derivation(D,mul)").counterexample.basis_tuple == (1, 3)

    def test_ideal_stable_derivation_passes(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        bundle = qt.replace(maps={**qt.maps, "E": euler_map(qt)})
        report = derivation_report(bundle, "E", ["mul"])
        assert report.passed

    def test_identity_map_is_not_a_derivation(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        bundle = qt.replace(maps={**qt.maps, "I": LinMap.identity(qt.space, ())})
        report = derivation_report(bundle, "I", ["mul"])
        v = verdict(report, "derivation(I,mul)")
        assert v.status == "fail"
        assert v.counterexample.basis_tuple == (0, 0)
        assert list(v.counterexample.residual) == ["-1", "0", "0", "0"]

    def test_zero_map_is_a_derivation(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        bundle = qt.replace(maps={**qt.maps, "Z": zero_map(qt.space, ())})
        assert derivation_report(bundle, "Z", ["mul"]).passed

    def test_commutation_verdicts_included(self, euler_wronskian):
        report = derivation_report(euler_wronskian, "E", ["mul", "br"])
        ids = {v.identity for v in report.verdicts}
        assert {"commute(E,a)", "commute(E,b)"} <= ids


class TestInvolution:
    def test_negated_identity_passes(self, entry26):
        neg = LinMap.identity(entry26.space, entry26.ring.params).power(1)
        neg = LinMap(
            entry26.space,
            entry26.ring.params,
            [[-c for c in row] for row in neg.rows],
        )
        bundle = entry26.replace(maps={**entry26.maps, "f": neg})
        assert check_involution(bundle).passed

    def test_identity_map_fails_antimorphism(self, entry26):
        ident = LinMap.identity(entry26.space, entry26.ring.params)
        bundle = entry26.replace(maps={**entry26.maps, "f": ident})
        report = check_involution(bundle)
        v = verdict(report, "anti-morphism(f,br)")
        assert v.status == "fail"
        # lex-first failure: f[e1,e1] + [f e1, f e1] = 2(k1 - k2) e2
        assert v.counterexample.basis_tuple == (0, 0)
        assert list(v.counterexample.residual) == ["0", "2*k1 - 2*k2"]
        # the slot f[e1,e2] + [f e1, f e2] = 2 e2 also fails
        from bihomcheck.linear import Vector
        from bihomcheck.structures import anti_morphism_identity
        from oracles import reference_eval

        value = reference_eval(
            anti_morphism_identity("f"),
            bundle,
            {
                "x": basis_vector(bundle.space, 0, bundle.ring.params),
                "y": basis_vector(bundle.space, 1, bundle.ring.params),
            }
        )
        assert [c.text() for c in value.coords] == ["0", "2"]

    def test_square_check(self, entry26):
        double = LinMap(
            entry26.space,
            entry26.ring.params,
            [[c + c for c in row] for row in LinMap.identity(entry26.space, entry26.ring.params).rows],
        )
        bundle = entry26.replace(maps={**entry26.maps, "f": double})
        report = check_involution(bundle)
        assert verdict(report, "squares-to-identity(f)").status == "fail"


class TestCompatEquivalence:
    def make_star_bundle(self):
        from bihomcheck.construct import pre_lie_from_derivation

        qt = truncated_polynomial_algebra(("t",), 4)
        return pre_lie_from_derivation(qt, require=False)

    def test_derivative_star_bundle_agrees(self):
        report = check_definition(COMPAT_FORMS, self.make_star_bundle())
        assert verdict(report, "np-compat-right").status == "pass"
        assert verdict(report, "np-compat-assoc").status == "pass"
        assert verdict(report, "comm").status == "pass"

    def test_zero_star_agrees(self):
        qt = truncated_polynomial_algebra(("t",), 3)
        bundle = qt.replace(ops={**qt.ops, "star": MultiOp(qt.space, (), 2, {})})
        assert check_definition(COMPAT_FORMS, bundle).passed

    def test_noncommutative_product_noted(self):
        bundle = make_bundle(
            ["e1", "e2"],
            (),
            {
                "mul": (2, {(0, 1): ("1", "0")}),  # e1*e2 = e1 but e2*e1 = 0
                "star": (2, {}),
            },
            {"a": [["1", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]},
        )
        report = check_definition(COMPAT_FORMS, bundle)
        assert verdict(report, "comm").status == "fail"

    def test_requires_invertible_maps(self):
        from bihomcheck.catalog import get_entry

        e24 = get_entry(24).completed_bundle()
        bundle = e24.replace(ops={**e24.ops, "star": MultiOp(e24.space, e24.ring.params, 2, {})})
        report = check_definition(COMPAT_FORMS, bundle)
        assert verdict(report, "regular(b)").status == "fail"

    def test_agreement_over_random_stars(self):
        """The two compatibility forms give the same verdict on commutative
        associative bundles with invertible maps, whatever the star op is."""
        rng = random.Random(2024)
        qt = truncated_polynomial_algebra(("t",), 3)
        agreements = 0
        for _ in range(40):
            constants = {}
            for _ in range(rng.randint(0, 5)):
                idx = (rng.randrange(3), rng.randrange(3))
                constants[idx] = tuple(
                    Scalar.rational(rng.randint(-2, 2)) for _ in range(3)
                )
            star = MultiOp(qt.space, (), 2, constants)
            bundle = qt.replace(ops={**qt.ops, "star": star})
            report = check_definition(COMPAT_FORMS, bundle)
            a = verdict(report, "np-compat-right").status
            b = verdict(report, "np-compat-assoc").status
            assert a == b
            agreements += a == "pass"
        assert 0 < agreements  # at least the zero-ish stars pass


def test_classical_checker_agreement(euler_wronskian):
    """The engine with identity structure maps decides exactly the classical
    (untwisted) transposed-Poisson axioms; compared against an independent
    brute-force checker on passing and failing instances."""
    rng = random.Random(31)
    instances = [
        (
            rational_constants(euler_wronskian.ops["mul"]),
            rational_constants(euler_wronskian.ops["br"]),
            euler_wronskian.space.dim,
        )
    ]
    for _ in range(12):
        dim = rng.randint(1, 3)
        def rand_op():
            out = {}
            for _ in range(rng.randint(0, 4)):
                idx = (rng.randrange(dim), rng.randrange(dim))
                out[idx] = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
            return out
        instances.append((rand_op(), rand_op(), dim))
    for mul_c, br_c, dim in instances:
        oracle = classical_transposed_poisson(dim, mul_c, br_c)
        labels = [f"e{i}" for i in range(dim)]
        ident = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
        bundle = make_bundle(
            labels,
            (),
            {
                "mul": (2, {k: tuple(str(c) for c in v) for k, v in mul_c.items()}),
                "br": (2, {k: tuple(str(c) for c in v) for k, v in br_c.items()}),
            },
            {"a": ident, "b": ident},
        )
        report = check_structure("tbp", bundle)
        for law in ("comm", "skew", "jacobi", "tcompat"):
            assert (verdict(report, law).status == "pass") == oracle[law], law


def test_nary_structure_at_arity_three(euler_wronskian):
    """The generated n-ary laws at n = 3 agree with the dedicated ternary
    transposed check."""
    from bihomcheck.construct import ternary_from_derivation

    quv = truncated_polynomial_algebra(("u", "v"), 3)
    e1 = euler_map(quv, 1)
    e2 = euler_map(quv, 2)
    from bihomcheck.construct import derivation_tbp

    base = derivation_tbp(quv.replace(maps={**quv.maps, "E1": e1, "E2": e2}), d_name="E1")
    t3 = ternary_from_derivation(base, d_name="E2")
    nbundle = t3.replace(ops={**t3.ops, "nbr": t3.ops["tbr"]})
    report = check_structure("tbp-nlie", nbundle)
    assert report.passed
    assert any("not checked" in n for n in report.notes)
    ids = {v.identity for v in report.verdicts}
    assert {"nskew-12", "nskew-23", "ncompat(3)"} <= ids


def test_report_serialization_sorted(entry26):
    report = check_structure("tbp", entry26)
    data = report.to_dict()
    ids = [v["identity"] for v in data["verdicts"]]
    assert ids == sorted(ids)
    assert data["overall"] == "pass"
