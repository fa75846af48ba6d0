"""Identity engine: exhaustive basis checking, counterexamples, sampled mode,
and the exponent-template family."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from bihomcheck.catalog import entries, get_entry, sample_points
from bihomcheck.dsl import MapApply, OpApply, Var, parse_identity, print_identity
from bihomcheck.engine import (
    BoundIdentity,
    Counterexample,
    FIXED_EXPONENTS,
    Verdict,
    check_identity,
    instantiate_power_identity,
    merge,
)
from bihomcheck.errors import (
    ArityMismatch,
    DenominatorVanishes,
    MissingMap,
    MissingOp,
    NoSamplePoints,
    NotInvertible,
)
from bihomcheck.linear import Vector
from bihomcheck.rng import SplitRng
from bihomcheck.scalars import Scalar, parse_scalar
from bihomcheck.structures import (
    IDENTITIES,
    REGISTRY,
    SUITES,
    StructureDef,
    check_definition,
    check_power_suite,
    commute_identity,
    multiplicativity_identity,
)

from conftest import basis_vector, make_bundle, point_cases, verdict
from oracles import dense_evaluator, reference_eval


def test_skew_passes_on_completed_bundle(entry26):
    assert check_identity(IDENTITIES["skew"], entry26, "skew").passed


def test_skew_fails_with_zero_forced_completion(entry26_zero_forced):
    v = check_identity(IDENTITIES["skew"], entry26_zero_forced, "skew")
    assert v.status == "fail"
    assert v.counterexample.basis_tuple == (0, 0)
    assert list(v.counterexample.residual) == ["0", "2*k1"]


def test_zero_bundle_satisfies_everything(zero_bundle):
    for identity_id in ("comm", "assoc", "skew", "jacobi", "leibniz", "tcompat"):
        assert check_identity(IDENTITIES[identity_id], zero_bundle, identity_id).passed


def test_unknown_name():
    bundle = make_bundle(["e"], (), {"mul": (2, {})}, {})
    with pytest.raises((MissingOp, MissingMap)):
        check_identity(parse_identity("forall x,y: br(x, y) = 0"), bundle)
    with pytest.raises((MissingOp, MissingMap)):
        check_identity(parse_identity("forall x: a(x) = 0"), bundle)


def test_arity_mismatch():
    bundle = make_bundle(["e"], (), {"mul": (2, {})}, {})
    with pytest.raises(ArityMismatch):
        check_identity(parse_identity("forall x,y,z: mul(x, y, z) = 0"), bundle)


@pytest.mark.parametrize(
    "text, first",
    [
        ("forall x,y: a^-1(mul(x, y)) = 0", None),
        ("forall x,y: mul(a^-1(x), y) = 0", "mul"),
        ("forall x,y: br(c(x), d(y)) = 0", "c"),
    ],
)
def test_bind_resolves_names_in_first_use_order(text, first):
    """Binding meets map powers and ops in pre-order of first use, so the
    first name that can not be resolved decides the error; a singular map
    met before an unknown op makes the verdict inapplicable."""
    bundle = make_bundle(
        ["e1", "e2"], (), {"br": (2, {})}, {"a": [["1", "0"], ["0", "0"]]}
    )
    ident = parse_identity(text)
    if first is None:
        assert check_identity(ident, bundle).status == "inapplicable"
        return
    with pytest.raises((MissingOp, MissingMap)) as info:
        check_identity(ident, bundle)
    assert info.value.name == first


def check_sampled(ident, bundle, points, identity_id="identity"):
    """One law checked at parameter points by the runner of every sampled
    check."""
    defn = StructureDef(identity_id, ((identity_id, ident),))
    report = check_definition(defn, bundle, "sampled", point_cases(bundle, points))
    return verdict(report, identity_id)


def test_sampled_leibniz_counterexample(entry26):
    v = check_sampled(IDENTITIES["leibniz"], entry26, [{"k1": 3, "k2": 5}], "leibniz")
    assert v.status == "fail"
    assert v.counterexample.basis_tuple == (0, 0, 0)
    assert list(v.counterexample.residual) == ["0", "1"]
    assert v.counterexample.point == {"k1": Fraction(3), "k2": Fraction(5)}


def test_sampled_point_must_satisfy_constraints():
    bundle = make_bundle(
        ["e1", "e2"],
        ("k1", "k2"),
        {"mul": (2, {})},
        {"a": [["1", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]},
        constraints=["(k1 - 1)*k2"],
    )
    # the sampler draws only points on the constraint variety
    cases = sample_points(bundle, 5, SplitRng(0).child("points"))
    assert len(cases) == 5
    assert all(bundle.ring.check_point(point) is None for point, _ in cases)
    defn = StructureDef("comm", ("comm",))
    assert check_definition(defn, bundle, "sampled", cases).passed


def test_basis_sufficiency(entry26):
    """An identity passing the exhaustive basis check vanishes on random full
    vectors too (this is exactly what linearity buys)."""
    rng = random.Random(99)
    for identity_id in ("skew", "jacobi", "tcompat", "comm"):
        assert check_identity(IDENTITIES[identity_id], entry26).passed
        for _ in range(25):
            assignment = {
                name: Vector(
                    entry26.space,
                    entry26.ring.params,
                    [Scalar.rational(rng.randint(-5, 5), entry26.ring.params) for _ in range(2)],
                )
                for name in IDENTITIES[identity_id].vars
            }
            assert reference_eval(IDENTITIES[identity_id], entry26, assignment).is_zero()


def test_counterexample_is_lex_minimal(entry26_zero_forced):
    ident = IDENTITIES["skew"]
    verdict = check_identity(ident, entry26_zero_forced)
    basis = [basis_vector(entry26_zero_forced.space, i, entry26_zero_forced.ring.params) for i in range(2)]
    failures = []
    for tup in itertools.product(range(2), repeat=2):
        value = reference_eval(
            ident, entry26_zero_forced, {n: basis[i] for n, i in zip(ident.vars, tup)}
        )
        if not value.is_zero():
            failures.append(tup)
    assert failures and min(failures) == verdict.counterexample.basis_tuple


def reference_verdict(ident, bundle, identity_id):
    """The plain lex walk over reference_eval, with no compilation."""
    params = bundle.ring.params
    basis = [basis_vector(bundle.space, i, params) for i in range(bundle.space.dim)]
    for tup in itertools.product(range(bundle.space.dim), repeat=len(ident.vars)):
        try:
            residual = reference_eval(
                ident, bundle, {n: basis[i] for n, i in zip(ident.vars, tup)}
            )
        except NotInvertible:
            return Verdict(identity_id, "inapplicable")
        if not residual.is_zero():
            texts = tuple(c.text() for c in residual.coords)
            return Verdict(identity_id, "fail", counterexample=Counterexample(tup, texts))
    return Verdict(identity_id, "pass")


def assert_matches_reference(ident, bundle, identity_id):
    verdict = check_identity(ident, bundle, identity_id)
    expected = reference_verdict(ident, bundle, identity_id)
    assert verdict.status == expected.status, identity_id
    if expected.status == "fail":
        assert verdict.to_dict() == expected.to_dict(), identity_id
    return verdict


def assert_residuals_match_dense(ident, bundle, identity_id):
    """BoundIdentity.residual equals the dense oracle's value at every basis
    tuple; a singular map stops both."""
    dense = dense_evaluator(ident, bundle)
    try:
        bound = BoundIdentity(ident, bundle)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            dense((0,) * len(ident.vars))
        return
    for tup in itertools.product(range(bundle.space.dim), repeat=len(ident.vars)):
        got, want = bound.residual(tup).coords, dense(tup)
        assert all(g == w for g, w in zip(got, want)), (identity_id, tup)


# non-integer coordinates for the free parameters of a catalog entry
POINT_VALUES = tuple(
    Fraction(n, d) for n, d in ((1, 3), (-2, 5), (7, 2), (5, 4), (-3, 7), (9, 8))
)


def rational_point(entry):
    """A point with non-integer free coordinates on the entry's first
    constraint branch (the constrained parameters solved through it)."""
    params = entry.bundle.ring.params
    subs = entry.branches[0] if entry.branches else {}
    free = tuple(p for p in params if p not in subs)
    for shift in range(len(POINT_VALUES)):
        point = {p: POINT_VALUES[(i + shift) % len(POINT_VALUES)] for i, p in enumerate(free)}
        try:
            for name, text in subs.items():
                point[name] = parse_scalar(text, free).eval(point)
        except DenominatorVanishes:
            continue
        if entry.bundle.ring.check_point(point) is None:
            return {p: point[p] for p in params}
    raise AssertionError(f"no rational point for entry {entry.entry_id}")


# the structure-map laws of tbp: map chains a(b(x)) and maps over op values
TBP_PREDICATES = {
    "commute(a,b)": commute_identity("a", "b"),
    "multiplicative(a,br)": multiplicativity_identity("a", "br", 2),
    "multiplicative(b,br)": multiplicativity_identity("b", "br", 2),
}

# the laws with negative map powers
INVERSE_LAWS = {
    "power-fixed": IDENTITIES["power-fixed"],
    "eq31-fixed": instantiate_power_identity("eq31", FIXED_EXPONENTS),
    "eq32-mixed": instantiate_power_identity("eq32", (1, -1, 2, 0, -2, 1, 0, 1)),
}


@pytest.mark.parametrize("entry_id", sorted(entries()))
def test_compiled_walk_matches_reference_on_catalog(entry_id):
    """Status, lex-first counterexample and residual text of the compiled
    evaluator equal those of the reference walk, on every catalog entry:
    over Q(params), and specialised at a point with non-integer coordinates,
    where the op and map denominators are cleared to integers. At every
    basis tuple the residual also equals the dense oracle's value, which
    shares no kernel with the engine."""
    entry = get_entry(entry_id)
    bundle = entry.completed_bundle()
    laws = {
        identity_id: IDENTITIES[identity_id]
        for identity_id in sorted(
            c
            for c in REGISTRY["tbp"].checks + REGISTRY["bp"].checks + SUITES["thm25"].checks
            if isinstance(c, str)
        )
    }
    laws.update(TBP_PREDICATES)
    laws.update(INVERSE_LAWS)
    for case in (bundle, bundle.eval_at(rational_point(entry))):
        for identity_id, ident in laws.items():
            assert_matches_reference(ident, case, identity_id)
            assert_residuals_match_dense(ident, case, identity_id)


def test_compiled_walk_matches_dense_on_dim6(dim6_transposed):
    """The tbp laws on a dim-6 Q-bundle, where ops and maps
    have more than one nonzero coordinate per value, agree with the dense
    oracle at every basis tuple."""
    laws = {i: IDENTITIES[i] for i in REGISTRY["tbp"].checks if isinstance(i, str)}
    for identity_id, ident in {**TBP_PREDICATES, **laws}.items():
        assert_residuals_match_dense(ident, dim6_transposed, identity_id)


def test_compiled_residual_text_on_rational_functions():
    """On entry 20 the inverse maps have polynomial denominators, and the
    repeated monomial below is merged by the compiled evaluator, so its own
    sum would print (-k1^3*k3 + 2*k1*k3^3)/(k1^2*k3^2): the same value with
    another numerator/denominator pair. The report must carry the reference
    walk's text."""
    bundle = get_entry(20).completed_bundle()
    ident = parse_identity(
        "forall x,y: mul(a^-1(x), a^-1(y)) - mul(b^-1(x), b^-1(y))"
        " + mul(a^-1(x), a^-1(y)) = 0"
    )
    verdict = assert_matches_reference(ident, bundle, "rf")
    assert verdict.counterexample.basis_tuple == (0, 0)
    assert list(verdict.counterexample.residual) == [
        "0",
        "(-k1^5*k3 + 2*k1^3*k3^3)/(k1^4*k3^2)",
    ]


@pytest.mark.parametrize(
    "text, status",
    [
        ("forall x,y: mul(h(x), y) + mul(x, h(y)) - mul(x, y) = 0", "pass"),
        ("forall x,y: mul(h(x), y) - mul(x, y) = 0", "fail"),
    ],
)
def test_terms_over_different_step_denominators(text, status):
    """Over Q the walk's step values are integers over a step denominator:
    15 for mul(x, y) (the op's constants over their lcm) and 30 for
    mul(h(x), y) with h = id/2. The first law cancels exactly only when each
    term is weighted by lcm / its denominator, and the second fails at the
    first tuple where mul does not vanish, though its integer values are
    equal."""
    bundle = make_bundle(
        ["e1", "e2"],
        (),
        {"mul": (2, {(0, 1): ("0", "1/3"), (1, 0): ("0", "1/3"), (1, 1): ("3/5", "0")})},
        {"h": [["1/2", "0"], ["0", "1/2"]]},
    )
    verdict = assert_matches_reference(parse_identity(text), bundle, "law")
    assert verdict.status == status
    if status == "fail":
        assert verdict.counterexample.basis_tuple == (0, 1)
        assert list(verdict.counterexample.residual) == ["0", "-1/6"]


def test_sampled_needs_a_point(entry26):
    with pytest.raises(NoSamplePoints):
        check_sampled(IDENTITIES["comm"], entry26, [])


def test_merge_keeps_a_fail_without_counterexample():
    """A verdict that fails with a reason only (such as regular(a)) is left
    as it is; a labelled fail with a counterexample records its point."""
    regular = Verdict("regular(a)", "fail", reason="determinant is zero")
    law = Verdict("law", "fail", counterexample=Counterexample((0,), ("1",)))
    merged = merge([
        ({"k1": Fraction(2)}, [Verdict("regular(a)", "pass"), law]),
        ({"k1": Fraction(0)}, [regular, Verdict("law", "pass")]),
    ])
    assert merged[0] is regular and regular.counterexample is None
    assert merged[1].counterexample.point == {"k1": Fraction(2)}
    unlabelled = Verdict("law", "fail", counterexample=Counterexample((0,), ("1",)))
    assert merge([(None, [unlabelled])])[0].counterexample.point is None


def test_sampled_later_fail_beats_earlier_inapplicable():
    """At k1 = 0 the map a is singular (inapplicable), at k1 = 2 the law
    fails: the fail wins, as it does in Report.overall."""
    bundle = make_bundle(
        ["e1", "e2"],
        ("k1",),
        {"br": (2, {(0, 0): ("1", "0")})},
        {"a": [["k1", "0"], ["0", "1"]]},
    )
    ident = parse_identity("forall x,y: br(a^-1(x), y) = 0")
    v = check_sampled(ident, bundle, [{"k1": 0}, {"k1": 2}], "law")
    assert v.status == "fail"
    assert v.counterexample.point == {"k1": Fraction(2)}
    assert check_sampled(ident, bundle, [{"k1": 0}], "law").status == "inapplicable"


def test_cyc_of_cyc_is_three_times(entry26):
    """A cyclic sum of an already cyclically-summed body is 3x the single sum,
    so the difference is identically zero."""
    body = "mul(a(b^2(x)), br(a(b(y)), a^2(z)))"
    text = (
        f"forall x,y,z: cyc(x,y,z){{ cyc(x,y,z){{ {body} }} }}"
        f" - 3*cyc(x,y,z){{ {body} }} = 0"
    )
    assert check_identity(parse_identity(text), entry26).passed


class TestPowerTemplates:
    def test_zero_exponents_shape(self):
        ident = instantiate_power_identity("eq31")
        # the first argument of the first bracket term drops its zero alpha
        # power entirely: plain b^2(y)
        first = ident.terms[0][1]
        assert first.children[0].children[0] == MapApply("b", 2, Var("y"))

    def test_fixed_instance_matches_template(self, entry26):
        """The lemma31 suite names each law by its exponent tuple, and the
        template at the fixed tuple decides as the fixed instance does."""
        report = check_power_suite(entry26, [FIXED_EXPONENTS])
        fixed = "(-2, 0, -1, -1, -2, 0, -1, -1)"
        assert [v.identity for v in report.verdicts] == [
            f"power-1@{fixed}", f"power-2@{fixed}", "power-fixed"
        ]
        assert report.verdicts[1].status == report.verdicts[2].status == "pass"

    def test_fixed_instance_matches_handwritten_text(self):
        assert instantiate_power_identity("eq32", FIXED_EXPONENTS) == IDENTITIES["power-fixed"]

    def test_first_template_passes_on_entry26(self, entry26):
        for exps in ((0,) * 8, FIXED_EXPONENTS, (1, -1, 2, 0, -2, 1, 0, 1)):
            for which in ("eq31", "eq32"):
                v = check_identity(instantiate_power_identity(which, exps), entry26)
                assert v.passed, (which, exps)

    def test_inapplicable_on_singular_maps(self):
        from bihomcheck.catalog import get_entry

        e24 = get_entry(24).completed_bundle()  # its second structure map is singular
        v = check_identity(IDENTITIES["power-fixed"], e24, "power-fixed")
        assert v.status == "inapplicable"
        assert "invertible" in v.reason or "determinant" in v.reason

    def test_unknown_template(self):
        for which in ("eq33", "eq99"):
            with pytest.raises(ValueError):
                instantiate_power_identity(which)


def test_verdict_serialization(entry26_zero_forced):
    v = check_identity(IDENTITIES["skew"], entry26_zero_forced, "skew")
    data = v.to_dict()
    assert data["status"] == "fail"
    assert data["counterexample"]["basis_tuple"] == [0, 0]
