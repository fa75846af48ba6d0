"""Implication properties over generated instance families (dim <= 6).

Each family below is built so the hypothesis side genuinely holds on at least
twenty instances; a few hypothesis-violating bundles are mixed in to confirm
the implications are tested, not assumed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bihomcheck.construct import (
    derivation_tbp,
    pre_lie_from_derivation,
    tensor_bundle,
    truncated_polynomial_algebra,
    yau_twist,
    TwistSpec,
)
from bihomcheck.linear import LinMap, MultiOp
from bihomcheck.scalars import Scalar
from bihomcheck.structures import (
    IDENTITIES,
    check_definition,
    check_structure,
    check_suite,
)
from bihomcheck.engine import check_identity

from conftest import COMPAT_FORMS, entry_cases, euler_map, make_bundle, verdict


def scaling_map(bundle, c):
    """Degree-respecting scaling of a truncated polynomial algebra: the
    basis monomial of total degree d is multiplied by c^d."""
    labels = bundle.space.labels
    dim = bundle.space.dim

    def degree(label):
        if label == "1":
            return 0
        return sum(
            int(part.split("^")[1]) if "^" in part else 1 for part in label.split("*")
        )

    rows = [
        [Scalar.rational(c ** degree(labels[i]) if i == j else 0) for j in range(dim)]
        for i in range(dim)
    ]
    return LinMap(bundle.space, (), rows)


def transposed_instances():
    """(label, bundle) pairs expected to satisfy the transposed axioms."""
    out = []
    # catalog entries, specialized at constraint-satisfying points
    from bihomcheck.catalog import entries

    for entry_id, entry in entries().items():
        if entry.status != "asserted-pass":
            continue
        for point, bundle in entry_cases(entry, 2, seed=50 + entry_id):
            out.append((f"entry{entry_id}@{point}", bundle))
    # ideal-stable derivation brackets on truncated power algebras
    for order in (2, 3, 4):
        qt = truncated_polynomial_algebra(("t",), order)
        for c in (1, 2):
            e = euler_map(qt)
            scaled = LinMap(qt.space, (), [[x + x for x in row] for row in e.rows]) if c == 2 else e
            bundle = derivation_tbp(qt.replace(maps={**qt.maps, "E": scaled}), d_name="E")
            out.append((f"wronskian[{order}]x{c}", bundle))
    # twisted variant
    qt = truncated_polynomial_algebra(("t",), 4)
    wr = derivation_tbp(qt.replace(maps={**qt.maps, "E": euler_map(qt)}), d_name="E")
    twisted_input = wr.replace(maps={**wr.maps, "a": scaling_map(wr, 2), "b": scaling_map(wr, 3)})
    out.append(
        (
            "twisted-wronskian",
            yau_twist(
                twisted_input,
                [TwistSpec("mul", (("a", 1), ("b", 1))), TwistSpec("br", (("a", 1), ("b", 1)))],
            ),
        )
    )
    # zero-bracket degenerate bundles
    for order in (2, 3):
        qt = truncated_polynomial_algebra(("t",), order)
        out.append(
            (f"degenerate[{order}]", qt.replace(ops={**qt.ops, "br": MultiOp(qt.space, (), 2, {})}))
        )
    # tensor product (dim 4 = 2 x 2)
    qt2 = truncated_polynomial_algebra(("t",), 2)
    w2 = derivation_tbp(qt2.replace(maps={**qt2.maps, "E": euler_map(qt2)}), d_name="E")
    out.append(("tensor[2x2]", tensor_bundle(w2, w2, "bp-tbp")))
    return out


def novikov_star_instances():
    """(label, bundle) pairs: bundles expected to satisfy the Novikov-Poisson
    laws, plus two hypothesis-violating ones (labels starting "bad-")."""
    out = []
    for order in (2, 3, 4, 5):
        qt = truncated_polynomial_algebra(("t",), order)
        e = euler_map(qt)
        for c in (1, 2, 3):
            scaled = LinMap(
                qt.space,
                (),
                [[Scalar.rational(c) * x for x in row] for row in e.rows],
            )
            bundle = pre_lie_from_derivation(
                qt.replace(maps={**qt.maps, "E": scaled}), d_name="E"
            )
            out.append((f"star[{order}]x{c}", bundle))
    # BiHom-twisted stars: graded scalings are algebra automorphisms that
    # commute with t*d/dt, so they serve as the structure maps a and b
    for order in (3, 4):
        qt = truncated_polynomial_algebra(("t",), order)
        for c1, c2 in ((2, 3), (1, 2), (3, 1)):
            maps = {"E": euler_map(qt), "a": scaling_map(qt, c1), "b": scaling_map(qt, c2)}
            bundle = pre_lie_from_derivation(qt.replace(maps={**qt.maps, **maps}), d_name="E")
            out.append((f"star[{order}]a{c1}b{c2}", bundle))
    # Yau twist of an untwisted star by the same kind of maps
    qt = truncated_polynomial_algebra(("t",), 4)
    star = pre_lie_from_derivation(qt.replace(maps={**qt.maps, "E": euler_map(qt)}), d_name="E")
    twisted_input = star.replace(
        maps={**star.maps, "a": scaling_map(star, 2), "b": scaling_map(star, 3)}
    )
    out.append(
        (
            "twisted-star[4]",
            yau_twist(
                twisted_input,
                [TwistSpec("mul", (("a", 1), ("b", 1))), TwistSpec("star", (("a", 1), ("b", 1)))],
            ),
        )
    )
    quv = truncated_polynomial_algebra(("u", "v"), 3)
    for order, q in ((2, truncated_polynomial_algebra(("u", "v"), 2)), (3, quv)):
        for idx, label in ((1, "u"), (2, "v")):
            bundle = pre_lie_from_derivation(
                q.replace(maps={**q.maps, "E": euler_map(q, idx)}), d_name="E"
            )
            out.append((f"star[uv{order}]{label}", bundle))
    # mixed derivation u*dv is ideal-stable too; build it directly as
    # multiply-by-u after dv
    dv = quv.maps["Dv"]
    cols = [quv.ops["mul"].value_at((1, j)).coords for j in range(quv.space.dim)]
    mult_by_u = LinMap.from_columns(quv.space, (), cols)
    bundle = pre_lie_from_derivation(
        quv.replace(maps={**quv.maps, "E": mult_by_u.compose(dv)}), d_name="E"
    )
    out.append(("star[uv]u*dv", bundle))
    # zero star
    for order in (2, 3):
        qt = truncated_polynomial_algebra(("t",), order)
        out.append(
            (f"zero-star[{order}]", qt.replace(ops={**qt.ops, "star": MultiOp(qt.space, (), 2, {})}))
        )
    # hypothesis violators: a lone constant star(t, t) = 1, and the star
    # product of E∘E, which is not a derivation
    qt = truncated_polynomial_algebra(("t",), 3)
    one = tuple(Scalar.rational(1 if k == 0 else 0) for k in range(qt.space.dim))
    out.append(
        ("bad-star[t*t=1]", qt.replace(ops={**qt.ops, "star": MultiOp(qt.space, (), 2, {(1, 1): one})}))
    )
    e = euler_map(qt)
    out.append(
        (
            "bad-star[E*E]",
            pre_lie_from_derivation(
                qt.replace(maps={**qt.maps, "E": e.compose(e)}), d_name="E", require=False
            ),
        )
    )
    return out


def is_twisted(bundle):
    """Whether either structure map a, b differs from the identity."""
    identity = LinMap.identity(bundle.space, bundle.ring.params)
    return bundle.maps.get("a", identity) != identity or bundle.maps.get("b", identity) != identity


@pytest.fixture(scope="module")
def tbp_pool():
    return transposed_instances()


@pytest.fixture(scope="module")
def star_pool():
    return novikov_star_instances()


def test_transposed_implies_consequences(tbp_pool):
    """Whenever the transposed axioms pass, the cyclic consequence suite and
    the strongness law pass too."""
    passing = 0
    for label, bundle in tbp_pool:
        if not check_structure("tbp", bundle).passed:
            continue
        passing += 1
        suite = check_suite("thm25", bundle)
        assert suite.passed, (label, [v.identity for v in suite.verdicts if not v.passed])
        assert check_identity(IDENTITIES["strongness"], bundle, "strongness").passed, label
    assert passing >= 20


def test_transposed_hypothesis_filter(tbp_pool, entry26_zero_forced):
    """The implication test is not vacuous: a bundle violating the hypothesis
    exists and is excluded by the filter."""
    assert not check_structure("tbp", entry26_zero_forced).passed


def test_novikov_implies_pre_lie_poisson(star_pool):
    """Bundles satisfying the BiHom-Novikov-Poisson laws also satisfy the
    pre-Lie Poisson laws. Some passing bundles have non-identity structure
    maps, and the filter excludes at least one bundle."""
    passing = twisted = excluded = 0
    for label, bundle in star_pool:
        if not check_structure("bihom-np", bundle).passed:
            excluded += 1
            continue
        passing += 1
        twisted += is_twisted(bundle)
        assert check_structure("pre-lie-poisson", bundle).passed, label
    assert passing >= 20
    assert twisted >= 3
    assert excluded >= 1


def test_differential_implies_left_compat(star_pool):
    """Bundles satisfying the differential Novikov-Poisson laws also satisfy
    the left compatibility law (which their definition omits). Some passing
    bundles have non-identity structure maps, and the filter excludes at
    least one bundle."""
    passing = twisted = excluded = 0
    for label, bundle in star_pool:
        if not check_structure("diff-np", bundle).passed:
            excluded += 1
            continue
        passing += 1
        twisted += is_twisted(bundle)
        assert check_identity(IDENTITIES["np-compat-left"], bundle, "np-compat-left").passed, label
    assert passing >= 20
    assert twisted >= 3
    assert excluded >= 1


def test_compat_forms_agree_on_regular_commutative(star_pool):
    """The two compatibility forms produce identical verdicts on regular
    twisted-commutative bundles, including randomized star products."""
    for label, bundle in star_pool:
        report = check_definition(COMPAT_FORMS, bundle)
        assert verdict(report, "regular(a)").passed and verdict(report, "regular(b)").passed
        a = verdict(report, "np-compat-right").status
        b = verdict(report, "np-compat-assoc").status
        assert a == b, label
    rng = random.Random(606)
    qt = truncated_polynomial_algebra(("t",), 3)
    for _ in range(13):
        constants = {}
        for _ in range(rng.randint(0, 6)):
            idx = (rng.randrange(3), rng.randrange(3))
            constants[idx] = tuple(Scalar.rational(rng.randint(-2, 2)) for _ in range(3))
        bundle = qt.replace(ops={**qt.ops, "star": MultiOp(qt.space, (), 2, constants)})
        report = check_definition(COMPAT_FORMS, bundle)
        assert verdict(report, "np-compat-right").status == verdict(report, "np-compat-assoc").status


def test_ternary_skew_holds_for_constructed_brackets(tbp_pool):
    """Every ternary bracket built by the constructions satisfies both
    adjacent-swap skew laws (regardless of further structure)."""
    from bihomcheck.construct import ternary_from_derivation, ternary_from_product

    checked = 0
    for label, bundle in tbp_pool:
        if bundle.ring.params or bundle.space.dim > 4:
            continue
        if not bundle.maps["a"].invertible() or not bundle.maps["b"].invertible():
            continue
        try:
            t3 = ternary_from_product(bundle, require=False)
        except Exception:
            continue
        for law in ("tskew-12", "tskew-23"):
            assert check_identity(IDENTITIES[law], t3, law).passed, (label, law)
        checked += 1
    assert checked >= 10
