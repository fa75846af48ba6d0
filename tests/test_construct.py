"""Constructions: twists, derivation/commutator brackets, tensor products,
ternary brackets, and the truncated polynomial builders."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bihomcheck.bundle import Ring
from bihomcheck.construct import (
    TwistSpec,
    derivation_tbp,
    np_commutator,
    pre_lie_from_derivation,
    tensor_bundle,
    ternary_from_derivation,
    ternary_from_involution,
    ternary_from_product,
    truncated_polynomial_algebra,
    yau_twist,
)
from bihomcheck.errors import MissingOp, NotInvertible, PredicateFailed, RingMismatch
from bihomcheck.linear import LinMap, MultiOp, Vector
from bihomcheck.scalars import Scalar
from bihomcheck.structures import check_structure

from conftest import basis_vector, column, euler_map, make_bundle, op_is_zero, zero_map


def renamed(bundle, mapping, params):
    """The bundle over params with its parameters renamed by mapping."""
    values = {old: Scalar.var(params, new) for old, new in mapping.items()}
    return bundle.substitute_params(values, params)


def neg_identity(bundle):
    rows = [
        [-c for c in row]
        for row in LinMap.identity(bundle.space, bundle.ring.params).rows
    ]
    return LinMap(bundle.space, bundle.ring.params, rows)


class TestBuilders:
    def test_power_series_basis(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        assert qt.space.labels == ("1", "t", "t^2", "t^3")
        # t^2 * t^2 is cut off
        assert qt.ops["mul"].value_at((2, 2)).is_zero()
        assert qt.ops["mul"].value_at((1, 2)) == basis_vector(qt.space, 3, ())
        # derivative columns
        assert column(qt.maps["D"], 3) == basis_vector(qt.space, 2, ()).scale(3)

    def test_two_variable_basis_order(self):
        quv = truncated_polynomial_algebra(("u", "v"), 3)
        assert quv.space.labels == ("1", "u", "v", "u^2", "u*v", "v^2")
        assert set(quv.maps) >= {"a", "b", "Du", "Dv"}

    def test_product_is_classically_commutative_associative(self):
        quv = truncated_polynomial_algebra(("u", "v"), 3)
        from bihomcheck.dsl import parse_identity
        from bihomcheck.engine import check_identity

        assert check_identity(
            parse_identity("forall x,y: mul(x, y) - mul(y, x) = 0"), quv
        ).passed
        assert check_identity(
            parse_identity("forall x,y,z: mul(mul(x, y), z) - mul(x, mul(y, z)) = 0"),
            quv,
        ).passed


class TestYauTwist:
    def test_identity_twist_is_noop(self, euler_wronskian):
        spec = [TwistSpec("mul", (("a", 1), ("b", 1))), TwistSpec("br", (("a", 1), ("b", 1)))]
        out = yau_twist(euler_wronskian, spec)
        assert out.ops["mul"] == euler_wronskian.ops["mul"]
        assert out.ops["br"] == euler_wronskian.ops["br"]

    def test_diagonal_twist_values(self):
        # product of two lines, e_i . e_i = e_i, twisted by b = diag(2, 7);
        # such a scaling is NOT an algebra map for an idempotent product
        # (2 != 4), so the hypothesis gate must be relaxed to see the values
        bundle = make_bundle(
            ["e1", "e2"],
            (),
            {"mul": (2, {(0, 0): ("1", "0"), (1, 1): ("0", "1")})},
            {"a": [["1", "0"], ["0", "1"]], "b": [["2", "0"], ["0", "7"]]},
        )
        with pytest.raises(PredicateFailed):
            yau_twist(bundle, TwistSpec("mul", (("a", 1), ("b", 1))))
        out = yau_twist(bundle, TwistSpec("mul", (("a", 1), ("b", 1))), require=False)
        assert out.ops["mul"].value_at((0, 0)) == basis_vector(bundle.space, 0, ()).scale(2)
        assert out.ops["mul"].value_at((1, 1)) == basis_vector(bundle.space, 1, ()).scale(7)
        assert out.ops["mul"].value_at((0, 1)).is_zero()

    def test_classical_to_twisted(self, euler_wronskian):
        """Twisting a classically-passing bundle by commuting multiplicative
        maps lands in the twisted structure."""
        dim = euler_wronskian.space.dim

        def scaling(c):
            rows = [
                [Scalar.rational(c**i if i == j else 0) for j in range(dim)]
                for i in range(dim)
            ]
            return LinMap(euler_wronskian.space, (), rows)

        assert check_structure("tbp", euler_wronskian).passed  # classical: id maps
        twisted_input = euler_wronskian.replace(
            maps={**euler_wronskian.maps, "a": scaling(2), "b": scaling(3)}
        )
        out = yau_twist(
            twisted_input,
            [TwistSpec("mul", (("a", 1), ("b", 1))), TwistSpec("br", (("a", 1), ("b", 1)))],
        )
        assert check_structure("tbp", out).passed

    def test_strict_mode_refuses_bad_maps(self, euler_wronskian):
        # a scaling map is an algebra map for mul but NOT multiplicative for
        # the plain-derivative bracket; build one that breaks mul instead
        bad = LinMap(
            euler_wronskian.space,
            (),
            [[Scalar.rational(1 if (i, j) == (0, 1) else (1 if i == j else 0)) for j in range(4)] for i in range(4)],
        )
        bundle = euler_wronskian.replace(maps={**euler_wronskian.maps, "a": bad})
        with pytest.raises(PredicateFailed):
            yau_twist(bundle, TwistSpec("mul", (("a", 1), ("b", 1))))
        out = yau_twist(bundle, TwistSpec("mul", (("a", 1), ("b", 1))), require=False)
        assert out.provenance["warnings"]


class TestDerivationBracket:
    def test_euler_bracket_value(self, euler_wronskian):
        # br(t, t^2) = t.E(t^2) - t^2.E(t) = 2t^3 - t^3 = t^3 for E = t d/dt
        v = euler_wronskian.ops["br"].value_at((1, 2))
        assert v == basis_vector(euler_wronskian.space, 3, ())

    def test_plain_derivative_bracket_value(self):
        # with the (non-ideal-stable) plain derivative: br(t, t^2) = t^2
        qt = truncated_polynomial_algebra(("t",), 4)
        out = derivation_tbp(qt, require=False)
        assert out.provenance["warnings"]
        assert out.ops["br"].value_at((1, 2)) == basis_vector(qt.space, 2, ())

    def test_two_variable_partial(self):
        quv = truncated_polynomial_algebra(("u", "v"), 3)
        out = derivation_tbp(quv, d_name="Du", require=False)
        # br(u, v) = u.du(v) - v.du(u) = -v
        assert out.ops["br"].value_at((1, 2)) == basis_vector(quv.space, 2, ()).scale(-1)

    def test_zero_derivation_gives_zero_bracket(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        bundle = qt.replace(maps={**qt.maps, "Z": zero_map(qt.space, ())})
        out = derivation_tbp(bundle, d_name="Z")
        assert op_is_zero(out.ops["br"])
        assert out.ops["mul"] == qt.ops["mul"]  # identity maps: untwisted

    def test_output_is_transposed_structure(self, euler_wronskian):
        assert check_structure("tbp", euler_wronskian).passed

    def test_strict_mode_refuses_plain_derivative(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        with pytest.raises(PredicateFailed):
            derivation_tbp(qt)


class TestPreLie:
    def test_star_value(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        out = pre_lie_from_derivation(qt, require=False)
        # t * t^2 = t . d(t^2) = 2 t^2
        assert out.ops["star"].value_at((1, 2)) == basis_vector(qt.space, 2, ()).scale(2)

    def test_unit_slot_recovers_derivation(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        out = pre_lie_from_derivation(qt, require=False)
        for j in range(4):
            assert out.ops["star"].value_at((0, j)) == column(qt.maps["D"], j)

    def test_zero_derivation(self):
        qt = truncated_polynomial_algebra(("t",), 3)
        bundle = qt.replace(maps={**qt.maps, "Z": zero_map(qt.space, ())})
        assert op_is_zero(pre_lie_from_derivation(bundle, d_name="Z").ops["star"])

    def test_euler_star_passes_structures(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        bundle = qt.replace(maps={**qt.maps, "E": euler_map(qt)})
        out = pre_lie_from_derivation(bundle, d_name="E")
        for name in ("pre-lie-comm", "bihom-np", "pre-lie-poisson", "diff-np"):
            assert check_structure(name, out).passed, name


class TestNpCommutator:
    def test_identity_maps_give_plain_commutator(self):
        qt = truncated_polynomial_algebra(("t",), 4)
        bundle = qt.replace(maps={**qt.maps, "E": euler_map(qt)})
        star_bundle = pre_lie_from_derivation(bundle, d_name="E")
        out = np_commutator(star_bundle)
        star = star_bundle.ops["star"]
        for i in range(4):
            for j in range(4):
                ei = basis_vector(qt.space, i, ())
                ej = basis_vector(qt.space, j, ())
                expected = star.apply([ei, ej]) - star.apply([ej, ei])
                assert out.ops["br"].value_at((i, j)) == expected

    def test_matches_derivation_bracket(self, euler_wronskian):
        qt = truncated_polynomial_algebra(("t",), 4)
        bundle = qt.replace(maps={**qt.maps, "E": euler_map(qt)})
        star_bundle = pre_lie_from_derivation(bundle, d_name="E")
        out = np_commutator(star_bundle)
        assert out.ops["br"] == euler_wronskian.ops["br"]
        assert check_structure("tbp", out).passed

    def test_zero_star(self):
        qt = truncated_polynomial_algebra(("t",), 3)
        bundle = qt.replace(ops={**qt.ops, "star": MultiOp(qt.space, (), 2, {})})
        out = np_commutator(bundle)
        assert op_is_zero(out.ops["br"])

    def test_requires_invertible_maps(self):
        from bihomcheck.catalog import get_entry

        e24 = get_entry(24).completed_bundle()
        bundle = e24.replace(ops={**e24.ops, "star": MultiOp(e24.space, e24.ring.params, 2, {})})
        with pytest.raises(NotInvertible):
            np_commutator(bundle)


class TestTensor:
    def entry26_pair(self):
        from bihomcheck.catalog import get_entry

        P4 = ("k1", "k2", "k3", "k4")
        e = get_entry(26).completed_bundle()
        return (
            e.substitute_params({}, P4),
            renamed(e, {"k1": "k3", "k2": "k4"}, P4),
        )

    def test_values_on_generators(self):
        a, b = self.entry26_pair()
        t = tensor_bundle(a, b, "bp-tbp")
        # (e1⊗e1).(e1⊗e1) = e2⊗e2, index 3
        assert t.ops["mul"].value_at((0, 0)) == basis_vector(t.space, 3, t.ring.params)
        # [e1⊗e1, e1⊗e1] = [e1,e1]⊗e2 + e2⊗[e1,e1] = (k1-k2+k3-k4) e2⊗e2
        got = t.ops["br"].value_at((0, 0))
        assert got.coords[3].text() == "k1 - k2 + k3 - k4"
        assert all(got.coords[i].is_zero() for i in range(3))

    def test_preserves_transposed_structure(self):
        a, b = self.entry26_pair()
        t = tensor_bundle(a, b, "bp-tbp")
        assert check_structure("tbp", t).passed

    def test_zero_factor_kills_ops(self, zero_bundle, entry26):
        z = zero_bundle.substitute_params({}, ("k1", "k2"))
        t = tensor_bundle(entry26, z, "bp-tbp")
        assert op_is_zero(t.ops["mul"]) and op_is_zero(t.ops["br"])

    def test_ring_mismatch(self, entry26):
        other = renamed(entry26, {"k1": "k3", "k2": "k4"}, ("k3", "k4"))
        with pytest.raises(RingMismatch):
            tensor_bundle(entry26, other, "bp-tbp")

    def test_pre_lie_poisson_kind(self):
        qt = truncated_polynomial_algebra(("t",), 3)
        bundle = qt.replace(maps={**qt.maps, "E": euler_map(qt)})
        star_bundle = pre_lie_from_derivation(bundle, d_name="E")
        t = tensor_bundle(star_bundle, star_bundle, "pre-lie-poisson")
        assert check_structure("pre-lie-poisson", t).passed

    def test_singular_maps_warn_for_bracket_kind(self):
        from bihomcheck.catalog import get_entry

        e24 = get_entry(24).completed_bundle()
        P4 = ("k1", "k2", "k3", "k4")
        e24b = renamed(e24, {"k1": "k3", "k2": "k4"}, P4)
        t = tensor_bundle(e24.substitute_params({}, P4), e24b, "bp-tbp")
        assert any("singular" in w for w in t.provenance["warnings"])


class TestTernaryFromDerivation:
    def test_zero_derivation(self, dim6_transposed):
        bundle = dim6_transposed.replace(
            maps={**dim6_transposed.maps, "Z": zero_map(dim6_transposed.space, ())}
        )
        assert op_is_zero(ternary_from_derivation(bundle, d_name="Z").ops["tbr"])

    def test_plain_partials_value(self):
        quv = truncated_polynomial_algebra(("u", "v"), 3)
        base = derivation_tbp(quv, d_name="Du", require=False)
        t3 = ternary_from_derivation(base, d_name="Dv", require=False)
        # tbr(1, u, v) = dv(v).br(1, u) = br(1, u) = 1
        assert t3.ops["tbr"].value_at((0, 1, 2)) == basis_vector(quv.space, 0, ())

    def test_brackets_own_derivation_telescopes(self, dim6_transposed):
        """Using the bracket's own derivation makes the ternary bracket
        collapse: the cyclic sum cancels pairwise in a commutative algebra."""
        t3 = ternary_from_derivation(dim6_transposed, d_name="E1")
        assert op_is_zero(t3.ops["tbr"])

    def test_independent_derivation_is_nonzero_and_valid(self, dim6_transposed):
        t3 = ternary_from_derivation(dim6_transposed, d_name="E2")
        assert not op_is_zero(t3.ops["tbr"])
        assert check_structure("3-bihom-lie", t3).passed
        assert check_structure("tbp-3lie", t3).passed

    def test_missing_op_beats_earlier_failed_hypothesis(self):
        """All hypotheses are decided before any is demanded, so a strict
        refusal never hides a missing op: D is no derivation of the
        truncated product, and the bundle has no br."""
        qt3 = truncated_polynomial_algebra(("t",), 3)
        errors = []
        for require in (True, False):
            with pytest.raises(MissingOp) as info:
                ternary_from_derivation(qt3, require=require)
            errors.append(str(info.value))
        assert errors == ["bundle has no operation 'br'"] * 2


class TestTernaryFromInvolution:
    def test_negated_identity_on_entry26(self, entry26):
        bundle = entry26.replace(maps={**entry26.maps, "f": neg_identity(entry26)})
        t3 = ternary_from_involution(bundle)
        assert op_is_zero(t3.ops["tbr"])
        assert t3.provenance["invol_compat"] == "pass"
        assert check_structure("3-bihom-lie", t3).passed

    def test_negated_identity_negates_product_bracket(self, dim6_transposed):
        bundle = dim6_transposed.replace(
            maps={**dim6_transposed.maps, "f": neg_identity(dim6_transposed)}
        )
        tf = ternary_from_involution(bundle)
        tm = ternary_from_product(dim6_transposed, require=False)
        dim = dim6_transposed.space.dim
        for idx, vec in tm.ops["tbr"].constants.items():
            assert tf.ops["tbr"].value_at(idx) == Vector(
                dim6_transposed.space, (), vec
            ).scale(-1)

    def test_non_involution_refused(self, entry26):
        double = LinMap(
            entry26.space,
            entry26.ring.params,
            [[c + c for c in row] for row in LinMap.identity(entry26.space, entry26.ring.params).rows],
        )
        bundle = entry26.replace(maps={**entry26.maps, "f": double})
        with pytest.raises(PredicateFailed):
            ternary_from_involution(bundle)


class TestTernaryFromProduct:
    def test_degenerate_strong_input(self):
        qt = truncated_polynomial_algebra(("t",), 3)
        bundle = qt.replace(ops={**qt.ops, "br": MultiOp(qt.space, (), 2, {})})
        t3 = ternary_from_product(bundle)  # strict: zero bracket IS strong
        assert op_is_zero(t3.ops["tbr"])
        assert check_structure("3-bihom-lie", t3).passed
        assert check_structure("tbp-3lie", t3).passed

    def test_entry26_override_collapses(self, entry26):
        t3 = ternary_from_product(entry26, require=False)
        assert op_is_zero(t3.ops["tbr"])

    def test_identity_map_reduction(self, dim6_transposed):
        """With identity structure maps the formula is the plain cyclic sum
        x.[y,z] + y.[z,x] + z.[x,y]."""
        t3 = ternary_from_product(dim6_transposed, require=False)
        mul, br = dim6_transposed.ops["mul"], dim6_transposed.ops["br"]
        dim = dim6_transposed.space.dim
        import itertools

        for idx in itertools.islice(itertools.product(range(dim), repeat=3), 0, 80):
            i, j, k = idx
            basis = [basis_vector(dim6_transposed.space, n, ()) for n in range(dim)]
            expected = (
                mul.apply([basis[i], br.apply([basis[j], basis[k]])])
                + mul.apply([basis[j], br.apply([basis[k], basis[i]])])
                + mul.apply([basis[k], br.apply([basis[i], basis[j]])])
            )
            assert t3.ops["tbr"].value_at(idx) == expected

    def test_strict_mode_refuses_non_strong_input(self, entry26):
        with pytest.raises(PredicateFailed):
            ternary_from_product(entry26)


def test_provenance_records_construction(euler_wronskian):
    prov = euler_wronskian.provenance
    assert prov["construction"] == "derivation-tbp"
    assert prov["derivation"] == "E"
