"""Linear core: multilinear application, map powers, twists, tensors."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from bihomcheck.errors import NotInvertible, SpaceMismatch
from bihomcheck.linear import (
    BasisSpace,
    LinMap,
    MultiOp,
    Vector,
    tensor_map,
    tensor_space,
)
from bihomcheck.bundle import AlgebraBundle, Ring
from bihomcheck.catalog import entries
from bihomcheck.engine import check_identity, define_op
from bihomcheck.scalars import Scalar, parse_scalar
from bihomcheck.structures import commute_identity

from conftest import basis_vector, column, entry_cases, op_is_zero, zero_map
from oracles import (
    dense_kronecker,
    dense_power,
    dense_product,
    naive_apply,
    rational_constants,
)
from test_construct_bytes import _bundles as construct_bundles

P = ("k1", "k2")


def S(text):
    return parse_scalar(str(text), P)


def test_space_validation():
    with pytest.raises(ValueError):
        BasisSpace(["e1", "e1"])
    with pytest.raises(ValueError):
        BasisSpace([])


class TestApply:
    def test_basis_value(self, entry26):
        sp = entry26.space
        e1 = basis_vector(sp, 0, P)
        assert entry26.ops["mul"].apply([e1, e1]) == basis_vector(sp, 1, P)

    def test_zero_argument(self, entry26):
        sp = entry26.space
        z = Vector.zero(sp, P)
        e1 = basis_vector(sp, 0, P)
        assert entry26.ops["br"].apply([e1, z]).is_zero()

    def test_completed_bracket_slot(self, entry26):
        sp = entry26.space
        e1, e2 = basis_vector(sp, 0, P), basis_vector(sp, 1, P)
        assert entry26.ops["br"].apply([e2, e1]) == basis_vector(sp, 1, P).scale(-1)

    def test_multilinearity_random(self):
        """Value on random combinations equals the basis expansion."""
        rng = random.Random(5)
        for trial in range(200):
            dim = rng.randint(1, 4)
            arity = rng.randint(1, 3)
            sp = BasisSpace([f"e{i}" for i in range(dim)])
            constants = {}
            for _ in range(rng.randint(0, 2 * dim)):
                idx = tuple(rng.randrange(dim) for _ in range(arity))
                vec = [Scalar.rational(rng.randint(-3, 3)) for _ in range(dim)]
                constants[idx] = tuple(vec)
            op = MultiOp(sp, (), arity, constants)
            args = [
                Vector(sp, (), [Scalar.rational(rng.randint(-4, 4)) for _ in range(dim)])
                for _ in range(arity)
            ]
            got = op.apply(args)
            expected = Vector.zero(sp, ())
            import itertools

            for idx in itertools.product(range(dim), repeat=arity):
                coeff = Scalar.one(())
                for s, i in enumerate(idx):
                    coeff = coeff * args[s].coords[i]
                expected = expected + op.value_at(idx).scale(coeff)
            assert got == expected

    def test_against_naive_oracle(self):
        rng = random.Random(12)
        for trial in range(60):
            dim = rng.randint(1, 4)
            arity = rng.randint(1, 3)
            sp = BasisSpace([f"e{i}" for i in range(dim)])
            constants = {}
            for _ in range(rng.randint(0, 3 * dim)):
                idx = tuple(rng.randrange(dim) for _ in range(arity))
                constants[idx] = tuple(
                    Scalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(dim)
                )
            op = MultiOp(sp, (), arity, constants)
            args = [
                [Fraction(rng.randint(-5, 5)) for _ in range(dim)] for _ in range(arity)
            ]
            want = naive_apply(rational_constants(op), arity, dim, args)
            got = op.apply(
                [Vector(sp, (), [Scalar.rational(c) for c in arg]) for arg in args]
            )
            assert [c.eval({}) for c in got.coords] == want

    def test_space_mismatch(self, entry26):
        other = BasisSpace(["f1", "f2"])
        with pytest.raises(SpaceMismatch):
            entry26.ops["mul"].apply(
                [basis_vector(other, 0, P), basis_vector(other, 1, P)]
            )


class TestMapPower:
    def test_unipotent_inverse(self, entry26):
        a_inv = entry26.maps["a"].power(-1)
        rows = [[c.text() for c in row] for row in a_inv.rows]
        assert rows == [["1", "0"], ["-k2", "1"]]

    def test_zeroth_power_is_identity(self, entry26):
        ident = LinMap.identity(entry26.space, P)
        assert entry26.maps["b"].power(0) == ident

    def test_singular_map_not_invertible(self):
        # nilpotent: e1 -> e2 -> 0
        sp = BasisSpace(["e1", "e2"])
        m = LinMap(sp, P, [[S(0), S(0)], [S(1), S(0)]])
        with pytest.raises(NotInvertible):
            m.power(-1)
        assert not m.invertible()

    def test_power_addition(self, entry26):
        b = entry26.maps["b"]
        for i, j in [(2, 3), (0, 4), (-1, 3), (-2, -1)]:
            assert b.power(i).compose(b.power(j)) == b.power(i + j)

    def test_inverse_exact(self, entry26):
        b = entry26.maps["b"]
        assert b.compose(b.power(-1)) == LinMap.identity(entry26.space, P)

    def test_symbolic_generic_inverse(self):
        # invertible over the fraction field although entries vanish at k1=0
        sp = BasisSpace(["e1", "e2"])
        m = LinMap(sp, P, [[S("k1"), S(0)], [S(0), S("k2")]])
        inv = m.inverse()
        assert inv.rows[0][0] == Scalar.one(P) / S("k1")
        assert m.compose(inv) == LinMap.identity(sp, P)

    def test_catalog_inverse_texts(self):
        """The printed a^-1, a^-2, b^-1, b^-2 of every catalog entry, as one
        hash: Q(params) fractions are never gcd-reduced, so the elimination's
        pivot and row order decide the text."""
        lines = []
        for entry_id, entry in sorted(entries().items()):
            for name in ("a", "b"):
                m = entry.bundle.maps[name]
                m = LinMap(m.space, m.params, m.rows)
                for k in (-1, -2):
                    try:
                        text = repr(m.power(k))
                    except NotInvertible:
                        text = "singular"
                    lines.append(f"{entry_id} {name}^{k} {text}")
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == "4d5f12efbaca208645700c11e1fcdc5c64f3c1beca9e3d1e68417f8965613c12"

    def test_lemma31_inverts_each_map_once(self, monkeypatch):
        """Every negative power starts from the cached inverse, so the lemma31
        suite (a^-1, a^-2, b^-1, b^-2 and more) inverts each map once."""
        from bihomcheck.catalog import get_entry
        from bihomcheck.structures import check_power_suite

        bundle = get_entry(26).completed_bundle()
        inverted = []
        inverse = LinMap.inverse
        monkeypatch.setattr(LinMap, "inverse", lambda m: inverted.append(m) or inverse(m))
        check_power_suite(bundle)
        assert sorted(map(id, inverted)) == sorted(map(id, bundle.maps.values()))


def twist(bundle, op_name, left, right):
    """The binary op op_name(left(x), right(y)), evaluated by the engine."""
    return define_op(bundle, f"forall x,y: {op_name}({left}(x), {right}(y)) = 0")


class TestTwist:
    def test_identity_twist(self):
        sp = BasisSpace(["e"])
        op = MultiOp(sp, (), 2, {(0, 0): (Scalar.one(()),)})
        ident = LinMap.identity(sp, ())
        bundle = AlgebraBundle(sp, Ring(), {"mul": op}, {"id": ident})
        assert twist(bundle, "mul", "id", "id") == op

    def test_entry26_twist(self, entry26):
        twisted = twist(entry26, "mul", "a", "b")
        # (e1 + k2 e2)·(e1 + k1 e2) only sees the e1·e1 constant
        assert twisted.value_at((0, 0)) == basis_vector(entry26.space, 1, P)

    def test_zero_slot_kills_everything(self, entry26):
        zero = zero_map(entry26.space, P)
        twisted = twist(entry26.replace(maps={**entry26.maps, "z": zero}), "mul", "a", "z")
        assert op_is_zero(twisted)

    def test_twist_composes(self, entry26):
        inner = entry26.replace(ops={**entry26.ops, "br": twist(entry26, "br", "a", "b")})
        once = twist(inner, "br", "b", "a")
        assert once == define_op(entry26, "forall x,y: br(a(b(x)), b(a(y))) = 0")


class TestCommute:
    """Map commutation is decided as the law m1(m2(x)) = m2(m1(x))."""

    def test_entry26_maps_commute(self, entry26):
        res = check_identity(commute_identity("a", "b"), entry26)
        assert res.passed
        prod = entry26.maps["a"].compose(entry26.maps["b"])
        assert [[c.text() for c in row] for row in prod.rows] == [
            ["1", "0"],
            ["k1 + k2", "1"],
        ]

    def test_identity_commutes(self, entry26):
        ident = LinMap.identity(entry26.space, P)
        bundle = entry26.replace(maps={**entry26.maps, "id": ident})
        assert check_identity(commute_identity("a", "id"), bundle).passed

    def test_noncommuting_pair_reports_residual(self):
        from bihomcheck.catalog import get_entry

        e1 = get_entry(1).bundle
        res = check_identity(commute_identity("a", "b"), e1)
        assert not res.passed
        assert res.counterexample.basis_tuple == (0,)
        assert list(res.counterexample.residual) == ["0", "k1 - k2"]


class TestTensor:
    def test_ordering(self):
        a = BasisSpace(["e1", "e2"])
        b = BasisSpace(["f1", "f2"])
        t = tensor_space(a, b)
        assert t.labels == ("e1⊗f1", "e1⊗f2", "e2⊗f1", "e2⊗f2")

    def test_dim_one_factor(self):
        a = BasisSpace(["u"])
        b = BasisSpace(["e1", "e2", "e3"])
        assert tensor_space(a, b).dim == 3

    def test_kronecker_diagonal(self):
        a = BasisSpace(["e1", "e2"])
        ma = LinMap(a, (), [[Scalar.rational(2), Scalar.zero(())], [Scalar.zero(()), Scalar.rational(3)]])
        mb = LinMap(a, (), [[Scalar.rational(5), Scalar.zero(())], [Scalar.zero(()), Scalar.rational(7)]])
        t = tensor_map(ma, mb)
        diag = [t.rows[i][i].eval({}) for i in range(4)]
        assert diag == [10, 14, 15, 21]

    def test_slot_action(self):
        sp = BasisSpace(["e1", "e2"])
        m = LinMap(sp, (), [[Scalar.rational(1), Scalar.rational(4)], [Scalar.rational(2), Scalar.rational(0)]])
        ident = LinMap.identity(sp, ())
        t = tensor_map(m, ident)
        ts = t.space
        # image of e1⊗f2 (index 1) is m(e1)⊗f2 = 1·e1⊗f2 + 2·e2⊗f2
        got = column(t, 1)
        assert [c.eval({}) for c in got.coords] == [0, 1, 0, 2]

    def test_tensor_composition(self):
        rng = random.Random(3)
        sp = BasisSpace(["e1", "e2"])

        def rand_map():
            return LinMap(
                sp, (), [[Scalar.rational(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            )

        for _ in range(20):
            ma, mb, mc, md = rand_map(), rand_map(), rand_map(), rand_map()
            lhs = tensor_map(ma, mb).compose(tensor_map(mc, md))
            rhs = tensor_map(ma.compose(mc), mb.compose(md))
            assert lhs == rhs


def product_cases():
    """Every completed catalog entry over Q(params) and at a sample point
    over Q (where inverses have integer denominators to clear), each of its
    constraint branches, and the dense Q(k) bundle of the construct pins,
    whose b^-1 has the denominator k - 1."""
    out = []
    for entry_id, entry in sorted(entries().items()):
        out.append(pytest.param(entry.completed_bundle(), id=f"entry{entry_id}"))
        [(_, at_point)] = entry_cases(entry, 1, seed=0)
        out.append(pytest.param(at_point, id=f"entry{entry_id}-point"))
        if entry.branches:
            for i, (_, bundle) in enumerate(entry.branch_bundles()):
                out.append(pytest.param(bundle, id=f"entry{entry_id}-branch{i}"))
    out.append(pytest.param(construct_bundles()["qk"], id="qk"))
    return out


def assert_rows(got: LinMap, want):
    """got equals the rows want by value and prints the same text."""
    assert got == LinMap(got.space, got.params, want)
    assert [[c.text() for c in row] for row in got.rows] == [
        [c.text() for c in row] for row in want
    ]


@pytest.mark.parametrize("bundle", product_cases())
def test_map_products_match_dense_oracle(bundle):
    """compose, power(k) for k in -2..3 and tensor_map of every pair of the
    bundle's maps equal the dense loops of tests/oracles.py."""
    zero = Scalar.zero(bundle.ring.params)
    maps = [bundle.maps[name] for name in sorted(bundle.maps)]
    for m1 in maps:
        for k in range(-2, 4):
            try:
                got = m1.power(k)
            except NotInvertible:
                assert k < 0
                continue
            assert_rows(got, dense_power(m1, k))
        for m2 in maps:
            assert_rows(m1.compose(m2), dense_product(m1.rows, m2.rows, zero))
            assert_rows(tensor_map(m1, m2), dense_kronecker(m1.rows, m2.rows, zero))
