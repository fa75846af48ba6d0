"""Shared fixtures: small hand-built bundles used across the suite."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bihomcheck.bundle import AlgebraBundle, Ring
from bihomcheck.linear import BasisSpace, LinMap, MultiOp, Vector
from bihomcheck.scalars import Scalar, parse_scalar
from bihomcheck.structures import StructureDef, regular

# the two forms of the product/star compatibility law, which agree on
# regular twisted-commutative bundles, with those hypotheses as verdicts
COMPAT_FORMS = StructureDef(
    "compat-equivalence",
    (regular("a"), regular("b"), "np-compat-right", "np-compat-assoc", "comm"),
)


def basis_vector(space, i, params):
    """The i-th basis vector of space over params."""
    coords = [Scalar.zero(params)] * space.dim
    coords[i] = Scalar.one(params)
    return Vector(space, params, coords)


def zero_map(space, params):
    zero = Scalar.zero(params)
    return LinMap(space, params, [[zero] * space.dim for _ in range(space.dim)])


def column(m, j):
    """Column j of a LinMap, the image of basis vector j."""
    return Vector(m.space, m.params, [row[j] for row in m.rows])


def op_is_zero(op):
    return all(c.is_zero() for vec in op.constants.values() for c in vec)


def verdict(report, identity_id):
    """The verdict of a report with the given identity id."""
    matches = [v for v in report.verdicts if v.identity == identity_id]
    if not matches:
        raise KeyError(identity_id)
    return matches[0]


def entry_cases(entry, count, seed):
    """(point, specialised bundle) cases of a catalog entry, drawn as
    `catalog verify --mode sampled --seed seed` draws them."""
    from bihomcheck.catalog import sample_points
    from bihomcheck.rng import SplitRng

    rng = SplitRng(seed).child(f"entry{entry.entry_id}")
    return sample_points(entry.completed_bundle(), count, rng, entry.branches)


def point_cases(bundle, points):
    """(point, bundle.eval_at(point)) cases at given parameter points, in the
    form catalog.sample_points draws them."""
    points = [{k: Fraction(v) for k, v in p.items()} for p in points]
    return [(p, bundle.eval_at(p)) for p in points]


def make_bundle(labels, params, ops, maps, constraints=(), name=None):
    """Build a bundle from coefficient strings.

    ops:  {name: (arity, {tuple: (coeff, ...)})}
    maps: {name: rows of coeff strings}  (row i, column j)
    """
    params = tuple(params)
    space = BasisSpace(labels)
    S = lambda text: parse_scalar(str(text), params)
    ring = Ring(
        params,
        tuple(parse_scalar(c, params).as_fraction_pair()[0] for c in constraints),
    )
    built_ops = {}
    for op_name, (arity, entries) in ops.items():
        constants = {
            tuple(idx): tuple(S(c) for c in vec) for idx, vec in entries.items()
        }
        built_ops[op_name] = MultiOp(space, params, arity, constants)
    built_maps = {
        name: LinMap(space, params, [[S(c) for c in row] for row in rows])
        for name, rows in maps.items()
    }
    prov = {"name": name} if name else None
    return AlgebraBundle(space, ring, built_ops, built_maps, prov)


@pytest.fixture(scope="session")
def entry26():
    """The catalog's mixed example with its skew-derived bracket completion."""
    from bihomcheck.catalog import get_entry

    return get_entry(26).completed_bundle()


@pytest.fixture(scope="session")
def entry26_zero_forced():
    """Same constants but with the unlisted bracket slots forced to zero."""
    from bihomcheck.catalog import get_entry

    return get_entry(26).bundle


@pytest.fixture(scope="session")
def zero_bundle():
    """Zero product and bracket with identity structure maps."""
    return make_bundle(
        ["e1", "e2"],
        (),
        {"mul": (2, {}), "br": (2, {})},
        {"a": [["1", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]},
        name="zero",
    )


def euler_map(bundle, var_index=1):
    """(multiply by the degree-1 basis monomial at var_index) ∘ (the matching
    partial derivative): an ideal-stable derivation of a truncated
    polynomial algebra."""
    mul = bundle.ops["mul"]
    cols = [mul.value_at((var_index, j)).coords for j in range(bundle.space.dim)]
    mult = LinMap.from_columns(bundle.space, bundle.ring.params, cols)
    label = bundle.space.labels[var_index]
    d_name = f"D{label}" if f"D{label}" in bundle.maps else "D"
    return mult.compose(bundle.maps[d_name])


@pytest.fixture(scope="session")
def euler_wronskian():
    """Honest transposed bundle: truncated power series with the bracket from
    the ideal-stable derivation t*d/dt (identity structure maps)."""
    from bihomcheck.construct import derivation_tbp, truncated_polynomial_algebra

    qt = truncated_polynomial_algebra(("t",), 4)
    e = euler_map(qt, 1)
    return derivation_tbp(qt.replace(maps={**qt.maps, "E": e}), d_name="E")


@pytest.fixture(scope="session")
def dim6_transposed():
    """Honest dim-6 transposed bundle over two truncated variables, bracket
    from the ideal-stable derivation u*du, with v*dv available for the
    ternary construction."""
    from bihomcheck.construct import derivation_tbp, truncated_polynomial_algebra

    quv = truncated_polynomial_algebra(("u", "v"), 3)
    e1, e2 = euler_map(quv, 1), euler_map(quv, 2)
    return derivation_tbp(
        quv.replace(maps={**quv.maps, "E1": e1, "E2": e2}), d_name="E1"
    )
