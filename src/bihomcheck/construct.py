"""Algebra-to-algebra constructions as bundle transformers.

Every construction validates its hypotheses first (strict by default; pass
require=False to downgrade refusals to recorded warnings; tensor_bundle only
records warnings), never mutates its input, and stamps the output's
provenance with the construction name and the inputs used. Hypotheses are
(what, law) checks, or a registered structure, run by
structures.check_definition; all are decided before a failing what is
refused, so a name the bundle lacks is reported before any refusal.

A construction is its hypothesis checks plus one .idl term per new op, such
as br(x, y) = mul(a(x), D(b(y))) - mul(b(y), D(a(x))), which
engine.define_op evaluates at every basis tuple. A term names maps and ops
of the input, or of a working bundle (bundle.replace) that gives them the
names the term uses. Products of three or more maps, a b^-2 and g a^-1 b in
the ternary brackets, are precomposed there as matrices in a fixed order
(`A^-1` is A.power(-1), cached per map object): polynomial fractions are
never gcd-reduced, so re-associating a product would change the printed
coefficients. A chain of two maps is written as text. Neither tensor_bundle
nor truncated_polynomial_algebra is a term over one bundle: the first forms
sparse Kronecker products of its factors' stored constants, the second
fills its constants directly.

Derivations and involutions are required to commute with both structure maps
even where a weaker hypothesis might do: without commutation the constructed
ternary bracket need not be multiplicative under the structure maps. The
require flag lets experiments relax this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bundle import AlgebraBundle, Ring
from .dsl import parse_identity
from .engine import define_op
from .errors import ArityMismatch, PredicateFailed, RingMismatch
from .linear import BasisSpace, LinMap, MultiOp, tensor_map, tensor_space
from .scalars import Scalar
from .structures import (
    StructureDef,
    check_definition,
    check_involution,
    check_structure,
    check_suite,
    commute_identity,
    derivation_identity,
    multiplicativity_identity,
)


@dataclass(frozen=True)
class TwistSpec:
    """Which map (with which integer power) to apply in each argument slot of
    one operation."""

    op_name: str
    slots: tuple  # of (map name, power)


class _Hypotheses:
    """Collects hypothesis failures; raises in strict mode, records otherwise."""

    def __init__(self, construction: str, require: bool):
        self.construction = construction
        self.require = require
        self.warnings: list = []

    def demand(self, ok: bool, what: str):
        if ok:
            return
        if self.require:
            raise PredicateFailed(f"{self.construction}: {what}")
        self.warnings.append(what)

    def check(self, bundle: AlgebraBundle, laws):
        """Run the (what, law) checks in order and demand each verdict; a
        refusal is the what of a failing law."""
        report = check_definition(StructureDef(self.construction, tuple(laws)), bundle)
        for verdict in report.verdicts:
            self.demand(verdict.passed, verdict.identity)

    def check_report(self, report, what: str):
        """Demand that a report passes; a refusal names its failing verdicts."""
        failing = ", ".join(v.identity for v in report.verdicts if v.status != "pass")
        self.demand(report.passed, what + failing)

    def provenance(self, **fields) -> dict:
        prov = {"construction": self.construction, **fields}
        if self.warnings:
            prov["warnings"] = list(self.warnings)
        return prov


def _commute(m1: str, m2: str) -> tuple:
    return f"maps {m1!r} and {m2!r} do not commute", commute_identity(m1, m2)


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------


def yau_twist(bundle: AlgebraBundle, specs, require: bool = True) -> AlgebraBundle:
    """Replace each named op by op∘(maps applied slotwise); the maps must
    commute pairwise and be multiplicative for every op they twist."""
    if isinstance(specs, TwistSpec):
        specs = [specs]
    for spec in specs:
        op = bundle.require_op(spec.op_name)
        for name, _power in spec.slots:
            bundle.require_map(name)
        if len(spec.slots) != op.arity:
            raise ArityMismatch(f"need {op.arity} maps, got {len(spec.slots)}")
    hyp = _Hypotheses("yau-twist", require)
    used = dict.fromkeys(name for spec in specs for name, _power in spec.slots)
    laws = list(itertools.starmap(_commute, itertools.combinations(used, 2)))
    for spec in specs:
        for name, _power in spec.slots:
            what = f"map {name!r} is not multiplicative for op {spec.op_name!r}"
            laws.append((what, multiplicativity_identity(name, spec.op_name, len(spec.slots))))
    hyp.check(bundle, laws)
    ops = dict(bundle.ops)
    for spec in specs:
        names = [f"x{i}" for i in range(len(spec.slots))]
        args = ", ".join(f"{m}^{p}({x})" for (m, p), x in zip(spec.slots, names))
        term = f"{spec.op_name}({args})"
        ops[spec.op_name] = define_op(bundle, f"forall {','.join(names)}: {term} = 0")
    prov = hyp.provenance(
        input=bundle.label(),
        twists={s.op_name: [f"{n}^{p}" for n, p in s.slots] for s in specs},
    )
    return bundle.replace(ops=ops, provenance=prov)


# ---------------------------------------------------------------------------
# brackets and pre-Lie products from a derivation
# ---------------------------------------------------------------------------


def _from_derivation(construction, second, term, bundle, d_name, a_name, b_name, require):
    """The twisted product mul(a(x), b(y)) and the op second = term, over the
    product and the three maps named mul, a, b and D, once the hypotheses
    are checked."""
    hyp = _Hypotheses(construction, require)
    work = bundle.replace(
        ops={"mul": bundle.require_op("mul", 2)},
        maps={
            "a": bundle.require_map(a_name),
            "b": bundle.require_map(b_name),
            "D": bundle.require_map(d_name),
        },
    )
    comm = parse_identity("forall x,y: mul(x, y) - mul(y, x) = 0")
    assoc = parse_identity("forall x,y,z: mul(mul(x, y), z) - mul(x, mul(y, z)) = 0")
    laws = [("product is not commutative", comm), ("product is not associative", assoc)]
    for name in (a_name, b_name):
        what = f"map {name!r} is not an algebra map for the product"
        laws.append((what, multiplicativity_identity(name, "mul", 2)))
    what = f"map {d_name!r} is not a derivation of the product"
    laws.append((what, derivation_identity(d_name, "mul", 2)))
    names = dict.fromkeys((a_name, b_name, d_name))
    laws += itertools.starmap(_commute, itertools.combinations(names, 2))
    hyp.check(bundle, laws)
    ops = {
        **bundle.ops,
        "mul": define_op(work, "forall x,y: mul(a(x), b(y)) = 0"),
        second: define_op(work, f"forall x,y: {term} = 0"),
    }
    maps = {**bundle.maps, "a": work.maps["a"], "b": work.maps["b"]}
    prov = hyp.provenance(input=bundle.label(), derivation=d_name, maps=[a_name, b_name])
    return bundle.replace(ops=ops, maps=maps, provenance=prov)


def derivation_tbp(
    bundle: AlgebraBundle,
    d_name: str = "D",
    a_name: str = "a",
    b_name: str = "b",
    require: bool = True,
) -> AlgebraBundle:
    """From a commutative associative product with a derivation: the twisted
    product x.y = mul0(a(x), b(y)) and the Wronskian-style bracket
    br(x, y) = mul0(a(x), D(b(y))) - mul0(b(y), D(a(x)))."""
    term = "mul(a(x), D(b(y))) - mul(b(y), D(a(x)))"
    return _from_derivation("derivation-tbp", "br", term, bundle, d_name, a_name, b_name, require)


def pre_lie_from_derivation(
    bundle: AlgebraBundle,
    d_name: str = "D",
    a_name: str = "a",
    b_name: str = "b",
    require: bool = True,
) -> AlgebraBundle:
    """Same data as derivation_tbp but producing the one-sided product
    star(x, y) = mul0(a(x), D(b(y)))."""
    term = "mul(a(x), D(b(y)))"
    return _from_derivation("pre-lie", "star", term, bundle, d_name, a_name, b_name, require)


def np_commutator(bundle: AlgebraBundle, require: bool = True) -> AlgebraBundle:
    """Twisted commutator bracket of the star product:
    br(x, y) = star(x, y) - star(a^-1 b(y), a b^-1(x))."""
    hyp = _Hypotheses("np-commutator", require)
    bundle.require_op("star", 2)
    bundle.require_map("a").power(-1)  # raises NotInvertible on singular maps
    bundle.require_map("b").power(-1)
    hyp.check_report(
        check_structure("pre-lie-poisson", bundle),
        "input does not satisfy the pre-Lie Poisson laws: ",
    )
    br = define_op(bundle, "forall x,y: star(x, y) - star(a^-1(b(y)), a(b^-1(x))) = 0")
    prov = hyp.provenance(input=bundle.label())
    return bundle.replace(ops={**bundle.ops, "br": br}, provenance=prov)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


def _kron(op_a: MultiOp, op_b: MultiOp, db: int) -> dict:
    """The sparse Kronecker product of two binary ops' stored constants:
    {tensor basis pair: coordinates} in sorted key order, left factor outer
    as in tensor_space."""
    return dict(sorted(
        ((i1 * db + i2, j1 * db + j2), [ca * cb for ca in va for cb in vb])
        for (i1, j1), va in op_a.constants.items()
        for (i2, j2), vb in op_b.constants.items()
    ))


def tensor_bundle(
    a_bundle: AlgebraBundle, b_bundle: AlgebraBundle, kind: str
) -> AlgebraBundle:
    """Tensor product of two bundles. kind "bp-tbp" combines products and
    brackets (bracket = br⊗mul + mul⊗br); kind "pre-lie-poisson" combines
    products and star products the same way. It refuses nothing: a singular
    factor map is recorded as a warning in provenance."""
    if a_bundle.ring != b_bundle.ring:
        raise RingMismatch("tensor factors must share one coefficient ring")
    if kind not in ("bp-tbp", "pre-lie-poisson"):
        raise ValueError(f"unknown tensor kind {kind!r}")
    second = "br" if kind == "bp-tbp" else "star"
    hyp = _Hypotheses(f"tensor({kind})", require=False)
    for bundle in (a_bundle, b_bundle):
        bundle.require_op("mul", 2)
        bundle.require_op(second, 2)
    if kind == "bp-tbp":
        for bundle, side in ((a_bundle, "left"), (b_bundle, "right")):
            for name in ("a", "b"):
                if not bundle.require_map(name).invertible():
                    hyp.warnings.append(
                        f"{side} factor map {name!r} is singular; the transposed-structure "
                        "preservation claim assumes invertible maps"
                    )
    space = tensor_space(a_bundle.space, b_bundle.space)
    params = a_bundle.ring.params
    maps = {
        "a": tensor_map(a_bundle.require_map("a"), b_bundle.require_map("a")),
        "b": tensor_map(a_bundle.require_map("b"), b_bundle.require_map("b")),
    }
    db = b_bundle.space.dim
    mul_a, mul_b = a_bundle.ops["mul"], b_bundle.ops["mul"]
    left = _kron(a_bundle.ops[second], mul_b, db)
    right = _kron(mul_a, b_bundle.ops[second], db)
    zero = [Scalar.zero(params)] * space.dim
    mixed = {
        k: [x + y for x, y in zip(left.get(k, zero), right.get(k, zero))]
        for k in sorted(left.keys() | right.keys())
    }
    ops = {
        "mul": MultiOp(space, params, 2, _kron(mul_a, mul_b, db)),
        second: MultiOp(space, params, 2, mixed),
    }
    prov = hyp.provenance(inputs=[a_bundle.label(), b_bundle.label()], kind=kind)
    return AlgebraBundle(space, a_bundle.ring, ops, maps, prov)


# ---------------------------------------------------------------------------
# ternary brackets
# ---------------------------------------------------------------------------


def _ternary(bundle: AlgebraBundle, g: LinMap, h: LinMap) -> MultiOp:
    """The ternary bracket shared by the three ternary constructions,
    g(x).br(b^-1 y, b^-1 z) + g(y).br(a^-1 z, a b^-2 x) + h(z).br(b^-1 x, a b^-2 y),
    for given maps g and h. The product a b^-2 is formed once, as
    (a b^-1) b^-1, because polynomial fractions print by association."""
    mul, br = bundle.require_op("mul", 2), bundle.require_op("br", 2)
    A, B = bundle.maps["a"], bundle.maps["b"]
    b_inv = B.power(-1)
    work = bundle.replace(
        ops={"mul": mul, "br": br},
        maps={"a": A, "b": B, "g": g, "h": h, "ab2": A.compose(b_inv).compose(b_inv)},
    )
    return define_op(
        work,
        "forall x,y,z: mul(g(x), br(b^-1(y), b^-1(z))) + mul(g(y), br(a^-1(z), ab2(x)))"
        " + mul(h(z), br(b^-1(x), ab2(y))) = 0",
    )


def ternary_from_derivation(
    bundle: AlgebraBundle, d_name: str = "D", require: bool = True
) -> AlgebraBundle:
    """Ternary bracket built from a derivation of both operations."""
    hyp = _Hypotheses("ternary-derivation", require)
    A, B = bundle.require_map("a"), bundle.require_map("b")
    D = bundle.require_map(d_name)
    laws = [
        (f"map {d_name!r} is not a derivation of {op!r}", derivation_identity(d_name, op, 2))
        for op in ("mul", "br")
    ]
    hyp.check(bundle, [*laws, _commute(d_name, "a"), _commute(d_name, "b")])
    ops = {**bundle.ops, "tbr": _ternary(bundle, D, D.compose(A.power(-1)).compose(B))}
    prov = hyp.provenance(input=bundle.label(), derivation=d_name)
    return bundle.replace(ops=ops, provenance=prov)


def ternary_from_involution(
    bundle: AlgebraBundle, f_name: str = "f", require: bool = True
) -> AlgebraBundle:
    """Ternary bracket built from an involutive bracket anti-morphism. The
    transposed ternary compatibility is not implied here: the exact condition
    is checked and recorded in provenance, never assumed."""
    hyp = _Hypotheses("ternary-involution", require)
    A, B = bundle.require_map("a"), bundle.require_map("b")
    F = bundle.require_map(f_name)
    hyp.check_report(check_involution(bundle, f_name), "involution hypotheses fail: ")
    ops = {**bundle.ops, "tbr": _ternary(bundle, F, F.compose(A.power(-1)).compose(B))}
    compat_bundle = bundle.replace(ops=ops, maps={**bundle.maps, "f": F})
    compat = check_suite("eq3.18", compat_bundle).overall
    prov = hyp.provenance(input=bundle.label(), involution=f_name, invol_compat=compat)
    return bundle.replace(ops=ops, provenance=prov)


def ternary_from_product(bundle: AlgebraBundle, require: bool = True) -> AlgebraBundle:
    """Ternary bracket built from the product itself; the intended inputs are
    strong BP bundles (pass require=False to experiment beyond them)."""
    hyp = _Hypotheses("ternary-product", require)
    hyp.check_report(
        check_structure("strong-bp", bundle), "input does not satisfy the strong BP laws: "
    )
    ident = LinMap.identity(bundle.space, bundle.ring.params)
    A, B = bundle.require_map("a"), bundle.require_map("b")
    ops = {**bundle.ops, "tbr": _ternary(bundle, ident, A.power(-1).compose(B))}
    prov = hyp.provenance(input=bundle.label())
    return bundle.replace(ops=ops, provenance=prov)


# ---------------------------------------------------------------------------
# desk-scale input family: truncated polynomial algebras
# ---------------------------------------------------------------------------


def truncated_polynomial_algebra(names=("t",), order: int = 4) -> AlgebraBundle:
    """The commutative algebra of polynomials in the given variables with all
    monomials of total degree >= order cut off. Basis monomials are ordered
    by total degree then lexicographically (first variable outermost). Ships
    with identity structure maps a, b and one partial-derivative map per
    variable (D<name>; plus the alias D for a single variable)."""
    nvars = len(names)
    monomials = []
    for total in range(order):
        degs = [
            e
            for e in itertools.product(range(total + 1), repeat=nvars)
            if sum(e) == total
        ]
        degs.sort(key=lambda e: tuple(-d for d in e[:-1]))
        monomials.extend(degs)
    index = {e: i for i, e in enumerate(monomials)}

    def label(e):
        if sum(e) == 0:
            return "1"
        factors = []
        for name, d in zip(names, e):
            if d == 1:
                factors.append(name)
            elif d > 1:
                factors.append(f"{name}^{d}")
        return "*".join(factors)

    space = BasisSpace([label(e) for e in monomials])
    one, zero = Scalar.one(), Scalar.zero()
    dim = space.dim
    constants = {}
    for i, ei in enumerate(monomials):
        for j, ej in enumerate(monomials):
            prod = tuple(x + y for x, y in zip(ei, ej))
            k = index.get(prod)
            if k is not None:
                vec = [zero] * dim
                vec[k] = one
                constants[(i, j)] = tuple(vec)
    mul = MultiOp(space, (), 2, constants)
    maps = {"a": LinMap.identity(space, ()), "b": LinMap.identity(space, ())}
    for v, name in enumerate(names):
        rows = [[zero] * dim for _ in range(dim)]
        for j, e in enumerate(monomials):
            if e[v] == 0:
                continue
            lower = list(e)
            lower[v] -= 1
            rows[index[tuple(lower)]][j] = Scalar.rational(e[v])
        maps[f"D{name}"] = LinMap(space, (), rows)
    if nvars == 1:
        maps["D"] = maps[f"D{names[0]}"]
    prov = {
        "name": f"poly[{','.join(names)}]<{order}",
        "construction": "truncated-polynomial-algebra",
    }
    return AlgebraBundle(space, Ring(), {"mul": mul}, maps, prov)
