"""Decide whether a multilinear identity holds on a bundle.

check_identity is the package's one decision procedure: every law, read from
a .idl file or written as text from names and exponents (structures, the
templates below), is parsed by dsl.parse_identity and decided here.

The linearity invariant of the DSL (each declared variable exactly once per
monomial) makes an identity multilinear in its variables, so it vanishes on
every vector assignment iff it vanishes on every assignment of basis vectors.
check_identity therefore walks all dim^|vars| basis tuples in lexicographic
order and reports the first failure, which is canonical regardless of any
internal evaluation strategy. Negative map powers are resolved when an
identity is bound to a bundle; a singular map makes the verdict inapplicable
rather than pass/fail.

The walk runs on a compiled form of the bound identity, built once per
check_identity call. Every monomial (after cyc expansion) is hash-consed
into one DAG, so a subterm shared by several monomials, such as b(x) or the
inner tbr(b(x), b(y), a(z)) of tjacobi, is one node; identical monomials
merge into one term with the summed coefficient. A chain of maps over a
variable is a column lookup in its pre-powered matrix. Every other node that
leaves out at least one variable is memoized by the basis indices of the
variables it contains; a node over every variable is evaluated afresh,
because no later tuple can reuse it. The memo tables live for that one call.
Values are plain coordinate tuples fed to the private kernels behind
LinMap.apply and MultiOp.apply.

The compiled sum is exact, so it decides zero/nonzero exactly, but it adds
terms in another order than BoundIdentity.eval_at. Polynomial fractions are
never gcd-reduced, so another order can print another numerator/denominator
pair for the same value; the residual of the reported counterexample is
therefore recomputed by the reference walk, eval_at, which keeps report
bytes independent of the evaluation strategy.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .bundle import AlgebraBundle
from .dsl import Identity, MapApply, Node, OpApply, Var, expand_identity, parse_identity
from .errors import (
    ArityMismatch,
    ConstraintViolated,
    NoSamplePoints,
    NotInvertible,
    UnknownName,
)
from .linear import Vector
from .scalars import Scalar


@dataclass
class Counterexample:
    basis_tuple: tuple
    residual: tuple  # coordinate texts of the nonzero residual vector
    point: dict | None = None

    def to_dict(self) -> dict:
        out = {"basis_tuple": list(self.basis_tuple), "residual": list(self.residual)}
        if self.point is not None:
            out["point"] = {k: str(v) for k, v in self.point.items()}
        return out


@dataclass
class Verdict:
    identity: str
    status: str  # "pass" | "fail" | "inapplicable"
    reason: str = ""
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {"identity": self.identity, "status": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_dict()
        return out


class BoundIdentity:
    """An identity with every name resolved against one bundle: ops looked
    up, map powers turned into matrices, cyclic sums expanded."""

    def __init__(self, ident: Identity, bundle: AlgebraBundle):
        self.ident = ident
        self.bundle = bundle
        self.monomials = expand_identity(ident)
        self._matrices: dict = {}
        self._ops: dict = {}
        for coeff, node in self.monomials:
            self._bind(node)

    def _bind(self, node: Node):
        if isinstance(node, Var):
            if node.name not in self.ident.vars:
                raise UnknownName(node.name, "variable not declared")
            return
        if isinstance(node, MapApply):
            key = (node.map_name, node.power)
            if key not in self._matrices:
                m = self.bundle.maps.get(node.map_name)
                if m is None:
                    raise UnknownName(node.map_name, "no such map in the bundle")
                self._matrices[key] = m.power(node.power)
            self._bind(node.child)
            return
        if isinstance(node, OpApply):
            op = self.bundle.ops.get(node.op_name)
            if op is None:
                raise UnknownName(node.op_name, "no such operation in the bundle")
            if op.arity != len(node.children):
                raise ArityMismatch(
                    f"{node.op_name!r} has arity {op.arity}, called with {len(node.children)}"
                )
            self._ops[node.op_name] = op
            for c in node.children:
                self._bind(c)
            return
        raise TypeError(f"unexpected node {node!r}")

    def eval_monomial(self, node: Node, assignment: Mapping[str, Vector]) -> Vector:
        if isinstance(node, Var):
            return assignment[node.name]
        if isinstance(node, MapApply):
            child = self.eval_monomial(node.child, assignment)
            return self._matrices[(node.map_name, node.power)].apply(child)
        if isinstance(node, OpApply):
            args = [self.eval_monomial(c, assignment) for c in node.children]
            return self._ops[node.op_name].apply(args)
        raise TypeError(f"unexpected node {node!r}")

    def eval_at(self, assignment: Mapping[str, Vector]) -> Vector:
        total = Vector.zero(self.bundle.space, self.bundle.ring.params)
        for coeff, node in self.monomials:
            value = self.eval_monomial(node, assignment)
            total = total + value.scale(coeff)
        return total


def _compile(bound: BoundIdentity) -> list:
    """The bound identity as [(coeff, coeff as a Scalar, evaluator)], one
    term per distinct monomial; an evaluator maps a basis tuple to the
    coordinate tuple of its monomial's value."""
    names = bound.ident.vars
    position = {name: i for i, name in enumerate(names)}
    params = bound.bundle.ring.params
    dim = bound.bundle.space.dim
    zero, one = Scalar.zero(params), Scalar.one(params)
    units = [tuple(one if k == i else zero for k in range(dim)) for i in range(dim)]
    # node -> (sorted variable positions, evaluator, columns or None);
    # columns[j] is the value of a variable-only chain at basis vector j
    nodes: dict = {}

    def lookup(columns, i):
        return lambda tup: columns[tup[i]]

    def memoized(fn, positions):
        if len(positions) == len(names):
            return fn
        key_of = operator.itemgetter(*positions)
        memo: dict = {}

        def get(tup):
            key = key_of(tup)
            value = memo.get(key)
            if value is None:
                value = memo[key] = fn(tup)
            return value

        return get

    def build(node):
        hit = nodes.get(node)
        if hit is not None:
            return hit
        if isinstance(node, Var):
            i = position[node.name]
            out = ((i,), lookup(units, i), units)
        elif isinstance(node, MapApply):
            matrix = bound._matrices[(node.map_name, node.power)]
            positions, child, columns = build(node.child)
            if columns is None:
                apply = matrix._apply
                out = (positions, memoized(lambda tup: apply(child(tup)), positions), None)
            else:
                if isinstance(node.child, Var):
                    columns = list(zip(*matrix.rows))
                else:
                    columns = [matrix._apply(c) for c in columns]
                out = (positions, lookup(columns, positions[0]), columns)
        else:
            apply = bound._ops[node.op_name]._apply
            built = [build(c) for c in node.children]
            positions = tuple(sorted({i for p, _, _ in built for i in p}))
            children = [fn for _, fn, _ in built]
            fn = lambda tup: apply([child(tup) for child in children])
            out = (positions, memoized(fn, positions), None)
        nodes[node] = out
        return out

    coeffs: dict = {}
    for coeff, node in bound.monomials:
        coeffs[node] = coeffs.get(node, 0) + coeff
    return [
        (coeff, Scalar.rational(coeff, params), build(node)[1])
        for node, coeff in coeffs.items()
        if coeff
    ]


def _residual_is_zero(terms: list, tup: tuple, zeros: list) -> bool:
    acc = list(zeros)
    for coeff, scalar, fn in terms:
        for k, c in enumerate(fn(tup)):
            if c.is_zero():
                continue
            if coeff == 1:
                acc[k] = acc[k] + c
            elif coeff == -1:
                acc[k] = acc[k] - c
            else:
                acc[k] = acc[k] + scalar * c
    return all(c.is_zero() for c in acc)


def check_identity(
    ident: Identity, bundle: AlgebraBundle, identity_id: str = "identity"
) -> Verdict:
    """Exhaustive basis-tuple check; by linearity this decides the identity
    on all of the space."""
    try:
        bound = BoundIdentity(ident, bundle)
    except NotInvertible as exc:
        return Verdict(identity_id, "inapplicable", f"non-invertible map: {exc}")
    dim = bundle.space.dim
    params = bundle.ring.params
    names = bound.ident.vars
    terms = _compile(bound)
    zeros = [Scalar.zero(params)] * dim
    for tup in itertools.product(range(dim), repeat=len(names)):
        if _residual_is_zero(terms, tup, zeros):
            continue
        basis = [Vector.basis(bundle.space, i, params) for i in range(dim)]
        residual = bound.eval_at({name: basis[i] for name, i in zip(names, tup)})
        return Verdict(
            identity_id,
            "fail",
            counterexample=Counterexample(tup, tuple(c.text() for c in residual.coords)),
        )
    return Verdict(identity_id, "pass")


def checked_points(
    bundle: AlgebraBundle, points: Sequence[Mapping[str, Fraction]] | None
) -> list:
    """The points of a sampled check as exact rationals. There must be at
    least one, and each must satisfy the bundle's constraints exactly."""
    if not points:
        raise NoSamplePoints()
    out = []
    for point in points:
        point = {k: Fraction(v) for k, v in point.items()}
        bad = bundle.ring.check_point(point)
        if bad is not None:
            raise ConstraintViolated(point, bad.text())
        out.append(point)
    return out


def merge(cases: Sequence[tuple]) -> list:
    """Combine the verdict lists of several cases (sample points, constraint
    branches), position by position: the first fail wins, else the first
    inapplicable verdict, else pass. A case is (label, verdicts); a fail's
    counterexample records the label as its point unless the label is None."""
    merged = []
    for i, first in enumerate(cases[0][1]):
        final = Verdict(first.identity, "pass")
        for label, verdicts in cases:
            v = verdicts[i]
            if v.status == "fail":
                if label is not None and v.counterexample is not None:
                    v.counterexample.point = dict(label)
                final = v
                break
            if v.status == "inapplicable" and final.status == "pass":
                final = v
        merged.append(final)
    return merged


def check_identity_sampled(
    ident: Identity,
    bundle: AlgebraBundle,
    points: Sequence[Mapping[str, Fraction]],
    identity_id: str = "identity",
) -> Verdict:
    """Check at each parameter point (see checked_points) and merge."""
    return merge([
        (point, [check_identity(ident, bundle.eval_at(point), identity_id)])
        for point in checked_points(bundle, points)
    ])[0]


# ---------------------------------------------------------------------------
# exponent-template identity family: .idl text with the exponents filled in
# (the parser drops zero powers, so a^0(b^q(y)) reads as b^q(y))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentTuple:
    """The eight free integer exponents of the two-parameter identity family."""

    m: int = 0
    n: int = 0
    l: int = 0
    s: int = 0
    p: int = 0
    q: int = 0
    k: int = 0
    t: int = 0

    @classmethod
    def from_seq(cls, seq) -> "ExponentTuple":
        m, n, l, s, p, q, k, t = seq
        return cls(m, n, l, s, p, q, k, t)

    def as_tuple(self):
        return (self.m, self.n, self.l, self.s, self.p, self.q, self.k, self.t)


# the substitution that collapses the second template to its fixed instance
FIXED_EXPONENTS = ExponentTuple(m=-2, n=0, l=-1, s=-1, p=-2, q=0, k=-1, t=-1)


def _power_family_first(e: ExponentTuple) -> Identity:
    m, n, l, s, p, q, k, t = e.as_tuple()
    return parse_identity(
        "forall y,v,u,z:"
        f" br(mul(a^{p}(b^{q+2}(y)), a^{l+1}(b^{s+2}(v))),"
        f"    mul(a^{m+2}(b^{n}(u)), a^{k+1}(b^{t+1}(z))))"
        f" + br(mul(a^{m+1}(b^{n+1}(u)), a^{p+1}(b^{q+1}(y))),"
        f"      mul(a^{k}(b^{t+2}(z)), a^{l+2}(b^{s+1}(v))))"
        f" - 2*mul(mul(a^{m+1}(b^{n+1}(u)), a^{l+1}(b^{s+2}(v))),"
        f"         br(a^{p+1}(b^{q+1}(y)), a^{k+1}(b^{t+1}(z))))"
        " = 0"
    )


def _power_family_second(e: ExponentTuple) -> Identity:
    m, n, l, s, p, q, k, t = e.as_tuple()
    return parse_identity(
        "forall x,y,u,v:"
        f" mul(a^{p+2}(b^{q+2}(x)),"
        f"     br(a^{l+1}(b^{s+2}(u)), mul(a^{m+2}(b^{n}(y)), a^{k+2}(b^{t}(v)))))"
        f" + mul(a^{k+1}(b^{t+3}(v)),"
        f"       br(mul(a^{p+1}(b^{q+1}(x)), a^{m+2}(b^{n}(y))), a^{l+2}(b^{s+1}(u))))"
        f" + mul(mul(a^{m+1}(b^{n+2}(y)), a^{l+1}(b^{s+2}(u))),"
        f"       br(a^{k+1}(b^{t+2}(v)), a^{p+3}(b^{q}(x))))"
        " = 0"
    )


def instantiate_power_identity(which: str, exps: ExponentTuple | None = None) -> Identity:
    """One of the two exponent-template identities, or the fixed instance.

    which: "eq31" (first template), "eq32" (second template), "eq33" (the
    second template at the fixed exponent substitution; any exps argument is
    ignored for it)."""
    if which == "eq31":
        return _power_family_first(exps or ExponentTuple())
    if which == "eq32":
        return _power_family_second(exps or ExponentTuple())
    if which == "eq33":
        return _power_family_second(FIXED_EXPONENTS)
    raise ValueError(f"unknown template {which!r}")

