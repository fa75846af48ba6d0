"""Decide whether a multilinear identity holds on a bundle.

check_identity is the package's one decision procedure: every law, read from
a .idl file or written as text from names and exponents (structures, the
templates below), is parsed by dsl.parse_identity and decided here, and it
is reached only through structures.check_definition, construction
hypotheses included. The templates take their eight exponents (m, n, l, s,
p, q, k, t) as a plain tuple, which is also how report ids print them.

The linearity invariant of the DSL (each declared variable exactly once per
monomial) makes an identity multilinear in its variables, so it vanishes on
every vector assignment iff it vanishes on every assignment of basis vectors.
BoundIdentity.nonzero is the one walk over all dim^|vars| basis tuples, in
lexicographic order, and check_identity reports the first tuple it yields,
which is canonical regardless of any internal evaluation strategy. Negative
map powers are resolved when an identity is bound to a bundle; a singular
map makes the verdict inapplicable rather than pass/fail.

An identity is compiled once, independent of any bundle, into a plan
(_plan, cached on the frozen Identity): the cyc-expanded monomials are
hash-consed into steps, so a subterm shared by several monomials, such as
b(x) or the inner tbr(b(x), b(y), a(z)) of tjacobi, is one step, and
identical monomials merge into one term with the summed coefficient.
BoundIdentity binds the plan to a bundle. It resolves the map powers and ops
in pre-order of first use, so the first bad name decides the error, and
makes each step an evaluator of basis tuples: a chain of maps over a
variable is a column lookup in its pre-powered matrix, and every other step
that leaves out a variable is memoized by the basis indices of its
variables.

A step's value is a sparse {coord: coeff} dict, fed to the kernels behind
LinMap.apply and MultiOp.apply. On a bundle without parameters the
coefficients are Python ints: each op's constants and each map power's
matrix are cleared once to integers over the lcm of their denominators
(linear's `cleared`), and a step carries the integer denominator D_s of its
values: 1 for a variable, d_M * D_child for a map, d_O * the product of
D_children for an op. The merged sum, multiplied by the lcm L of the step
denominators, has the integer weights coeff * L / D_s, so the zero test is
exact integer arithmetic. Over Q(params) the coefficients are Scalars, every
D_s is 1 and the same kernels run. Over Q, Scalar appears only at the
boundary: in the bundle's data and in the residual.

The residual of the reported counterexample is summed again from the same
step values, monomial by monomial in expand_identity order with Vector
arithmetic, each integer coordinate becoming the rational c / D_s:
polynomial fractions are never gcd-reduced, so another order could print
another numerator/denominator pair for the same value (reduced rationals
print the same in any order).

define_op is the second user of the walk. It reads the left side of a
`forall x,y,...: TERM = 0` text as a new op: at every basis tuple the walk
yields it sums the term once with BoundIdentity.residual, the summation of a
counterexample's residual, and keeps the value as one of the op's
constants. Every op that construct builds from one bundle comes from here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .bundle import AlgebraBundle
from .dsl import Identity, MapApply, Var, expand_identity, parse_identity
from .errors import NotInvertible
from .linear import MultiOp, Vector
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


@functools.cache
def _plan(ident: Identity) -> tuple:
    """The bundle-independent compiled form of an identity, (names, steps,
    terms, monomials). This is the engine's only walk over DSL trees.

    names: ("map", name, power) and ("op", name, arity) keys in pre-order of
    first use, the order in which binding resolves them. steps: (key,
    children, positions), one per distinct subterm of the cyc-expanded
    monomials, children first; key is None for a variable, and positions
    are the sorted indices (in the forall list) of the variables the step
    reads. terms: (coeff, step) with the coefficients of identical monomials
    summed and zero sums dropped. monomials: (coeff, step) for every
    monomial, in expand_identity order."""
    position = {name: i for i, name in enumerate(ident.vars)}
    names: dict = {}
    steps: list = []
    index: dict = {}  # node -> step

    def step(node) -> int:
        if node in index:
            return index[node]
        if isinstance(node, Var):
            out = (None, (), (position[node.name],))
        else:
            if isinstance(node, MapApply):
                key, children = ("map", node.map_name, node.power), (node.child,)
            else:
                key, children = ("op", node.op_name, len(node.children)), node.children
            names.setdefault(key)
            children = tuple(step(c) for c in children)
            out = (key, children, tuple(sorted({i for c in children for i in steps[c][2]})))
        index[node] = len(steps)
        steps.append(out)
        return index[node]

    monomials = tuple((coeff, step(node)) for coeff, node in expand_identity(ident))
    coeffs: dict = {}
    for coeff, s in monomials:
        coeffs[s] = coeffs.get(s, 0) + coeff
    terms = tuple((coeff, s) for s, coeff in coeffs.items() if coeff)
    return tuple(names), tuple(steps), terms, monomials


def _memoized(fn, positions):
    key_of = operator.itemgetter(*positions)
    memo: dict = {}

    def get(tup):
        key = key_of(tup)
        value = memo.get(key)
        if value is None:
            value = memo[key] = fn(tup)
        return value

    return get


class BoundIdentity:
    """An identity's plan bound to one bundle: every map power turned into a
    matrix, every op looked up, and one evaluator per plan step that maps a
    basis tuple to the step's value, a sparse {coord: coeff} dict over the
    step's denominator (see the module docstring)."""

    def __init__(self, ident: Identity, bundle: AlgebraBundle):
        names, steps, terms, self.monomials = _plan(ident)
        resolved = {}
        for key in names:
            kind, name, n = key
            if kind == "map":
                resolved[key] = bundle.require_map(name).power(n)
            else:
                resolved[key] = bundle.require_op(name, n)
        self.space, self.params = bundle.space, bundle.ring.params
        self.arity = len(ident.vars)
        one = Scalar.one(self.params) if self.params else 1
        units = [{j: one} for j in range(self.space.dim)]
        # columns[s][j] is the value of step s at basis vector j when step s
        # is a chain of maps over one variable, else None
        columns: list = []
        self.denominators: list = []
        self.evaluators: list = []
        for key, children, positions in steps:
            cols, den = None, 1
            if key is None:
                cols = units
            else:
                d, data = resolved[key].cleared()
                den = math.prod((self.denominators[c] for c in children), start=d)
                if key[0] == "map" and columns[children[0]] is not None:
                    matrix, child = resolved[key], children[0]
                    if steps[child][0] is None:
                        cols = data
                    else:
                        cols = [matrix._apply(c) for c in columns[child]]
            if cols is not None:
                fn = lambda tup, cols=cols, i=positions[0]: cols[tup[i]]
            else:
                apply, args = resolved[key]._apply, [self.evaluators[c] for c in children]
                if key[0] == "map":
                    fn = lambda tup, apply=apply, arg=args[0]: apply(arg(tup))
                else:
                    fn = lambda tup, apply=apply, args=args: apply([a(tup) for a in args])
                if len(positions) < len(ident.vars):
                    fn = _memoized(fn, positions)
            columns.append(cols)
            self.denominators.append(den)
            self.evaluators.append(fn)
        # the merged sum times the lcm of the step denominators has integer
        # weights, so integer step values are compared without division
        scale = math.lcm(*(self.denominators[s] for _, s in terms))
        self.terms = [
            (coeff * (scale // self.denominators[s]), self.evaluators[s]) for coeff, s in terms
        ]

    def nonzero(self):
        """The basis tuples, in lexicographic order, at which the identity's
        left side is not zero: the one walk over all dim^|vars| of them."""
        for tup in itertools.product(range(self.space.dim), repeat=self.arity):
            if not _residual_is_zero(self.terms, tup):
                yield tup

    def residual(self, tup: tuple) -> Vector:
        """The identity's left side at a basis tuple, summed from the step
        values monomial by monomial in expand_identity order."""
        out = Vector.zero(self.space, self.params)
        for coeff, s in self.monomials:
            values = self.evaluators[s](tup)
            value = Vector.from_values(self.space, self.params, values, self.denominators[s])
            out = out + value.scale(coeff)
        return out


def _residual_is_zero(terms: list, tup: tuple) -> bool:
    acc: dict = {}
    for weight, fn in terms:
        for k, c in fn(tup).items():
            if weight != 1:
                c = -c if weight == -1 else weight * c
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
    return not any(acc.values())


def check_identity(
    ident: Identity, bundle: AlgebraBundle, identity_id: str = "identity"
) -> Verdict:
    """Exhaustive basis-tuple check; by linearity this decides the identity
    on all of the space."""
    try:
        bound = BoundIdentity(ident, bundle)
    except NotInvertible as exc:
        return Verdict(identity_id, "inapplicable", f"non-invertible map: {exc}")
    tup = next(bound.nonzero(), None)
    if tup is None:
        return Verdict(identity_id, "pass")
    residual = tuple(c.text() for c in bound.residual(tup).coords)
    return Verdict(identity_id, "fail", counterexample=Counterexample(tup, residual))


def define_op(bundle: AlgebraBundle, text: str) -> MultiOp:
    """The op whose value at a basis tuple is the value of the term in the
    `forall x,y,...: TERM = 0` text, with one argument per variable; each
    nonzero tuple's value is summed once, as a residual is."""
    bound = BoundIdentity(parse_identity(text), bundle)
    constants = {tup: bound.residual(tup).coords for tup in bound.nonzero()}
    return MultiOp(bundle.space, bundle.ring.params, bound.arity, constants)


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


# ---------------------------------------------------------------------------
# exponent-template identity family: .idl text with the exponents filled in
# (the parser drops zero powers, so a^0(b^q(y)) reads as b^q(y))
# ---------------------------------------------------------------------------


# collapses the second template to its fixed instance, the law
# "power-fixed" of data/suites/eq3.3.idl
FIXED_EXPONENTS = (-2, 0, -1, -1, -2, 0, -1, -1)


def _power_family_first(exps: tuple) -> Identity:
    m, n, l, s, p, q, k, t = exps
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


def _power_family_second(exps: tuple) -> Identity:
    m, n, l, s, p, q, k, t = exps
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


def instantiate_power_identity(which: str, exps: tuple = (0,) * 8) -> Identity:
    """The first ("eq31") or second ("eq32") exponent-template identity at
    an exponent tuple."""
    if which == "eq31":
        return _power_family_first(exps)
    if which == "eq32":
        return _power_family_second(exps)
    raise ValueError(f"unknown template {which!r}")
