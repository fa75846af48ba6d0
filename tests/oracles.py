"""Brute-force oracles.

The classical-law oracles share no code with the library: plain Fractions,
plain nested loops. reference_eval is the plain recursive walk over an
identity's monomials that the engine's compiled walk is compared against; it
reuses LinMap, MultiOp and Vector, and adds the monomials in the same order
as the engine's residual, so the residual texts of the two must be equal
(polynomial fractions are not gcd-reduced, so another order could print
another numerator/denominator pair). dense_evaluator is the same walk on dense
coordinate lists with its own loops over matrix rows and stored constants,
so it checks the sparse kernels that reference_eval shares with the engine;
its values are compared by equality, not by text. dense_product,
dense_power and dense_kronecker are plain loops over matrix rows that add
each entry's terms from zero in ascending summation index, the order of the
kernel behind LinMap.compose, power and tensor_map, so their results must
equal the library's by value and by printed text."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from bihomcheck.dsl import MapApply, Var, expand_identity
from bihomcheck.linear import Vector
from bihomcheck.scalars import Scalar


def naive_apply(constants, arity, dim, args):
    """Multilinear extension computed over the FULL index space.

    constants: {tuple: [Fraction]*dim}; args: list of coordinate lists."""
    out = [Fraction(0)] * dim
    for idx in itertools.product(range(dim), repeat=arity):
        coeff = Fraction(1)
        for slot, i in enumerate(idx):
            coeff *= args[slot][i]
        vec = constants.get(idx)
        if vec is None or coeff == 0:
            continue
        for k in range(dim):
            out[k] += coeff * vec[k]
    return out


def _bil(constants, dim, x, y):
    return naive_apply(constants, 2, dim, [x, y])


def _basis(dim, i):
    v = [Fraction(0)] * dim
    v[i] = Fraction(1)
    return v


def _add(u, v):
    return [a + b for a, b in zip(u, v)]


def _scale(c, u):
    return [c * x for x in u]


def classical_transposed_poisson(dim, mul_c, br_c):
    """Check the untwisted axioms (both structure maps the identity) by
    exhaustive basis loops: commutativity, associativity, antisymmetry,
    the Jacobi law, and the factor-2 transposed compatibility.

    Returns {law: bool}."""
    basis = [_basis(dim, i) for i in range(dim)]
    out = {}

    out["comm"] = all(
        _bil(mul_c, dim, basis[i], basis[j]) == _bil(mul_c, dim, basis[j], basis[i])
        for i in range(dim)
        for j in range(dim)
    )

    ok = True
    for i, j, k in itertools.product(range(dim), repeat=3):
        lhs = _bil(mul_c, dim, _bil(mul_c, dim, basis[i], basis[j]), basis[k])
        rhs = _bil(mul_c, dim, basis[i], _bil(mul_c, dim, basis[j], basis[k]))
        ok = ok and lhs == rhs
    out["assoc"] = ok

    out["skew"] = all(
        _bil(br_c, dim, basis[i], basis[j])
        == _scale(Fraction(-1), _bil(br_c, dim, basis[j], basis[i]))
        for i in range(dim)
        for j in range(dim)
    )

    ok = True
    for i, j, k in itertools.product(range(dim), repeat=3):
        total = [Fraction(0)] * dim
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            total = _add(total, _bil(br_c, dim, _bil(br_c, dim, basis[x], basis[y]), basis[z]))
        ok = ok and all(c == 0 for c in total)
    out["jacobi"] = ok

    ok = True
    for i, j, k in itertools.product(range(dim), repeat=3):
        lhs = _scale(Fraction(2), _bil(mul_c, dim, basis[i], _bil(br_c, dim, basis[j], basis[k])))
        rhs = _add(
            _bil(br_c, dim, _bil(mul_c, dim, basis[i], basis[j]), basis[k]),
            _bil(br_c, dim, basis[j], _bil(mul_c, dim, basis[i], basis[k])),
        )
        ok = ok and lhs == rhs
    out["tcompat"] = ok

    out["all"] = all(out.values())
    return out


def rational_constants(op):
    """A MultiOp's constants as plain Fractions (op must be over Q)."""
    return {
        idx: [c.eval({}) for c in vec] for idx, vec in op.constants.items()
    }


def reference_eval(ident, bundle, assignment):
    """The value of the identity's left-hand side at an assignment of
    vectors to its variables: every cyc-expanded monomial evaluated by
    recursion, scaled by its coefficient and added in expansion order.
    Raises NotInvertible when a negative power of a singular map occurs."""

    def value(node):
        if isinstance(node, Var):
            return assignment[node.name]
        if isinstance(node, MapApply):
            return bundle.maps[node.map_name].power(node.power).apply(value(node.child))
        return bundle.ops[node.op_name].apply([value(c) for c in node.children])

    total = Vector.zero(bundle.space, bundle.ring.params)
    for coeff, node in expand_identity(ident):
        total = total + value(node).scale(coeff)
    return total


def dense_evaluator(ident, bundle):
    """tup -> the identity's left side at that basis tuple, as a list of
    coordinates, computed without the sparse kernels (no apply, _apply or
    cleared): a map power a^n multiplies by the rows of a (of a^-1 when
    n < 0) |n| times, an op sums its stored constants weighted by the
    products of its arguments' coordinates. Coordinates are Fractions over
    Q and Scalars over Q(params). A subterm's value is kept per basis
    indices of its variables. Raises NotInvertible where a singular map is
    inverted."""
    params, dim = bundle.ring.params, bundle.space.dim
    lift = (lambda c: c) if params else (lambda c: c.rat)
    zero, one = lift(Scalar.zero(params)), lift(Scalar.one(params))
    position = {name: i for i, name in enumerate(ident.vars)}
    memo = {}

    @functools.cache
    def positions(node):
        if isinstance(node, Var):
            return (position[node.name],)
        children = (node.child,) if isinstance(node, MapApply) else node.children
        return tuple(sorted({i for c in children for i in positions(c)}))

    def value(node, tup):
        key = (node, tuple(tup[i] for i in positions(node)))
        if key not in memo:
            memo[key] = compute(node, tup)
        return memo[key]

    def compute(node, tup):
        if isinstance(node, Var):
            return [one if k == tup[position[node.name]] else zero for k in range(dim)]
        if isinstance(node, MapApply):
            m = bundle.maps[node.map_name]
            rows = [[lift(c) for c in row] for row in (m.power(-1) if node.power < 0 else m).rows]
            v = value(node.child, tup)
            for _ in range(abs(node.power)):
                v = [sum((r[j] * v[j] for j in range(dim) if r[j] and v[j]), zero) for r in rows]
            return v
        args = [value(c, tup) for c in node.children]
        out = [zero] * dim
        for idx, vec in bundle.ops[node.op_name].constants.items():
            coeff = one
            for arg, i in zip(args, idx):
                coeff = coeff * arg[i]
            for k, c in enumerate(vec):
                if coeff and c:
                    out[k] = out[k] + coeff * lift(c)
        return out

    monomials = expand_identity(ident)

    def evaluate(tup):
        total = [zero] * dim
        for coeff, node in monomials:
            total = [t + coeff * x for t, x in zip(total, value(node, tup))]
        return total

    return evaluate


def dense_product(left, right, zero):
    """The product of two square matrices given as row lists: entry (i, j)
    is zero + left[i][k] * right[k][j] over k = 0, 1, ..., skipping zero
    factors."""
    n = len(left)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                if left[i][k] and right[k][j]:
                    acc = acc + left[i][k] * right[k][j]
            row.append(acc)
        out.append(row)
    return out


def dense_power(m, k):
    """The rows of the LinMap m to the power k, multiplied by dense_product
    in LinMap.power's square-and-multiply order; a negative power starts
    from the rows of m.power(-1) (the inverse is not under test here)."""
    zero, one = Scalar.zero(m.params), Scalar.one(m.params)
    base, n = (m.power(-1).rows if k < 0 else m.rows), abs(k)
    result = None
    while n:
        if n & 1:
            result = base if result is None else dense_product(result, base, zero)
        n >>= 1
        if n:
            base = dense_product(base, base, zero)
    if result is None:
        size = len(m.rows)
        return [[one if i == j else zero for j in range(size)] for i in range(size)]
    return [list(row) for row in result]


def dense_kronecker(left, right, zero):
    """The Kronecker product of two square row lists, left factor outer:
    entry (i1*n + i2, j1*n + j2) is left[i1][j1] * right[i2][j2]."""
    n = len(right)
    size = len(left) * n
    out = [[zero] * size for _ in range(size)]
    for i1, row_a in enumerate(left):
        for j1, a in enumerate(row_a):
            for i2, row_b in enumerate(right):
                for j2, b in enumerate(row_b):
                    if a and b:
                        out[i1 * n + i2][j1 * n + j2] = a * b
    return out
