"""Finite-dimensional spaces, linear maps and arity-r multilinear operations
stored as structure constants.

Conventions (fixed once, used everywhere):
  * matrix column j is the image of basis vector j, so rows[i][j] is the
    coefficient of e_i in the image of e_j and composition reads right to left;
  * structure constants are sparse: a basis tuple absent from MultiOp.constants
    means the operation vanishes there;
  * the kernels behind LinMap.apply and MultiOp.apply work on sparse values
    {coordinate: coefficient} with ascending keys and no zero coefficients.
    Over Q the coefficients are Python ints over a denominator: `cleared()`
    turns a Vector, a matrix or an op's constants into integers over the lcm
    d of their denominators, and a kernel's result is the image times the
    product of the denominators involved. Over Q(params) the coefficients are
    the Scalars themselves and every denominator is 1. Within each output
    coordinate the kernels add their terms in ascending summation index, so
    unreduced polynomial fractions print the same on every path;
  * LinMap._apply is the one matrix product: the engine's walk, compose
    (and so power) run it on sparse columns, and tensor_map forms the
    Kronecker product of the same cleared columns;
  * tensor bases are ordered row-major (left factor outer), labels joined
    with a literal "⊗".

Everything is immutable after construction and safe to share, so a map's
powers and the cleared forms of maps and ops are computed once per object.
gauss_jordan is the package's one elimination: it serves LinMap.inverse and
the catalog's skew completion, and LinMap.invertible (inverse exists) is the
only regularity test. map_scalars is the one per-coefficient transform.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ArityMismatch, NotInvertible, RingMismatch, SpaceMismatch
from .scalars import Scalar


class BasisSpace:
    """A finite-dimensional space with distinct, ordered basis labels."""

    __slots__ = ("dim", "labels")

    def __init__(self, labels: Sequence[str]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("dimension must be positive")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        self.labels = labels
        self.dim = len(labels)

    def __eq__(self, other):
        return isinstance(other, BasisSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"BasisSpace({list(self.labels)!r})"


def _same_space(a, b):
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space!r} vs {b.space!r}")
    if a.params != b.params:
        raise RingMismatch(f"{a.params} vs {b.params}")


def _clearing(params: tuple, scalars) -> tuple:
    """(d, clear) for a family of nonzero Scalars: over Q, d is the lcm of
    their denominators and clear(c) the integer d*c; over Q(params), d is 1
    and clear keeps the Scalar."""
    if params:
        return 1, lambda c: c
    d = lcm(1, *(c.rat.denominator for c in scalars))
    return d, lambda c: c.rat.numerator * (d // c.rat.denominator)


class Vector:
    __slots__ = ("space", "params", "coords")

    def __init__(self, space: BasisSpace, params: tuple, coords: Sequence[Scalar]):
        if len(coords) != space.dim:
            raise SpaceMismatch(f"expected {space.dim} coordinates, got {len(coords)}")
        self.space = space
        self.params = params
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, space: BasisSpace, params: tuple) -> "Vector":
        z = Scalar.zero(params)
        return cls(space, params, (z,) * space.dim)

    @classmethod
    def from_values(cls, space: BasisSpace, params: tuple, values: dict, d: int) -> "Vector":
        """The vector of a sparse value over the denominator d (see cleared)."""
        coords = [Scalar.zero(params)] * space.dim
        for i, c in values.items():
            coords[i] = c if params else Scalar.rational(Fraction(c, d))
        return cls(space, params, coords)

    def cleared(self) -> tuple:
        """(d, values): the sparse value of this vector over the denominator d."""
        d, clear = _clearing(self.params, [c for c in self.coords if c])
        return d, {i: clear(c) for i, c in enumerate(self.coords) if c}

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        _same_space(self, other)
        return Vector(
            self.space, self.params, [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other: "Vector") -> "Vector":
        _same_space(self, other)
        return Vector(
            self.space, self.params, [a - b for a, b in zip(self.coords, other.coords)]
        )

    def scale(self, s) -> "Vector":
        if isinstance(s, int):
            if s == 0:
                return Vector.zero(self.space, self.params)
            if s == 1:
                return self
            s = Scalar.rational(s, self.params)
        return Vector(self.space, self.params, [s * c for c in self.coords])

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _same_space(self, other)
        return all(a == b for a, b in zip(self.coords, other.coords))

    __hash__ = None

    def text(self) -> str:
        parts = [
            f"({c.text()})*{lbl}" if not c.is_rational() else f"{c.text()}*{lbl}"
            for c, lbl in zip(self.coords, self.space.labels)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Vector({self.text()})"


def gauss_jordan(rows, rhs_rows, n_cols: int) -> tuple:
    """Reduce the equations rows (n_cols coefficients each), with one row of
    right-hand sides per equation, to (pivot column of each leading row,
    reduced right-hand sides); a nonzero right-hand side past the pivots is
    an inconsistency. Per column the first nonzero entry at or below the
    current row is swapped up and divided out, then cleared from every other
    row. Q(params) fractions are never gcd-reduced, so this order is fixed."""
    rows = [[*r, *b] for r, b in zip(rows, rhs_rows)]
    pivots = []
    for col in range(n_cols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        p = rows[row][col]
        rows[row] = [c / p for c in rows[row]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != row and not f.is_zero():
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
    return pivots, [r[n_cols:] for r in rows]


class LinMap:
    """Square matrix of Scalars; column j is the image of basis vector j."""

    __slots__ = ("space", "params", "rows", "_powers", "_sparse")

    def __init__(self, space: BasisSpace, params: tuple, rows: Sequence[Sequence[Scalar]]):
        if len(rows) != space.dim or any(len(r) != space.dim for r in rows):
            raise SpaceMismatch("matrix shape does not match the space")
        self.space = space
        self.params = params
        self.rows = tuple(tuple(r) for r in rows)
        self._powers: dict = {}
        self._sparse = None

    @classmethod
    def identity(cls, space: BasisSpace, params: tuple) -> "LinMap":
        one, zero = Scalar.one(params), Scalar.zero(params)
        return cls(
            space,
            params,
            [[one if i == j else zero for j in range(space.dim)] for i in range(space.dim)],
        )

    @classmethod
    def from_columns(cls, space: BasisSpace, params: tuple, cols) -> "LinMap":
        return cls(
            space,
            params,
            [[cols[j][i] for j in range(space.dim)] for i in range(space.dim)],
        )

    def cleared(self) -> tuple:
        """(d, columns): columns[j] is the sparse value of column j over the
        denominator d. Computed once."""
        if self._sparse is None:
            d, clear = _clearing(self.params, [c for row in self.rows for c in row if c])
            self._sparse = d, [
                {i: clear(row[j]) for i, row in enumerate(self.rows) if row[j]}
                for j in range(self.space.dim)
            ]
        return self._sparse

    def apply(self, v: Vector) -> Vector:
        _same_space(self, v)
        d, values = v.cleared()
        return Vector.from_values(
            self.space, self.params, self._apply(values), self.cleared()[0] * d
        )

    def _apply(self, values: dict) -> dict:
        """The image of a sparse value, over the product of its denominator
        and the map's, with no space check."""
        columns = (self._sparse or self.cleared())[1]
        out: dict = {}
        for j, c in values.items():
            for i, m in columns[j].items():
                p = m * c
                acc = out.get(i)
                out[i] = p if acc is None else acc + p
        return {i: out[i] for i in sorted(out) if out[i]}

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other (right-to-left): _apply on each of other's
        columns."""
        _same_space(self, other)
        d, columns = other.cleared()
        d *= self.cleared()[0]
        return _from_sparse_columns(
            self.space, self.params, [self._apply(c) for c in columns], d
        )

    def inverse(self) -> "LinMap":
        n = self.space.dim
        zero, one = Scalar.zero(self.params), Scalar.one(self.params)
        identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
        pivots, right = gauss_jordan(self.rows, identity, n)
        if len(pivots) < n:
            raise NotInvertible(f"map on {self.space.labels} has zero determinant")
        return LinMap(self.space, self.params, right)

    def invertible(self) -> bool:
        """Whether the map has an inverse over its ring (exact: a Scalar is
        zero iff its numerator is). The inverse is kept for power(-1)."""
        try:
            self.power(-1)
        except NotInvertible:
            return False
        return True

    def power(self, k: int) -> "LinMap":
        """self^k, computed once per exponent (a negative power starts from the
        cached inverse); raises NotInvertible for k < 0 on a singular map."""
        if k == 1:
            return self
        if k in self._powers:
            return self._powers[k]
        base, n = self, k
        if n < 0:
            base = self.inverse() if n == -1 else self.power(-1)
            n = -n
        result = None
        while n:
            if n & 1:
                result = base if result is None else result.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        if result is None:
            result = LinMap.identity(self.space, self.params)
        self._powers[k] = result
        return result

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        _same_space(self, other)
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def map_scalars(self, fn, params: tuple) -> "LinMap":
        """The map over params whose coefficients are fn of this map's."""
        return LinMap(self.space, params, [[fn(c) for c in row] for row in self.rows])

    def __repr__(self):
        rows = "; ".join(
            "[" + ", ".join(c.text() for c in row) + "]" for row in self.rows
        )
        return f"LinMap({rows})"


class MultiOp:
    """Arity-r multilinear operation given by sparse structure constants."""

    __slots__ = ("space", "params", "arity", "constants", "_sparse")

    def __init__(self, space: BasisSpace, params: tuple, arity: int, constants: dict):
        if arity < 1:
            raise ArityMismatch("arity must be at least 1")
        self.space = space
        self.params = params
        self.arity = arity
        clean = {}
        for idx, vec in constants.items():
            if len(idx) != arity:
                raise ArityMismatch(f"index tuple {idx} has wrong length")
            if any(i < 0 or i >= space.dim for i in idx):
                raise SpaceMismatch(f"index tuple {idx} out of range for dim {space.dim}")
            if len(vec) != space.dim:
                raise SpaceMismatch(f"constant vector at {idx} has wrong length")
            vec = tuple(vec)
            if any(not c.is_zero() for c in vec):
                clean[tuple(idx)] = vec
        self.constants = clean
        self._sparse = None

    def value_at(self, idx) -> Vector:
        vec = self.constants.get(tuple(idx))
        if vec is None:
            return Vector.zero(self.space, self.params)
        return Vector(self.space, self.params, vec)

    def cleared(self) -> tuple:
        """(d, constants): each stored index tuple, in stored order, with the
        (k, c) pairs of its sparse value over the denominator d. Computed
        once."""
        if self._sparse is None:
            d, clear = _clearing(
                self.params, [c for vec in self.constants.values() for c in vec if c]
            )
            self._sparse = d, {
                idx: tuple((k, clear(c)) for k, c in enumerate(vec) if c)
                for idx, vec in self.constants.items()
            }
        return self._sparse

    def apply(self, args: Sequence[Vector]) -> Vector:
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(args)}")
        for v in args:
            _same_space(self, v)
        d, values = self.cleared()[0], []
        for v in args:
            dv, value = v.cleared()
            d *= dv
            values.append(value)
        return Vector.from_values(self.space, self.params, self._apply(values), d)

    def _apply(self, args: Sequence[dict]) -> dict:
        """The value at `arity` sparse values, over the product of their
        denominators and the op's, with no arity or space check."""
        constants = (self._sparse or self.cleared())[1]
        out: dict = {}
        n_combos = 1
        for a in args:
            if not a:
                return out
            n_combos *= len(a)
        if n_combos <= len(constants):
            # few nonzero coordinates: walk the support product in lex order
            for idx in itertools.product(*args):
                vec = constants.get(idx)
                if vec is None:
                    continue
                coeff = args[0][idx[0]]
                for s in range(1, self.arity):
                    coeff = coeff * args[s][idx[s]]
                for k, c in vec:
                    p = coeff * c
                    acc = out.get(k)
                    out[k] = p if acc is None else acc + p
        else:
            # dense arguments: walk the stored constants
            for idx, vec in constants.items():
                coeff = None
                for a, i in zip(args, idx):
                    c = a.get(i)
                    if c is None:
                        break
                    coeff = c if coeff is None else coeff * c
                else:
                    for k, c in vec:
                        p = coeff * c
                        acc = out.get(k)
                        out[k] = p if acc is None else acc + p
        return {k: out[k] for k in sorted(out) if out[k]}

    def __eq__(self, other):
        if not isinstance(other, MultiOp):
            return NotImplemented
        _same_space(self, other)
        if self.arity != other.arity:
            return False
        for idx in set(self.constants) | set(other.constants):
            if self.value_at(idx) != other.value_at(idx):
                return False
        return True

    __hash__ = None

    def map_scalars(self, fn, params: tuple) -> "MultiOp":
        """The op over params whose structure constants are fn of this op's."""
        constants = {
            idx: tuple(fn(c) for c in vec) for idx, vec in self.constants.items()
        }
        return MultiOp(self.space, params, self.arity, constants)

    def __repr__(self):
        return f"MultiOp(arity={self.arity}, nonzero={len(self.constants)})"


def tensor_space(a: BasisSpace, b: BasisSpace) -> BasisSpace:
    """Row-major product basis (left factor outer), labels joined with ⊗."""
    return BasisSpace([f"{la}⊗{lb}" for la in a.labels for lb in b.labels])


def tensor_map(ma: LinMap, mb: LinMap) -> LinMap:
    """Column j1*n + j2, n the dimension of mb's space, is the Kronecker
    product of column j1 of ma and column j2 of mb."""
    if ma.params != mb.params:
        raise RingMismatch(f"{ma.params} vs {mb.params}")
    (da, cols_a), (db, cols_b) = ma.cleared(), mb.cleared()
    n = mb.space.dim
    columns = [
        {i1 * n + i2: a * b for i1, a in ca.items() for i2, b in cb.items()}
        for ca in cols_a
        for cb in cols_b
    ]
    return _from_sparse_columns(tensor_space(ma.space, mb.space), ma.params, columns, da * db)


def _from_sparse_columns(space: BasisSpace, params: tuple, columns, d: int) -> LinMap:
    """The map whose column j is the sparse value columns[j] over d."""
    cols = [Vector.from_values(space, params, c, d).coords for c in columns]
    return LinMap.from_columns(space, params, cols)
