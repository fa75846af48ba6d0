"""Finite-dimensional spaces, linear maps and arity-r multilinear operations
stored as structure constants.

Conventions (fixed once, used everywhere):
  * matrix column j is the image of basis vector j, so rows[i][j] is the
    coefficient of e_i in the image of e_j and composition reads right to left;
  * structure constants are sparse: a basis tuple absent from MultiOp.constants
    means the operation vanishes there;
  * tensor bases are ordered row-major (left factor outer), labels joined
    with a literal "⊗".

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

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
    def basis(cls, space: BasisSpace, i: int, params: tuple) -> "Vector":
        coords = [Scalar.zero(params)] * space.dim
        coords[i] = Scalar.one(params)
        return cls(space, params, coords)

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

    def __neg__(self) -> "Vector":
        return Vector(self.space, self.params, [-c for c in self.coords])

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


class LinMap:
    """Square matrix of Scalars; column j is the image of basis vector j."""

    __slots__ = ("space", "params", "rows")

    def __init__(self, space: BasisSpace, params: tuple, rows: Sequence[Sequence[Scalar]]):
        if len(rows) != space.dim or any(len(r) != space.dim for r in rows):
            raise SpaceMismatch("matrix shape does not match the space")
        self.space = space
        self.params = params
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def identity(cls, space: BasisSpace, params: tuple) -> "LinMap":
        one, zero = Scalar.one(params), Scalar.zero(params)
        return cls(
            space,
            params,
            [[one if i == j else zero for j in range(space.dim)] for i in range(space.dim)],
        )

    @classmethod
    def zero(cls, space: BasisSpace, params: tuple) -> "LinMap":
        zero = Scalar.zero(params)
        return cls(space, params, [[zero] * space.dim for _ in range(space.dim)])

    @classmethod
    def from_columns(cls, space: BasisSpace, params: tuple, cols) -> "LinMap":
        return cls(
            space,
            params,
            [[cols[j][i] for j in range(space.dim)] for i in range(space.dim)],
        )

    def column(self, j: int) -> Vector:
        return Vector(self.space, self.params, [self.rows[i][j] for i in range(self.space.dim)])

    def apply(self, v: Vector) -> Vector:
        _same_space(self, v)
        return Vector(self.space, self.params, self._apply(v.coords))

    def _apply(self, coords: Sequence[Scalar]) -> tuple:
        """The image of a coordinate tuple, with no space check."""
        out = [Scalar.zero(self.params)] * self.space.dim
        for j, c in enumerate(coords):
            if c.is_zero():
                continue
            for i, row in enumerate(self.rows):
                m = row[j]
                if not m.is_zero():
                    out[i] = out[i] + m * c
        return tuple(out)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other (right-to-left)."""
        _same_space(self, other)
        n = self.space.dim
        zero = Scalar.zero(self.params)
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                a = self.rows[i][k]
                if a.is_zero():
                    continue
                for j in range(n):
                    b = other.rows[k][j]
                    if not b.is_zero():
                        rows[i][j] = rows[i][j] + a * b
        return LinMap(self.space, self.params, rows)

    def det(self) -> Scalar:
        n = self.space.dim
        rows = [list(r) for r in self.rows]
        det = Scalar.one(self.params)
        for col in range(n):
            pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
            if pivot is None:
                return Scalar.zero(self.params)
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = -det
            p = rows[col][col]
            det = det * p
            for r in range(col + 1, n):
                f = rows[r][col]
                if f.is_zero():
                    continue
                f = f / p
                rows[r] = [rows[r][j] - f * rows[col][j] for j in range(n)]
        return det

    def inverse(self) -> "LinMap":
        n = self.space.dim
        zero, one = Scalar.zero(self.params), Scalar.one(self.params)
        left = [list(r) for r in self.rows]
        right = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not left[r][col].is_zero()), None)
            if pivot is None:
                raise NotInvertible(f"map on {self.space.labels} has zero determinant")
            if pivot != col:
                left[col], left[pivot] = left[pivot], left[col]
                right[col], right[pivot] = right[pivot], right[col]
            p = left[col][col]
            left[col] = [c / p for c in left[col]]
            right[col] = [c / p for c in right[col]]
            for r in range(n):
                if r == col:
                    continue
                f = left[r][col]
                if f.is_zero():
                    continue
                left[r] = [left[r][j] - f * left[col][j] for j in range(n)]
                right[r] = [right[r][j] - f * right[col][j] for j in range(n)]
        return LinMap(self.space, self.params, right)

    def power(self, k: int) -> "LinMap":
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        result = None
        while k:
            if k & 1:
                result = base if result is None else result.compose(base)
            k >>= 1
            if k:
                base = base.compose(base)
        return LinMap.identity(self.space, self.params) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        _same_space(self, other)
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def eval_at(self, point: Mapping[str, Fraction]) -> "LinMap":
        return LinMap(
            self.space,
            (),
            [[Scalar.rational(c.eval(point)) for c in row] for row in self.rows],
        )

    def rename_params(self, mapping, new_params: tuple) -> "LinMap":
        return LinMap(
            self.space,
            new_params,
            [[c.rename(mapping, new_params) for c in row] for row in self.rows],
        )

    def __repr__(self):
        rows = "; ".join(
            "[" + ", ".join(c.text() for c in row) + "]" for row in self.rows
        )
        return f"LinMap({rows})"


class MultiOp:
    """Arity-r multilinear operation given by sparse structure constants."""

    __slots__ = ("space", "params", "arity", "constants")

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

    @classmethod
    def zero(cls, space: BasisSpace, params: tuple, arity: int) -> "MultiOp":
        return cls(space, params, arity, {})

    def value_at(self, idx) -> Vector:
        vec = self.constants.get(tuple(idx))
        if vec is None:
            return Vector.zero(self.space, self.params)
        return Vector(self.space, self.params, vec)

    def apply(self, args: Sequence[Vector]) -> Vector:
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(args)}")
        for v in args:
            _same_space(self, v)
        return Vector(self.space, self.params, self._apply([v.coords for v in args]))

    def _apply(self, args: Sequence[Sequence[Scalar]]) -> tuple:
        """The value at `arity` coordinate tuples, with no arity or space
        check."""
        out = [Scalar.zero(self.params)] * self.space.dim
        supports = [[i for i, c in enumerate(a) if not c.is_zero()] for a in args]
        n_combos = 1
        for s in supports:
            if not s:
                return tuple(out)
            n_combos *= len(s)
        if n_combos <= len(self.constants):
            # few nonzero coordinates: walk the support product
            for idx in itertools.product(*supports):
                vec = self.constants.get(idx)
                if vec is None:
                    continue
                coeff = args[0][idx[0]]
                for s in range(1, self.arity):
                    coeff = coeff * args[s][idx[s]]
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        out[k] = out[k] + coeff * c
        else:
            # dense arguments: walk the stored constants
            for idx, vec in self.constants.items():
                coeff = None
                for s, i in enumerate(idx):
                    c = args[s][i]
                    if c.is_zero():
                        coeff = None
                        break
                    coeff = c if coeff is None else coeff * c
                if coeff is None:
                    continue
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        out[k] = out[k] + coeff * c
        return tuple(out)

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

    def is_zero(self) -> bool:
        return all(
            all(c.is_zero() for c in vec) for vec in self.constants.values()
        )

    def eval_at(self, point: Mapping[str, Fraction]) -> "MultiOp":
        constants = {
            idx: tuple(Scalar.rational(c.eval(point)) for c in vec)
            for idx, vec in self.constants.items()
        }
        return MultiOp(self.space, (), self.arity, constants)

    def rename_params(self, mapping, new_params: tuple) -> "MultiOp":
        constants = {
            idx: tuple(c.rename(mapping, new_params) for c in vec)
            for idx, vec in self.constants.items()
        }
        return MultiOp(self.space, new_params, self.arity, constants)

    def __repr__(self):
        return f"MultiOp(arity={self.arity}, nonzero={len(self.constants)})"


def twist_op(op: MultiOp, maps: Sequence[LinMap]) -> MultiOp:
    """New constants for (x1,..,xr) -> op(m1(x1),..,mr(xr))."""
    if len(maps) != op.arity:
        raise ArityMismatch(f"need {op.arity} maps, got {len(maps)}")
    for m in maps:
        _same_space(op, m)
    dim = op.space.dim
    columns = [[m.column(j) for j in range(dim)] for m in maps]
    constants = {}
    for idx in itertools.product(range(dim), repeat=op.arity):
        value = op.apply([columns[s][i] for s, i in enumerate(idx)])
        if not value.is_zero():
            constants[idx] = value.coords
    return MultiOp(op.space, op.params, op.arity, constants)


def tensor_space(a: BasisSpace, b: BasisSpace) -> BasisSpace:
    """Row-major product basis (left factor outer), labels joined with ⊗."""
    return BasisSpace([f"{la}⊗{lb}" for la in a.labels for lb in b.labels])


def tensor_map(ma: LinMap, mb: LinMap) -> LinMap:
    if ma.params != mb.params:
        raise RingMismatch(f"{ma.params} vs {mb.params}")
    space = tensor_space(ma.space, mb.space)
    da, db = ma.space.dim, mb.space.dim
    zero = Scalar.zero(ma.params)
    rows = [[zero] * (da * db) for _ in range(da * db)]
    for i1 in range(da):
        for j1 in range(da):
            a = ma.rows[i1][j1]
            if a.is_zero():
                continue
            for i2 in range(db):
                for j2 in range(db):
                    b = mb.rows[i2][j2]
                    if not b.is_zero():
                        rows[i1 * db + i2][j1 * db + j2] = a * b
    return LinMap(space, ma.params, rows)
