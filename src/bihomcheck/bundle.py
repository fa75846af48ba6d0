"""The algebra bundle: one basis space plus named multilinear operations and
named linear maps over a shared coefficient ring.

Conventional names (enforced arities): binary ops mul, br, star; ternary tbr;
nbr with its declared arity. Conventional maps: a, b (the two structure
endomorphisms), D (a derivation), f (an involution); extra ops and maps may
take any name that .idl text can spell, so every law can mention them.

substitute_params is the one parameter transform: it solves a constraint
branch, renames parameters (Scalar.var values) and extends the ring (no
values). eval_at specializes every parameter at a point.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from operator import methodcaller
from typing import Mapping, Sequence

from .errors import ArityMismatch, MissingMap, MissingOp, RingMismatch, SpaceMismatch
from .linear import BasisSpace, LinMap, MultiOp
from .scalars import Poly, Scalar

CONVENTIONAL_ARITIES = {"mul": 2, "br": 2, "star": 2, "tbr": 3}


def op_entries(constants: Mapping[tuple, Sequence[Scalar]]) -> list:
    """The [i1, .., ir, k, coeff] entries of an op's nonzero constants, in
    sorted basis-tuple order (the bundle file format; see fileio)."""
    return [
        [*idx, k, c.text()]
        for idx in sorted(constants)
        for k, c in enumerate(constants[idx])
        if not c.is_zero()
    ]


class Ring:
    """Parameter names plus the constraint polynomials that cut the valid
    region of parameter space (empty for unconstrained bundles)."""

    __slots__ = ("params", "constraints")

    def __init__(self, params=(), constraints=()):
        self.params = tuple(params)
        self.constraints = tuple(constraints)
        for c in self.constraints:
            if not isinstance(c, Poly) or c.params != self.params:
                raise RingMismatch("constraint over a different parameter list")

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.params == other.params
            and len(self.constraints) == len(other.constraints)
            and all(a == b for a, b in zip(self.constraints, other.constraints))
        )

    __hash__ = None

    def check_point(self, point: Mapping[str, Fraction]):
        """Return the first constraint that does not vanish at point, or None."""
        for c in self.constraints:
            if c.eval(point) != 0:
                return c
        return None

    def __repr__(self):
        return f"Ring(params={self.params!r}, constraints={len(self.constraints)})"


class AlgebraBundle:
    __slots__ = ("space", "ring", "ops", "maps", "provenance", "_hash")

    def __init__(self, space: BasisSpace, ring: Ring, ops: dict, maps: dict, provenance=None):
        self.space = space
        self.ring = ring
        self.ops = dict(ops)
        self.maps = dict(maps)
        self.provenance = dict(provenance) if provenance else None
        self._hash = None
        for name in (*self.ops, *self.maps):
            if not name.isidentifier() or name == "cyc":
                raise ValueError(f"name {name!r} can not be written in .idl text")
        for name, op in self.ops.items():
            if op.space != space:
                raise SpaceMismatch(f"op {name!r} lives on a different space")
            if op.params != ring.params:
                raise RingMismatch(f"op {name!r} over a different ring")
            want = CONVENTIONAL_ARITIES.get(name)
            if want is not None and op.arity != want:
                raise ArityMismatch(f"op {name!r} must have arity {want}")
        for name, m in self.maps.items():
            if m.space != space:
                raise SpaceMismatch(f"map {name!r} lives on a different space")
            if m.params != ring.params:
                raise RingMismatch(f"map {name!r} over a different ring")

    # -- access --------------------------------------------------------------

    def require_op(self, name: str, arity: int | None = None) -> MultiOp:
        op = self.ops.get(name)
        if op is None:
            raise MissingOp(name)
        if arity is not None and op.arity != arity:
            raise ArityMismatch(f"op {name!r} has arity {op.arity}, need {arity}")
        return op

    def require_map(self, name: str) -> LinMap:
        m = self.maps.get(name)
        if m is None:
            raise MissingMap(name)
        return m

    # -- transformations -------------------------------------------------------

    def replace(self, ops=None, maps=None, provenance=None) -> "AlgebraBundle":
        return AlgebraBundle(
            self.space,
            self.ring,
            ops if ops is not None else self.ops,
            maps if maps is not None else self.maps,
            provenance if provenance is not None else self.provenance,
        )

    def eval_at(self, point: Mapping[str, Fraction]) -> "AlgebraBundle":
        """Specialize every coefficient at a parameter point (exact)."""
        point = {k: Fraction(v) for k, v in point.items()}
        prov = dict(self.provenance) if self.provenance else {}
        prov["specialized_at"] = {k: str(v) for k, v in point.items()}
        return self._map_scalars(lambda c: Scalar.rational(c.eval(point)), Ring(), prov)

    def substitute_params(self, values: Mapping[str, "object"], new_params) -> "AlgebraBundle":
        """This bundle over new_params, each parameter named in values
        replaced by its Scalar over new_params and every other one kept as
        itself. It is the one parameter transform: Scalar.var values rename
        parameters, and empty values extend the ring. Constraint polynomials
        that become identically zero are dropped, anything left is a
        residual the caller must deal with."""
        new_params = tuple(new_params)
        substitute = methodcaller("substitute", values, new_params)
        residuals = tuple(
            v.as_fraction_pair()[0] for v in map(substitute, self.ring.constraints) if v
        )
        return self._map_scalars(substitute, Ring(new_params, residuals), self.provenance)

    def _map_scalars(self, fn, ring: Ring, provenance) -> "AlgebraBundle":
        """This bundle over ring, with fn applied to every coefficient of
        every op and map."""
        ops = {n: op.map_scalars(fn, ring.params) for n, op in self.ops.items()}
        maps = {n: m.map_scalars(fn, ring.params) for n, m in self.maps.items()}
        return AlgebraBundle(self.space, ring, ops, maps, provenance)

    # -- canonical form ---------------------------------------------------------

    def canonical_dict(self) -> dict:
        ops = {
            name: {"arity": op.arity, "entries": op_entries(op.constants)}
            for name, op in sorted(self.ops.items())
        }
        maps = {
            name: [[c.text() for c in row] for row in self.maps[name].rows]
            for name in sorted(self.maps)
        }
        out = {
            "schema": 1,
            "dim": self.space.dim,
            "basis": list(self.space.labels),
            "ring": {
                "params": list(self.ring.params),
                "constraints": [c.text() for c in self.ring.constraints],
            },
            "ops": ops,
            "maps": maps,
        }
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    def content_hash(self) -> str:
        """The hash of the canonical form without provenance, computed once
        (a bundle is never changed after construction)."""
        if self._hash is None:
            data = self.canonical_dict()
            data.pop("provenance", None)
            blob = json.dumps(data, sort_keys=True, ensure_ascii=False).encode("utf-8")
            self._hash = hashlib.sha256(blob).hexdigest()[:16]
        return self._hash

    def label(self) -> str:
        if self.provenance and "name" in self.provenance:
            return str(self.provenance["name"])
        return self.content_hash()

    def __repr__(self):
        return (
            f"AlgebraBundle(dim={self.space.dim}, ops={sorted(self.ops)}, "
            f"maps={sorted(self.maps)}, params={self.ring.params})"
        )
