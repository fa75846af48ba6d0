"""Registry of named algebraic structures (identity sets plus structural
predicates) and the checkers that turn a bundle into a report.

Identity texts live in data/structures/*.idl and data/suites/*.idl; each file
carries the laws first introduced by that structure, with `# id:` comments
naming them. Composition (which structures inherit which) and the
non-identity predicates live here, because the .idl grammar has no syntax for
either.

Multiplicativity of the structure maps is deliberately a separate predicate
from the identity sets: reports list it independently so a bundle that
satisfies the displayed laws but not multiplicativity is described honestly
instead of collapsing into a single verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from .bundle import AlgebraBundle
from .dsl import Identity, MapApply, OpApply, Var, parse_identity_file
from .engine import (
    Counterexample,
    ExponentTuple,
    Verdict,
    check_identity,
    checked_points,
    instantiate_power_identity,
)
from .errors import MissingMap, MissingOp, NotInvertible
from .linear import check_commute


def _load_identity_library() -> dict:
    lib: dict = {}
    root = resources.files("bihomcheck").joinpath("data")
    for sub in ("structures", "suites"):
        folder = root.joinpath(sub)
        for entry in sorted(folder.iterdir(), key=lambda e: e.name):
            if not entry.name.endswith(".idl"):
                continue
            for ident_id, ident in parse_identity_file(entry.read_text()).items():
                if ident_id in lib:
                    raise ValueError(f"duplicate identity id {ident_id!r}")
                lib[ident_id] = ident
    return lib


IDENTITIES: dict = _load_identity_library()


@dataclass(frozen=True)
class StructureDef:
    name: str
    ops: tuple  # of (op name, arity)
    maps: tuple
    predicates: tuple  # of ("commute", m1, m2) | ("multiplicative", m, op) | ("regular", m)
    identities: tuple  # identity ids, in report order
    notes: tuple = ()


def _compose(name, base_defs, ops=(), maps=(), predicates=(), identities=(), notes=()):
    seen_ops, seen_maps, seen_preds, seen_ids, seen_notes = [], [], [], [], []
    for d in base_defs:
        for item in d.ops:
            if item not in seen_ops:
                seen_ops.append(item)
        for item in d.maps:
            if item not in seen_maps:
                seen_maps.append(item)
        for item in d.predicates:
            if item not in seen_preds:
                seen_preds.append(item)
        for item in d.identities:
            if item not in seen_ids:
                seen_ids.append(item)
        for item in d.notes:
            if item not in seen_notes:
                seen_notes.append(item)
    for item in ops:
        if item not in seen_ops:
            seen_ops.append(item)
    for item in maps:
        if item not in seen_maps:
            seen_maps.append(item)
    for item in predicates:
        if item not in seen_preds:
            seen_preds.append(item)
    for item in identities:
        if item not in seen_ids:
            seen_ids.append(item)
    seen_notes.extend(notes)
    return StructureDef(
        name,
        tuple(seen_ops),
        tuple(seen_maps),
        tuple(seen_preds),
        tuple(seen_ids),
        tuple(seen_notes),
    )


def _build_registry() -> dict:
    r: dict = {}
    r["bihom-assoc"] = StructureDef(
        "bihom-assoc",
        (("mul", 2),),
        ("a", "b"),
        (("commute", "a", "b"), ("multiplicative", "a", "mul"), ("multiplicative", "b", "mul")),
        ("assoc",),
    )
    r["bihom-comm"] = StructureDef("bihom-comm", (("mul", 2),), ("a", "b"), (), ("comm",))
    r["bihom-lie"] = StructureDef(
        "bihom-lie",
        (("br", 2),),
        ("a", "b"),
        (("commute", "a", "b"), ("multiplicative", "a", "br"), ("multiplicative", "b", "br")),
        ("skew", "jacobi"),
    )
    r["bihom-lie-regular"] = StructureDef(
        "bihom-lie-regular",
        (("br", 2),),
        ("a", "b"),
        (("commute", "a", "b"), ("regular", "a"), ("regular", "b")),
        ("jacobi-inv",),
    )
    r["bp"] = _compose("bp", (r["bihom-comm"], r["bihom-lie"]), identities=("leibniz",))
    r["tbp"] = _compose("tbp", (r["bihom-comm"], r["bihom-lie"]), identities=("tcompat",))
    r["strong-bp"] = _compose("strong-bp", (r["bp"],), identities=("strongness",))
    r["bihom-novikov"] = StructureDef(
        "bihom-novikov",
        (("star", 2),),
        ("a", "b"),
        (("commute", "a", "b"),),
        ("novikov-left", "novikov-right"),
    )
    r["bihom-pre-lie"] = StructureDef(
        "bihom-pre-lie",
        (("star", 2),),
        ("a", "b"),
        (("commute", "a", "b"),),
        ("novikov-left",),
    )
    r["bihom-np"] = _compose(
        "bihom-np",
        (r["bihom-comm"], r["bihom-novikov"]),
        identities=("np-compat-left", "np-compat-right"),
    )
    r["pre-lie-comm"] = _compose(
        "pre-lie-comm",
        (r["bihom-comm"], r["bihom-pre-lie"]),
        identities=("prelie-comm-compat",),
    )
    r["diff-np"] = _compose(
        "diff-np",
        (r["bihom-comm"], r["bihom-novikov"]),
        identities=("np-compat-right", "prelie-comm-compat"),
    )
    r["pre-lie-poisson"] = _compose(
        "pre-lie-poisson",
        (r["bihom-comm"], r["bihom-pre-lie"]),
        identities=("np-compat-left", "np-compat-right"),
    )
    r["3-bihom-lie"] = StructureDef(
        "3-bihom-lie",
        (("tbr", 3),),
        ("a", "b"),
        (("commute", "a", "b"), ("multiplicative", "a", "tbr"), ("multiplicative", "b", "tbr")),
        ("tskew-12", "tskew-23", "tjacobi"),
    )
    r["bp-3lie"] = _compose(
        "bp-3lie", (r["bihom-comm"], r["3-bihom-lie"]), identities=("tleibniz",)
    )
    r["strong-bp-3lie"] = _compose(
        "strong-bp-3lie", (r["bp-3lie"],), identities=("tstrongness",)
    )
    r["tbp-3lie"] = _compose(
        "tbp-3lie", (r["bihom-comm"], r["3-bihom-lie"]), identities=("tcompat3",)
    )
    return r


REGISTRY: dict = _build_registry()

# identity ids behind each `identities --set <token>` suite; lemma31 and the
# checkers with extra logic are dispatched in cli/engine code.
SUITES = {
    "thm25": ("cyc-mul-br", "cyc-br-mul-br", "cyc-br-br-mul", "strongness"),
    "eq2.20": ("overlap-mul-br", "overlap-br-mul"),
    "eq3.3": ("power-fixed",),
    "eq3.15": ("toverlap-mul-tbr", "toverlap-tbr-mul"),
    "eq3.18": ("invol-compat",),
}

REGULAR_ONLY = {
    "jacobi-inv",
    "power-fixed",
    "invol-compat",
    "overlap-mul-br-plain",
    "overlap-br-mul-plain",
    "toverlap-mul-tbr-plain",
    "toverlap-tbr-mul-plain",
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    bundle: str
    structure: str
    mode: str  # "symbolic" | "sampled"
    verdicts: list
    seed: int | None = None
    points: list | None = None
    notes: list = field(default_factory=list)

    @property
    def overall(self) -> str:
        if any(v.status == "fail" for v in self.verdicts):
            return "fail"
        if any(v.status == "inapplicable" for v in self.verdicts):
            return "inapplicable"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.overall == "pass"

    def verdict(self, identity_id: str) -> Verdict:
        for v in self.verdicts:
            if v.identity == identity_id:
                return v
        raise KeyError(identity_id)

    def to_dict(self) -> dict:
        out = {
            "bundle": self.bundle,
            "structure": self.structure,
            "mode": self.mode,
            "overall": self.overall,
            "verdicts": [v.to_dict() for v in sorted(self.verdicts, key=lambda v: v.identity)],
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.points is not None:
            out["points"] = [{k: str(v) for k, v in p.items()} for p in self.points]
        if self.notes:
            out["notes"] = list(self.notes)
        return out


# ---------------------------------------------------------------------------
# generated helper identities (parameterized by names, so built in code)
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z", "u", "v", "w", "x7", "x8")


def multiplicativity_identity(map_name: str, op_name: str, arity: int) -> Identity:
    """m(op(x1..xr)) = op(m(x1),..,m(xr))."""
    names = _VARS[:arity]
    lhs = MapApply(map_name, 1, OpApply(op_name, tuple(Var(n) for n in names)))
    rhs = OpApply(op_name, tuple(MapApply(map_name, 1, Var(n)) for n in names))
    return Identity(names, ((1, lhs), (-1, rhs)))


def derivation_identity(map_name: str, op_name: str, arity: int) -> Identity:
    """Leibniz rule of map_name over an arity-r operation."""
    names = _VARS[:arity]
    terms = [(1, MapApply(map_name, 1, OpApply(op_name, tuple(Var(n) for n in names))))]
    for i in range(arity):
        args = tuple(
            MapApply(map_name, 1, Var(n)) if j == i else Var(n)
            for j, n in enumerate(names)
        )
        terms.append((-1, OpApply(op_name, args)))
    return Identity(names, tuple(terms))


def anti_morphism_identity(map_name: str, op_name: str = "br") -> Identity:
    """f(br(x,y)) = -br(f(x), f(y))."""
    lhs = MapApply(map_name, 1, OpApply(op_name, (Var("x"), Var("y"))))
    rhs = OpApply(op_name, (MapApply(map_name, 1, Var("x")), MapApply(map_name, 1, Var("y"))))
    return Identity(("x", "y"), ((1, lhs), (1, rhs)))


def nary_skew_identity(op_name: str, n: int, slot: int) -> Identity:
    """Adjacent swap at (slot, slot+1) of the pattern mu(b x1,..,b x_{n-1}, a xn)."""
    names = _VARS[:n]

    def wrap(i, name):
        return MapApply("b" if i < n - 1 else "a", 1, Var(name))

    base = tuple(wrap(i, names[i]) for i in range(n))
    swapped = list(names)
    swapped[slot], swapped[slot + 1] = swapped[slot + 1], swapped[slot]
    other = tuple(wrap(i, swapped[i]) for i in range(n))
    return Identity(names, ((1, OpApply(op_name, base)), (1, OpApply(op_name, other))))


def nary_transposed_compat_identity(op_name: str, n: int) -> Identity:
    """n*ab(u).mu(x1..xn) = sum of mu with the product inserted slotwise."""
    names = _VARS[:n]
    u = "u" if "u" not in names else "u0"
    lhs = OpApply(
        "mul",
        (MapApply("a", 1, MapApply("b", 1, Var(u))), OpApply(op_name, tuple(Var(x) for x in names))),
    )
    terms = [(n, lhs)]
    for i in range(n):
        args = []
        for j, x in enumerate(names):
            if j == i:
                inner = MapApply("a" if i == n - 1 else "b", 1, Var(u))
                args.append(OpApply("mul", (inner, Var(x))))
            else:
                args.append(MapApply("b", 1, Var(x)))
        terms.append((-1, OpApply(op_name, tuple(args))))
    return Identity((u,) + names, tuple(terms))


# ---------------------------------------------------------------------------
# predicate and identity evaluation
# ---------------------------------------------------------------------------


def _predicate_verdict(pred: tuple, bundle: AlgebraBundle) -> Verdict:
    kind = pred[0]
    if kind == "commute":
        _, m1, m2 = pred
        res = check_commute(bundle.require_map(m1), bundle.require_map(m2))
        vid = f"commute({m1},{m2})"
        if res.ok:
            return Verdict(vid, "pass")
        return Verdict(
            vid,
            "fail",
            counterexample=Counterexample(
                (res.index,), tuple(c.text() for c in res.residual.coords)
            ),
        )
    if kind == "multiplicative":
        _, m, opname = pred
        op = bundle.require_op(opname)
        bundle.require_map(m)
        ident = multiplicativity_identity(m, opname, op.arity)
        return check_identity(ident, bundle, f"multiplicative({m},{opname})")
    if kind == "regular":
        _, m = pred
        det = bundle.require_map(m).det()
        vid = f"regular({m})"
        if det.is_zero():
            return Verdict(vid, "fail", reason="determinant is zero")
        return Verdict(vid, "pass")
    raise ValueError(f"unknown predicate {pred!r}")


def _run_identity(identity_id: str, bundle: AlgebraBundle) -> Verdict:
    return check_identity(IDENTITIES[identity_id], bundle, identity_id)


def _run_all(defn_preds, identity_ids, bundle, extra_identities=()) -> list:
    verdicts = [_predicate_verdict(p, bundle) for p in defn_preds]
    for identity_id in identity_ids:
        verdicts.append(_run_identity(identity_id, bundle))
    for identity_id, ident in extra_identities:
        verdicts.append(check_identity(ident, bundle, identity_id))
    return verdicts


def _merge_sampled(per_point: Sequence[tuple]) -> list:
    """Combine per-point verdict lists: a verdict passes iff it passes at
    every point; the first failing point is reported."""
    merged: list = []
    ids = [v.identity for v in per_point[0][1]]
    for i, vid in enumerate(ids):
        final = Verdict(vid, "pass")
        for point, verdicts in per_point:
            v = verdicts[i]
            if v.status == "fail":
                ce = v.counterexample
                ce.point = dict(point)
                final = v
                break
            if v.status == "inapplicable" and final.status == "pass":
                final = v
        merged.append(final)
    return merged


def _structure_verdicts(defn: StructureDef, bundle: AlgebraBundle) -> list:
    for opname, arity in defn.ops:
        bundle.require_op(opname, arity)
    for m in defn.maps:
        bundle.require_map(m)
    return _run_all(defn.predicates, defn.identities, bundle)


def check_structure(
    name: str,
    bundle: AlgebraBundle,
    mode: str = "symbolic",
    points: Sequence[Mapping[str, Fraction]] | None = None,
    seed: int | None = None,
) -> Report:
    """Run a registered structure's predicates and identities on a bundle.

    mode "symbolic" works over the bundle's ring as-is; mode "sampled"
    specializes at each given parameter point (which must satisfy the
    bundle's constraints) and merges the verdicts.
    """
    if name == "tbp-nlie":
        return check_nary_transposed(bundle, mode=mode, points=points, seed=seed)
    defn = REGISTRY.get(name)
    if defn is None:
        raise KeyError(f"unknown structure {name!r}")
    if mode == "symbolic":
        verdicts = _structure_verdicts(defn, bundle)
        return Report(bundle.label(), name, "symbolic", verdicts, notes=list(defn.notes))
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    per_point = [
        (point, _structure_verdicts(defn, bundle.eval_at(point)))
        for point in checked_points(bundle, points)
    ]
    verdicts = _merge_sampled(per_point)
    return Report(
        bundle.label(),
        name,
        "sampled",
        verdicts,
        seed=seed,
        points=[p for p, _ in per_point],
        notes=list(defn.notes),
    )


def check_nary_transposed(
    bundle: AlgebraBundle,
    op_name: str = "nbr",
    mode: str = "symbolic",
    points=None,
    seed=None,
) -> Report:
    """Transposed compatibility and adjacent-swap skew laws for an n-ary
    bracket. The n-ary Jacobi law is NOT checked: its general form is an
    external definition this package does not restate."""
    op = bundle.require_op(op_name)
    n = op.arity
    extra = [(f"nskew-{i+1}{i+2}", nary_skew_identity(op_name, n, i)) for i in range(n - 1)]
    extra.append((f"ncompat({n})", nary_transposed_compat_identity(op_name, n)))
    preds = (
        ("commute", "a", "b"),
        ("multiplicative", "a", op_name),
        ("multiplicative", "b", op_name),
        ("multiplicative", "a", "mul"),
        ("multiplicative", "b", "mul"),
    )
    note = "n-ary Jacobi identity not checked (external definition)"
    if mode == "symbolic":
        verdicts = _run_all(preds, ("comm",), bundle, extra)
        return Report(bundle.label(), "tbp-nlie", "symbolic", verdicts, notes=[note])
    per_point = [
        (point, _run_all(preds, ("comm",), bundle.eval_at(point), extra))
        for point in checked_points(bundle, points)
    ]
    verdicts = _merge_sampled(per_point)
    return Report(
        bundle.label(), "tbp-nlie", "sampled", verdicts, seed=seed,
        points=[p for p, _ in per_point], notes=[note],
    )


# ---------------------------------------------------------------------------
# special reports
# ---------------------------------------------------------------------------


def check_consequence_suite(bundle: AlgebraBundle) -> Report:
    """The four cyclic identities every transposed bundle satisfies."""
    for name in ("mul", "br"):
        bundle.require_op(name, 2)
    for name in ("a", "b"):
        bundle.require_map(name)
    verdicts = [_run_identity(i, bundle) for i in SUITES["thm25"]]
    return Report(bundle.label(), "thm25", "symbolic", verdicts)


def _maps_invertible(bundle: AlgebraBundle, names=("a", "b")) -> bool:
    return all(not bundle.require_map(n).det().is_zero() for n in names)


def check_overlap_tbp_bp(bundle: AlgebraBundle) -> Report:
    """Overlap laws for bundles that are BP and transposed-BP at once; the
    plain forms are added when both maps are invertible, else they are
    reported inapplicable."""
    for name in ("mul", "br"):
        bundle.require_op(name, 2)
    verdicts = [_run_identity(i, bundle) for i in ("overlap-mul-br", "overlap-br-mul")]
    plain = ("overlap-mul-br-plain", "overlap-br-mul-plain")
    if _maps_invertible(bundle):
        verdicts += [_run_identity(i, bundle) for i in plain]
    else:
        verdicts += [
            Verdict(i, "inapplicable", "structure maps not invertible") for i in plain
        ]
    return Report(bundle.label(), "eq2.20", "symbolic", verdicts)


def check_ternary_overlap(bundle: AlgebraBundle) -> Report:
    bundle.require_op("mul", 2)
    bundle.require_op("tbr", 3)
    verdicts = [_run_identity(i, bundle) for i in ("toverlap-mul-tbr", "toverlap-tbr-mul")]
    plain = ("toverlap-mul-tbr-plain", "toverlap-tbr-mul-plain")
    if _maps_invertible(bundle):
        verdicts += [_run_identity(i, bundle) for i in plain]
    else:
        verdicts += [
            Verdict(i, "inapplicable", "structure maps not invertible") for i in plain
        ]
    return Report(bundle.label(), "eq3.15", "symbolic", verdicts)


def check_derivation(
    bundle: AlgebraBundle,
    map_name: str,
    op_names: Sequence[str],
    check_commutes: bool = True,
) -> Report:
    """Leibniz rule of one map over the named operations, plus commutation
    with the structure maps when requested."""
    bundle.require_map(map_name)
    verdicts = []
    if check_commutes:
        for other in ("a", "b"):
            if other in bundle.maps:
                verdicts.append(_predicate_verdict(("commute", map_name, other), bundle))
    for opname in op_names:
        op = bundle.require_op(opname)
        ident = derivation_identity(map_name, opname, op.arity)
        verdicts.append(check_identity(ident, bundle, f"derivation({map_name},{opname})"))
    return Report(bundle.label(), f"derivation({map_name})", "symbolic", verdicts)


def check_involution(bundle: AlgebraBundle, map_name: str = "f") -> Report:
    """f squares to the identity, anti-commutes with the bracket, and
    commutes with both structure maps."""
    f = bundle.require_map(map_name)
    bundle.require_op("br", 2)
    from .linear import LinMap

    square = f.compose(f)
    ident_m = LinMap.identity(bundle.space, bundle.ring.params)
    vid = f"squares-to-identity({map_name})"
    if square == ident_m:
        verdicts = [Verdict(vid, "pass")]
    else:
        j = next(
            i for i in range(bundle.space.dim)
            if not (square.column(i) - ident_m.column(i)).is_zero()
        )
        residual = square.column(j) - ident_m.column(j)
        verdicts = [
            Verdict(
                vid,
                "fail",
                counterexample=Counterexample((j,), tuple(c.text() for c in residual.coords)),
            )
        ]
    verdicts.append(
        check_identity(anti_morphism_identity(map_name), bundle, f"anti-morphism({map_name},br)")
    )
    for other in ("a", "b"):
        if other in bundle.maps:
            verdicts.append(_predicate_verdict(("commute", map_name, other), bundle))
    return Report(bundle.label(), f"involution({map_name})", "symbolic", verdicts)


def check_compat_equivalence(bundle: AlgebraBundle) -> Report:
    """The two forms of the product/star compatibility law, which agree on
    regular commutative bundles; the report records whether the verdicts
    match and whether the hypotheses held."""
    for name in ("mul", "star"):
        bundle.require_op(name, 2)
    notes = []
    if not _maps_invertible(bundle):
        raise NotInvertible("equivalence requires invertible structure maps")
    comm = _run_identity("comm", bundle)
    verdicts = [
        _run_identity("np-compat-right", bundle),
        _run_identity("np-compat-assoc", bundle),
    ]
    if comm.status != "pass":
        notes.append("hypothesis failure: product not twisted-commutative; agreement not asserted")
    else:
        agree = verdicts[0].status == verdicts[1].status
        notes.append(f"agreement: {str(agree).lower()}")
    return Report(bundle.label(), "compat-equivalence", "symbolic", verdicts + [comm], notes=notes)


def check_power_suite(
    bundle: AlgebraBundle,
    exponent_tuples: Sequence[ExponentTuple] | None = None,
    seed: int = 0,
) -> Report:
    """The two exponent-template identities on a default (or given) grid of
    exponent tuples, plus the fixed instance. Inapplicable on bundles whose
    maps are not invertible (the templates use negative powers)."""
    for name in ("mul", "br"):
        bundle.require_op(name, 2)
    if exponent_tuples is None:
        from .rng import SplitRng

        rng = SplitRng(seed).child("power-suite")
        exponent_tuples = [ExponentTuple(), FIXED_EXPONENTS_GRID]
        exponent_tuples += [
            ExponentTuple.from_seq([rng.randint(-2, 2) for _ in range(8)]) for _ in range(8)
        ]
    verdicts = []
    for exps in exponent_tuples:
        for which, tag in (("eq31", "power-1"), ("eq32", "power-2")):
            ident = instantiate_power_identity(which, exps)
            vid = f"{tag}@{exps.as_tuple()}"
            verdicts.append(check_identity(ident, bundle, vid))
    verdicts.append(_run_identity("power-fixed", bundle))
    return Report(bundle.label(), "lemma31", "symbolic", verdicts, seed=seed)


from .engine import FIXED_EXPONENTS as FIXED_EXPONENTS_GRID  # noqa: E402
