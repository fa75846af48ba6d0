"""Named identity sets and the one runner that turns a bundle into a report.

A StructureDef is a name and one list of checks, run and printed in the
order listed. Each check is a library law id, an (id, Identity) pair, or
regular(m). The pairs include the structure maps' own axioms, written by
commute, multiplicative and twisted; regular(m), a determinant test, is the
one check that is not a law. A definition names no ops or maps: binding a
law to a bundle (engine.BoundIdentity) resolves the names the law uses in
first-use order, and the first one the bundle lacks raises MissingMap or
MissingOp. REGISTRY holds the structures of `check --structure`, SUITES the
sets of `identities --set`, catalog.CATALOG_AXES the catalog report's
columns. check_definition is the one runner and the one place a Report is
built: it runs any of them, or any other set of laws given as a
StructureDef (the laws of a `dsl check` file, a construction's hypotheses),
over the bundle's ring or on (label, bundle) cases (constraint branches, or
catalog.sample_points' specialised bundles) whose verdicts engine.merge
combines. The library's plain overlap forms (REGULAR_ONLY, named by id) are
inapplicable on singular maps.

Every law is .idl text decided by engine.check_identity: fixed laws sit in
data/structures/*.idl and data/suites/*.idl under `# id:` comments, laws over
given names or an arity are written as text here. Each check is a verdict
of its own, so a bundle that satisfies the laws but not multiplicativity is
described honestly instead of collapsing into a single verdict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

from .bundle import CONVENTIONAL_ARITIES, AlgebraBundle
from .dsl import Identity, parse_identity, parse_identity_file
from .engine import (
    FIXED_EXPONENTS,
    Verdict,
    check_identity,
    instantiate_power_identity,
    merge,
)
from .errors import ArityMismatch, BihomError, NoSamplePoints
from .rng import SplitRng


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


# ---------------------------------------------------------------------------
# generated laws (parameterized by names and arity, so written as text here)
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z", "u", "v", "w", "x7", "x8")


def _op_vars(op_name: str, arity: int) -> tuple:
    """The variables of a law over one application of an arity-r op. In the
    .idl grammar a one-argument call is a map, so no text names a unary op."""
    if arity < 2:
        raise ArityMismatch(f"{op_name!r} has arity {arity}; generated laws need at least 2")
    return _VARS[:arity]


def _call(name: str, args) -> str:
    return f"{name}({', '.join(args)})"


@functools.cache
def _law(names: tuple, lhs: str) -> Identity:
    return parse_identity(f"forall {','.join(names)}: {lhs} = 0")


def commute_identity(m1: str, m2: str) -> Identity:
    """m1(m2(x)) = m2(m1(x))."""
    return _law(("x",), f"{m1}({m2}(x)) - {m2}({m1}(x))")


def multiplicativity_identity(map_name: str, op_name: str, arity: int) -> Identity:
    """m(op(x1..xr)) = op(m(x1),..,m(xr))."""
    names = _op_vars(op_name, arity)
    mapped = _call(op_name, (f"{map_name}({n})" for n in names))
    return _law(names, f"{map_name}({_call(op_name, names)}) - {mapped}")


def derivation_identity(map_name: str, op_name: str, arity: int) -> Identity:
    """Leibniz rule of map_name over an arity-r operation."""
    names = _op_vars(op_name, arity)
    terms = [f"{map_name}({_call(op_name, names)})"]
    for i, x in enumerate(names):
        args = list(names)
        args[i] = f"{map_name}({x})"
        terms.append(_call(op_name, args))
    return _law(names, " - ".join(terms))


def anti_morphism_identity(map_name: str, op_name: str = "br") -> Identity:
    """f(br(x,y)) = -br(f(x), f(y))."""
    f, br = map_name, op_name
    return _law(("x", "y"), f"{f}({br}(x, y)) + {br}({f}(x), {f}(y))")


def nary_skew_identity(op_name: str, n: int, slot: int) -> Identity:
    """Adjacent swap at (slot, slot+1) of the pattern mu(b x1,..,b x_{n-1}, a xn)."""
    names = _op_vars(op_name, n)
    swapped = list(names)
    swapped[slot], swapped[slot + 1] = swapped[slot + 1], swapped[slot]

    def pattern(order):
        return _call(op_name, (f"{'b' if i < n - 1 else 'a'}({x})" for i, x in enumerate(order)))

    return _law(names, f"{pattern(names)} + {pattern(swapped)}")


def nary_transposed_compat_identity(op_name: str, n: int) -> Identity:
    """n*ab(u).mu(x1..xn) = sum of mu with the product inserted slotwise."""
    names = _op_vars(op_name, n)
    u = "u" if "u" not in names else "u0"
    terms = [f"{n}*mul(a(b({u})), {_call(op_name, names)})"]
    for i, x in enumerate(names):
        args = [f"b({y})" for y in names]
        args[i] = f"mul({'a' if i == n - 1 else 'b'}({u}), {x})"
        terms.append(_call(op_name, args))
    return _law((u, *names), " - ".join(terms))


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureDef:
    name: str
    # in report order: library law ids, (id, Identity) pairs, and
    # regular(m) = (id, map name), the one check that is not a law
    checks: tuple


def commute(m1: str, m2: str) -> tuple:
    """The check that the maps m1 and m2 commute."""
    return f"commute({m1},{m2})", commute_identity(m1, m2)


def multiplicative(m: str, op: str, arity: int) -> tuple:
    """The check that the map m is multiplicative for the arity-r op."""
    return f"multiplicative({m},{op})", multiplicativity_identity(m, op, arity)


def twisted(op_name: str) -> tuple:
    """a and b commute and are multiplicative for op_name."""
    arity = CONVENTIONAL_ARITIES[op_name]
    return commute("a", "b"), *(multiplicative(m, op_name, arity) for m in "ab")


def regular(map_name: str) -> tuple:
    """The map is invertible (a determinant test, not a law)."""
    return f"regular({map_name})", map_name


REGISTRY = {
    name: StructureDef(name, checks)
    for name, checks in {
        "bihom-assoc": (*twisted("mul"), "assoc"),
        "bihom-comm": ("comm",),
        "bihom-lie": (*twisted("br"), "skew", "jacobi"),
        "bihom-lie-regular": (commute("a", "b"), regular("a"), regular("b"), "jacobi-inv"),
        "bp": (*twisted("br"), "comm", "skew", "jacobi", "leibniz"),
        "tbp": (*twisted("br"), "comm", "skew", "jacobi", "tcompat"),
        "strong-bp": (*twisted("br"), "comm", "skew", "jacobi", "leibniz", "strongness"),
        "bihom-novikov": (commute("a", "b"), "novikov-left", "novikov-right"),
        "bihom-pre-lie": (commute("a", "b"), "novikov-left"),
        "bihom-np": (
            commute("a", "b"), "comm", "novikov-left", "novikov-right",
            "np-compat-left", "np-compat-right",
        ),
        "pre-lie-comm": (commute("a", "b"), "comm", "novikov-left", "prelie-comm-compat"),
        "diff-np": (
            commute("a", "b"), "comm", "novikov-left", "novikov-right",
            "np-compat-right", "prelie-comm-compat",
        ),
        "pre-lie-poisson": (
            commute("a", "b"), "comm", "novikov-left", "np-compat-left", "np-compat-right",
        ),
        "3-bihom-lie": (*twisted("tbr"), "tskew-12", "tskew-23", "tjacobi"),
        "bp-3lie": (*twisted("tbr"), "comm", "tskew-12", "tskew-23", "tjacobi", "tleibniz"),
        "strong-bp-3lie": (
            *twisted("tbr"), "comm", "tskew-12", "tskew-23", "tjacobi", "tleibniz",
            "tstrongness",
        ),
        "tbp-3lie": (*twisted("tbr"), "comm", "tskew-12", "tskew-23", "tjacobi", "tcompat3"),
    }.items()
}

# the identity sets of `identities --set`; lemma31 (check_power_suite) draws
# its exponent tuples at run time, so it is not a table entry
SUITES = {
    name: StructureDef(name, checks)
    for name, checks in {
        "thm25": ("cyc-mul-br", "cyc-br-mul-br", "cyc-br-br-mul", "strongness"),
        "eq2.20": (
            "overlap-mul-br", "overlap-br-mul", "overlap-mul-br-plain", "overlap-br-mul-plain",
        ),
        "eq3.3": ("power-fixed",),
        "eq3.15": (
            "toverlap-mul-tbr", "toverlap-tbr-mul",
            "toverlap-mul-tbr-plain", "toverlap-tbr-mul-plain",
        ),
        "eq3.18": ("invol-compat",),
    }.items()
}

# library laws reported inapplicable unless both structure maps are invertible
REGULAR_ONLY = {
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
# running a definition
# ---------------------------------------------------------------------------


def _verdict(item, bundle: AlgebraBundle) -> Verdict:
    """The verdict of one check of a definition on a bundle."""
    if isinstance(item, str):
        if item in REGULAR_ONLY and not all(bundle.require_map(n).invertible() for n in "ab"):
            return Verdict(item, "inapplicable", "structure maps not invertible")
        return check_identity(IDENTITIES[item], bundle, item)
    vid, law = item
    if isinstance(law, Identity):
        return check_identity(law, bundle, vid)
    if not bundle.require_map(law).invertible():  # regular(law)
        return Verdict(vid, "fail", reason="determinant is zero")
    return Verdict(vid, "pass")


def check_definition(
    defn: StructureDef,
    bundle: AlgebraBundle,
    mode: str = "symbolic",
    cases: Sequence[tuple] | None = None,
    seed: int | None = None,
) -> Report:
    """Run a definition on a bundle over its ring, or on each given (label,
    bundle) case: run its checks in order, and merge the per-case
    verdicts. In mode "sampled" the report's points are the case labels."""
    if mode not in ("symbolic", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if cases is None and mode == "symbolic":
        cases = [(None, bundle)]
    if not cases:
        raise NoSamplePoints()
    verdicts = merge([(label, [_verdict(c, case) for c in defn.checks]) for label, case in cases])
    points = [label for label, _ in cases] if mode == "sampled" else None
    return Report(bundle.label(), defn.name, mode, verdicts, seed=seed, points=points)


def check_structure(
    name: str,
    bundle: AlgebraBundle,
    mode: str = "symbolic",
    cases: Sequence[tuple] | None = None,
    seed: int | None = None,
) -> Report:
    """Run a registered structure's checks on a bundle
    (see check_definition for the modes and cases)."""
    if name == "tbp-nlie":
        return check_nary_transposed(bundle, mode=mode, cases=cases, seed=seed)
    if name not in REGISTRY:
        raise BihomError(
            f"unknown structure {name!r}; known: {', '.join(sorted(REGISTRY))}, tbp-nlie"
        )
    return check_definition(REGISTRY[name], bundle, mode, cases, seed)


def check_suite(name: str, bundle: AlgebraBundle) -> Report:
    """Run one of the SUITES on a bundle."""
    return check_definition(SUITES[name], bundle)


def check_nary_transposed(
    bundle: AlgebraBundle, mode: str = "symbolic", cases=None, seed=None
) -> Report:
    """Transposed compatibility and adjacent-swap skew laws for the n-ary
    bracket nbr. The n-ary Jacobi law is NOT checked: its general form is an
    external definition this package does not restate."""
    n = bundle.require_op("nbr").arity
    skew = [(f"nskew-{i+1}{i+2}", nary_skew_identity("nbr", n, i)) for i in range(n - 1)]
    defn = StructureDef(
        "tbp-nlie",
        (
            commute("a", "b"),
            *(multiplicative(m, "nbr", n) for m in "ab"),
            *(multiplicative(m, "mul", 2) for m in "ab"),
            "comm", *skew, (f"ncompat({n})", nary_transposed_compat_identity("nbr", n)),
        ),
    )
    report = check_definition(defn, bundle, mode, cases, seed)
    report.notes.append("n-ary Jacobi identity not checked (external definition)")
    return report


# ---------------------------------------------------------------------------
# special reports
# ---------------------------------------------------------------------------


def check_involution(bundle: AlgebraBundle, map_name: str = "f") -> Report:
    """f squares to the identity, anti-commutes with the bracket, and
    commutes with both structure maps."""
    f = map_name
    others = [m for m in ("a", "b") if m in bundle.maps]
    laws = (
        (f"squares-to-identity({f})", _law(("x",), f"{f}({f}(x)) - x")),
        (f"anti-morphism({f},br)", anti_morphism_identity(f)),
        *(commute(f, m) for m in others),
    )
    return check_definition(StructureDef(f"involution({f})", laws), bundle)


def check_power_suite(
    bundle: AlgebraBundle,
    exponent_tuples: Sequence[tuple] | None = None,
    seed: int = 0,
) -> Report:
    """The two exponent-template identities on a default (or given) grid of
    exponent tuples (m, n, l, s, p, q, k, t), plus the fixed instance.
    Inapplicable on bundles whose maps are not invertible (the templates use
    negative powers)."""
    if exponent_tuples is None:
        rng = SplitRng(seed).child("power-suite")
        exponent_tuples = [(0,) * 8, FIXED_EXPONENTS]
        exponent_tuples += [tuple(rng.randint(-2, 2) for _ in range(8)) for _ in range(8)]
    laws = [
        (f"{tag}@{exps}", instantiate_power_identity(which, exps))
        for exps in exponent_tuples
        for which, tag in (("eq31", "power-1"), ("eq32", "power-2"))
    ]
    defn = StructureDef("lemma31", (*laws, "power-fixed"))
    return check_definition(defn, bundle, seed=seed)
