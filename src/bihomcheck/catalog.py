"""The two-dimensional example catalog: 26 entries shipped as data files,
a skew-symmetry completion solver for the bracket slots the listings leave
implicit, and a verifier that produces a per-axiom report for each entry.

The report columns are one StructureDef, CATALOG_AXES, run like every
structure: one list of checks, whose ids are the columns (AXIS_IDS).
verify_entry picks the cases (constraint branches, or sample points) and
structures.check_definition turns them into the report.
sample_points is the package's one point sampler: `catalog verify` and
`check --mode sampled` both run on the (point, specialised bundle) cases it
draws, and it raises when it cannot draw as many as asked.

Completion convention: unlisted PRODUCT constants are zero; unlisted BRACKET
constants are solved from the twisted skew-symmetry equations
br(b(ei), a(ej)) + br(b(ej), a(ei)) = 0 by linear.gauss_jordan, with free
unknowns set to zero. When the listed constants make that system unsolvable
the entry ships with a null completion and is verified with zero-forced
unlisted constants, which the report then describes honestly (the entry
stays report-only). solve_skew_completion is the one solver: over the
listing's ring it derives the shipped data, and on the ops and maps of
bundle.eval_at(point) it completes numerically at a point.

Entries with printed parameter constraints carry branch data: substitutions
that solve the constraint for one parameter (or pin a linear factor), so
symbolic verification runs on every branch of the constraint variety.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from .bundle import AlgebraBundle, op_entries
from .errors import BihomError, Inconsistent, NoSamplePoints, UnknownEntry
from .fileio import bundle_from_dict, op_constants
from .linear import LinMap, MultiOp, gauss_jordan
from .rng import SplitRng
from .scalars import Scalar, parse_scalar
from .structures import Report, StructureDef, check_definition, multiplicative, twisted

# per-axiom columns of the catalog report, in report order
CATALOG_AXES = StructureDef(
    "catalog-default",
    (
        *twisted("mul"),
        *(multiplicative(m, "br", 2) for m in "ab"),
        "comm", "assoc", "skew", "jacobi", "tcompat",
    ),
)

AXIS_IDS = tuple(c if isinstance(c, str) else c[0] for c in CATALOG_AXES.checks)


@dataclass
class CatalogEntry:
    entry_id: int
    case: str
    status: str  # "asserted-pass" | "report-only"
    bundle: AlgebraBundle  # given constants only (bracket not yet completed)
    given_br_slots: tuple  # slots whose bracket constants the listing pins
    completion: dict | None  # slot -> coordinate tuple (Scalars), or None
    branches: tuple  # of {param: coeff text}; empty means one trivial branch
    notes: tuple = ()

    def completed_bundle(self) -> AlgebraBundle:
        """Given constants plus the stored completion (zero-forced when the
        completion is null). Its maps and ops are new objects on every call:
        they cache their powers and cleared forms, and verifying an entry
        must do the same work however often it was verified before."""
        ops = {
            name: MultiOp(op.space, op.params, op.arity, op.constants)
            for name, op in self.bundle.ops.items()
        }
        if self.completion:
            br = ops["br"]
            ops["br"] = MultiOp(br.space, br.params, 2, {**br.constants, **self.completion})
        maps = {name: LinMap(m.space, m.params, m.rows) for name, m in self.bundle.maps.items()}
        return self.bundle.replace(ops=ops, maps=maps)

    def branch_bundles(self):
        """(description, bundle) per constraint branch; symbolic verification
        must pass on every branch for the entry to count as passing."""
        base = self.completed_bundle()
        if not self.branches:
            return [("generic", base)]
        out = []
        for subs in self.branches:
            remaining, values = branch_values(subs, base.ring.params)
            desc = ", ".join(f"{n} = {t}" for n, t in subs.items())
            out.append((desc, base.substitute_params(values, remaining)))
        return out

    def to_dict(self) -> dict:
        """The entry file contents (the inverse of _entry_from_dict)."""
        data = self.bundle.canonical_dict()
        completion = None
        if self.completion is not None:
            completion = {"entries": op_entries(self.completion)}
        data["catalog"] = {
            "id": self.entry_id,
            "case": self.case,
            "status": self.status,
            "given_br_slots": [list(s) for s in self.given_br_slots],
            "completion": completion,
            "branches": [dict(b) for b in self.branches],
            "notes": list(self.notes),
        }
        return data


# ---------------------------------------------------------------------------
# skew completion
# ---------------------------------------------------------------------------


def solve_skew_completion(
    given: Mapping[tuple, Sequence[Scalar]],
    given_slots,
    alpha: LinMap,
    beta: LinMap,
) -> dict:
    """Solve br(b(ei), a(ej)) + br(b(ej), a(ei)) = 0 for the bracket constants
    of every slot not in given_slots, treating them as unknowns over the
    matrices' ring; free unknowns are set to zero.

    Works symbolically (generic parameters) or numerically depending on the
    ring the inputs live over."""
    dim = alpha.space.dim
    given_slots = set(tuple(s) for s in given_slots)
    unknown_slots = [s for s in itertools.product(range(dim), repeat=2) if s not in given_slots]
    col_of = {key: col for col, key in enumerate(itertools.product(unknown_slots, range(dim)))}
    zero = Scalar.zero(alpha.params)
    rows, rhs = [], []
    for i in range(dim):
        for j in range(i, dim):
            # br(b(ei), a(ej)) + br(b(ej), a(ei)), expanded bilinearly: one
            # row per component, each unknown column met by one (p, q) only
            coeffs = [[zero] * len(col_of) for _ in range(dim)]
            const = [zero] * dim
            for p, q in itertools.product(range(dim), repeat=2):
                weight = beta.rows[p][i] * alpha.rows[q][j] + beta.rows[p][j] * alpha.rows[q][i]
                if weight.is_zero():
                    continue
                if (p, q) not in given_slots:
                    for comp in range(dim):
                        coeffs[comp][col_of[((p, q), comp)]] = weight
                    continue
                for comp, c in enumerate(given.get((p, q), ())):
                    if not c.is_zero():
                        const[comp] = const[comp] + weight * c
            for row, c in zip(coeffs, const):
                if any(not w.is_zero() for w in row) or not c.is_zero():
                    rows.append(row)
                    rhs.append([-c])
    pivots, rhs = gauss_jordan(rows, rhs, len(col_of))
    for r in rhs[len(pivots):]:
        if not r[0].is_zero():
            raise Inconsistent(f"0 = {r[0].text()}")
    solution = [zero] * len(col_of)
    for r, col in enumerate(pivots):
        solution[col] = rhs[r][0]
    return {
        slot: tuple(solution[col_of[(slot, comp)]] for comp in range(dim))
        for slot in unknown_slots
    }


# ---------------------------------------------------------------------------
# entry loading
# ---------------------------------------------------------------------------


def _entry_from_dict(data: dict) -> CatalogEntry:
    bundle = bundle_from_dict(data)
    cat = data["catalog"]
    completion = None
    if cat.get("completion") is not None:
        completion = op_constants(
            "br", cat["completion"]["entries"], 2, bundle.space.dim, bundle.ring.params
        )
    return CatalogEntry(
        entry_id=cat["id"],
        case=cat["case"],
        status=cat["status"],
        bundle=bundle,
        given_br_slots=tuple(tuple(s) for s in cat["given_br_slots"]),
        completion=completion,
        branches=tuple(dict(b) for b in cat.get("branches", [])),
        notes=tuple(cat.get("notes", [])),
    )


@functools.cache
def entries() -> dict:
    """The shipped entries by id, loaded once."""
    out = {}
    folder = resources.files("bihomcheck").joinpath("data/catalog")
    for item in sorted(folder.iterdir(), key=lambda e: e.name):
        if not item.name.endswith(".json"):
            continue
        entry = _entry_from_dict(json.loads(item.read_text()))
        out[entry.entry_id] = entry
    return out


def get_entry(entry_id: int) -> CatalogEntry:
    entry = entries().get(entry_id)
    if entry is None:
        raise UnknownEntry(entry_id)
    return entry


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def branch_values(subs: Mapping[str, str], params: tuple) -> tuple:
    """(remaining, values) of a branch substitution {param: coeff text}: the
    parameters it leaves free, and the value of each parameter it solves as a
    Scalar over them."""
    remaining = tuple(p for p in params if p not in subs)
    return remaining, {name: parse_scalar(text, remaining) for name, text in subs.items()}


def sample_points(bundle: AlgebraBundle, count: int, rng: SplitRng, branches=()) -> list:
    """count (point, bundle.eval_at(point)) cases at parameter points that
    satisfy the bundle's constraints exactly. Free parameters get integers in
    [-10, 10]; each point in turn takes the next branch substitution, which
    solves the parameters it names. A point where a denominator vanishes is
    drawn again; when 1000*count draws give fewer than count cases, it raises
    BihomError."""
    if count < 1:
        raise NoSamplePoints()
    branches = [branch_values(subs, bundle.ring.params) for subs in branches or ({},)]
    cases = []
    for _ in range(1000 * count):
        if len(cases) == count:
            break
        remaining, values = branches[len(cases) % len(branches)]
        point = {p: Fraction(rng.randint(-10, 10)) for p in remaining}
        try:
            full = dict(point)
            for name, value in values.items():
                full[name] = value.eval(point)
            if bundle.ring.check_point(full) is None:
                cases.append((full, bundle.eval_at(full)))
        except ZeroDivisionError:  # a denominator vanishes at the point
            continue
    if len(cases) < count:
        raise BihomError(
            f"could not sample {count} constraint-satisfying points of {bundle.label()}"
            f" in {1000 * count} draws"
        )
    return cases


def verify_entry(
    entry_id: int,
    mode: str = "symbolic",
    samples: int = 5,
    seed: int = 0,
) -> Report:
    """Per-axiom report for one catalog entry, labelled with the entry's
    provenance name entryNN. Symbolic mode checks every constraint branch and
    merges; sampled mode specializes at constraint-satisfying points."""
    entry = get_entry(entry_id)
    notes = list(entry.notes)
    if entry.completion is None and entry.given_br_slots != tuple(
        itertools.product(range(2), repeat=2)
    ):
        notes.append("skew completion unsolvable; unlisted bracket constants forced to zero")
    if mode == "sampled":
        rng = SplitRng(seed).child(f"entry{entry.entry_id}")
        cases = sample_points(entry.completed_bundle(), samples, rng, entry.branches)
    else:
        branches = entry.branch_bundles()
        many = len(branches) > 1
        cases = [({"branch": desc} if many else None, b) for desc, b in branches]
        if many:
            notes.append(f"symbolic check over {len(branches)} constraint branches")
        seed = None
    report = check_definition(CATALOG_AXES, entry.bundle, mode, cases, seed)
    report.notes = notes
    return report


def verify_all(mode: str = "symbolic", samples: int = 5, seed: int = 0, ids=None) -> list:
    ids = sorted(entries()) if ids is None else sorted(ids)
    return [verify_entry(i, mode=mode, samples=samples, seed=seed) for i in ids]


def summary_table(reports: Sequence[Report]) -> str:
    """entry x axiom matrix, one row per entry, fixed-width cells."""
    mark = {"pass": "ok", "fail": "FAIL", "inapplicable": "n/a"}
    headers = ["entry", "status"] + [axis for axis in AXIS_IDS] + ["overall"]
    rows = []
    for report in reports:
        entry_id = int(report.bundle.replace("entry", ""))
        entry = get_entry(entry_id)
        cells = [f"{entry_id:5d}", f"{entry.status:13s}"]
        by_id = {v.identity: v for v in report.verdicts}
        for axis in AXIS_IDS:
            cells.append(mark[by_id[axis].status])
        cells.append(mark[report.overall])
        rows.append(cells)
    widths = [max(len(h), max(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for cells in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines)
