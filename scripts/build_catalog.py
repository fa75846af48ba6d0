#!/usr/bin/env python3
"""Regenerate the shipped catalog data files.

The source table below transcribes the 26 two-dimensional examples: given
product/bracket constants, the two structure maps, parameters and printed
constraints. Everything derived (bracket completions via the skew solver,
asserted-pass/report-only status via the verifier) is computed here and
frozen into src/bihomcheck/data/catalog/entryNN.json; a test re-derives the
completions numerically, so regeneration is checked in CI.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bihomcheck.bundle import AlgebraBundle, Ring
from bihomcheck.catalog import (
    CATALOG_AXES,
    CatalogEntry,
    branch_values,
    solve_skew_completion,
)
from bihomcheck.errors import Inconsistent
from bihomcheck.fileio import canonical_json
from bihomcheck.linear import BasisSpace, LinMap, MultiOp
from bihomcheck.scalars import parse_scalar
from bihomcheck.structures import check_definition

ALL_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))

# id, case, params, mul entries, br entries, given br slots ("all" for a
# trivially-zero bracket), alpha columns, beta columns, constraints, branches
ENTRIES = [
    dict(
        id=1, case="I", params=("k1", "k2"),
        mul={(0, 1): ("0", "k2")}, br={}, br_slots="all",
        alpha=[("0", "1"), ("0", "0")], beta=[("k1", "0"), ("0", "k2")],
    ),
    dict(
        id=2, case="I", params=("k1", "k2"),
        mul={(0, 0): ("k1", "0")}, br={}, br_slots="all",
        alpha=[("1", "0"), ("0", "0")], beta=[("k1", "0"), ("0", "k2")],
    ),
    dict(
        id=3, case="I", params=("k1", "k2"),
        mul={(0, 0): ("k1", "k2"), (0, 1): ("0", "k1 - k2")}, br={}, br_slots="all",
        alpha=[("1", "1"), ("0", "0")], beta=[("k1", "k2"), ("0", "k1 - k2")],
    ),
    dict(
        id=4, case="I", params=("k1", "k2"),
        mul={(1, 1): ("0", "k2")}, br={}, br_slots="all",
        alpha=[("0", "0"), ("0", "1")], beta=[("k1", "0"), ("0", "k2")],
    ),
    dict(
        id=5, case="I", params=("k1", "k2"),
        mul={(0, 0): ("0", "k2"), (0, 1): ("0", "k1 + k2"),
             (1, 0): ("0", "k2"), (1, 1): ("0", "k1 + k2")},
        br={}, br_slots="all",
        alpha=[("0", "1"), ("0", "1")], beta=[("k1", "k2"), ("0", "k1 + k2")],
    ),
    dict(
        id=6, case="I", params=("k1", "k2", "k3", "k4"),
        mul={(0, 0): ("k1", "0"), (0, 1): ("k3", "0"),
             (1, 0): ("0", "k2"), (1, 1): ("0", "k4")},
        br={}, br_slots="all",
        alpha=[("1", "0"), ("0", "1")], beta=[("k1", "k2"), ("k3", "k4")],
    ),
    dict(
        id=7, case="I", params=("k1", "k2"),
        mul={(0, 0): ("k1", "k2"), (0, 1): ("0", "k1"),
             (1, 0): ("0", "k1"), (1, 1): ("0", "k1")},
        br={}, br_slots="all",
        alpha=[("1", "1"), ("0", "1")], beta=[("k1", "k2"), ("0", "k1")],
    ),
    dict(
        id=8, case="I", params=("k1", "k2"),
        mul={(1, 0): ("k1", "0")}, br={}, br_slots="all",
        alpha=[("0", "0"), ("1", "0")], beta=[("k1", "0"), ("0", "k2")],
    ),
    dict(
        id=9, case="I", params=("k1", "k2"),
        mul={(0, 0): ("0", "k2"), (0, 1): ("0", "k1"),
             (1, 0): ("k1", "0"), (1, 1): ("k2", "0")},
        br={}, br_slots="all",
        alpha=[("0", "1"), ("1", "0")], beta=[("k1", "k2"), ("k2", "k1")],
    ),
    dict(
        id=10, case="I", params=("k1", "k2"),
        mul={(0, 0): ("-k1 - k2", "0"), (0, 1): ("k1", "0"),
             (1, 0): ("-k1 - k2", "0"), (1, 1): ("k1", "0")},
        br={}, br_slots="all",
        alpha=[("1", "0"), ("1", "0")], beta=[("-k1 - k2", "0"), ("k1", "k2")],
    ),
    dict(
        id=11, case="I", params=("k1", "k2"),
        mul={(0, 0): ("k1", "k2"), (0, 1): ("k2", "k1 - k2"),
             (1, 0): ("k1", "0"), (1, 1): ("k2", "0")},
        br={}, br_slots="all",
        alpha=[("1", "1"), ("1", "0")], beta=[("k1", "k2"), ("k2", "k1 - k2")],
    ),
    dict(
        id=12, case="I", params=("k1", "k2"),
        mul={(1, 0): ("k1 - k2", "0"), (1, 1): ("k1", "k2")},
        br={}, br_slots="all",
        alpha=[("0", "0"), ("1", "1")], beta=[("k2 - k1", "0"), ("k1", "k2")],
    ),
    dict(
        id=13, case="I", params=("k1", "k2"),
        mul={(0, 0): ("0", "k1 + k2"), (0, 1): ("0", "k1 + k2"),
             (1, 0): ("k1", "k2"), (1, 1): ("k2", "k1 + k2")},
        br={}, br_slots="all",
        alpha=[("0", "1"), ("1", "1")], beta=[("k1", "k2"), ("k2", "k1 + k2")],
    ),
    dict(
        id=14, case="I", params=("k1", "k2"),
        mul={(0, 0): ("k1", "0"), (0, 1): ("k2", "0"),
             (1, 0): ("k1", "0"), (1, 1): ("k2", "k1")},
        br={}, br_slots="all",
        alpha=[("1", "0"), ("1", "1")], beta=[("k1", "0"), ("k2", "k1")],
    ),
    dict(
        id=15, case="I", params=("k1", "k2"),
        mul={(0, 0): ("k1", "k2"), (0, 1): ("k2", "k1"),
             (1, 0): ("k1", "k2"), (1, 1): ("k2", "k1")},
        br={}, br_slots="all",
        alpha=[("1", "1"), ("1", "1")], beta=[("k1", "k2"), ("k2", "k1")],
    ),
    dict(
        id=16, case="I", params=("k1", "k2", "k3"),
        mul={(0, 0): ("1", "k2"), (0, 1): ("0", "k3"), (1, 0): ("0", "k1")},
        br={}, br_slots="all",
        alpha=[("1", "0"), ("0", "k1")], beta=[("1", "k2"), ("0", "k3")],
        constraints=["(k1 - 1)*k2"],
        branches=[{"k1": "1"}, {"k2": "0"}],
    ),
    dict(
        id=17, case="I", params=("k1", "k2", "k3"),
        mul={(0, 0): ("1", "k2 + 1"), (0, 1): ("0", "k3"), (1, 0): ("0", "k1")},
        br={}, br_slots="all",
        alpha=[("1", "1"), ("0", "k1")], beta=[("1", "k2"), ("0", "k2")],
        constraints=["1 + k3 + (k1 - 1)*k2"],
        branches=[{"k3": "-1 - k1*k2 + k2"}],
    ),
    dict(
        id=18, case="I", params=("k1",),
        mul={(0, 0): ("1", "0"), (0, 1): ("0", "k1")}, br={}, br_slots="all",
        alpha=[("1", "0"), ("0", "0")], beta=[("1", "0"), ("0", "k1")],
    ),
    dict(
        id=19, case="I", params=("k1",),
        mul={(0, 0): ("1", "k1 + 1"), (0, 1): ("0", "k1 + 1")}, br={}, br_slots="all",
        alpha=[("1", "1"), ("0", "0")], beta=[("1", "k1"), ("0", "k1 + 1")],
    ),
    dict(
        id=20, case="I", params=("k1", "k2", "k3", "k4"),
        mul={(0, 0): ("0", "k1*k3")}, br={}, br_slots="all",
        alpha=[("k1", "k2"), ("0", "k1^2")], beta=[("k3", "k4"), ("0", "k3^2")],
        constraints=["k2*(k3 - k3^2) + k4*(k1^2 - k1)"],
        branches=[{"k4": "(k2*(k3^2 - k3))/(k1^2 - k1)"}],
    ),
    dict(
        id=21, case="II", params=("k1", "k2", "k3", "k4"),
        mul={},
        br={(0, 0): ("0", "-k1 + k3"), (0, 1): ("0", "k4"), (1, 0): ("0", "-k2")},
        br_slots=[(0, 0), (0, 1), (1, 0)],
        alpha=[("1", "k1"), ("0", "k2")], beta=[("1", "k3"), ("0", "k4")],
        constraints=["k1*(k3 - k4) + k3*(k2 - 1)"],
        branches=[{"k4": "(k1*k3 + k2*k3 - k3)/k1"}],
    ),
    dict(
        id=22, case="II", params=("k1", "k2", "k3", "k4"),
        mul={},
        br={(0, 0): ("0", "k4 - k1*k3"), (1, 0): ("0", "-k2*k3")},
        br_slots=[(0, 0), (1, 0)],
        alpha=[("1", "k1"), ("0", "k2")], beta=[("k3", "k4"), ("0", "0")],
        constraints=["k1*k3 - k4*(1 - k2)"],
        branches=[{"k4": "(k1*k3)/(1 - k2)"}],
    ),
    dict(
        id=23, case="II", params=("k1", "k2", "k3", "k4"),
        mul={},
        br={(0, 0): ("0", "k1*k3 - k2"), (0, 1): ("0", "k1*k4")},
        br_slots=[(0, 0), (0, 1)],
        alpha=[("k1", "k2"), ("0", "0")], beta=[("1", "k3"), ("0", "k4")],
        constraints=["k2*(1 - k4) - k1*k3"],
        branches=[{"k3": "(k2 - k2*k4)/k1"}],
    ),
    dict(
        id=24, case="II", params=("k1", "k2"),
        mul={}, br={(0, 0): ("0", "k1")}, br_slots=[(0, 0)],
        alpha=[("1", "k2"), ("0", "1")], beta=[("0", "k1"), ("0", "0")],
    ),
    dict(
        id=25, case="II", params=("k1", "k2"),
        mul={}, br={(0, 0): ("0", "-k1")}, br_slots=[(0, 0)],
        alpha=[("0", "k1"), ("0", "0")], beta=[("1", "k2"), ("0", "1")],
    ),
    dict(
        id=26, case="III", params=("k1", "k2"),
        mul={(0, 0): ("0", "1")},
        br={(0, 0): ("0", "k1 - k2"), (0, 1): ("0", "1")},
        br_slots=[(0, 0), (0, 1)],
        alpha=[("1", "k2"), ("0", "1")], beta=[("1", "k1"), ("0", "1")],
    ),
]


def build_bundle(spec) -> AlgebraBundle:
    params = spec["params"]
    space = BasisSpace(["e1", "e2"])
    S = lambda text: parse_scalar(text, params)
    constraints = tuple(
        parse_scalar(t, params).as_fraction_pair()[0] for t in spec.get("constraints", ())
    )
    ring = Ring(params, constraints)

    def op_from(entries):
        constants = {
            idx: (S(c1), S(c2)) for idx, (c1, c2) in entries.items()
        }
        return MultiOp(space, params, 2, constants)

    def map_from(cols):
        return LinMap.from_columns(space, params, [[S(c) for c in col] for col in cols])

    ops = {"mul": op_from(spec["mul"]), "br": op_from(spec["br"])}
    maps = {"a": map_from(spec["alpha"]), "b": map_from(spec["beta"])}
    prov = {"name": f"entry{spec['id']:02d}", "case": spec["case"]}
    return AlgebraBundle(space, ring, ops, maps, prov)


def derive_completion(spec, bundle):
    """Symbolic skew completion on the first constraint branch, lifted back to
    the full parameter list; None when the system is inconsistent."""
    slots = ALL_SLOTS if spec["br_slots"] == "all" else tuple(spec["br_slots"])
    if set(slots) == set(ALL_SLOTS):
        return {}, slots
    branches = spec.get("branches", [])
    if branches:
        remaining, values = branch_values(branches[0], spec["params"])
        work = bundle.substitute_params(values, remaining)
    else:
        work = bundle
    try:
        solution = solve_skew_completion(
            work.ops["br"].constants, slots, work.maps["a"], work.maps["b"]
        )
    except Inconsistent as exc:
        print(f"  entry {spec['id']}: completion inconsistent ({exc})")
        return None, slots
    lifted = {}
    for slot, coords in solution.items():
        out = []
        for c in coords:
            # lift over the full parameter list (solutions here are rational
            # constants or polynomials in the surviving parameters)
            out.append(c.substitute({}, spec["params"]))
        lifted[slot] = tuple(out)
    return lifted, slots


def entry_status(entry: CatalogEntry) -> str:
    cases = [(None, bundle) for _desc, bundle in entry.branch_bundles()]
    if check_definition(CATALOG_AXES, entry.bundle, cases=cases).passed:
        return "asserted-pass"
    return "report-only"


def build_entries() -> list:
    """Every catalog entry, derived from the source table; writes nothing."""
    out = []
    for spec in ENTRIES:
        bundle = build_bundle(spec)
        completion, slots = derive_completion(spec, bundle)
        entry = CatalogEntry(
            entry_id=spec["id"],
            case=spec["case"],
            status="report-only",
            bundle=bundle,
            given_br_slots=slots,
            completion=completion,
            branches=tuple(spec.get("branches", ())),
        )
        entry.status = entry_status(entry)
        out.append(entry)
    return out


def main():
    out_dir = Path(__file__).resolve().parent.parent / "src/bihomcheck/data/catalog"
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = build_entries()
    for entry in entries:
        path = out_dir / f"entry{entry.entry_id:02d}.json"
        path.write_text(canonical_json(entry.to_dict()), encoding="utf-8")
    passing = [e.entry_id for e in entries if e.status == "asserted-pass"]
    print(f"wrote {len(entries)} entries; asserted-pass: {passing}")


if __name__ == "__main__":
    main()
