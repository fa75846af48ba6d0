"""The benchmark's four workloads: how their bundles are built at set-up and
the fixed list of CLI argv that makes one pass.

The functions that make bundles import `bihomcheck` inside their bodies, so
they always use the package as currently imported (set-up re-imports it
several times).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# `catalog verify --seed` takes the run's seed modulo this; golden outputs
# exist for each of these catalog seeds.
CATALOG_SEEDS = 8


@dataclass(frozen=True)
class Check:
    key: str  # identifies the golden record
    argv: tuple  # without --report
    report: str  # file name of the --report output


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # () -> {bundle name: AlgebraBundle}
    checks: Callable  # (bundle dir, seed) -> [Check]
    seeded: bool


def euler_map(bundle, var_index):
    """(multiply by the basis monomial at var_index) ∘ (its partial
    derivative): an ideal-stable derivation of a truncated polynomial
    algebra."""
    from bihomcheck.linear import LinMap

    mul = bundle.ops["mul"]
    cols = [mul.value_at((var_index, j)).coords for j in range(bundle.space.dim)]
    mult = LinMap.from_columns(bundle.space, bundle.ring.params, cols)
    return mult.compose(bundle.maps[f"D{bundle.space.labels[var_index]}"])


def dim6_ternary():
    """The dim-6 ternary bracket of poly[u,v]<3 from the derivation v*dv over
    the transposed structure built from u*du; every tbp-3lie law holds."""
    from bihomcheck.construct import (
        derivation_tbp,
        ternary_from_derivation,
        truncated_polynomial_algebra,
    )

    quv = truncated_polynomial_algebra(("u", "v"), 3)
    maps = {**quv.maps, "E1": euler_map(quv, 1), "E2": euler_map(quv, 2)}
    base = derivation_tbp(quv.replace(maps=maps), d_name="E1")
    return ternary_from_derivation(base, d_name="E2")


def bad_ternary():
    """The same construction from plain partial derivatives, whose
    hypotheses fail: the ternary laws fail at early basis tuples."""
    from bihomcheck.construct import (
        derivation_tbp,
        ternary_from_derivation,
        truncated_polynomial_algebra,
    )

    quv = truncated_polynomial_algebra(("u", "v"), 3)
    base = derivation_tbp(quv, "Du", require=False)
    return ternary_from_derivation(base, "Dv", require=False)


def tensor_square(entry_id):
    from bihomcheck.catalog import get_entry
    from bihomcheck.construct import tensor_bundle

    bundle = get_entry(entry_id).completed_bundle()
    return tensor_bundle(bundle, bundle, "bp-tbp")


def _catalog_checks(bundle_dir: Path, seed: int) -> list:
    cat_seed = seed % CATALOG_SEEDS
    return [
        Check(
            f"{mode}/entry{entry:02d}/seed{cat_seed}",
            ("catalog", "verify", "--entries", str(entry), "--mode", mode,
             "--seed", str(cat_seed)),
            f"catalog-{mode}-{entry:02d}.json",
        )
        for mode in ("symbolic", "sampled")
        for entry in range(1, 27)
    ]


def _ternary_q_checks(bundle_dir: Path, seed: int) -> list:
    path = str(bundle_dir / "dim6-ternary.json")
    return [Check("tbp-3lie", ("check", path, "--structure", "tbp-3lie"), "tbp-3lie.json")]


def _ternary_fail_checks(bundle_dir: Path, seed: int) -> list:
    path = str(bundle_dir / "bad-ternary.json")
    return [
        Check(s, ("check", path, "--structure", s), f"{s}.json")
        for s in ("3-bihom-lie", "tbp-3lie", "bp-3lie")
    ]


def _tensor_sym_checks(bundle_dir: Path, seed: int) -> list:
    return [
        Check(
            f"entry{e}",
            ("identities", str(bundle_dir / f"tensor-entry{e}.json"), "--set", "thm25"),
            f"thm25-entry{e}.json",
        )
        for e in (20, 26)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog", lambda: {}, _catalog_checks, seeded=True),
        Workload(
            "ternary-q", lambda: {"dim6-ternary": dim6_ternary()}, _ternary_q_checks,
            seeded=False,
        ),
        Workload(
            "ternary-fail", lambda: {"bad-ternary": bad_ternary()}, _ternary_fail_checks,
            seeded=False,
        ),
        Workload(
            "tensor-sym",
            lambda: {f"tensor-entry{e}": tensor_square(e) for e in (20, 26)},
            _tensor_sym_checks,
            seeded=False,
        ),
    )
}
