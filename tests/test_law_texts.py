"""The printed text of every law the package generates from parameters.

These pins fix the exponent-template identities (3.1)/(3.2), their fixed
instance (3.3) and the generated multiplicativity, derivation, n-ary skew and
n-ary compatibility laws, so a change in how a law is built can not change
the law itself.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from bihomcheck.dsl import print_identity
from bihomcheck.errors import ArityMismatch
from bihomcheck.engine import FIXED_EXPONENTS, instantiate_power_identity
from bihomcheck.structures import (
    commute_identity,
    derivation_identity,
    multiplicativity_identity,
    nary_skew_identity,
    nary_transposed_compat_identity,
)

TEMPLATE_TEXTS = {
    "eq31": "forall y,v,u,z: br(mul(b^2(y), a(b^2(v))), mul(a^2(u), a(b(z))))"
    " + br(mul(a(b(u)), a(b(y))), mul(b^2(z), a^2(b(v))))"
    " - 2*mul(mul(a(b(u)), a(b^2(v))), br(a(b(y)), a(b(z)))) = 0",
    "eq32": "forall x,y,u,v: mul(a^2(b^2(x)), br(a(b^2(u)), mul(a^2(y), a^2(v))))"
    " + mul(a(b^3(v)), br(mul(a(b(x)), a^2(y)), a^2(b(u))))"
    " + mul(mul(a(b^2(y)), a(b^2(u))), br(a(b^2(v)), a^3(x))) = 0",
    "eq33": "forall x,y,u,v: mul(b^2(x), br(b(u), mul(y, a(b^-1(v)))))"
    " + mul(b^2(v), br(mul(a^-1(b(x)), y), a(u)))"
    " + mul(mul(a^-1(b^2(y)), b(u)), br(b(v), a(x))) = 0",
}


def exponent_grid() -> list:
    """The zero tuple, the fixed substitution and 40 tuples in -3..2, so
    that every power of the templates is negative, zero or positive
    somewhere on the grid."""
    rng = random.Random(31)
    grid = [(0,) * 8, FIXED_EXPONENTS]
    grid += [tuple(rng.randint(-3, 2) for _ in range(8)) for _ in range(40)]
    return grid


@pytest.mark.parametrize("which", sorted(TEMPLATE_TEXTS))
def test_template_text_at_default_exponents(which):
    # eq33 is the second template at the fixed substitution
    ident = (
        instantiate_power_identity("eq32", FIXED_EXPONENTS)
        if which == "eq33"
        else instantiate_power_identity(which)
    )
    assert print_identity(ident) == TEMPLATE_TEXTS[which]


def test_template_texts_on_exponent_grid():
    texts = [
        print_identity(instantiate_power_identity(which, exps))
        for exps in exponent_grid()
        for which in ("eq31", "eq32")
    ]
    assert len(set(texts)) == len(texts)
    assert any("^-" in t for t in texts) and any("^3" in t for t in texts)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "c273e58bf0fa75274c6c6d02b3f5c7118c776de76f92593a98a97158142cc1f5"


GENERATED_TEXTS = {
    2: [
        "forall x,y: a(nbr(x, y)) - nbr(a(x), a(y)) = 0",
        "forall x,y: D(nbr(x, y)) - nbr(D(x), y) - nbr(x, D(y)) = 0",
        "forall x,y: nbr(b(x), a(y)) + nbr(b(y), a(x)) = 0",
        "forall u,x,y: 2*mul(a(b(u)), nbr(x, y)) - nbr(mul(b(u), x), b(y))"
        " - nbr(b(x), mul(a(u), y)) = 0",
    ],
    3: [
        "forall x,y,z: a(nbr(x, y, z)) - nbr(a(x), a(y), a(z)) = 0",
        "forall x,y,z: D(nbr(x, y, z)) - nbr(D(x), y, z) - nbr(x, D(y), z)"
        " - nbr(x, y, D(z)) = 0",
        "forall x,y,z: nbr(b(x), b(y), a(z)) + nbr(b(y), b(x), a(z)) = 0",
        "forall x,y,z: nbr(b(x), b(y), a(z)) + nbr(b(x), b(z), a(y)) = 0",
        "forall u,x,y,z: 3*mul(a(b(u)), nbr(x, y, z)) - nbr(mul(b(u), x), b(y), b(z))"
        " - nbr(b(x), mul(b(u), y), b(z)) - nbr(b(x), b(y), mul(a(u), z)) = 0",
    ],
    4: [
        "forall x,y,z,u: a(nbr(x, y, z, u)) - nbr(a(x), a(y), a(z), a(u)) = 0",
        "forall x,y,z,u: D(nbr(x, y, z, u)) - nbr(D(x), y, z, u) - nbr(x, D(y), z, u)"
        " - nbr(x, y, D(z), u) - nbr(x, y, z, D(u)) = 0",
        "forall x,y,z,u: nbr(b(x), b(y), b(z), a(u)) + nbr(b(y), b(x), b(z), a(u)) = 0",
        "forall x,y,z,u: nbr(b(x), b(y), b(z), a(u)) + nbr(b(x), b(z), b(y), a(u)) = 0",
        "forall x,y,z,u: nbr(b(x), b(y), b(z), a(u)) + nbr(b(x), b(y), b(u), a(z)) = 0",
        "forall u0,x,y,z,u: 4*mul(a(b(u0)), nbr(x, y, z, u))"
        " - nbr(mul(b(u0), x), b(y), b(z), b(u)) - nbr(b(x), mul(b(u0), y), b(z), b(u))"
        " - nbr(b(x), b(y), mul(b(u0), z), b(u)) - nbr(b(x), b(y), b(z), mul(a(u0), u)) = 0",
    ],
}


@pytest.mark.parametrize("arity", sorted(GENERATED_TEXTS))
def test_generated_law_texts(arity):
    laws = [
        multiplicativity_identity("a", "nbr", arity),
        derivation_identity("D", "nbr", arity),
        *(nary_skew_identity("nbr", arity, slot) for slot in range(arity - 1)),
        nary_transposed_compat_identity("nbr", arity),
    ]
    assert [print_identity(law) for law in laws] == GENERATED_TEXTS[arity]


def test_commute_law_text():
    assert print_identity(commute_identity("a", "b")) == "forall x: a(b(x)) - b(a(x)) = 0"


@pytest.mark.parametrize(
    "build",
    [
        lambda: multiplicativity_identity("a", "nbr", 1),
        lambda: derivation_identity("D", "nbr", 1),
        lambda: nary_skew_identity("nbr", 1, 0),
        lambda: nary_transposed_compat_identity("nbr", 1),
    ],
    ids=["multiplicativity", "derivation", "nary-skew", "nary-compat"],
)
def test_generated_laws_refuse_arity_one(build):
    """In .idl text nbr(x) is a map application, so a law over a unary op
    can not be written; the builders refuse rather than misread it."""
    with pytest.raises(ArityMismatch, match="'nbr' has arity 1"):
        build()
