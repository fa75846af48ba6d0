"""Scalar ring: exact arithmetic, canonical forms, the coefficient grammar."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.cli import cli_main
from bihomcheck.errors import (
    DenominatorVanishes,
    DivisionByZero,
    RingMismatch,
    TextSyntaxError,
    UnknownParameter,
)
from bihomcheck.scalars import Poly, Scalar, parse_scalar

P = ("k1", "k2")


def S(text: str) -> Scalar:
    return parse_scalar(text, P)


class TestExamples:
    def test_rational_add(self):
        assert S("1/2") + S("1/3") == S("5/6")

    def test_difference_of_squares(self):
        assert S("(k1 - k2)*(k1 + k2)") == S("k1^2 - k2^2")

    def test_cross_multiplied_quotient(self):
        assert S("(k1^2 - k2^2)/(k1 - k2)") == S("k1 + k2")

    def test_zero_fraction_is_rational_zero(self):
        s = S("(k1 - k1)/(k1 + 1)")
        assert s.is_rational() and s.is_zero()

    def test_common_factor_fraction(self):
        q = ("k1", "k2", "k3")
        lhs = parse_scalar("k1/k2", q)
        rhs = parse_scalar("(k1*k3)/(k2*k3)", q)
        assert lhs == rhs

    def test_distinct_parameters_differ(self):
        assert S("k1") != S("k2")

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            S("k1") / S("0")

    def test_eval_substitution(self):
        assert S("k1 - k2").eval({"k1": 3, "k2": 5}) == -2

    def test_eval_pole(self):
        s = S("k1") / S("k1 - 1")
        with pytest.raises(DenominatorVanishes):
            s.eval({"k1": 1, "k2": 0})

    def test_eval_constant(self):
        assert S("7/2").eval({"k1": 9, "k2": -4}) == Fraction(7, 2)

    def test_eval_is_exact(self):
        s = S("(2*k1 + 1)/(3*k2)")
        assert s.eval({"k1": Fraction(1, 2), "k2": Fraction(1, 3)}) == Fraction(2)


def test_power_squares_only_while_bits_remain(monkeypatch):
    """s**n multiplies once per set bit and squares once per bit after the
    first: no square past the top bit, whose result would go unused."""
    calls = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    base = S("k1 + 1")
    for n in range(1, 34):
        calls.clear()
        assert (base**n).eval({"k1": 2, "k2": 0}) == 3**n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1"), n


def test_power_bounds():
    """A power is refused before it is expanded, not after seconds of work:
    (k1+k2+k3+k4+1)^14 took 0.9 s and (k1+1)^1999 12 s without the bound.
    Powers below the bounds still parse (see MALFORMED for more refusals)."""
    params = ("k1", "k2", "k3", "k4")
    assert len(parse_scalar("(k1+k2+k3+k4+1)^10", params).num.terms) == 1001
    assert parse_scalar("k1^58", params).num.terms == {(58, 0, 0, 0): 1}
    assert parse_scalar("10^4299", params).rat == 10**4299
    with pytest.raises(TextSyntaxError):
        parse_scalar("(k1+k2+k3+k4+1)^14", params)


def test_product_bounds():
    """A + - * / is refused before its polynomial products pass
    MAX_PRODUCT_TERMS terms: (k1+k2+k3+k4+1)^10*(k1+k2+k3+k4+1)^10 took 8.0 s
    and (k1+k2+1)^41*(k1+k2+1)^41 7.1 s without the bound. A product within
    it still parses, and a sum or quotient of two polynomials multiplies
    neither by the other (see MALFORMED for more refusals)."""
    params = ("k1", "k2", "k3", "k4")
    assert len(parse_scalar("(k1+k2+1)^19*(k1+k2+1)^18", params).num.terms) == 741
    for op in "+/":
        value = parse_scalar(f"(k1+k2+1)^20 {op} (k1+k2+2)^20", params)
        assert len(value.num.terms) == 231
    for text in ("(k1+k2+k3+k4+1)^10*(k1+k2+k3+k4+1)^10", "(k1+k2+1)^20*(k1+k2+1)^19"):
        with pytest.raises(TextSyntaxError, match="operands too large to combine"):
            parse_scalar(text, params)


class TestParsing:
    def test_poly_terms(self):
        s = S("2*k1^2 - k2/3")
        assert not s.is_rational()
        assert s.num.terms == {(2, 0): Fraction(2), (0, 1): Fraction(-1, 3)}

    def test_negated_group(self):
        assert S("-(k1 - k2)").num.terms == {(1, 0): Fraction(-1), (0, 1): Fraction(1)}

    def test_unknown_parameter(self):
        with pytest.raises(UnknownParameter):
            parse_scalar("k5", ("k1", "k2", "k3", "k4"))

    def test_syntax_error_position(self):
        with pytest.raises(TextSyntaxError) as info:
            S("k1 + ")
        assert info.value.position == 5

    def test_trailing_garbage(self):
        with pytest.raises(TextSyntaxError):
            S("k1 k2")

    def test_power_requires_natural(self):
        with pytest.raises(TextSyntaxError):
            S("k1^-2")

    def test_mixed_rings_error(self):
        with pytest.raises(RingMismatch):
            S("k1") + parse_scalar("k1", ("k1",))


# malformed coefficient texts and the position each is refused at; "1 # 2"
# guards the refusal of "#", which in .idl text would start a comment, and
# "2\u00b2" a digit character that int() does not convert
MALFORMED = [
    ("1 # 2", 2),
    ("2\u00b2", 1),
    ("k1 +", 4),
    ("(k1", 3),
    ("k1^-2", 3),
    ("1/0", 1),
    ("k1 k2", 3),
    ("2 $ 3", 2),
    # a power whose numbers could pass 4300 digits, or too large to expand
    ("10^4300", 2),
    ("((2^4000)^2)^2", 12),
    ("(10^100*k1 + 1)^43", 15),
    ("(k1 + k2 + 1)^100", 13),
    ("(k1 + 1)^1999", 8),
    # an operation whose polynomial products would pass 40,000 terms
    ("(k1+k2+1)^20*(k1+k2+1)^18", 12),
    ("1/(k1+k2+1)^20 + 1/(k1+k2+2)^20", 15),
]


@pytest.mark.parametrize("text, position", MALFORMED)
def test_malformed_coefficient_text(text, position):
    with pytest.raises(TextSyntaxError) as info:
        S(text)
    assert info.value.position == position


@pytest.mark.parametrize("text, position", MALFORMED)
def test_malformed_coefficient_in_bundle_exit_two(text, position, tmp_path, capsys):
    """check on a bundle file that carries the text ends in one stderr line."""
    data = {
        "schema": 1,
        "dim": 1,
        "basis": ["e"],
        "ring": {"params": list(P), "constraints": []},
        "ops": {},
        "maps": {"a": [[text]]},
    }
    path = tmp_path / "bad.bundle"
    path.write_text(json.dumps(data))
    assert cli_main(["check", str(path), "--structure", "bihom-comm"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: at position {position}: ") and err.count("\n") == 1


def _random_scalar(rng: random.Random) -> Scalar:
    kind = rng.randrange(3)
    if kind == 0:
        return Scalar.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), P)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = (rng.randint(0, 2), rng.randint(0, 2))
        terms[exps] = Fraction(rng.randint(-5, 5))
    num = Poly(P, {e: c for e, c in terms.items() if c})
    if kind == 1 or num.is_zero():
        return Scalar.from_poly(num)
    den = Poly(P, {(rng.randint(0, 1), rng.randint(0, 1)): Fraction(rng.randint(1, 4))})
    return Scalar.from_poly(num) / Scalar.from_poly(den)


def test_ring_laws_bulk():
    """Associativity, commutativity, distributivity and equality-compatibility
    over 1000 pseudo-random triples (seeded, reproducible)."""
    rng = random.Random(20260810)
    for trial in range(1000):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        # equality is a congruence
        if a == b:
            assert a + c == b + c
            assert a * c == b * c


def test_equality_is_equivalence():
    rng = random.Random(7)
    for _ in range(200):
        a = _random_scalar(rng)
        assert a == a
        # multiply numerator and denominator by a nonzero polynomial: equal by
        # cross-multiplication although structurally different
        blowup = S("k1 + 2")
        b = a * blowup / blowup
        assert a == b and b == a
        c = b * S("k2^2 + 1") / S("k2^2 + 1")
        assert a == c  # transitivity witness


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    point = {"k1": Fraction(3, 2), "k2": Fraction(-4)}
    checked = 0
    while checked < 200:
        a, b = _random_scalar(rng), _random_scalar(rng)
        try:
            av, bv = a.eval(point), b.eval(point)
        except DenominatorVanishes:
            continue
        assert (a + b).eval(point) == av + bv
        assert (a * b).eval(point) == av * bv
        checked += 1


coeff_strategy = st.one_of(
    st.integers(-50, 50).map(lambda n: Scalar.rational(n, P)),
    st.builds(
        lambda pairs: Scalar.from_poly(
            Poly(P, {e: Fraction(c) for e, c in pairs.items() if c})
        ),
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-9, 9),
            max_size=4,
        ),
    ),
)


@given(coeff_strategy, coeff_strategy)
@settings(max_examples=150, deadline=None)
def test_print_parse_fixed_point(a, b):
    """parse(print(s)) reproduces s exactly, including proper fractions."""
    try:
        s = a / b if not b.is_zero() else a
    except DivisionByZero:  # pragma: no cover - guarded above
        s = a
    text = s.text()
    again = parse_scalar(text, P)
    assert again == s
    # canonical form: printing once more is a fixed point
    assert again.text() == text


def test_printing_examples():
    assert S("0").text() == "0"
    assert S("k2 - k1").text() == "-k1 + k2"
    assert (S("k1") / S("k2")).text() == "(k1)/(k2)"
    assert S("2*k1*k2^2 + 1/3").text() == "2*k1*k2^2 + 1/3"


def test_denominator_content_normalized():
    s = S("k1") / S("2*k2 - 2*k1")
    # denominator scaled to integer-primitive with positive graded-lex leading
    # coefficient (the k1 term leads here)
    assert s.den.terms == {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    lead = max(s.den.terms, key=lambda e: (sum(e), e))
    assert s.den.terms[lead] > 0


def test_constant_fraction_collapses():
    s = S("(3*k1)/(3)")
    assert not s.is_rational()  # still k1
    assert s.den.is_const() and s.den.const_value() == 1
    t = S("(k1 + 3 - k1)/(2)")
    assert t.is_rational() and t.rat == Fraction(3, 2)
