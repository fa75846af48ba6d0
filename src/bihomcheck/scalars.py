"""Exact coefficient arithmetic: rationals, sparse multivariate polynomials
over the rationals in declared parameters, and their fraction field.

Representation
--------------
  Poly    params: ordered tuple of parameter names
          terms:  dict mapping exponent tuple (one nat per parameter) to a
                  nonzero Fraction coefficient; {} is the zero polynomial.
  Scalar  a tagged value over a fixed parameter tuple: either a plain
          Fraction (the fast common case) or a pair of Polys num/den with
          den != 0.

Fractions of polynomials are never reduced by multivariate gcd. Only the
rational content of the denominator is normalized (integer-primitive, positive
leading coefficient in graded-lex order), and a fraction whose value is a
rational constant collapses to the Fraction tag. Equality is decided by
cross-multiplication: a/b = c/d iff a*d - c*b is the zero polynomial. This is
exact and cheap at the dimensions this package targets; it trades term growth
for never needing multivariate gcd.

All values are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd, lcm, log10
from typing import Iterable, Mapping

from .dsl import Tokenizer
from .errors import (
    BihomError,
    DenominatorVanishes,
    DivisionByZero,
    RingMismatch,
    TextSyntaxError,
    UnknownParameter,
)

Exponent = tuple  # tuple[int, ...], one entry per parameter


def _glex_key(exps: Exponent):
    # graded lexicographic: total degree first, ties broken lexicographically
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial over Q with a fixed parameter tuple."""

    __slots__ = ("params", "terms")

    def __init__(self, params: tuple, terms: dict):
        self.params = params
        self.terms = terms  # canonical: no zero coefficients

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, params: tuple, value) -> "Poly":
        value = Fraction(value)
        if value == 0:
            return cls(params, {})
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def var(cls, params: tuple, name: str) -> "Poly":
        if name not in params:
            raise UnknownParameter(name)
        exps = tuple(1 if p == name else 0 for p in params)
        return cls(params, {exps: Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return next(iter(self.terms.values()))

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical for printing)."""
        return sorted(self.terms.items(), key=lambda kv: _glex_key(kv[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.params != other.params:
            raise RingMismatch(f"{self.params} vs {other.params}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Poly(self.params, out)

    def __neg__(self) -> "Poly":
        return Poly(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not self.terms or not other.terms:
            return Poly(self.params, {})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Poly(self.params, out)

    def scale(self, q) -> "Poly":
        q = Fraction(q)
        if q == 0:
            return Poly(self.params, {})
        return Poly(self.params, {e: c * q for e, c in self.terms.items()})

    def content_signed(self) -> Fraction:
        """gcd of coefficient numerators over lcm of denominators, signed so
        that dividing by it makes the graded-lex leading coefficient positive.
        Returns 1 for the zero polynomial."""
        if not self.terms:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        lead = max(self.terms, key=_glex_key)
        if self.terms[lead] < 0:
            content = -content
        return content

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        vals = []
        for p in self.params:
            if p not in point:
                raise UnknownParameter(p)
            vals.append(Fraction(point[p]))
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def substitute(self, values: Mapping[str, "Scalar"], new_params: tuple) -> "Scalar":
        """Replace some parameters by Scalars over new_params; the remaining
        parameters must all be members of new_params."""
        total = Scalar.zero(new_params)
        for e, c in self.terms.items():
            term = Scalar.rational(c, new_params)
            for name, k in zip(self.params, e):
                if k == 0:
                    continue
                if name in values:
                    term = term * values[name] ** k
                else:
                    term = term * Scalar.var(new_params, name) ** k
            total = total + term
        return total

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    __hash__ = None

    def text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.params, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                body = _text(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_text(mag)] + factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self.text()!r})"


class Scalar:
    """Element of Q or of the fraction field Q(params), tagged by kind."""

    __slots__ = ("params", "rat", "num", "den")

    def __init__(self, params: tuple, rat, num, den):
        self.params = params
        self.rat = rat  # Fraction, or None when num/den are set
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value, params: tuple = ()) -> "Scalar":
        return cls(params, Fraction(value), None, None)

    @classmethod
    def from_poly(cls, p: Poly) -> "Scalar":
        if p.is_const():
            return cls(p.params, p.const_value(), None, None)
        return cls(p.params, None, p, Poly.const(p.params, 1))

    @classmethod
    def var(cls, params: tuple, name: str) -> "Scalar":
        return cls.from_poly(Poly.var(params, name))

    @classmethod
    def zero(cls, params: tuple = ()) -> "Scalar":
        return cls(params, _ZERO, None, None)

    @classmethod
    def one(cls, params: tuple = ()) -> "Scalar":
        return cls(params, _ONE, None, None)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        # a fraction of polynomials is never zero: _normalize collapses a zero
        # numerator to the rational tag
        return self.rat is not None and not self.rat

    def __bool__(self) -> bool:
        return self.rat is None or bool(self.rat)

    def is_rational(self) -> bool:
        return self.rat is not None

    def as_fraction_pair(self):
        """(num, den) as Polys, for uniform fraction arithmetic."""
        if self.rat is not None:
            return Poly.const(self.params, self.rat), Poly.const(self.params, 1)
        return self.num, self.den

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                return Scalar.rational(other, self.params)
            raise TypeError(f"cannot combine Scalar with {type(other).__name__}")
        if self.params != other.params:
            raise RingMismatch(f"{self.params} vs {other.params}")
        return other

    def __add__(self, other) -> "Scalar":
        other = self._check(other)
        if self.rat is not None and other.rat is not None:
            return Scalar(self.params, self.rat + other.rat, None, None)
        a, b = self.as_fraction_pair()
        c, d = other.as_fraction_pair()
        return _normalize(self.params, a * d + c * b, b * d)

    __radd__ = __add__  # unused here; perfbench/tracer.py wraps it by name

    def __neg__(self) -> "Scalar":
        if self.rat is not None:
            return Scalar(self.params, -self.rat, None, None)
        return Scalar(self.params, None, -self.num, self.den)

    def __sub__(self, other) -> "Scalar":
        other = self._check(other)
        if self.rat is not None and other.rat is not None:
            return Scalar(self.params, self.rat - other.rat, None, None)
        return self + (-other)

    def __mul__(self, other) -> "Scalar":
        other = self._check(other)
        if self.rat is not None and other.rat is not None:
            return Scalar(self.params, self.rat * other.rat, None, None)
        if self.is_zero() or other.is_zero():
            return Scalar.zero(self.params)
        a, b = self.as_fraction_pair()
        c, d = other.as_fraction_pair()
        return _normalize(self.params, a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero scalar")
        if self.rat is not None and other.rat is not None:
            return Scalar(self.params, self.rat / other.rat, None, None)
        a, b = self.as_fraction_pair()
        c, d = other.as_fraction_pair()
        return _normalize(self.params, a * d, b * c)

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return Scalar.one(self.params) / self ** (-n)
        result = Scalar.one(self.params)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- equality by cross-multiplication ------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other, self.params)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.params != other.params:
            raise RingMismatch(f"{self.params} vs {other.params}")
        if self.rat is not None and other.rat is not None:
            return self.rat == other.rat
        a, b = self.as_fraction_pair()
        c, d = other.as_fraction_pair()
        return (a * d - c * b).is_zero()

    __hash__ = None

    # -- evaluation ----------------------------------------------------------

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a parameter point; the point must cover all params."""
        for p in self.params:
            if p not in point:
                raise UnknownParameter(p)
        if self.rat is not None:
            return self.rat
        den = self.den.eval(point)
        if den == 0:
            raise DenominatorVanishes(point, self.den.text())
        return self.num.eval(point) / den

    def substitute(self, values: Mapping[str, "Scalar"], new_params: tuple) -> "Scalar":
        if self.rat is not None:
            return Scalar(new_params, self.rat, None, None)
        num = self.num.substitute(values, new_params)
        den = self.den.substitute(values, new_params)
        return num / den

    # -- display -------------------------------------------------------------

    def text(self) -> str:
        if self.rat is not None:
            return _text(self.rat)
        if self.den.is_const() and self.den.const_value() == 1:
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self):
        return f"Scalar({self.text()!r})"


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _text(q: Fraction) -> str:
    """str(q). CPython refuses to print an int of more than 4300 digits, and
    the loader refuses such numbers, so a value that grew past that is an
    error rather than text that could not be read back."""
    try:
        return str(q)
    except ValueError:
        raise BihomError("number too long to print (more than 4300 digits)") from None


def _normalize(params: tuple, num: Poly, den: Poly) -> Scalar:
    """Canonical Scalar for num/den. No gcd reduction: only collapse rational
    values and scale the denominator to signed-primitive form."""
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return Scalar.zero(params)
    if den.is_const():
        p = num.scale(1 / den.const_value())
        if p.is_const():
            return Scalar(params, p.const_value(), None, None)
        return Scalar(params, None, p, Poly.const(params, 1))
    # constant-valued fractions collapse without any gcd: num = c*den exactly
    lead_num = max(num.terms, key=_glex_key)
    lead_den = max(den.terms, key=_glex_key)
    ratio = num.terms[lead_num] / den.terms[lead_den]
    if num.terms == den.scale(ratio).terms:
        return Scalar(params, ratio, None, None)
    c = den.content_signed()
    if c != 1:
        num = num.scale(1 / c)
        den = den.scale(1 / c)
    return Scalar(params, None, num, den)


# ---------------------------------------------------------------------------
# coefficient grammar
# ---------------------------------------------------------------------------
#
#   coeff := sum
#   sum   := prod (("+"|"-") prod)*
#   prod  := pow (("*"|"/") pow)*
#   pow   := atom ["^" nat]
#   atom  := nat | param | "(" sum ")" | "-" atom
#
# Tokens come from dsl.Tokenizer, the scanner of .idl text. Its "#" comments
# are not part of this grammar: a "#" is refused, so "1 # 2" never reads as 1.
# "/" between factors is accepted so that computed fraction-field entries
# (e.g. inverted structure maps) survive a save/load round trip; plain
# rational literals like 3/4 are the common special case.


# bounds on x^n in coefficient text: its numbers' digits D, and the work of
# its last products, about T^2*D for T = C(n+t-1, t-1) terms, x of t terms
MAX_DIGITS = 4300
MAX_POWER_WORK = 2 * 10**7
# bound on the terms of the Poly products one + - * / in coefficient text
# forms: 40,000 of them take about 0.4 s (two 200-term polynomials)
MAX_PRODUCT_TERMS = 40_000
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _combine(kind: str, pos: int, x: Scalar, y: Scalar) -> Scalar:
    """x + y, x - y, x * y or x / y, refused before it is formed when its
    Poly products (num and den of x times those of y) pass MAX_PRODUCT_TERMS
    terms in all."""
    a, b = (len(p.terms) for p in x.as_fraction_pair())
    c, d = (len(p.terms) for p in y.as_fraction_pair())
    work = {"*": a * c + b * d, "/": a * d + b * c}.get(kind, a * d + c * b + b * d)
    if work > MAX_PRODUCT_TERMS:
        raise TextSyntaxError(pos, "operands too large to combine")
    if kind == "/" and y.is_zero():
        raise TextSyntaxError(pos, "division by zero")
    return _OPERATORS[kind](x, y)


def _height(p: Poly) -> int:
    """H such that no coefficient of p^n has a numerator or denominator above H^n."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return max(den, sum(abs(c.numerator) * (den // c.denominator) for c in p.terms.values()))


class _ScalarParser:
    def __init__(self, text: str, params: tuple):
        self.toks = Tokenizer(text)
        if "#" in text:
            raise TextSyntaxError(text.index("#"), "unexpected character '#'")
        self.params = params

    def parse(self) -> Scalar:
        value = self.sum()
        tok = self.toks.peek()
        if tok[0] != "end":
            raise TextSyntaxError(tok[2], "trailing input")
        return value

    def sum(self) -> Scalar:
        value = self.prod()
        while self.toks.peek()[0] in ("+", "-"):
            kind, _, pos = self.toks.next()
            value = _combine(kind, pos, value, self.prod())
        return value

    def prod(self) -> Scalar:
        value = self.pow()
        while self.toks.peek()[0] in ("*", "/"):
            kind, _, pos = self.toks.next()
            value = _combine(kind, pos, value, self.pow())
        return value

    def pow(self) -> Scalar:
        value = self.atom()
        if self.toks.peek()[0] == "^":
            pos = self.toks.next()[2]
            n = self.toks.nat(self.toks.expect("nat"))
            polys = value.as_fraction_pair()
            digits = n * max(log10(_height(p)) for p in polys)
            if digits >= MAX_DIGITS:
                raise TextSyntaxError(pos, f"power may have more than {MAX_DIGITS} digits")
            t = max(len(p.terms) for p in polys)
            if comb(n + t - 1, t - 1) ** 2 * max(digits, 1) > MAX_POWER_WORK:
                raise TextSyntaxError(pos, "power too large to expand")
            value = value ** n
        return value

    def atom(self) -> Scalar:
        tok = self.toks.next()
        if tok[0] == "-":
            # unary minus binds looser than '^': -k^2 means -(k^2)
            return -self.pow()
        if tok[0] == "(":
            value = self.sum()
            self.toks.expect(")")
            return value
        if tok[0] == "nat":
            return Scalar.rational(self.toks.nat(tok), self.params)
        if tok[0] == "name":
            return Scalar.var(self.params, tok[1])  # raises UnknownParameter
        raise TextSyntaxError(tok[2], "expected a number, parameter or '('")


def parse_scalar(text: str, params: Iterable[str] = ()) -> Scalar:
    """Parse coefficient text over the given parameter names."""
    return _ScalarParser(text, tuple(params)).parse()
