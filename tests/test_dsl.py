"""Identity DSL: grammar, distribution, linearity validation, round-tripping."""

from __future__ import annotations

import pytest

from bihomcheck.dsl import (
    CycSum,
    Identity,
    LinearityViolation,
    MapApply,
    OpApply,
    Var,
    expand_identity,
    parse_identity,
    parse_identity_file,
    print_identity,
)
from bihomcheck.errors import TextSyntaxError
from bihomcheck.structures import IDENTITIES

TCOMPAT = (
    "forall x,y,z: 2*mul(a(b(x)), br(y, z)) - br(mul(b(x), y), b(z))"
    " - br(b(y), mul(a(x), z)) = 0"
)


def test_three_term_compat_law():
    ident = parse_identity(TCOMPAT)
    assert ident.vars == ("x", "y", "z")
    assert [c for c, _ in ident.terms] == [2, -1, -1]
    first = ident.terms[0][1]
    assert isinstance(first, OpApply) and first.op_name == "mul"
    assert first.children[0] == MapApply("a", 1, MapApply("b", 1, Var("x")))


def test_cyclic_sum_node():
    ident = parse_identity("forall x,y,z: cyc(x,y,z){ br(br(b(x), a(y)), a^2(z)) } = 0")
    assert len(ident.terms) == 1
    node = ident.terms[0][1]
    assert isinstance(node, CycSum) and node.cycle_vars == ("x", "y", "z")
    # expansion: three rotations of one monomial
    expanded = expand_identity(ident)
    assert len(expanded) == 3
    vars_per_monomial = set()
    for coeff, mono in expanded:
        assert coeff == 1
        vars_per_monomial.add(print_identity(Identity(ident.vars, ((1, mono),))))
    assert len(vars_per_monomial) == 3


def test_rotation_convention():
    ident = parse_identity("forall x,y,z: cyc(x,y,z){ mul(x, mul(y, z)) } = 0")
    monos = [m for _, m in expand_identity(ident)]
    first_args = [m.children[0] for m in monos]
    assert first_args == [Var("x"), Var("y"), Var("z")]


def test_nonlinear_term_rejected():
    with pytest.raises(LinearityViolation) as info:
        parse_identity("forall x: mul(x, x) = 0")
    assert info.value.variable == "x"


@pytest.mark.parametrize("text", ["forall x: {n}*a(x) = 0", "forall x: a^{n}(x) = 0"])
def test_overlong_number_is_a_syntax_error(text):
    """int() refuses more than 4300 digits with a ValueError; the parser
    reports it as a syntax error, so the CLI exits 2 instead of crashing."""
    with pytest.raises(TextSyntaxError, match="number too long"):
        parse_identity(text.format(n="1" * 5000))


def test_missing_variable_rejected():
    # y never occurs in the monomial
    with pytest.raises(LinearityViolation):
        parse_identity("forall x,y: a(x) = 0")


def test_undeclared_variable_rejected():
    with pytest.raises(LinearityViolation):
        parse_identity("forall x: mul(x, w) = 0")


def test_cyc_expansion_checked_for_linearity():
    # after rotation the monomial mentions y twice
    with pytest.raises(LinearityViolation):
        parse_identity("forall x,y: cyc(x,y){ mul(x, x) } = 0")


@pytest.mark.parametrize(
    "text, position",
    [
        ("forall x,y,z: mul(cyc(x,y){ br(x,y) }, z) = 0", 18),
        ("forall x: a(cyc(x){x}) = 0", 12),
    ],
)
def test_cyc_inside_a_call_is_a_syntax_error(text, position):
    with pytest.raises(TextSyntaxError, match=f"at position {position}: cyc"):
        parse_identity(text)


def test_syntax_error_position():
    with pytest.raises(TextSyntaxError):
        parse_identity("forall x,: a(x) = 0")
    with pytest.raises(TextSyntaxError):
        parse_identity("forall x: a(x) = 1")
    with pytest.raises(TextSyntaxError):
        parse_identity("forall x: a(x = 0")


def test_power_only_on_calls():
    with pytest.raises(TextSyntaxError):
        parse_identity("forall x: mul^2(x, x) = 0")
    with pytest.raises(TextSyntaxError):
        parse_identity("forall x: x^2 = 0")


def test_reserved_names():
    with pytest.raises(TextSyntaxError):
        parse_identity("forall cyc: a(cyc) = 0")


def test_argument_sums_distribute():
    ident = parse_identity("forall x,y: mul(a(x) + 2*b(x), y) = 0")
    assert [c for c, _ in ident.terms] == [1, 2]
    ident = parse_identity("forall x,y: 3*mul(a(x) - b(x), 2*y) = 0")
    assert sorted(c for c, _ in ident.terms) == [-6, 6]


def test_map_of_sum_distributes():
    ident = parse_identity("forall x: a(b(x) + x) = 0")
    assert len(ident.terms) == 2
    assert ident.terms[0][1] == MapApply("a", 1, MapApply("b", 1, Var("x")))
    assert ident.terms[1][1] == MapApply("a", 1, Var("x"))


def test_zero_power_collapses():
    ident = parse_identity("forall x: a^0(x) - x = 0")
    assert ident.terms[0][1] == Var("x")


def test_print_parse_round_trip_on_library():
    for identity_id, ident in IDENTITIES.items():
        text = print_identity(ident)
        assert parse_identity(text) == ident, identity_id


def test_negative_powers_round_trip():
    text = "forall x,y: br(b^-1(x), a^-2(y)) = 0"
    ident = parse_identity(text)
    assert parse_identity(print_identity(ident)) == ident


def test_identity_file_ids():
    text = """
# a comment without an id
# id: first
forall x,y: mul(x, y) - mul(y, x) = 0
# id: second
forall x: a(x) - b(x) = 0
"""
    idents = parse_identity_file(text)
    assert list(idents) == ["first", "second"]
    assert idents["second"].vars == ("x",)


def test_identity_file_repeated_id():
    """A repeated id is refused at its second comment: keyed by id, the
    first law would be dropped without a verdict."""
    text = "# id: twice\nforall x: a(x) = 0\n# id: twice\nforall x: b(x) = 0\n"
    with pytest.raises(TextSyntaxError) as info:
        parse_identity_file(text)
    assert info.value.position == text.index("# id: twice", 1)
    assert "repeated id 'twice'" in str(info.value)
