"""The multilinear-identity DSL: parser, printer and linearity validator.

Grammar (files use extension .idl, UTF-8, "#" starts a comment to end of line):

    identity := "forall" ident ("," ident)* ":" expr "=" "0"
    expr     := term (("+"|"-") term)*
    term     := [nat "*"] factor
    factor   := "cyc" "(" ident ("," ident)* ")" "{" expr "}"
              | ident ["^" sint] "(" expr ("," expr)* ")"
              | ident
              | "(" expr ")"

Unary calls are bundle maps (an integer power suffix is allowed, e.g. b^-2);
calls with two or more arguments are bundle operations. Names resolve against
a bundle only at evaluation time.

Tokenizer is the package's one scanner: scalars.parse_scalar reads
coefficient text from its tokens too (that grammar adds "/" and refuses "#").
Malformed text in either grammar raises TextSyntaxError with its position.

An identity is stored as a flat sum of integer-weighted monomial trees: sums
appearing inside call arguments are distributed out (maps are linear and ops
multilinear, so this is exact). A cyclic sum is a term of the identity (or
of another cyclic sum), never a call argument. Each monomial must mention
every declared variable exactly once, which is what licenses deciding an
identity on basis tuples alone; the validator enforces this on the
monomials of expand_identity's cyclic expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import LinearityViolation, TextSyntaxError

RESERVED = {"forall", "cyc"}


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class MapApply:
    map_name: str
    power: int
    child: "Node"


@dataclass(frozen=True)
class OpApply:
    op_name: str
    children: tuple


@dataclass(frozen=True)
class CycSum:
    cycle_vars: tuple
    body: tuple  # of (int, Node)


Node = object  # Var | MapApply | OpApply | CycSum


@dataclass(frozen=True)
class Identity:
    vars: tuple
    terms: tuple  # of (int, Node)


# ---------------------------------------------------------------------------
# substitution and cyclic expansion
# ---------------------------------------------------------------------------


def substitute(node: Node, mapping: Mapping[str, str]) -> Node:
    if isinstance(node, Var):
        return Var(mapping.get(node.name, node.name))
    if isinstance(node, MapApply):
        return MapApply(node.map_name, node.power, substitute(node.child, mapping))
    if isinstance(node, OpApply):
        return OpApply(node.op_name, tuple(substitute(c, mapping) for c in node.children))
    if isinstance(node, CycSum):
        cycle = tuple(mapping.get(v, v) for v in node.cycle_vars)
        body = tuple((c, substitute(n, mapping)) for c, n in node.body)
        return CycSum(cycle, body)
    raise TypeError(f"not a node: {node!r}")


def _rotations(names: Sequence[str]):
    """Substitution maps for the cyclic sum over the listed variables:
    identity, then each rotation x->y, y->z, ..., last->first."""
    n = len(names)
    for shift in range(n):
        yield {names[i]: names[(i + shift) % n] for i in range(n)}


def _expand_signed(coeff: int, node: Node):
    if isinstance(node, CycSum):
        out = []
        for rot in _rotations(node.cycle_vars):
            for c, n in node.body:
                out.extend(_expand_signed(coeff * c, substitute(n, rot)))
        return out
    return [(coeff, node)]


def expand_identity(ident: Identity) -> list:
    """All (coeff, cyc-free monomial) pairs of the identity."""
    return [m for coeff, node in ident.terms for m in _expand_signed(coeff, node)]


def _count_vars(node: Node, counts: dict):
    if isinstance(node, Var):
        counts[node.name] = counts.get(node.name, 0) + 1
    elif isinstance(node, MapApply):
        _count_vars(node.child, counts)
    elif isinstance(node, OpApply):
        for c in node.children:
            _count_vars(c, counts)
    else:
        raise TypeError(f"unexpected node in expanded monomial: {node!r}")


def validate_linearity(ident: Identity):
    """Every declared variable must occur exactly once in every fully
    cyc-expanded monomial."""
    for index, (coeff, node) in enumerate(ident.terms):
        for _, mono in _expand_signed(coeff, node):
            counts: dict = {}
            _count_vars(mono, counts)
            for v in ident.vars:
                if counts.get(v, 0) != 1:
                    raise LinearityViolation(v, index, counts.get(v, 0))
            for name in counts:
                if name not in ident.vars:
                    raise LinearityViolation(name, index, counts[name])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class Tokenizer:
    """Tokens of both text grammars, .idl laws and coefficients: ("name",
    text, pos), ("nat", digits, pos), one punctuation character (kind and
    text alike), and a final ("end", "", len(text)). Whitespace and "#"
    comments are skipped."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        pos = 0
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch == "#":
                while pos < n and text[pos] != "\n":
                    pos += 1
                continue
            if ch.isalpha() or ch == "_":
                start = pos
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                self.tokens.append(("name", text[start:pos], start))
                continue
            if ch.isdecimal():
                start = pos
                while pos < n and text[pos].isdecimal():
                    pos += 1
                self.tokens.append(("nat", text[start:pos], start))
                continue
            if ch in "+-*/^(){},:=":
                self.tokens.append((ch, ch, pos))
                pos += 1
                continue
            raise TextSyntaxError(pos, f"unexpected character {ch!r}")
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise TextSyntaxError(tok[2], f"expected {kind!r}, got {tok[1]!r}")
        return tok

    @staticmethod
    def nat(tok) -> int:
        """The value of a "nat" token."""
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            raise TextSyntaxError(tok[2], "number too long") from None


class _IdentityParser:
    """Recursive descent; returns identities as distributed term lists."""

    def __init__(self, text: str):
        self.toks = Tokenizer(text)
        self.call_depth = 0  # cyc sums are terms of an identity, never arguments

    def parse_identity(self) -> Identity:
        ident = self._identity()
        tok = self.toks.peek()
        if tok[0] != "end":
            raise TextSyntaxError(tok[2], "trailing input after identity")
        return ident

    def parse_many(self) -> list:
        """All identities in a file, in order."""
        out = []
        while self.toks.peek()[0] != "end":
            out.append(self._identity())
        return out

    def _identity(self) -> Identity:
        tok = self.toks.expect("name")
        if tok[1] != "forall":
            raise TextSyntaxError(tok[2], "identity must start with 'forall'")
        names = [self._var_name()]
        while self.toks.peek()[0] == ",":
            self.toks.next()
            names.append(self._var_name())
        if len(set(names)) != len(names):
            raise TextSyntaxError(tok[2], "duplicate variable in forall")
        self.toks.expect(":")
        terms = self._expr()
        self.toks.expect("=")
        zero = self.toks.expect("nat")
        if zero[1] != "0":
            raise TextSyntaxError(zero[2], "right-hand side must be 0")
        ident = Identity(tuple(names), tuple(terms))
        validate_linearity(ident)
        return ident

    def _var_name(self) -> str:
        tok = self.toks.expect("name")
        if tok[1] in RESERVED:
            raise TextSyntaxError(tok[2], f"{tok[1]!r} is reserved")
        return tok[1]

    def _expr(self) -> list:
        terms = list(self._term(1))
        while True:
            kind = self.toks.peek()[0]
            if kind == "+":
                self.toks.next()
                terms.extend(self._term(1))
            elif kind == "-":
                self.toks.next()
                terms.extend(self._term(-1))
            else:
                return terms

    def _term(self, sign: int) -> list:
        coeff = sign
        tok = self.toks.peek()
        if tok[0] == "nat":
            self.toks.next()
            coeff *= self.toks.nat(tok)
            self.toks.expect("*")
        return [(coeff * c, node) for c, node in self._factor()]

    def _factor(self) -> list:
        tok = self.toks.peek()
        if tok[0] == "(":
            self.toks.next()
            inner = self._expr()
            self.toks.expect(")")
            return inner
        if tok[0] != "name":
            raise TextSyntaxError(tok[2], f"expected a factor, got {tok[1]!r}")
        self.toks.next()
        name = tok[1]
        if name == "cyc":
            if self.call_depth:
                raise TextSyntaxError(tok[2], "cyc is not allowed inside a call")
            return [self._cyc(tok[2])]
        power = None
        if self.toks.peek()[0] == "^":
            self.toks.next()
            power = self._signed_int()
        if self.toks.peek()[0] == "(":
            return self._call(name, power, tok[2])
        if power is not None:
            raise TextSyntaxError(tok[2], "power suffix requires a call")
        if name in RESERVED:
            raise TextSyntaxError(tok[2], f"{name!r} is reserved")
        return [(1, Var(name))]

    def _signed_int(self) -> int:
        sign = 1
        tok = self.toks.peek()
        if tok[0] == "-":
            self.toks.next()
            sign = -1
        tok = self.toks.expect("nat")
        return sign * self.toks.nat(tok)

    def _cyc(self, pos: int):
        self.toks.expect("(")
        names = [self._var_name()]
        while self.toks.peek()[0] == ",":
            self.toks.next()
            names.append(self._var_name())
        self.toks.expect(")")
        if len(set(names)) != len(names):
            raise TextSyntaxError(pos, "duplicate variable in cyc")
        self.toks.expect("{")
        body = self._expr()
        self.toks.expect("}")
        return (1, CycSum(tuple(names), tuple(body)))

    def _call(self, name: str, power, pos: int) -> list:
        self.toks.expect("(")
        self.call_depth += 1
        arg_lists = [self._expr()]
        while self.toks.peek()[0] == ",":
            self.toks.next()
            arg_lists.append(self._expr())
        self.call_depth -= 1
        self.toks.expect(")")
        if len(arg_lists) == 1:
            # unary call: a map application, linear in its argument
            power = 1 if power is None else power
            out = []
            for c, node in arg_lists[0]:
                out.append((c, node) if power == 0 else (c, MapApply(name, power, node)))
            return out
        if power is not None:
            raise TextSyntaxError(pos, "power suffix is only allowed on maps")
        # distribute: ops are multilinear in every slot
        out = [(1, ())]
        for args in arg_lists:
            out = [
                (c0 * c, children + (node,))
                for c0, children in out
                for c, node in args
            ]
        return [(c, OpApply(name, children)) for c, children in out]


def parse_identity(text: str) -> Identity:
    """Parse one identity declaration (linearity-validated)."""
    return _IdentityParser(text).parse_identity()


def parse_identities(text: str) -> list:
    """Parse a whole .idl file: every declaration, in order."""
    return _IdentityParser(text).parse_many()


def parse_identity_file(text: str) -> dict:
    """Parse a .idl file where each declaration is preceded by a comment line
    '# id: <name>', each name used once. Returns {id: Identity} in order."""
    ids, pos = [], 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("# id:"):
            ids.append(stripped[len("# id:") :].strip())
            if ids[-1] in ids[:-1]:
                raise TextSyntaxError(pos + line.index("#"), f"repeated id {ids[-1]!r}")
        pos += len(line)
    idents = parse_identities(text)
    if len(ids) != len(idents):
        raise TextSyntaxError(
            0, f"file declares {len(idents)} identities but names {len(ids)}"
        )
    return dict(zip(ids, idents))


# ---------------------------------------------------------------------------
# printing (parse ∘ print is the identity on ASTs)
# ---------------------------------------------------------------------------


def _print_node(node: Node) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, MapApply):
        head = node.map_name if node.power == 1 else f"{node.map_name}^{node.power}"
        return f"{head}({_print_node(node.child)})"
    if isinstance(node, OpApply):
        return f"{node.op_name}(" + ", ".join(_print_node(c) for c in node.children) + ")"
    if isinstance(node, CycSum):
        return (
            "cyc(" + ",".join(node.cycle_vars) + "){ " + _print_terms(node.body) + " }"
        )
    raise TypeError(f"not a node: {node!r}")


def _print_terms(terms) -> str:
    parts = []
    for i, (coeff, node) in enumerate(terms):
        mag = abs(coeff)
        body = _print_node(node) if mag == 1 else f"{mag}*{_print_node(node)}"
        if i == 0:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts)


def print_identity(ident: Identity) -> str:
    return f"forall {','.join(ident.vars)}: {_print_terms(ident.terms)} = 0"
