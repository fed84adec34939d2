"""Parser behavior: grammar, errors, and the parse/render round trip."""

import gc
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import variety_exprs
from lyubeznik import (
    Abelian,
    CompleteIntersection,
    Curve,
    DimensionMismatchError,
    DisjointUnion,
    Grassmannian,
    Hypersurface,
    ParseError,
    Product,
    ProjSpace,
    SemanticError,
    dimension,
    parse_variety,
    render,
)
from lyubeznik.parser import _ATOMS, _MAX_DEPTH, _MAX_LITERAL_DIGITS


def test_parse_atoms():
    assert parse_variety("P(2)") == ProjSpace(2)
    assert parse_variety("Gr(2,4)") == Grassmannian(2, 4)
    assert parse_variety("Curve(0)") == Curve(0)
    assert parse_variety("Ab(3)") == Abelian(3)
    assert parse_variety("Hyp(4,5)") == Hypersurface(4, 5)
    assert parse_variety("CI(5; 2,3)") == CompleteIntersection(5, (2, 3))


def test_parse_operators():
    assert parse_variety("Curve(1) x P(1)") == Product(Curve(1), ProjSpace(1))
    assert parse_variety("P(2) + P(2)") == DisjointUnion(ProjSpace(2), ProjSpace(2))


def test_product_binds_tighter_than_union():
    expr = parse_variety("Curve(1) x P(1) + P(2)")
    assert expr == DisjointUnion(Product(Curve(1), ProjSpace(1)), ProjSpace(2))


def test_left_associativity():
    expr = parse_variety("P(1) x P(1) x P(2)")
    assert expr == Product(Product(ProjSpace(1), ProjSpace(1)), ProjSpace(2))
    expr = parse_variety("P(2) + P(2) + P(2)")
    assert expr == DisjointUnion(
        DisjointUnion(ProjSpace(2), ProjSpace(2)), ProjSpace(2))


def test_parentheses_override():
    expr = parse_variety("(P(1) + P(1)) x P(2)")
    assert expr == Product(DisjointUnion(ProjSpace(1), ProjSpace(1)), ProjSpace(2))
    assert parse_variety("((P(2)))") == ProjSpace(2)


def test_whitespace_insensitive():
    dense = parse_variety("Curve(1)x P(1)+P(2)")
    spread = parse_variety("  Curve( 1 )   x P(1)\t+\nP( 2 ) ")
    assert dense == spread == parse_variety("Curve(1) x P(1) + P(2)")


@pytest.mark.parametrize("text,position", [
    ("P(", 2),
    ("", 0),
    ("P(2", 3),
    ("P(2) x", 6),
    ("P()", 2),
    ("x P(2)", 0),
    ("P(2) P(3)", 5),
    ("P(2) %", 5),
    ("Q(2)", 0),
])
def test_syntax_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_variety(text)
    assert info.value.position == position


def test_syntax_errors_carry_expected_tokens():
    with pytest.raises(ParseError) as info:
        parse_variety("P(")
    assert "integer" in info.value.expected
    with pytest.raises(ParseError) as info:
        parse_variety("P(2")
    assert "')'" in info.value.expected


@pytest.mark.parametrize("text", [
    "Gr(3,3)",          # constraint violated
    "P(0)",             # dimension zero
    "P(2,3)",           # arity
    "Gr(2)",            # arity
    "Curve(1,2)",       # arity
    "CI(3, 4)",         # CI needs the semicolon form
    "P(2; 3)",          # only CI takes a semicolon
    "Hyp(1,2)",         # constraint violated
    "CI(3; 2,2,2)",     # dimension would drop below 1
])
def test_semantic_errors(text):
    with pytest.raises(SemanticError):
        parse_variety(text)


def test_union_dimension_mismatch_from_text():
    with pytest.raises(DimensionMismatchError):
        parse_variety("P(1) + P(2)")


def test_negative_argument_is_a_syntax_error():
    # integers in the grammar are unsigned digit runs
    with pytest.raises(ParseError):
        parse_variety("Curve(-1)")


def test_nesting_depth_is_bounded():
    deep = "(" * 500 + "P(1)" + ")" * 500
    with pytest.raises(ParseError):
        parse_variety(deep)


def test_canonical_examples_round_trip():
    for text in ["P(2)", "Gr(2,4)", "CI(5; 2,3)", "Curve(1) x P(1)",
                 "(P(1) + P(1)) x P(2)", "P(1) x (P(1) x P(2))",
                 "P(2) + (P(2) + P(2))"]:
        assert render(parse_variety(text)) == text


@settings(max_examples=200)
@given(variety_exprs())
def test_round_trip_parse_render(expr):
    assert parse_variety(render(expr)) == expr


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_parsing_is_total(text):
    # every input yields a tree or a structured error, never a crash
    try:
        parse_variety(text)
    except (ParseError, SemanticError):
        pass


def test_long_union_chain_round_trips():
    text = " + ".join(["P(1)"] * 20000)
    expr = parse_variety(text)
    assert dimension(expr) == 1
    assert render(expr) == text


# --- error bytes ------------------------------------------------------------

_NAMES = ("P", "Gr", "Curve", "Ab", "Hyp", "CI")
_ATOM_START = ("constructor name", "'('")
_AFTER = ("'x'", "'+'", "end of input")


_ERROR_BYTES = [
    ("%", "unexpected character '%' (offset 0)", 0, ()),
    ("P(²)", "unexpected character '²' (offset 2)", 2, ()),
    ("P(٣)", "unexpected character '٣' (offset 2)", 2, ()),
    ("P(" + "1" * 2001 + ")",
     "integer literal longer than 2000 digits (offset 2)", 2, ()),
    ("Q(2)", "unknown constructor 'Q' (offset 0, expected "
     "P or Gr or Curve or Ab or Hyp or CI)", 0, _NAMES),
    ("é", "unknown constructor 'é' (offset 0, expected "
     "P or Gr or Curve or Ab or Hyp or CI)", 0, _NAMES),
    ("", "unexpected end of input (offset 0, expected "
     "constructor name or '(')", 0, _ATOM_START),
    ("P(2) x", "unexpected end of input (offset 6, expected "
     "constructor name or '(')", 6, _ATOM_START),
    ("P(", "unexpected end of input (offset 2, expected integer)",
     2, ("integer",)),
    ("P(2", "unexpected end of input (offset 3, expected ')')", 3, ("')'",)),
    # the ')' that closes a parenthesized group
    ("(P(1)", "unexpected end of input (offset 5, expected ')')", 5, ("')'",)),
    ("(P(1) P(2))", "unexpected 'P' (offset 6, expected ')')", 6, ("')'",)),
    ("P(2) P(3)", "unexpected 'P' after expression (offset 5, expected "
     "'x' or '+' or end of input)", 5, _AFTER),
    ("P(2))", "unexpected ')' after expression (offset 4, expected "
     "'x' or '+' or end of input)", 4, _AFTER),
    ("P(2 3)", "unexpected '3' (offset 4, expected ')')", 4, ("')'",)),
    ("CI(3; 2; 3)", "unexpected ';' (offset 7, expected ')')", 7, ("')'",)),
    ("P()", "unexpected ')' (offset 2, expected integer)", 2, ("integer",)),
    ("P(2,)", "unexpected ')' (offset 4, expected integer)", 4, ("integer",)),
    ("P(x)", "unexpected 'x' (offset 2, expected integer)", 2, ("integer",)),
    ("P 2", "unexpected '2' (offset 2, expected '(')", 2, ("'('",)),
    ("3", "unexpected '3' (offset 0, expected "
     "constructor name or '(')", 0, _ATOM_START),
    (")", "unexpected ')' (offset 0, expected "
     "constructor name or '(')", 0, _ATOM_START),
    ("P(1) x+P(1)", "unexpected '+' (offset 6, expected "
     "constructor name or '(')", 6, _ATOM_START),
    ("(" * 201 + "P(1)" + ")" * 201,
     "parenthesis nesting too deep (offset 200)", 200, ()),
    # the whole text is lexed before any of it is parsed
    ("P(2) P(3) %", "unexpected character '%' (offset 10)", 10, ()),
    ("P(2,3) %", "unexpected character '%' (offset 7)", 7, ()),
    # a glued "x" is the product operator, never the start of a name
    ("xP(1)", "unexpected 'x' (offset 0, expected "
     "constructor name or '(')", 0, _ATOM_START),
    ("P(1) xx P(1)", "unexpected 'x' (offset 6, expected "
     "constructor name or '(')", 6, _ATOM_START),
]


@pytest.mark.parametrize("text,message,position,expected", _ERROR_BYTES,
                         ids=[row[0][:24] for row in _ERROR_BYTES])
def test_parse_error_bytes(text, message, position, expected):
    with pytest.raises(ParseError) as info:
        parse_variety(text)
    assert (str(info.value), info.value.position, info.value.expected) == (
        message, position, expected)


@pytest.mark.parametrize("text,message", [
    ("CI(3, 4)", "CI takes the form CI(n; d1,...,dc)"),
    ("CI(3)", "CI takes the form CI(n; d1,...,dc)"),
    ("P(2; 3)", "P does not take ';' arguments (only CI does)"),
    ("P(2,3)", "P takes 1 argument(s), got 2"),
    ("Gr(2)", "Gr takes 2 argument(s), got 1"),
    # semantic errors are raised in source order, before later syntax errors
    ("P(2,3) x Gr(2) )", "P takes 1 argument(s), got 2"),
    ("P(1) + P(2) x Gr(2)", "Gr takes 2 argument(s), got 1"),
])
def test_semantic_error_bytes(text, message):
    with pytest.raises(SemanticError) as info:
        parse_variety(text)
    assert str(info.value) == message
    assert not isinstance(info.value, ParseError)


def test_nesting_at_the_depth_limit_parses():
    assert parse_variety("(" * 200 + "P(1)" + ")" * 200) == ProjSpace(1)


def test_parsing_leaves_no_reference_cycles():
    # Garbage cycles would keep each parse's tokens alive until the cyclic
    # collector ran, so memory would grow with the length of the inputs.
    texts = ["(P(1) + P(1)) x P(2)", "P(1) x", "P(2,3)", "%", "(" * 201]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            try:
                parse_variety(text)
            except (ParseError, SemanticError):
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("text", ["P(1)xP(1)", "P(1) xP(1)", "P(1)x P(1)"])
def test_glued_x_is_the_product_operator(text):
    assert parse_variety(text) == parse_variety("P(1) x P(1)")


# --- differential check against the token-object parser ---------------------
# The parser as it stood with a token namedtuple and a parser class, plus
# the glued-"x" rule in its lexer; kept as the reference the plain-tuple
# parser must agree with on every input.

_Token = namedtuple("_Token", "kind text pos value", defaults=(0,))


def _reference_lex(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > _MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal longer than "
                                 f"{_MAX_LITERAL_DIGITS} digits", i)
            tokens.append(_Token("INT", text[i:j], i, int(text[i:j])))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            while i < j and text[i] == "x":
                tokens.append(_Token("x", "x", i))
                i += 1
            if i < j:
                tokens.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        if ch in "(),;+":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens: list):
        self._toks = tokens
        self._i = 0
        self._depth = 0

    def _peek(self) -> _Token:
        return self._toks[self._i]

    def _advance(self) -> _Token:
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str, expected: tuple) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            got = "end of input" if tok.kind == "END" else repr(tok.text)
            raise ParseError(f"unexpected {got}", tok.pos, expected)
        return self._advance()

    def parse(self):
        expr = self._sum()
        tok = self._peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r} after expression",
                             tok.pos, ("'x'", "'+'", "end of input"))
        return expr

    def _sum(self):
        expr = self._prod()
        while self._peek().kind == "+":
            self._advance()
            expr = DisjointUnion(expr, self._prod())
        return expr

    def _prod(self):
        expr = self._atom()
        while self._peek().kind == "x":
            self._advance()
            expr = Product(expr, self._atom())
        return expr

    def _atom(self):
        tok = self._peek()
        if tok.kind == "(":
            self._advance()
            self._depth += 1
            if self._depth > _MAX_DEPTH:
                raise ParseError("parenthesis nesting too deep", tok.pos)
            expr = self._sum()
            self._expect(")", ("')'",))
            self._depth -= 1
            return expr
        if tok.kind == "NAME":
            return self._constructor()
        got = "end of input" if tok.kind == "END" else repr(tok.text)
        raise ParseError(f"unexpected {got}", tok.pos,
                         ("constructor name", "'('"))

    def _int(self) -> int:
        return self._expect("INT", ("integer",)).value

    def _constructor(self):
        name_tok = self._advance()
        name = name_tok.text
        cls = _ATOMS.get(name)
        if cls is None:
            raise ParseError(f"unknown constructor {name!r}", name_tok.pos,
                             tuple(_ATOMS))
        self._expect("(", ("'('",))
        values = [self._int()]
        semi = self._peek().kind == ";"
        if semi:
            self._advance()
            values.append(self._int())
        while self._peek().kind == ",":
            self._advance()
            values.append(self._int())
        self._expect(")", ("')'",))
        if cls is CompleteIntersection:
            if not semi:
                raise SemanticError("CI takes the form CI(n; d1,...,dc)")
            return cls(values[0], tuple(values[1:]))
        if semi:
            raise SemanticError(f"{name} does not take ';' arguments (only CI does)")
        arity = len(cls.fields)
        if len(values) != arity:
            raise SemanticError(
                f"{name} takes {arity} argument(s), got {len(values)}")
        return cls(*values)


def _outcome(parse, text):
    try:
        return "tree", parse(text)
    except (ParseError, SemanticError) as exc:
        return (type(exc), str(exc), getattr(exc, "position", None),
                getattr(exc, "expected", None))


def _assert_parsers_agree(text):
    reference = _outcome(lambda t: _ReferenceParser(_reference_lex(t)).parse(), text)
    assert _outcome(parse_variety, text) == reference, ascii(text[:200])


# Grammar pieces, glued "x" forms, and characters on both sides of the
# lexer's classes: Unicode letters, spaces and digits that are not ASCII,
# and a lone surrogate.
_PIECES = st.sampled_from([
    "P", "Gr", "Curve", "Ab", "Hyp", "CI", "x", "xx", "xP", "X", "ｘ", "é",
    "(", ")", ",", ";", "+", "0", "1", "2", "3", "12", " ", "\t", "\n",
    "P(", "Gr(2,", "CI(5;", "2)", "3,", "2;", "1))",
    "　", "\x1c", "²", "٣", "Ⅻ", "%", "-", "\ud800",
])


@settings(max_examples=500)
@given(st.lists(st.one_of(_PIECES, st.characters()), max_size=40).map("".join))
def test_parser_matches_reference_on_text(text):
    _assert_parsers_agree(text)


@st.composite
def _near_grammatical(draw):
    """Atoms with argument lists of any shape, joined by operators and
    parentheses, with one piece spliced in at a random place: random text
    alone seldom gets past the first atom."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        if parts:
            parts.append(draw(st.sampled_from(["+", " x ", "x", "(", ")", ") + ("])))
        args = draw(st.lists(st.sampled_from(["0", "1", "2", "5"]), max_size=4))
        seps = draw(st.lists(st.sampled_from([",", ";", " , "]),
                             min_size=len(args), max_size=len(args)))
        body = "".join(sep + arg for sep, arg in zip(seps, args))[1:]
        parts.append(draw(st.sampled_from([*_ATOMS, "Q", "("])) + "(" + body + ")")
    text = "".join(parts)
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + draw(st.one_of(st.just(""), _PIECES)) + text[cut:]


@settings(max_examples=500)
@given(_near_grammatical())
def test_parser_matches_reference_near_the_grammar(text):
    _assert_parsers_agree(text)


_DIM_ONE_ATOMS = ["P(1)", "Curve(2)", "Ab(1)", "Hyp(2,3)", "CI(3; 2,2)"]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3000), st.sampled_from(["+", "x", "+x"]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 199, 200, 201]))
def test_parser_matches_reference_on_long_chains(atoms, ops, seed, nesting):
    rng = random.Random(seed)
    parts = [rng.choice(_DIM_ONE_ATOMS)]
    for _ in range(atoms - 1):
        parts += [rng.choice(["", " "]) + rng.choice(ops) + rng.choice(["", " "]),
                  rng.choice(_DIM_ONE_ATOMS)]
    text = "(" * nesting + "".join(parts) + ")" * nesting
    _assert_parsers_agree(text)
