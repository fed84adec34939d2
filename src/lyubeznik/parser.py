"""Recursive-descent parser for the variety expression language.

Grammar (both operators left-associative, the product operator ``x``
binding tighter than the union operator ``+``):

    expr := prod { "+" prod }
    prod := atom { "x" atom }
    atom := NAME "(" args ")" | "(" expr ")"
    args := INT { "," INT } | INT ";" INT { "," INT }

Lexical rules: any Unicode whitespace (``str.isspace``) is ignored; an
INT is a run of ASCII digits, at most 2000 of them; a NAME is a run of
letters (``str.isalpha``); ``x`` is always the product operator, also
glued to a name as in ``P(1)xP(1)``, since no constructor name starts
with ``x``.  Any other character is a syntax error.

Each atom class reads its own argument list (``Atom._from_args``,
beside the ``text()`` it inverts): the semicolon form belongs to CI
alone, ``CI(n; d1,...,dc)``.  Within one parse, equal atoms are built
once and shared by every place that writes them.  Every input either
yields a valid tree or raises ``ParseError`` (with the offset and the
tokens that would have been accepted) or ``SemanticError``; a bad
character is reported before any syntax error.
"""

from .variety import Atom, DisjointUnion, Product, VarietyExpr


class ParseError(ValueError):
    """Syntax error carrying the offset and the acceptable next tokens."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} (offset {position}"
        if self.expected:
            detail += ", expected " + " or ".join(self.expected)
        detail += ")"
        super().__init__(detail)


# Literals have at most 2000 digits, so that a dimension built from them
# (k*(n-k), summed over the factors of a product) would need 10**300 factors
# to reach 4300, the digits the command line prints (Python's int/str limit).
_MAX_LITERAL_DIGITS = 2000


def _lex(text: str) -> list:
    """``(kind, text, pos, value)`` tuples: kind INT, NAME, "(),;+x" or END."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > _MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal longer than "
                                 f"{_MAX_LITERAL_DIGITS} digits", i)
            tokens.append(("INT", text[i:j], i, int(text[i:j])))
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            # each leading "x" of the run is the product operator
            while i < j and text[i] == "x":
                tokens.append(("x", "x", i, 0))
                i += 1
            if i < j:
                tokens.append(("NAME", text[i:j], i, 0))
                i = j
        elif ch in "(),;+":
            tokens.append((ch, ch, i, 0))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n, 0))
    return tokens


def _unexpected(token: tuple, expected: tuple) -> ParseError:
    got = "end of input" if token[0] == "END" else repr(token[1])
    return ParseError(f"unexpected {got}", token[2], expected)


_ATOMS = {cls.name: cls for cls in Atom.__subclasses__()}

# The input's nesting bound; the descent takes one frame per open parenthesis.
_MAX_DEPTH = 200


def parse_variety(text: str) -> VarietyExpr:
    """Parse ``text`` into a variety expression.

    Equal atoms within ``text`` are one object, built and validated once;
    no atom is shared with another call's tree.

    >>> parse_variety("Curve(1) x P(1)")
    Product(left=Curve(g=1), right=ProjSpace(n=1))
    """
    toks = _lex(text)
    expr, i = _group(toks, 0, 0, {})
    kind, word, pos, _ = toks[i]
    if kind != "END":
        raise ParseError(f"unexpected {word!r} after expression", pos,
                         ("'x'", "'+'", "end of input"))
    return expr


def _group(toks: list, i: int, depth: int, atoms: dict) -> tuple:
    """Read "expr" inside ``depth`` open parentheses from ``toks[i]``,
    sharing the parse's ``atoms`` with ``_constructor``.  An operand is a
    constructor or a group one level deeper; ``x`` extends the product,
    ``+`` adds it to the union, and any other token ends the group: (tree,
    that token's index) go back to the caller to check ")" or END."""
    union = prod = None
    while True:
        kind, _, pos, _ = toks[i]
        if kind == "NAME":
            expr, i = _constructor(toks, i, atoms)
        elif kind != "(":
            raise _unexpected(toks[i], ("constructor name", "'('"))
        elif depth == _MAX_DEPTH:
            raise ParseError("parenthesis nesting too deep", pos)
        else:
            expr, i = _group(toks, i + 1, depth + 1, atoms)
            if toks[i][0] != ")":
                raise _unexpected(toks[i], ("')'",))
            i += 1
        if prod is not None:
            expr = Product(prod, expr)
        kind = toks[i][0]
        if kind != "x":
            if union is not None:
                expr = DisjointUnion(union, expr)
            if kind != "+":
                return expr, i
            union, expr = expr, None  # the next operand starts a product
        prod, i = expr, i + 1


def _constructor(toks: list, i: int, atoms: dict) -> tuple:
    """Read one ``NAME(args)`` from ``toks[i]``: the atom already in
    ``atoms`` under the same class and arguments, or a new one stored
    there once its class has accepted them."""
    _, name, pos, _ = toks[i]
    cls = _ATOMS.get(name)
    if cls is None:
        raise ParseError(f"unknown constructor {name!r}", pos, tuple(_ATOMS))
    i += 1
    if toks[i][0] != "(":
        raise _unexpected(toks[i], ("'('",))
    # A ";" may follow the first integer only; the atom class decides.
    values, semi = [], False
    while True:
        i += 1
        kind, _, _, value = toks[i]
        if kind != "INT":
            raise _unexpected(toks[i], ("integer",))
        values.append(value)
        i += 1
        sep = toks[i][0]
        if sep == ";" and len(values) == 1:
            semi = True
        elif sep != ",":
            break
    if sep != ")":
        raise _unexpected(toks[i], ("')'",))
    # ``semi`` is part of the key: "Gr(1;3)" must fail even after "Gr(1,3)".
    key = (cls, semi, tuple(values))
    atom = atoms.get(key)
    if atom is None:
        atom = atoms[key] = cls._from_args(values, semi)
    return atom, i + 1
