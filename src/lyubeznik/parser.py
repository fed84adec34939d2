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

The semicolon argument form belongs to CI alone: ``CI(n; d1,...,dc)``.
Every input either yields a valid tree or raises ``ParseError`` (with the
offset and the tokens that would have been accepted) or ``SemanticError``;
a bad character is reported before any syntax error.
"""

from .variety import (
    Atom,
    CompleteIntersection,
    DisjointUnion,
    Product,
    SemanticError,
    VarietyExpr,
)


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


# Every integer the program prints has at most MAX_INT_DIGITS decimal
# digits, Python's default limit for int/str conversion.  Literals have at
# most 2000, so that a dimension built from them (k*(n-k), summed over the
# factors of a product) would need 10**300 factors to reach that limit.
MAX_INT_DIGITS = 4300
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

# Guards against pathological paren nesting blowing the interpreter stack.
_MAX_DEPTH = 200


def parse_variety(text: str) -> VarietyExpr:
    """Parse ``text`` into a variety expression.

    >>> parse_variety("Curve(1) x P(1)")
    Product(left=Curve(g=1), right=ProjSpace(n=1))
    """
    toks = _lex(text)
    i = 0  # index of the next unread token

    def union(depth):
        nonlocal i
        expr = product(depth)
        while toks[i][0] == "+":
            i += 1
            expr = DisjointUnion(expr, product(depth))
        return expr

    def product(depth):
        nonlocal i
        expr = atom(depth)
        while toks[i][0] == "x":
            i += 1
            expr = Product(expr, atom(depth))
        return expr

    def atom(depth):
        # depth counts the parentheses open around this atom
        nonlocal i
        kind, _, pos, _ = toks[i]
        if kind == "NAME":
            return constructor()
        if kind != "(":
            raise _unexpected(toks[i], ("constructor name", "'('"))
        if depth == _MAX_DEPTH:
            raise ParseError("parenthesis nesting too deep", pos)
        i += 1
        expr = union(depth + 1)
        if toks[i][0] != ")":
            raise _unexpected(toks[i], ("')'",))
        i += 1
        return expr

    def constructor():
        nonlocal i
        _, name, pos, _ = toks[i]
        cls = _ATOMS.get(name)
        if cls is None:
            raise ParseError(f"unknown constructor {name!r}", pos,
                             tuple(_ATOMS))
        i += 1
        if toks[i][0] != "(":
            raise _unexpected(toks[i], ("'('",))
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
        i += 1
        # The semicolon form belongs to CI alone; every other atom takes
        # its fields as a comma list.
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

    try:
        expr = union(0)
        kind, word, pos, _ = toks[i]
        if kind != "END":
            raise ParseError(f"unexpected {word!r} after expression", pos,
                             ("'x'", "'+'", "end of input"))
        return expr
    finally:
        del union  # atom calls union: a cycle that would keep toks alive
