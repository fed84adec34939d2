"""Recursive-descent parser for the variety expression language.

Grammar (whitespace-insensitive, both operators left-associative, the
product operator ``x`` binding tighter than the union operator ``+``):

    expr := prod { "+" prod }
    prod := atom { "x" atom }
    atom := NAME "(" args ")" | "(" expr ")"
    args := INT { "," INT } | INT ";" INT { "," INT }

The semicolon argument form belongs to CI alone: ``CI(n; d1,...,dc)``.
Every input either yields a valid tree or raises ``ParseError`` (with the
offset and the tokens that would have been accepted) or ``SemanticError``.
"""

from collections import namedtuple

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


# kind is INT, NAME, one of "(),;+x", or END; value is an INT's value.
_Token = namedtuple("_Token", "kind text pos value", defaults=(0,))


# Every integer the program prints has at most MAX_INT_DIGITS decimal
# digits, Python's default limit for int/str conversion.  Literals have at
# most 2000, so that a dimension built from them (k*(n-k), summed over the
# factors of a product) would need 10**300 factors to reach that limit.
MAX_INT_DIGITS = 4300
_MAX_LITERAL_DIGITS = 2000


def _lex(text: str) -> list:
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
            word = text[i:j]
            tokens.append(_Token("x" if word == "x" else "NAME", word, i))
            i = j
            continue
        if ch in "(),;+":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


_ATOMS = {cls.name: cls for cls in Atom.__subclasses__()}

# Guards against pathological paren nesting blowing the interpreter stack.
_MAX_DEPTH = 200


class _Parser:
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

    def parse(self) -> VarietyExpr:
        expr = self._sum()
        tok = self._peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r} after expression",
                             tok.pos, ("'x'", "'+'", "end of input"))
        return expr

    def _sum(self) -> VarietyExpr:
        expr = self._prod()
        while self._peek().kind == "+":
            self._advance()
            expr = DisjointUnion(expr, self._prod())
        return expr

    def _prod(self) -> VarietyExpr:
        expr = self._atom()
        while self._peek().kind == "x":
            self._advance()
            expr = Product(expr, self._atom())
        return expr

    def _atom(self) -> VarietyExpr:
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

    def _constructor(self) -> VarietyExpr:
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


def parse_variety(text: str) -> VarietyExpr:
    """Parse ``text`` into a variety expression.

    >>> parse_variety("Curve(1) x P(1)")
    Product(left=Curve(g=1), right=ProjSpace(n=1))
    """
    return _Parser(_lex(text)).parse()
