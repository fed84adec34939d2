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

The grammar is written once, in the scanner (``_scan``), which reads
the text in place with no token list.  It steps over whitespace, ``x``,
``+`` and parentheses itself, and takes each constructor as its span up
to the next ``)``, so a span already met in the same text is its atom
in one dictionary lookup.  ``_lex`` runs only to report an error, once
per failing text: where the scanner stops, it knows the offset and what
it wanted there, and the error is raised from the token at that offset
(``_constructor`` names what is wrong in a constructor span); where an
atom class or a union refuses its operands, that error stands.  Either
way the whole text is lexed first, so a bad character is reported
before any other error.
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
    """``(kind, text, pos)`` tuples: kind INT, NAME, "(),;+x" or END."""
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
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            # each leading "x" of the run is the product operator
            while i < j and text[i] == "x":
                tokens.append(("x", "x", i))
                i += 1
            if i < j:
                tokens.append(("NAME", text[i:j], i))
                i = j
        elif ch in "(),;+":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


def _unexpected(token: tuple, expected: tuple) -> ParseError:
    got = "end of input" if token[0] == "END" else repr(token[1])
    return ParseError(f"unexpected {got}", token[2], expected)


class _Stop(Exception):
    """The scanner's stop: ``(offset, expected)``, the tokens it would have
    accepted there; an empty ``expected`` is a "(" beyond ``_MAX_DEPTH``."""


_OPERAND = ("constructor name", "'('")
_AFTER = ("'x'", "'+'", "end of input")


_ATOMS = {cls.name: cls for cls in Atom.__subclasses__()}

# The input's nesting bound; the descent takes one frame per open parenthesis.
_MAX_DEPTH = 200


def parse_variety(text: str) -> VarietyExpr:
    """Parse ``text`` into a variety expression.

    Equal atoms within ``text`` are one object, built and validated once,
    and a constructor span written again is read once per call; no atom is
    shared with another call's tree.  ``_lex`` runs only on text the
    scanner stops on or an atom or a union refuses, to report the error.

    >>> parse_variety("Curve(1) x P(1)")
    Product(left=Curve(g=1), right=ProjSpace(n=1))
    """
    try:
        expr, i = _scan(text, 0, 0, {})
    except _Stop as stop:
        i, expected = stop.args
    except ValueError:  # an atom or a union refused its operands
        _lex(text)  # a bad character anywhere is reported first
        raise
    else:
        if i == len(text):
            return expr
        expected = _AFTER
    toks = _lex(text)
    k = 0
    while toks[k][2] < i:
        k += 1
    kind, word, pos = toks[k]
    if not expected:
        raise ParseError("parenthesis nesting too deep", pos)
    if expected is _AFTER:
        raise ParseError(f"unexpected {word!r} after expression", pos, _AFTER)
    if expected is _OPERAND and kind == "NAME":
        _constructor(toks, k)  # raises: the scanner refused this span
    raise _unexpected(toks[k], expected)


def _scan(text: str, i: int, depth: int, atoms: dict) -> tuple:
    """Read "expr" inside ``depth`` open parentheses from ``text[i]``,
    sharing the call's ``atoms`` with ``_span_atom``: (tree, the index of
    the first character after it that is neither whitespace nor an
    operator), or ``_Stop`` at the first character the grammar does not
    accept.  An operand is a group one level deeper or a constructor,
    read as its span up to the next ")"."""
    end = len(text)
    union = prod = None
    while True:
        while i < end and text[i].isspace():
            i += 1
        if i < end and text[i] == "(":
            if depth == _MAX_DEPTH:
                raise _Stop(i, ())
            expr, i = _scan(text, i + 1, depth + 1, atoms)
            if i == end or text[i] != ")":
                raise _Stop(i, ("')'",))
            i += 1
        else:
            close = text.find(")", i) + 1  # 0 with no ")": span "", refused
            span = text[i:close]
            expr = atoms.get(span)
            if expr is None:
                expr = _span_atom(span, atoms)
                if expr is None:
                    raise _Stop(i, _OPERAND)
            i = close
        if prod is not None:
            expr = Product(prod, expr)
        while i < end and text[i].isspace():
            i += 1
        kind = text[i] if i < end else ""
        if kind != "x":
            if union is not None:
                expr = DisjointUnion(union, expr)
            if kind != "+":
                return expr, i
            union, expr = expr, None  # the next operand starts a product
        prod, i = expr, i + 1


def _span_atom(span: str, atoms: dict):
    """The atom that ``span``, one ``NAME(args)`` up to its ")", writes,
    stored in ``atoms`` under the span itself; or None where the span is
    not one well-formed constructor.  Equal arguments are one atom, so
    ``P(1)``, ``P( 1)`` and ``P(01)`` are one object."""
    name, paren, args = span[:-1].partition("(")
    cls = _ATOMS.get(name.rstrip())
    if cls is None or not paren:
        return None
    first, semi, rest = args.partition(";")
    values = []
    for arg in (first, *rest.split(",")) if semi else first.split(","):
        arg = arg.strip()  # the whitespace str.isspace accepts, as _lex skips it
        if not (arg.isascii() and arg.isdigit()) or len(arg) > _MAX_LITERAL_DIGITS:
            return None
        values.append(int(arg))
    # ``semi`` is part of the key: "Gr(1;3)" must fail even after "Gr(1,3)".
    key = (cls, bool(semi), tuple(values))
    atom = atoms.get(key)
    if atom is None:
        atom = atoms[key] = cls._from_args(values, bool(semi))
    atoms[span] = atom
    return atom


def _constructor(toks: list, i: int) -> None:
    """Raise the first syntax error in the ``NAME(args)`` at ``toks[i]``,
    a span the scanner refused."""
    _, name, pos = toks[i]
    if name not in _ATOMS:
        raise ParseError(f"unknown constructor {name!r}", pos, tuple(_ATOMS))
    i += 1
    if toks[i][0] != "(":
        raise _unexpected(toks[i], ("'('",))
    seps = (";", ",")  # a ";" may follow the first integer only
    while True:
        i += 1
        if toks[i][0] != "INT":
            raise _unexpected(toks[i], ("integer",))
        i += 1
        if toks[i][0] not in seps:
            break
        seps = (",",)
    if toks[i][0] != ")":
        raise _unexpected(toks[i], ("')'",))
