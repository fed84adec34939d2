"""Parser for the variety expression language.

Grammar (both operators left-associative, the product operator ``x``
binding tighter than the union operator ``+``):

    expr := prod { "+" prod }
    prod := atom { "x" atom }
    atom := NAME "(" args ")" | "(" expr ")"
    args := INT { "," INT } | INT ";" INT { "," INT }

Lexical rules: any Unicode whitespace (``str.isspace``) is ignored; an
INT is a run of ASCII digits, at most 2000 of them; a NAME is a run of
letters (``str.isalpha``); an ``x`` that starts a token is the product
operator, also glued to a name as in ``P(1)xP(1)``, since no constructor
name starts with ``x``.  Any other character is a syntax error.

Each atom class reads its own argument list (``Atom._from_args``,
beside the ``text()`` it inverts): the semicolon form belongs to CI
alone, ``CI(n; d1,...,dc)``.  Within one parse, equal atoms are built
once and shared by every place that writes them.  Every input either
yields a valid tree or raises ``ParseError`` (with the offset and the
tokens that would have been accepted) or ``SemanticError``; a bad
character is reported before any syntax error.

The grammar is written once, in the scanner (``_scan``), which reads the
text as its ``)``-separated pieces with no token list and no recursion:
each piece but the first is blank, so its ``)`` closes a group, or an
operator, any ``(`` and a constructor that its ``)`` ends; a piece met
again in the same text is one dictionary lookup.  ``_lex`` runs only to
report an error, once per failing text.  Where the scanner stops, it
raises ``_syntax_error``, which names the first token at or after the
stop, or the first one out of place in a constructor span the scanner
refused.  Where an atom class or a union refuses its operands, that
error stands.  Either way the whole text is lexed first, so a bad
character is reported before any other error.
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
    """``(kind, text, pos)`` tuples: kind INT, NAME, "(),;+x" or END; no NAME starts "x"."""
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
        elif ch in "(),;+x":  # no constructor name starts with "x"
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


_OPERAND = ("constructor name", "'('")
_AFTER = ("'x'", "'+'", "end of input")


_ATOMS = {cls.name: cls for cls in Atom.__subclasses__()}


def parse_variety(text: str) -> VarietyExpr:
    """Parse ``text`` into a variety expression.

    Equal atoms within ``text`` are one object, built and validated once,
    and a piece written again is read once per call; no atom is shared
    with another call's tree.  ``_lex`` runs only on text the
    scanner stops on or an atom or a union refuses, to report the error.

    >>> parse_variety("Curve(1) x P(1)")
    Product(left=Curve(g=1), right=ProjSpace(n=1))
    >>> parse_variety("P(2 3)")
    Traceback (most recent call last):
        ...
    lyubeznik.parser.ParseError: unexpected '3' (offset 4, expected ')')
    """
    try:
        return _scan(text)
    except ParseError:
        raise
    except ValueError:  # an atom or a union refused its operands
        _lex(text)  # a bad character anywhere is reported first
        raise


def _scan(text: str) -> VarietyExpr:
    """Read ``text`` into a tree, or raise ``_syntax_error`` at the first character
    the grammar does not accept.  A new piece applies its operator, opens
    its groups, a ``(union, prod)`` frame each, then builds its atom."""
    parts = f"+{text}".split(")")  # the "+" gives piece 0 the others' shape
    last = parts.pop()  # no ")" ends it: blank, or its operand is cut off
    if last and not last.isspace():
        parts.append(last + "%")  # a character no atom accepts: a stop below
    pieces = iter(parts)
    known, atoms, stack = {}, {}, []
    union = prod = expr = None
    for part in pieces:
        hit = known.get(part)
        if hit is None:
            tail = part.lstrip()
            op, tail, opens = tail[:1], tail[1:].lstrip(), 0
            if tail[:1] == "(":  # the whole run of "(" in one pass
                k = len(tail) - len(tail.replace("(", " ").lstrip())
                tail, opens = tail[k:], tail.count("(", 0, k)
        else:
            op, opens, atom = hit
        if op == "x":
            prod = expr
        elif op == "+":
            if union is not None:
                expr = DisjointUnion(union, expr)
            union, prod = expr, None
        else:  # no operator: the frame ends; a blank piece's ")" closes it
            if union is not None:
                expr = DisjointUnion(union, expr)
            if op or not stack:
                raise _syntax_error(text, _offset(parts, pieces, part, len(part.lstrip())),
                                    ("')'",) if stack else _AFTER)
            union, prod = stack.pop()
            if prod is not None:
                expr = Product(prod, expr)
            if hit is None:
                known[part] = "", 0, None
            continue
        if opens:
            stack += [(union, prod)] + [(None, None)] * (opens - 1)
            union = prod = None
        if hit is None:
            atom = _span_atom(tail, atoms)
            if atom is None:
                raise _syntax_error(text, _offset(parts, pieces, part, len(tail)), _OPERAND)
            known[part] = op, opens, atom
        expr = atom if prod is None else Product(prod, atom)
    if union is not None:
        expr = DisjointUnion(union, expr)
    if stack:
        raise _syntax_error(text, len(text), ("')'",))
    return expr


def _offset(parts: list, pieces, part: str, rest: int) -> int:
    """Where ``part``'s last ``rest`` characters start; ``pieces`` follow it."""
    k = len(parts) - len([*pieces]) - 1
    return sum(map(len, parts[:k])) + k - 1 + len(part) - rest


def _span_atom(tail: str, atoms: dict):
    """The atom that ``tail``, a piece's ``NAME(args`` up to its ")", writes;
    or None where it is no well-formed constructor.  Atoms are shared
    through ``atoms``, so ``P(1``, ``P( 1`` and ``P(01`` are one object."""
    name, paren, args = tail.partition("(")
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
    key = (cls, semi, tuple(values))
    atom = atoms.get(key)
    if atom is None:
        atom = atoms[key] = cls._from_args(values, bool(semi))
    return atom


def _syntax_error(text: str, offset: int, expected: tuple) -> ParseError:
    """The error for the scanner's stop at ``offset``, where it would have
    accepted ``expected``.  The whole text is lexed, so a bad character
    anywhere is reported instead; a constructor span the scanner refused
    is walked to its first bad token."""
    toks = _lex(text)
    k = 0
    while toks[k][2] < offset:
        k += 1
    kind, word, pos = toks[k]
    if expected is _OPERAND and kind == "NAME":
        if word not in _ATOMS:
            return ParseError(f"unknown constructor {word!r}", pos, tuple(_ATOMS))
        # walk NAME "(" INT {sep INT} ")" to the first token out of place
        k, expected = k + 1, ("'('",)
        if toks[k][0] == "(":
            seps = (";", ",")  # a ";" may follow the first integer only
            while toks[k + 1][0] == "INT" and toks[k + 2][0] in seps:
                k, seps = k + 2, (",",)
            if toks[k + 1][0] == "INT":
                k, expected = k + 2, ("')'",)
            else:
                k, expected = k + 1, ("integer",)
        kind, word, pos = toks[k]
    got = "end of input" if kind == "END" else repr(word)
    after = " after expression" if expected is _AFTER else ""
    return ParseError(f"unexpected {got}{after}", pos, expected)
