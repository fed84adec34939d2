"""Independent checker for the outputs of the lyubeznik command line.

Nothing here imports the program.  Expressions are the benchmark's own
trees (see ``render``), Betti vectors come from closed forms that the
program does not use, the table is filled from the paper's formulas and
the corner from the component count of the tree.  Each output format is
parsed back and compared entry by entry; the first difference raises
``CheckError`` naming the index and both values.

Trees are tuples:
    ("P", n)  ("Gr", k, n)  ("Curve", g)  ("Ab", g)  ("Hyp", n, d)
    ("CI", n, (d1, ..., dc))
    ("x", [f1, f2, ...])   left-associated product chain, two or more factors
    ("+", [t1, t2, ...])   left-associated disjoint-union chain, two or more terms
Chains are flat lists so that a chain of hundreds of terms needs no
deep recursion here.
"""

import csv
import io
import json
from math import comb, prod

class CheckError(Exception):
    """An output disagrees with the independently computed answer."""


# --- rendering ------------------------------------------------------------------

def render(tree, level=0):
    """Canonical text: ``x`` binds tighter than ``+``, both associate to the
    left, and parentheses appear only where the shape needs them.  Level 0
    is a union operand, 1 a product's left operand, 2 its right operand."""
    kind = tree[0]
    if kind == "+":
        first, *rest = tree[1]
        text = render(first, 0) + "".join(" + " + render(t, 1) for t in rest)
        return f"({text})" if level >= 1 else text
    if kind == "x":
        first, *rest = tree[1]
        text = render(first, 1) + "".join(" x " + render(f, 2) for f in rest)
        return f"({text})" if level >= 2 else text
    if kind == "CI":
        return f"CI({tree[1]}; {','.join(str(d) for d in tree[2])})"
    return f"{kind}({','.join(str(a) for a in tree[1:])})"


# --- closed forms -----------------------------------------------------------------

def components(tree):
    """Connected components: an atom is connected, a product multiplies
    the counts of its factors and a disjoint union adds them."""
    if tree[0] == "+":
        return sum(components(t) for t in tree[1])
    if tree[0] == "x":
        return prod(components(f) for f in tree[1])
    return 1


def gaussian_binomial(n, k):
    """Coefficients of the Gaussian binomial [n choose k]_q, from the
    q-Pascal rule [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    rows = {0: [1]}  # rows[j] = [m choose j]_q for the current m
    for m in range(1, n + 1):
        new = {0: [1]}
        for j in range(1, min(m, k) + 1):
            a = rows.get(j - 1, [])
            b = rows.get(j, [])
            out = [0] * max(len(a), len(b) + j if b else 0)
            for i, c in enumerate(a):
                out[i] += c
            for i, c in enumerate(b):
                out[i + j] += c
            new[j] = out
        rows = new
    return rows[k]


def _even_ones(r):
    return [1 if j % 2 == 0 else 0 for j in range(2 * r + 1)]


def _with_middle(r, chi):
    """Projective-space vector of dimension r whose middle entry is set
    by the Euler characteristic chi."""
    vec = _even_ones(r)
    vec[r] = chi - r if r % 2 == 0 else r + 1 - chi
    return vec


def hypersurface_euler(n, d):
    """chi of a degree-d hypersurface in P^n: ((1-d)^(n+1) - 1)/d + n + 1."""
    return ((1 - d) ** (n + 1) - 1) // d + n + 1


def complete_intersection_euler(n, degrees):
    """chi of a complete intersection: (prod d) times the h^r coefficient of
    (1+h)^(n+1) / prod(1 + d h), dividing in place one factor at a time."""
    r = n - len(degrees)
    coeffs = [comb(n + 1, i) for i in range(r + 1)]
    for d in degrees:
        for i in range(1, r + 1):
            coeffs[i] -= d * coeffs[i - 1]
    return prod(degrees) * coeffs[r]


def betti(tree):
    kind = tree[0]
    if kind == "+":
        vecs = [betti(t) for t in tree[1]]
        return [sum(col) for col in zip(*vecs)]
    if kind == "x":
        acc = [1]
        for f in tree[1]:
            vec = betti(f)
            out = [0] * (len(acc) + len(vec) - 1)
            for p, a in enumerate(acc):
                for q, b in enumerate(vec):
                    out[p + q] += a * b
            acc = out
        return acc
    if kind == "P":
        return _even_ones(tree[1])
    if kind == "Gr":
        k, n = tree[1], tree[2]
        vec = [0] * (2 * k * (n - k) + 1)
        for i, c in enumerate(gaussian_binomial(n, k)):
            vec[2 * i] = c
        return vec
    if kind == "Curve":
        return [1, 2 * tree[1], 1]
    if kind == "Ab":
        return [comb(2 * tree[1], j) for j in range(2 * tree[1] + 1)]
    if kind == "Hyp":
        return _with_middle(tree[1] - 1, hypersurface_euler(tree[1], tree[2]))
    return _with_middle(tree[1] - len(tree[2]),
                        complete_intersection_euler(tree[1], tree[2]))


def table(tree):
    """(r, betti, rows): the full (r+2) x (r+2) Lyubeznik table from the
    paper's formulas, with the corner taken from the component count."""
    b = betti(tree)
    r = (len(b) - 1) // 2
    d = r + 1
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    rows[0][1] = b[0] - 1
    if r >= 2:
        rows[0][2] = b[1]
    for j in range(3, r + 1):
        rows[0][j] = b[j - 1] - b[j - 3]
    for ell in range(2, r + 1):
        rows[ell][d] = rows[0][d + 1 - ell]
    rows[d][d] = components(tree)
    return r, b, rows


def nonzero(rows):
    return [[i, j, v] for i, row in enumerate(rows) for j, v in enumerate(row) if v]


# --- comparison --------------------------------------------------------------------

def _same(what, got, want):
    if got == want:
        return
    if isinstance(got, list) and isinstance(want, list):
        for idx, (g, w) in enumerate(zip(got, want)):
            if g != w:
                raise CheckError(f"{what}[{idx}]: got {g!r}, expected {w!r}")
        raise CheckError(f"{what}: got {len(got)} entries, expected {len(want)}")
    raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _lines(out, count):
    lines = out[:-1].split("\n")
    if len(lines) != count:
        raise CheckError(f"expected {count} lines, got {len(lines)}")
    return lines


def _field(line, label):
    prefix = label + ": "
    if not line.startswith(prefix):
        raise CheckError(f"expected a {label!r} line, got {line!r}")
    return line[len(prefix):]


def _int_tuple(text, what):
    if not (text.startswith("(") and text.endswith(")")):
        raise CheckError(f"{what}: not a parenthesised tuple: {text!r}")
    return [int(v) for v in text[1:-1].split(", ")]


def _check_json(out, tree, r, b, rows):
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"JSON does not parse: {exc}") from None
    _same("keys", list(doc), ["expr", "dim", "betti", "table", "nonzero", "verified"])
    _same("expr", doc["expr"], render(tree))
    _same("dim", doc["dim"], r)
    _same("betti", doc["betti"], b)
    _same("table rows", len(doc["table"]), len(rows))
    for i, row in enumerate(rows):
        _same(f"table[{i}]", doc["table"][i], row)
    _same("nonzero", doc["nonzero"], nonzero(rows))
    _same("verified", doc["verified"], True)


def _check_text(out, tree, r, b, rows):
    lines = _lines(out, 5 + 2 + len(rows))
    _same("expression", _field(lines[0], "expression"), render(tree))
    _same("dimension", _field(lines[1], "dimension"), str(r))
    _same("betti", _int_tuple(_field(lines[2], "betti"), "betti"), b)
    _same("verified", _field(lines[3], "verified"), "yes")
    _same("blank line", lines[4], "")
    label, _, header = lines[5].partition(" | ")
    _same("corner label", label.strip(), "i\\j")
    _same("column labels", [int(v) for v in header.split()], list(range(len(rows))))
    if set(lines[6]) != {"-"}:
        raise CheckError(f"expected a rule of dashes, got {lines[6]!r}")
    for i, row in enumerate(rows):
        label, sep, cells = lines[7 + i].partition(" | ")
        if not sep or label.strip() != str(i):
            raise CheckError(f"row {i}: bad row label in {lines[7 + i]!r}")
        _same(f"table[{i}]", [int(v) for v in cells.split()], row)


def _check_csv(out, rows):
    parsed = list(csv.reader(io.StringIO(out)))
    _same("csv header", parsed[0] if parsed else [], ["i", "j", "lambda"])
    try:
        entries = [[int(v) for v in line] for line in parsed[1:]]
    except ValueError as exc:
        raise CheckError(f"csv entry is not an integer: {exc}") from None
    _same("nonzero", entries, nonzero(rows))


def check_compute(tree, fmt, out):
    """``compute <expr> --format fmt``: every entry of the document."""
    r, b, rows = table(tree)
    if fmt == "json":
        _check_json(out, tree, r, b, rows)
    elif fmt == "text":
        _check_text(out, tree, r, b, rows)
    else:
        _check_csv(out, rows)


def check_betti(tree, out):
    """``betti <expr>`` in the default text format."""
    lines = _lines(out, 3)
    _same("expression", _field(lines[0], "expression"), render(tree))
    b = betti(tree)
    _same("dimension", _field(lines[1], "dimension"), str((len(b) - 1) // 2))
    _same("betti", _int_tuple(_field(lines[2], "betti"), "betti"), b)


def check_oracle(tree, out):
    """``oracle <expr>``: the vertex dimensions equal the table's first row
    lambda_{0,0..r}."""
    r, _, rows = table(tree)
    lines = _lines(out, 3)
    _same("expression", _field(lines[0], "expression"), render(tree))
    _same("dimension", _field(lines[1], "dimension"), str(r))
    dims = _int_tuple(_field(lines[2], "vertex local de Rham dims"), "dims")
    _same("vertex dims", dims, rows[0][:r + 1])


def check_graph(planted, out):
    """``graph <file>``: the planted number of connected components."""
    _same("corner", out, f"{planted}\n")


def check(op, out):
    """Check one operation's output; ``op`` is a workload operation.  Any
    output that cannot be read back raises ``CheckError`` too."""
    if not out.endswith("\n"):
        raise CheckError("output does not end with a newline (truncated?)")
    try:
        if op.command == "compute":
            check_compute(op.tree, op.fmt, out)
        elif op.command == "betti":
            check_betti(op.tree, out)
        elif op.command == "oracle":
            check_oracle(op.tree, out)
        else:
            check_graph(op.planted, out)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise CheckError(f"unreadable output: {exc!r}") from None
