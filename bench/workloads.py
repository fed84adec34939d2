"""Seeded inputs for the three workloads.

Every workload is a list of operations, one pass.  A run repeats the
same pass, so each run attempts whole rounds of identical operations.
The seed changes which expressions appear, never how many of each kind
or of which size, so the cost of a pass moves little from seed to seed.

The atom and operator mix is this file's own copy of the one in
``tests/corpus.py``; edits to the tests do not change these inputs.
"""

import json
import random
from dataclasses import dataclass

from checker import render

FORMATS = ("json", "text", "csv")

# ROADMAP's dimension-64 worst cases; part of every corpus-dim64 pass.
WORST_CASES = (("Gr", 8, 16), ("Ab", 64), ("Hyp", 65, 10), ("CI", 67, (2, 3, 4)))

# long-exprs: left-associated "+" chains (quadratic in the parser today,
# kept below the ~990 terms at which it fails and short enough that each
# call is timed dozens of times in a run), "x" chains of dimension 64, and
# right-nested chains below the parser's 200-level parenthesis limit.
UNION_CHAIN_TERMS = (25, 50, 100, 150, 200, 250, 300)
PRODUCT_CHAIN_FACTORS = (8, 16, 32, 64)
NESTED_UNION_DEPTHS = (50, 100, 150, 190)
NESTED_PRODUCT_FACTORS = (16, 32, 64)

# cli-oneshot: rounds per pass, and the size of each component file, chosen
# so that loading and counting it costs about as much as importing the CLI.
CLI_ROUNDS = 2
GRAPH_TOP_COMPONENTS = 4000
GRAPH_LOW_COMPONENTS = 400


@dataclass(frozen=True)
class Op:
    """One call of the program.  ``text`` is the expression, or for
    ``graph`` the path of the component file; ``tree`` is the benchmark's
    own expression tree and ``planted`` the component count of a graph."""

    command: str
    text: str
    fmt: str = "text"
    tree: tuple = None
    planted: int = 0

    def argv(self):
        if self.command == "compute":
            return ["compute", self.text, "--format", self.fmt]
        return [self.command, self.text]


def _grassmannian_shapes(dim):
    return [(k, k + dim // k) for k in range(1, dim + 1)
            if dim % k == 0 and k <= dim // k]


def _atom_kinds(dim):
    kinds = ["proj", "abelian", "hypersurface", "ci"]
    if dim == 1:
        kinds.append("curve")
    if _grassmannian_shapes(dim):
        kinds.append("grassmannian")
    return kinds


def random_atom(rng, dim):
    return _atom(rng, dim, rng.choice(_atom_kinds(dim)))


def cycled_atom(rng, dim, i):
    """The i-th atom of a long expression: kinds in turn, random arguments,
    so that a long expression costs about the same whatever the seed."""
    kinds = _atom_kinds(dim)
    return _atom(rng, dim, kinds[i % len(kinds)])


def _atom(rng, dim, kind):
    if kind == "proj":
        return ("P", dim)
    if kind == "abelian":
        return ("Ab", dim)
    if kind == "hypersurface":
        return ("Hyp", dim + 1, rng.randint(1, 5))
    if kind == "ci":
        codim = rng.randint(1, 3)
        return ("CI", dim + codim, tuple(rng.randint(1, 4) for _ in range(codim)))
    if kind == "curve":
        return ("Curve", rng.randint(0, 3))
    k, n = rng.choice(_grassmannian_shapes(dim))
    return ("Gr", k, n)


def random_expr(rng, dim, depth=2):
    forms = ["atom", "atom"]
    if depth > 0:
        forms.append("union")
        if dim >= 2:
            forms.append("product")
    form = rng.choice(forms)
    if form == "product":
        left_dim = rng.randint(1, dim - 1)
        return ("x", [random_expr(rng, left_dim, depth - 1),
                      random_expr(rng, dim - left_dim, depth - 1)])
    if form == "union":
        return ("+", [random_expr(rng, dim, depth - 1),
                      random_expr(rng, dim, depth - 1)])
    return random_atom(rng, dim)


def _compute(tree, fmt):
    return Op("compute", render(tree), fmt, tree)


def corpus_dim64(rng):
    """Six random expressions per dimension 1..64, two per format, then
    the four worst cases in every format."""
    ops = [_compute(random_expr(rng, dim), fmt)
           for dim in range(1, 65) for fmt in FORMATS * 2]
    ops += [_compute(tree, fmt) for tree in WORST_CASES for fmt in FORMATS]
    return ops


def _dims_summing_to(rng, total, parts):
    """``parts`` dimensions as equal as possible, in random order; equal
    shares keep the cost of a chain from moving with the seed."""
    dims = [total // parts + (i < total % parts) for i in range(parts)]
    rng.shuffle(dims)
    return dims


def _right_nested(kind, items):
    tree = items[-1]
    for item in reversed(items[:-1]):
        tree = (kind, [item, tree])
    return tree


def _equal_dim_atoms(rng, dim, count):
    atoms = [cycled_atom(rng, dim, i) for i in range(count)]
    rng.shuffle(atoms)
    return atoms


def _factors(rng, count):
    return [cycled_atom(rng, d, i)
            for i, d in enumerate(_dims_summing_to(rng, 64, count))]


def long_exprs(rng):
    """Long chains and deep nestings, each through ``compute --format csv``,
    ``betti`` and ``oracle``.  Union operands have dimension 1..4 in turn."""
    trees = []
    for i, terms in enumerate(UNION_CHAIN_TERMS):
        trees.append(("+", _equal_dim_atoms(rng, 1 + i % 4, terms)))
    for factors in PRODUCT_CHAIN_FACTORS:
        trees.append(("x", _factors(rng, factors)))
    for i, depth in enumerate(NESTED_UNION_DEPTHS):
        trees.append(_right_nested("+", _equal_dim_atoms(rng, 1 + i % 4, depth + 1)))
    for factors in NESTED_PRODUCT_FACTORS:
        trees.append(_right_nested("x", _factors(rng, factors)))
    ops = []
    for tree in trees:
        text = render(tree)
        ops += [Op("compute", text, "csv", tree), Op("betti", text, tree=tree),
                Op("oracle", text, tree=tree)]
    return ops


def planted_graph(rng):
    """A component file whose top-dimensional graph has a known number of
    connected components, and that number.

    Top components are dealt into groups; each group is joined by a random
    spanning tree of (r-1)-dimensional intersections.  Further records never
    join two groups: inside a group they have any dimension, across groups
    at most r-2, and lower-dimensional components meet anything in at most
    their own dimension.
    """
    top, low = GRAPH_TOP_COMPONENTS, GRAPH_LOW_COMPONENTS
    r = rng.randint(2, 5)
    planted = rng.randint(1, 40)
    group = [i % planted for i in range(top)]
    rng.shuffle(group)
    members = [[] for _ in range(planted)]
    for i, g in enumerate(group):
        members[g].append(i)
    pairs = {}

    def record(a, b, dim):
        key = (min(a, b), max(a, b))
        if a != b and key not in pairs:
            pairs[key] = dim

    for part in members:
        rng.shuffle(part)
        for t in range(1, len(part)):
            record(part[t], part[rng.randrange(t)], r - 1)
    for _ in range(top // 4):
        a, b = rng.randrange(top), rng.randrange(top)
        record(a, b, rng.randint(-1, r - 1) if group[a] == group[b]
               else rng.randint(-1, r - 2))
    low_dims = [rng.randint(0, r - 1) for _ in range(low)]
    for i, dim in enumerate(low_dims):
        for _ in range(2):
            record(top + i, rng.randrange(top), rng.randint(-1, dim))
    names = [f"C{i}" for i in range(top)] + [f"L{i}" for i in range(low)]
    dims = [r] * top + low_dims
    components = [{"name": names[i], "dim": dims[i]} for i in range(top + low)]
    rng.shuffle(components)
    intersections = [{"a": names[a], "b": names[b], "dim": dim}
                     for (a, b), dim in pairs.items()]
    rng.shuffle(intersections)
    return {"components": components, "intersections": intersections}, planted


def cli_oneshot(rng, workdir):
    """Rounds of compute (three formats), betti, oracle and graph on small
    expressions and planted component files written under ``workdir``."""
    ops = []
    for round_no in range(CLI_ROUNDS):
        ops += [_compute(random_expr(rng, rng.randint(1, 6)), fmt)
                for fmt in FORMATS]
        for command in ("betti", "oracle"):
            tree = random_expr(rng, rng.randint(1, 6))
            ops.append(Op(command, render(tree), tree=tree))
        doc, planted = planted_graph(rng)
        path = workdir / f"graph-{round_no}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ops.append(Op("graph", str(path), planted=planted))
    return ops


def make_pass(workload, seed, workdir):
    rng = random.Random(f"{workload}/{seed}")
    if workload == "corpus-dim64":
        return corpus_dim64(rng)
    if workload == "long-exprs":
        return long_exprs(rng)
    return cli_oneshot(rng, workdir)


WORKLOADS = ("corpus-dim64", "long-exprs", "cli-oneshot")
