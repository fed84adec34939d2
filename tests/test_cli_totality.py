"""End to end: whatever the input, ``main()`` returns 0, 1 or 2, writes
exactly one line to stderr when it fails and never a traceback.

An expression that follows the grammar never ends in exit 2: it is
either computed or refused as a user error.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyubeznik.cli import main

# Per-example deadline.  The slowest example measured on a 2-vCPU Xeon
# took 0.57 s: a complete intersection of dimension 64 with four
# 2000-digit degrees, refused once its Betti number is known.  A 3000-atom
# chain takes about 0.15 s, a 20000-level right-nested one about 0.08 s.
# The deadline leaves five times that room for a slower or busier machine.
DEADLINE_MS = 3000

_COMMANDS = st.sampled_from([
    ["compute", "--format", "text"],
    ["compute", "--format", "json"],
    ["compute", "--format", "csv"],
    ["betti", "--format", "text"],
    ["betti", "--format", "json"],
    ["betti", "--format", "csv"],
    ["oracle"],
])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_total(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1


def run_expr(command, text):
    # "--" keeps a text that starts with "-" from reading as an option
    code, out, err = run(command + ["--", text])
    assert_total(code, out, err)
    return code, err


# --- expressions ----------------------------------------------------------------

_LITERAL = st.one_of(st.integers(0, 6), st.integers(0, 10 ** 2000 - 1))


def _atom_text(rng, literal):
    """One atom with small arguments, or with ``literal`` in one slot."""
    small = [rng.randint(1, 4) for _ in range(4)]
    slot = rng.randrange(2)
    args = [literal if i == slot else v for i, v in enumerate(small)]
    kind = rng.randrange(6)
    if kind == 0:
        return f"P({args[0]})"
    if kind == 1:
        return f"Gr({args[0]},{args[1] + small[2]})"
    if kind == 2:
        return f"Curve({args[0]})"
    if kind == 3:
        return f"Ab({args[0]})"
    if kind == 4:
        return f"Hyp({args[0] + 1},{args[1]})"
    degrees = ",".join(str(literal if i == 0 else v)
                       for i, v in enumerate(small[:rng.randint(1, 4)]))
    return f"CI({small[0] + 4}; {degrees})"


@st.composite
def chains(draw):
    """A chain of 1-3000 atoms joined by randomly mixed "+" and "x"."""
    length = draw(st.integers(1, 3000))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    literal = draw(_LITERAL)
    parts = [_atom_text(rng, literal if rng.random() < 0.1 else rng.randint(1, 3))]
    for _ in range(length - 1):
        parts += [rng.choice("+x"), _atom_text(rng, rng.randint(1, 3))]
    return " ".join(parts)


@st.composite
def sums_of_products(draw):
    """A valid chain: summands that are products of k curves or lines, up
    to 3000 atoms in all."""
    k = draw(st.integers(1, 3))
    summands = draw(st.integers(1, 3000 // k))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    atoms = ["P(1)", "Curve(0)", "Curve(1)", "Curve(2)", "Curve(3)"]
    return " + ".join(" x ".join(rng.choice(atoms) for _ in range(k))
                      for _ in range(summands))


@st.composite
def right_nested_chains(draw):
    """``A op (B op (C ...))`` as ``render`` writes it, one "(" per level:
    1-20000 atoms of dimension one joined by "+", by "x" or by both."""
    length = draw(st.integers(1, 20000))
    ops = draw(st.sampled_from(["+", "x", "+x"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    atoms = ["P(1)", "Curve(0)", "Curve(1)", "Curve(2)", "Ab(1)", "Hyp(2,3)"]
    heads = [f"{rng.choice(atoms)} {rng.choice(ops)} (" for _ in range(length - 1)]
    return "".join(heads) + rng.choice(atoms) + ")" * (length - 1)


@st.composite
def huge_literals(draw):
    """Atoms and dimension-64 complete intersections whose arguments have
    up to 2000 digits."""
    digits = draw(st.integers(1, 2000))
    value = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return _atom_text(rng, value)
    c = draw(st.integers(1, 4))
    return f"CI({64 + c}; {','.join([str(value)] * c)})"


@settings(max_examples=150, deadline=DEADLINE_MS)
@given(_COMMANDS, st.text())
def test_random_text(command, text):
    code, _ = run_expr(command, text)
    assert code in (0, 1)


@settings(max_examples=60, deadline=DEADLINE_MS)
@given(_COMMANDS, st.one_of(chains(), sums_of_products(), right_nested_chains(),
                            huge_literals()))
def test_grammatical_expressions_never_exit_two(command, text):
    code, err = run_expr(command, text)
    assert code in (0, 1), err


class _HeadSink(io.TextIOBase):
    """A stdout that keeps only the first ``_HEAD`` characters written to
    it: a raised --max-dim admits text documents of hundreds of MB, such
    as ``Ab(999)``'s 600 MB table, which the test need not hold."""

    _HEAD = 1 << 10

    def __init__(self):
        self.head = ""

    def writable(self):
        return True

    def write(self, text):
        if len(self.head) < self._HEAD:
            self.head = (self.head + text[:self._HEAD])[:self._HEAD]
        return len(text)


@settings(max_examples=60, deadline=DEADLINE_MS)
@given(_COMMANDS, st.sampled_from([200, 1000]),
       st.one_of(chains(), sums_of_products(), right_nested_chains(),
                 huge_literals()))
def test_grammatical_expressions_under_a_raised_max_dim(command, max_dim, text):
    # Under a raised bound, literals of three or four digits reach the
    # Betti and table code instead of the dimension guard: Ab(999) and
    # Hyp(1000,4) are accepted, and so is a right-nested product of up to
    # 1000 curves (Curve(2) to the 1000th prints a 780 MB text table in
    # about 0.9 s).
    out, err = _HeadSink(), io.StringIO()
    argv = command + ["--max-dim", str(max_dim), "--", text]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert_total(code, out.head, err.getvalue())
    assert code in (0, 1), err.getvalue()


# --- component files for graph --------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["components", "intersections", "name",
                                       "dim", "a", "b"]) | st.text(max_size=4),
                      inner, max_size=4),
    max_leaves=20)

_NAMES = st.sampled_from(["A", "B", "C"]) | _JSON_VALUES


@st.composite
def graph_documents(draw):
    """Documents shaped like a component file, with any values inside."""
    dims = st.integers(-2, 3) | _JSON_VALUES
    components = draw(st.lists(st.fixed_dictionaries(
        {"name": _NAMES, "dim": dims}), max_size=4))
    intersections = draw(st.lists(st.fixed_dictionaries(
        {"a": _NAMES, "b": _NAMES, "dim": dims}), max_size=4))
    return {"components": components, "intersections": intersections}


@st.composite
def graph_files(draw):
    """Text for a component file: random text or bytes, any JSON value, a
    truncated document, or brackets nested up to 10^5 deep."""
    kind = draw(st.sampled_from(["text", "bytes", "value", "document",
                                 "truncated", "nested"]))
    if kind == "text":
        return draw(st.text()).encode("utf-8", "surrogatepass")
    if kind == "bytes":
        return draw(st.binary())
    if kind == "value":
        return json.dumps(draw(_JSON_VALUES)).encode()
    text = json.dumps(draw(graph_documents()))
    if kind == "document":
        return text.encode()
    if kind == "truncated":
        return text[:draw(st.integers(0, len(text)))].encode()
    depth = draw(st.integers(1, 10 ** 5))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
    close = draw(st.integers(0, depth))
    return (opener * depth + "1" + closer * close).encode()


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("graph") / "graph.json"


@settings(max_examples=200, deadline=DEADLINE_MS)
@given(graph_files())
def test_graph_files(graph_path, content):
    graph_path.write_bytes(content)
    code, out, err = run(["graph", str(graph_path)])
    assert_total(code, out, err)
    assert code in (0, 1), err
