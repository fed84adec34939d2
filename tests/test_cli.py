"""Command-line behavior: formats, exit codes, determinism."""

import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import lyubeznik.cli as cli
from corpus import corpus
from lyubeznik import (
    Curve,
    InternalConsistencyError,
    ParseError,
    betti,
    lyubeznik_table,
    parse_variety,
    render,
)
from lyubeznik.cli import main
from test_output_bytes import WORST_CASES, reference_outputs


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compute ------------------------------------------------------------------

def test_compute_text(capsys):
    code, out, err = run(["compute", "Curve(1) x P(1)"], capsys)
    assert code == 0 and err == ""
    assert "expression: Curve(1) x P(1)" in out
    assert "dimension: 2" in out
    assert "betti: (1, 2, 2, 2, 1)" in out
    assert "verified: yes" in out


def test_compute_json_document(capsys):
    code, out, _ = run(["compute", "Hyp(4,5)", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["expr", "dim", "betti", "table", "nonzero", "verified"]
    assert doc["expr"] == "Hyp(4,5)"
    assert doc["dim"] == 3
    assert doc["betti"] == [1, 0, 1, 204, 1, 0, 1]
    assert doc["nonzero"] == [[4, 4, 1]]
    assert doc["verified"] is True
    assert len(doc["table"]) == 5 and all(len(row) == 5 for row in doc["table"])


def test_compute_csv(capsys):
    code, out, _ = run(["compute", "Curve(1) x P(1)", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "j", "lambda"]
    assert rows[1:] == [["0", "2", "2"], ["2", "3", "2"], ["3", "3", "1"]]


def test_compute_reads_back_a_rendered_deep_union(capsys):
    # 202 right-nested unions, as render writes them: one "(" per level.
    text = "P(1)"
    for _ in range(202):
        text = f"P(1) + ({text})"
    code, out, err = run(["compute", text, "--format", "csv"], capsys)
    assert (code, out, err) == (0, "i,j,lambda\n0,1,202\n2,2,203\n", "")


def test_compute_formats_agree(capsys):
    _, text_out, _ = run(["compute", "Gr(2,4)"], capsys)
    _, json_out, _ = run(["compute", "Gr(2,4)", "--format", "json"], capsys)
    _, csv_out, _ = run(["compute", "Gr(2,4)", "--format", "csv"], capsys)
    doc = json.loads(json_out)
    # the text grid contains exactly the table rows
    grid = [line.split("|")[1].split() for line in text_out.splitlines()
            if "|" in line and not line.lstrip().startswith("i\\j")]
    assert [[int(v) for v in row] for row in grid] == doc["table"]
    csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    assert [[int(v) for v in row] for row in csv_rows] == doc["nonzero"]
    # and the text header carries the same betti numbers
    betti_line = next(line for line in text_out.splitlines()
                      if line.startswith("betti:"))
    assert betti_line == "betti: (" + ", ".join(map(str, doc["betti"])) + ")"


def _printed_grid(fmt: str, out: str) -> list:
    """The (d+1) x (d+1) table that a ``compute`` document prints."""
    if fmt == "json":
        return json.loads(out)["table"]
    if fmt == "text":
        return [[int(v) for v in line.split("|")[1].split()]
                for line in out.splitlines()
                if "|" in line and not line.lstrip().startswith("i\\j")]
    triples = [[int(v) for v in row] for row in list(csv.reader(io.StringIO(out)))[1:]]
    d = triples[-1][0]  # the corner is the last nonzero entry
    grid = [[0] * (d + 1) for _ in range(d + 1)]
    for i, j, v in triples:
        grid[i][j] = v
    return grid


# Wrong mirrors that LyubeznikTable._mirror could hold: shifted by one
# entry, and not reversed.
_MIRROR_MUTANTS = {
    "shifted": lambda row, corner: (*row[-2:0:-1], corner),
    "unreversed": lambda row, corner: (*row[2:], corner),
}


@pytest.mark.parametrize("text", ["Curve(1) x P(1)", "Ab(64)"])
def test_a_wrong_mirror_reaches_every_format(text, monkeypatch):
    # The last column is written once, in LyubeznikTable._mirror; every
    # format prints it through the table, so a patched mirror changes them all.
    table_module = importlib.import_module("lyubeznik.table")

    def documents():
        outs = {}
        for fmt in ("text", "json", "csv"):
            outs[fmt] = io.StringIO()
            assert cli.cmd_compute(text, fmt, verify=False, out=outs[fmt]) == 0
        return {fmt: out.getvalue() for fmt, out in outs.items()}

    right = documents()
    for name, mirror in _MIRROR_MUTANTS.items():
        monkeypatch.setattr(table_module.LyubeznikTable, "_mirror", staticmethod(mirror))
        table = table_module.lyubeznik_table(betti(parse_variety(text)))
        wrong = documents()
        for fmt, out in wrong.items():
            assert out != right[fmt], (name, fmt)
            grid = _printed_grid(fmt, out)
            assert tuple(row[-1] for row in grid[1:]) == table.last_column(), (name, fmt)
            assert tuple((i, j, v) for i, row in enumerate(grid)
                         for j, v in enumerate(row) if v) == table.nonzero(), (name, fmt)
        assert tuple(map(tuple, json.loads(wrong["json"])["nonzero"])) == table.nonzero()


def _oracle_mismatch(text, i, j, route, printed):
    return (f"internal consistency failure: oracle mismatch for {text}: "
            f"lambda_({i},{j}) is {route} by the exact sequences, {printed} in the table\n")


@pytest.mark.parametrize("mutant, text, err", [
    ("shifted", "Curve(1) x P(1)", _oracle_mismatch("Curve(1) x P(1)", 1, 3, 0, 2)),
    ("shifted", "Ab(64)", _oracle_mismatch(
        "Ab(64)", 1, 65, 0, 2751844438258473397248935917361414400)),
    ("unreversed", "Ab(3)", _oracle_mismatch("Ab(3)", 1, 4, 0, 6)),
], ids=["shifted-Curve(1) x P(1)", "shifted-Ab(64)", "unreversed-Ab(3)"])
def test_a_wrong_mirror_fails_the_exact_sequences(mutant, text, err, monkeypatch, capsys):
    # The Gysin route gives the last column from the upper half of the Betti
    # vector, so a mirror that changes any entry exits 2 in every format.
    table_module = importlib.import_module("lyubeznik.table")
    monkeypatch.setattr(table_module.LyubeznikTable, "_mirror",
                        staticmethod(_MIRROR_MUTANTS[mutant]))
    for fmt in ("text", "json", "csv"):
        assert run(["compute", text, "--format", fmt], capsys) == (2, "", err)


def test_a_wrong_corner_fails_the_exact_sequences(monkeypatch, capsys):
    table_module = importlib.import_module("lyubeznik.table")

    def corner_plus_one(vec):
        table = lyubeznik_table(vec)
        return table_module.LyubeznikTable(table.dim_a, table.first_row, table.corner + 1)

    monkeypatch.setattr(cli, "lyubeznik_table", corner_plus_one)
    assert run(["compute", "Curve(1) x P(1)"], capsys) == (
        2, "", _oracle_mismatch("Curve(1) x P(1)", 3, 3, 1, 2))


def test_compute_no_verify(capsys):
    code, out, _ = run(
        ["compute", "P(2)", "--format", "json", "--no-verify"], capsys)
    assert code == 0
    assert json.loads(out)["verified"] is False


def test_compute_text_reports_skipped_verification(capsys):
    _, out, _ = run(["compute", "P(2)", "--no-verify"], capsys)
    assert "verified: skipped" in out


def test_compute_max_dim_guard(capsys):
    code, _, err = run(["compute", "P(9)", "--max-dim", "8"], capsys)
    assert code == 1
    assert "max-dim" in err
    code, out, _ = run(["compute", "P(9)", "--max-dim", "9"], capsys)
    assert code == 0 and "dimension: 9" in out


def test_determinism_within_process(capsys):
    _, first, _ = run(["compute", "Gr(2,5)", "--format", "json"], capsys)
    _, second, _ = run(["compute", "Gr(2,5)", "--format", "json"], capsys)
    assert first == second


class _RecordingSink:
    """An ``out`` that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("text", ["P(700)", "Ab(12) x P(600)"])
def test_large_documents_are_written_in_bounded_slices(text):
    # Past a raised --max-dim a document goes out in several writes, none
    # longer than the budget plus the document's longest part, and the
    # writes add up to the dense reference.  The step between writes comes
    # from the row length, which bounds every part but the first and last.
    expr = parse_variety(text)
    vec = betti(expr)
    table = lyubeznik_table(vec)
    for verify in (True, False):
        expected = reference_outputs(text, verify)
        for fmt, document in (("text", cli._document_text), ("json", cli._document_json)):
            sink = _RecordingSink()
            assert cli.cmd_compute(text, fmt, verify, max_dim=vec.dim, out=sink) == 0
            assert "".join(sink.writes) == expected[fmt], (fmt, verify)
            parts, row = document(expr, vec, table, verify)
            assert max(map(len, parts[1:-1])) <= row
            assert len(sink.writes) >= 3
            assert max(map(len, sink.writes)) <= cli._WRITE_BYTES + max(map(len, parts))


def test_default_documents_are_one_write():
    exprs = corpus() + corpus(max_dim=64) + [parse_variety(text) for text in WORST_CASES]
    for text in map(render, exprs):
        for fmt in ("text", "json", "csv"):
            sink = _RecordingSink()
            assert cli.cmd_compute(text, fmt, out=sink) == 0
            assert len(sink.writes) == 1, (text, fmt)


@pytest.mark.parametrize("text, max_dim, error", [
    ("P(", 64, ParseError),
    ("P(9)", 8, cli._UserError),
    ("Hyp(65," + "9" * 2000 + ")", 64, cli._UserError),
], ids=["syntax", "max-dim", "printable-bound"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_compute_writes_nothing_before_it_raises(text, max_dim, error, fmt):
    sink = _RecordingSink()
    with pytest.raises(error):
        cli.cmd_compute(text, fmt, max_dim=max_dim, out=sink)
    assert sink.writes == []


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_oracle_mismatch_writes_nothing(fmt, monkeypatch):
    monkeypatch.setattr(importlib.import_module("lyubeznik.cli"), "cone_local_derham_dims",
                        lambda vec: (0,) * (vec.dim + 1))
    sink = _RecordingSink()
    with pytest.raises(InternalConsistencyError):
        cli.cmd_compute("Ab(12) x P(600)", fmt, max_dim=612, out=sink)
    assert sink.writes == []


# --- betti and oracle -----------------------------------------------------------

def test_betti_text(capsys):
    code, out, _ = run(["betti", "Ab(2)"], capsys)
    assert code == 0
    assert out == "expression: Ab(2)\ndimension: 2\nbetti: (1, 4, 6, 4, 1)\n"


def test_betti_json(capsys):
    code, out, _ = run(["betti", "Gr(2,4)", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"expr": "Gr(2,4)", "dim": 4,
                   "betti": [1, 0, 1, 0, 2, 0, 1, 0, 1]}
    assert list(doc) == ["expr", "dim", "betti"]


def test_betti_csv(capsys):
    code, out, _ = run(["betti", "P(2)", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["j", "beta"]
    assert rows[1:] == [["0", "1"], ["1", "0"], ["2", "1"], ["3", "0"], ["4", "1"]]


def test_betti_canonicalizes_the_expression(capsys):
    _, out, _ = run(["betti", "  Curve(1)x P(1) ", "--format", "json"], capsys)
    assert json.loads(out)["expr"] == "Curve(1) x P(1)"


def test_oracle_command(capsys):
    code, out, _ = run(["oracle", "Curve(1) x P(1)"], capsys)
    assert code == 0
    assert out.endswith("vertex local de Rham dims: (0, 0, 2)\n")


@pytest.mark.parametrize("command", ["betti", "oracle"])
def test_betti_and_oracle_refuse_an_inadmissible_vector(command, monkeypatch, capsys):
    # A Curve with beta_1 one too large breaks Hodge parity; compute refused
    # it through the table, and betti and oracle must refuse it as well.
    betti_module = importlib.import_module("lyubeznik.betti")
    monkeypatch.setitem(betti_module._ATOM_BETTI, Curve, lambda a: (1, 2 * a.g + 1, 1))
    assert run([command, "Curve(2) x P(1)"], capsys) == (
        2, "", "internal consistency failure: Hodge parity fails: beta_1 = 5 is odd\n")


# --- graph ----------------------------------------------------------------------

def write_graph(tmp_path, payload):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_graph_command(tmp_path, capsys):
    path = write_graph(tmp_path, {
        "components": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
        "intersections": [{"a": "A", "b": "B", "dim": 1}],
    })
    code, out, _ = run(["graph", path], capsys)
    assert code == 0 and out == "1\n"


def test_graph_command_disjoint(tmp_path, capsys):
    path = write_graph(tmp_path, {
        "components": [{"name": "A", "dim": 3}, {"name": "B", "dim": 3}],
    })
    code, out, _ = run(["graph", path], capsys)
    assert code == 0 and out == "2\n"


def test_graph_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(["graph", str(path)], capsys)
    assert code == 1 and "error" in err


def test_graph_rejects_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    code, _, err = run(["graph", str(path)], capsys)
    assert code == 1


def test_graph_rejects_missing_file(capsys):
    code, _, err = run(["graph", "/nonexistent/graph.json"], capsys)
    assert code == 1 and "error" in err


def test_graph_rejects_bad_schema(tmp_path, capsys):
    path = write_graph(tmp_path, {"components": []})
    code, _, err = run(["graph", path], capsys)
    assert code == 1 and "components" in err


def _graph_doc(*intersections, components=({"name": "A", "dim": 2},
                                           {"name": "B", "dim": 2})):
    return {"components": list(components), "intersections": list(intersections)}


_POINTS = ({"name": "P", "dim": 0}, {"name": "Q", "dim": 0})

# One file per fault kind: each message of graph.py that a file can reach,
# the read errors of cmd_graph, and the two r = 0 answers.  A row's file is
# a document (written with json.dumps), text or bytes.
_GRAPH_FILE_ROWS = [
    ("top-level-list", [], "error: top-level JSON value must be an object\n"),
    ("components-missing", {}, "error: 'components' must be a nonempty list\n"),
    ("components-empty", {"components": []},
     "error: 'components' must be a nonempty list\n"),
    ("components-not-list", {"components": {"name": "A", "dim": 2}},
     "error: 'components' must be a nonempty list\n"),
    ("component-not-object", {"components": [["A", 2]]},
     "error: component records need 'name' and 'dim': ['A', 2]\n"),
    ("component-without-dim", {"components": [{"name": "A"}]},
     "error: component records need 'name' and 'dim': {'name': 'A'}\n"),
    ("component-name-int", {"components": [{"name": 3, "dim": 2}]},
     "error: component name must be a string, got 3\n"),
    ("component-name-null", {"components": [{"name": None, "dim": 2}]},
     "error: component name must be a string, got None\n"),
    ("duplicate-component-name",
     _graph_doc(components=({"name": "A", "dim": 2}, {"name": "A", "dim": 1})),
     "error: duplicate component name 'A'\n"),
    ("component-dim-negative", _graph_doc(components=({"name": "A", "dim": -1},)),
     "error: component dimension must be a nonnegative integer, got -1\n"),
    ("component-dim-true", _graph_doc(components=({"name": "A", "dim": True},)),
     "error: component dimension must be a nonnegative integer, got True\n"),
    ("component-dim-float", _graph_doc(components=({"name": "A", "dim": 2.0},)),
     "error: component dimension must be a nonnegative integer, got 2.0\n"),
    ("component-dim-string", _graph_doc(components=({"name": "A", "dim": "2"},)),
     "error: component dimension must be a nonnegative integer, got '2'\n"),
    ("intersections-not-list",
     {"components": [{"name": "A", "dim": 2}], "intersections": "nope"},
     "error: 'intersections' must be a list\n"),
    ("intersection-not-object", _graph_doc(["A", "B", 1]),
     "error: intersection records need 'a', 'b' and 'dim': ['A', 'B', 1]\n"),
    ("intersection-without-dim", _graph_doc({"a": "A", "b": "B"}),
     "error: intersection records need 'a', 'b' and 'dim': {'a': 'A', 'b': 'B'}\n"),
    ("unknown-endpoint", _graph_doc({"a": "A", "b": "Z", "dim": 1}),
     "error: unknown component 'Z' in intersection record\n"),
    ("endpoint-not-string", _graph_doc({"a": ["A"], "b": "B", "dim": 1}),
     "error: unknown component ['A'] in intersection record\n"),
    ("self-intersection", _graph_doc({"a": "A", "b": "A", "dim": 1}),
     "error: component 'A' cannot intersect itself\n"),
    ("intersection-dim-below-empty", _graph_doc({"a": "A", "b": "B", "dim": -2}),
     "error: intersection dimension must be an integer >= -1, got -2\n"),
    ("intersection-dim-true", _graph_doc({"a": "A", "b": "B", "dim": True}),
     "error: intersection dimension must be an integer >= -1, got True\n"),
    ("intersection-dim-float", _graph_doc({"a": "A", "b": "B", "dim": 0.5}),
     "error: intersection dimension must be an integer >= -1, got 0.5\n"),
    ("intersection-dim-too-large",
     _graph_doc({"a": "A", "b": "B", "dim": 2},
                components=({"name": "A", "dim": 2}, {"name": "B", "dim": 1})),
     "error: intersection of 'A' and 'B' cannot exceed either dimension\n"),
    ("duplicate-pair",
     _graph_doc({"a": "A", "b": "B", "dim": 1}, {"a": "B", "b": "A", "dim": 0}),
     "error: duplicate intersection record for pair ('A', 'B')\n"),
    ("two-points-unrecorded", _graph_doc(components=_POINTS), "1\n"),
    ("two-points-empty-record",
     _graph_doc({"a": "P", "b": "Q", "dim": -1}, components=_POINTS), "1\n"),
    ("empty-file", "", "error: Expecting value: line 1 column 1 (char 0)\n"),
    ("malformed", "{not json", "error: Expecting property name enclosed in "
                               "double quotes: line 1 column 2 (char 1)\n"),
    ("nested-1e5-deep", "[" * 100000 + "]" * 100000,
     "error: JSON values nested too deeply\n"),
    ("5001-digit-integer", '{"components": [{"name": "A", "dim": 1' + "0" * 5000 + "}]}",
     "error: an integer in the file has more than 4300 digits\n"),
    ("invalid-utf8", b"\xff", "error: 'utf-8' codec can't decode byte 0xff "
                              "in position 0: invalid start byte\n"),
    # A decoding error names its byte offset in the file, also past the
    # first read chunk and at a sequence cut off by the end of the file.
    ("invalid-utf8-after-multibyte", "é".encode() * 2000000 + b" " * 500000 + b"\xff",
     "error: 'utf-8' codec can't decode byte 0xff in position 4500000: "
     "invalid start byte\n"),
    ("truncated-utf8-at-end", b'["\xc3', "error: 'utf-8' codec can't decode byte "
                                         "0xc3 in position 2: unexpected end of data\n"),
    # Newlines are translated as in text mode, so "\r\n" counts as one
    # character in the offsets of a JSON error.
    ("malformed-crlf", b'{\r\n"components": [\r\n{"name": "A",\r\n "dim": 2}\r\n,]\r\n}',
     "error: Expecting value: line 5 column 2 (char 44)\n"),
]


@pytest.mark.parametrize("content,expected", [row[1:] for row in _GRAPH_FILE_ROWS],
                         ids=[row[0] for row in _GRAPH_FILE_ROWS])
def test_graph_file_bytes(tmp_path, content, expected, capsys):
    path = tmp_path / "graph.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run(["graph", str(path)], capsys)
    if expected.startswith("error: "):
        assert (code, out, err) == (1, "", expected)
    else:
        assert (code, out, err) == (0, expected, "")


# --- exit codes -----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["compute", "P("],
    ["compute", "Gr(3,3)"],
    ["compute", "P(1) + P(2)"],
    ["betti", "Frob(2)"],
    ["oracle", ""],
])
def test_user_errors_exit_one(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_parse_error_reports_offset(capsys):
    code, _, err = run(["compute", "P("], capsys)
    assert code == 1 and "offset 2" in err


def test_usage_errors_exit_one(capsys):
    assert run(["compute"], capsys)[0] == 1
    assert run(["frobnicate", "P(2)"], capsys)[0] == 1
    assert run(["compute", "P(2)", "--format", "yaml"], capsys)[0] == 1
    assert run([], capsys)[0] == 1


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0 and "compute" in out


_USAGE = "usage: lyubeznik [-h] {compute,betti,oracle,graph} ...\n"
_COMPUTE_USAGE = (
    "usage: lyubeznik compute [-h] [--format {text,json,csv}] [--no-verify]\n"
    "                         [--max-dim N]\n"
    "                         expr\n")

# argv, then the exact stdout, stderr and exit code of main(argv).
_HELP_AND_USAGE_BYTES = [
    (["--help"],
     _USAGE + "\n"
     "Exact Lyubeznik tables for cones over nonsingular projective varieties.\n"
     "\n"
     "positional arguments:\n"
     "  {compute,betti,oracle,graph}\n"
     "    compute             Betti vector plus full table, cross-checked\n"
     "    betti               Betti vector only\n"
     "    oracle              exact-sequence dimensions at the cone vertex\n"
     "    graph               corner entry from a component-intersection JSON file\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n", "", 0),
    (["compute", "--help"],
     _COMPUTE_USAGE + "\n"
     "positional arguments:\n"
     '  expr                  variety expression, e.g. "Curve(1) x P(1)"\n'
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --format {text,json,csv}\n"
     "  --no-verify           skip the exact-sequence cross-check\n"
     "  --max-dim N           largest accepted dimension (default 64)\n", "", 0),
    (["betti", "--help"],
     "usage: lyubeznik betti [-h] [--format {text,json,csv}] [--max-dim N] expr\n"
     "\n"
     "positional arguments:\n"
     "  expr\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --format {text,json,csv}\n"
     "  --max-dim N           largest accepted dimension (default 64)\n", "", 0),
    (["oracle", "--help"],
     "usage: lyubeznik oracle [-h] [--max-dim N] expr\n"
     "\n"
     "positional arguments:\n"
     "  expr\n"
     "\n"
     "options:\n"
     "  -h, --help   show this help message and exit\n"
     "  --max-dim N  largest accepted dimension (default 64)\n", "", 0),
    (["graph", "--help"],
     "usage: lyubeznik graph [-h] file\n"
     "\n"
     "positional arguments:\n"
     "  file\n"
     "\n"
     "options:\n"
     "  -h, --help  show this help message and exit\n", "", 0),
    ([], "", _USAGE +
     "lyubeznik: error: the following arguments are required: command\n", 1),
    (["compute"], "", _COMPUTE_USAGE +
     "lyubeznik compute: error: the following arguments are required: expr\n", 1),
    (["frobnicate", "P(2)"], "", _USAGE +
     "lyubeznik: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'compute', 'betti', 'oracle', 'graph')\n", 1),
    (["compute", "P(2)", "--format", "yaml"], "", _COMPUTE_USAGE +
     "lyubeznik compute: error: argument --format: invalid choice: 'yaml' "
     "(choose from 'text', 'json', 'csv')\n", 1),
    (["compute", "P(2)", "--max-dim", "x"], "", _COMPUTE_USAGE +
     "lyubeznik compute: error: argument --max-dim: invalid int value: 'x'\n", 1),
    (["compute", "P(2)", "P(3)"], "", _USAGE +
     "lyubeznik: error: unrecognized arguments: P(3)\n", 1),
    (["compute", "P(2)", "--verbose"], "", _USAGE +
     "lyubeznik: error: unrecognized arguments: --verbose\n", 1),
]


@pytest.mark.parametrize("argv, out, err, code", _HELP_AND_USAGE_BYTES,
                         ids=[" ".join(row[0]) or "no-arguments"
                              for row in _HELP_AND_USAGE_BYTES])
def test_help_and_usage_bytes(argv, out, err, code, monkeypatch, capsys):
    # argparse wraps help and usage text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv, capsys) == (code, out, err)


def test_oracle_mismatch_exits_two(monkeypatch, capsys):
    # force a wrong oracle answer to prove the cross-check wiring trips
    monkeypatch.setattr(cli, "cone_local_derham_dims",
                        lambda vec: (0,) * (vec.dim + 1))
    code, out, err = run(["compute", "Curve(1) x P(1)"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("internal consistency failure:")
    # --no-verify skips the broken check entirely
    code, out, _ = run(["compute", "Curve(1) x P(1)", "--no-verify"], capsys)
    assert code == 0


# --- bounds and robustness ------------------------------------------------------

def assert_one_line_error(code, out, err, expected_code=1):
    assert code == expected_code
    assert out == ""
    assert err.startswith("error:" if expected_code == 1 else "internal error:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["compute", "Hyp(60," + "9" * 90 + ")", "--format", "json"],
    ["compute", "Hyp(60," + "9" * 90 + ")", "--format", "text"],
    ["compute", "Hyp(60," + "9" * 90 + ")", "--format", "csv"],
    ["betti", "Hyp(3," + str(10 ** 1434) + ")", "--format", "json"],
    ["oracle", "Hyp(3," + str(10 ** 1434) + ")"],
    ["compute", "P(" + "9" * 5000 + ")"],
    ["betti", "Curve(" + "1" * 2001 + ")"],
    ["betti", "CI(68; " + ",".join(["9" * 500] * 4) + ")"],
])
def test_integers_beyond_the_digit_bound_exit_one(argv, capsys):
    assert_one_line_error(*run(argv, capsys))


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_integers_within_the_digit_bound_print_exactly(fmt, capsys):
    d = 10 ** 1433  # the middle Betti number of this surface has 4299 digits
    code, out, err = run(["betti", f"Hyp(3,{d})", "--format", fmt], capsys)
    assert code == 0 and err == ""
    beta_2 = d ** 3 - 4 * d ** 2 + 6 * d - 2
    assert len(str(beta_2)) == 4299 and str(beta_2) in out
    g = int("9" * 2000)  # the longest literal; lambda_{0,2} = lambda_{2,3} = 2g
    code, out, err = run(["compute", f"Curve({g}) x P(1)", "--format", fmt], capsys)
    assert code == 0 and err == ""
    # betti (beta_1 = beta_3 = 2g), table and nonzero entries, as each format has them
    assert out.count(str(2 * g)) == {"json": 6, "text": 4, "csv": 2}[fmt]


def test_dimensions_from_the_longest_literals_print(capsys):
    grassmannian = f"Gr({5 * 10 ** 1999},{10 ** 2000 - 1})"  # dimension ~2.5e3999
    product = " x ".join([grassmannian] * 100)
    for argv in (["compute", product], ["betti", product + " + P(1)"]):
        code, out, err = run(argv, capsys)
        assert_one_line_error(code, out, err)
        assert "dimension" in err


@pytest.mark.parametrize("argv", [
    ["betti", "P(3000)"],
    ["betti", "Gr(300,600)"],
    ["betti", "P(100000000)", "--format", "json"],
    ["oracle", "Gr(300,600)"],
    ["betti", "P(9)", "--max-dim", "8"],
    ["oracle", "P(9)", "--max-dim", "8"],
])
def test_betti_and_oracle_refuse_large_dimensions_promptly(argv, capsys):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert_one_line_error(code, out, err)
    assert "max-dim" in err


def test_betti_and_oracle_max_dim_option(capsys):
    code, out, _ = run(["betti", "P(9)", "--max-dim", "9"], capsys)
    assert code == 0 and "dimension: 9" in out
    code, out, _ = run(["oracle", "P(9)", "--max-dim", "9"], capsys)
    assert code == 0 and "dimension: 9" in out


def test_betti_and_oracle_keep_their_positional_arguments():
    out = io.StringIO()
    assert cli.cmd_betti("P(2)", "csv", out) == 0
    assert out.getvalue().startswith("j,beta\n")
    out = io.StringIO()
    assert cli.cmd_oracle("P(2)", out) == 0
    assert out.getvalue().endswith("vertex local de Rham dims: (0, 0, 0)\n")


def test_long_union_chain_computes(capsys):
    # 1500 disjoint lines: lambda_{0,1} = 1499 and the corner counts them
    code, out, err = run(["compute", " + ".join(["P(1)"] * 1500),
                          "--format", "csv"], capsys)
    assert code == 0 and err == ""
    assert out == "i,j,lambda\n0,1,1499\n2,2,1500\n"


def test_long_product_chain_betti(capsys):
    # (P^1)^1000 has beta_{2k} = C(1000, k) and no odd cohomology
    code, out, err = run(["betti", " x ".join(["P(1)"] * 1000),
                          "--max-dim", "1000", "--format", "csv"], capsys)
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [int(beta) for _, beta in rows] == [
        comb(1000, j // 2) if j % 2 == 0 else 0 for j in range(2001)]


@pytest.mark.parametrize("payload", [
    {"components": [{"name": "A", "dim": True}, {"name": "B", "dim": 1}],
     "intersections": [{"a": "A", "b": "B", "dim": 0}]},
    {"components": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
     "intersections": [{"a": "A", "b": "B", "dim": True}]},
    {"components": [{"name": ["A"], "dim": 2}]},
    {"components": [{"name": "A", "dim": 2}],
     "intersections": [{"a": ["A"], "b": "A", "dim": 1}]},
])
def test_graph_rejects_non_integers_and_non_names(tmp_path, payload, capsys):
    assert_one_line_error(*run(["graph", write_graph(tmp_path, payload)], capsys))


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"components": [{"name": "A", "dim": 1' + "0" * 5000 + "}]}",
], ids=["nested-1e5-deep", "5001-digit-integer"])
def test_graph_rejects_unreadable_json(tmp_path, text, capsys):
    path = tmp_path / "graph.json"
    path.write_text(text, encoding="utf-8")
    assert_one_line_error(*run(["graph", str(path)], capsys))


def test_graph_refuses_a_file_longer_than_the_bound(tmp_path, capsys):
    # A valid JSON value one character over the bound is refused for its
    # length, before json reads it and so before its shape is checked.
    path = tmp_path / "graph.json"
    path.write_text("[]" + " " * (cli._MAX_GRAPH_CHARS - 1), encoding="utf-8")
    assert run(["graph", str(path)], capsys) == (
        1, "", f"error: the file is longer than {cli._MAX_GRAPH_CHARS} characters\n")


def test_graph_reads_a_file_of_exactly_the_bound(tmp_path, capsys):
    text = json.dumps(_graph_doc({"a": "A", "b": "B", "dim": 1}))
    path = tmp_path / "graph.json"
    path.write_text(text.ljust(cli._MAX_GRAPH_CHARS), encoding="utf-8")
    assert run(["graph", str(path)], capsys) == (0, "1\n", "")


def test_graph_reports_the_shape_of_a_null_document(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text("null", encoding="utf-8")
    assert run(["graph", str(path)], capsys) == (
        1, "", "error: top-level JSON value must be an object\n")


def test_unexpected_exceptions_exit_two(monkeypatch, capsys):
    def broken(vec):
        raise RuntimeError("broken\non two lines")

    monkeypatch.setattr(cli, "lyubeznik_table", broken)
    code, out, err = run(["compute", "P(2)"], capsys)
    assert_one_line_error(code, out, err, expected_code=2)
    assert err == "internal error: RuntimeError: broken on two lines\n"


def test_out_of_memory_is_a_user_error():
    # A child that caps only its own address space: a dimension that a raised
    # --max-dim admits but the memory cannot hold exits 1, not 2.
    src = Path(cli.__file__).parents[1]
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
             "from lyubeznik.cli import main\n"
             "sys.exit(main(['compute', 'P(30000000)', '--max-dim', '30000000',"
             " '--format', 'csv']))\n")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: out of memory for a variety this large; "
        "a lower --max-dim refuses it up front\n")


def _run_child(argv, address_space=None):
    """Exit code, stdout sha256 and stderr of ``main(argv)`` in a child,
    which caps its own address space at ``address_space`` bytes if given.
    Stdout is hashed as it arrives, so the test holds no document."""
    src = Path(cli.__file__).parents[1]
    probe = "import resource, sys\n"
    if address_space:
        probe += (f"resource.setrlimit(resource.RLIMIT_AS, "
                  f"({address_space}, {address_space}))\n")
    probe += f"from lyubeznik.cli import main\nsys.exit(main({argv!r}))\n"
    digest = hashlib.sha256()
    with subprocess.Popen([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
        err = child.stderr.read().decode()
        code = child.wait(timeout=120)
    return code, digest.hexdigest(), err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_large_documents_run_in_memory_that_grows_with_r(fmt):
    # An 80 MB text or 144 MB JSON document, printed under a 128 MiB cap:
    # only one slice of it is ever held.
    argv = ["compute", "P(4000)", "--max-dim", "4000", "--format", fmt]
    code, digest, err = _run_child(argv, address_space=128 << 20)
    assert (code, err) == (0, "")
    assert digest == _run_child(argv)[1]


def test_a_lower_int_str_limit_changes_no_byte(tmp_path):
    # main() raises a lower int/str digit limit for its run, so the same
    # argv gives the same exit code and bytes under PYTHONINTMAXSTRDIGITS.
    big, half = "1" + "0" * 700, "1" + "0" * 350
    graph = tmp_path / "graph.json"
    graph.write_text(f'{{"components": [{{"name": "A", "dim": {big}}}], '
                     f'"intersections": []}}', encoding="utf-8")
    argvs = [["compute", f"Curve({big})", "--format", "csv"],
             ["compute", f"Curve({half}) x Curve({half})", "--no-verify"],
             ["graph", str(graph)]]
    argvs += [["compute", render(expr), "--format", fmt]
              for expr, fmt in zip(corpus(max_dim=64)[:3], ("text", "json", "csv"))]
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    for argv in argvs:
        default, lowered = (
            subprocess.run([sys.executable, "-m", "lyubeznik", *argv], env=child_env,
                           capture_output=True, text=True, timeout=60)
            for child_env in (env, {**env, "PYTHONINTMAXSTRDIGITS": "640"}))
        assert default.returncode == 0, default.stderr
        assert (lowered.returncode, lowered.stdout, lowered.stderr) == (
            default.returncode, default.stdout, default.stderr), argv[:2]


def test_main_restores_the_callers_int_str_limit(capsys):
    # A caller of the cmd_* functions keeps its own limit, below the 4300
    # digits that the program needs; main() raises it for its run only.
    text = "Curve(1" + "0" * 700 + ")"
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["compute", text, "--format", "csv"]) == 0
        assert capsys.readouterr().out == "i,j,lambda\n2,2,1\n"
        assert sys.get_int_max_str_digits() == 640
        with pytest.raises(ValueError):
            cli.cmd_compute(text, "csv", out=io.StringIO())
    finally:
        sys.set_int_max_str_digits(saved)


def _loaded_at_import(module, names):
    """Which of ``names`` a fresh ``python -S`` has loaded after importing
    ``module`` from this checkout."""
    src = Path(cli.__file__).parents[1]
    probe = (f"import sys, {module}; "
             f"print([m for m in {names!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_startup_imports_stay_lean():
    # The package declares its values without dataclasses, writes CSV
    # without the csv module and JSON without the json module, which only
    # the graph command loads; none of them, nor inspect, is loaded at
    # start-up.
    names = ("dataclasses", "inspect", "csv", "json")
    assert _loaded_at_import("lyubeznik.cli", names) == "[]\n"


def test_cli_import_loads_no_argparse():
    # Only main() builds the argument parser, so callers of cmd_* and a
    # bare import of the CLI module load neither argparse nor the gettext
    # module it imports.
    assert _loaded_at_import("lyubeznik.cli", ("argparse", "gettext")) == "[]\n"


def test_library_import_loads_no_collections_or_re():
    # The parser lexes with a character loop and walks plain tuples, so
    # the library itself needs neither collections nor re.
    assert _loaded_at_import("lyubeznik", ("collections", "re", "dataclasses")) == "[]\n"
