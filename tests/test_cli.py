"""Command-line behavior: formats, exit codes, determinism."""

import csv
import io
import json
import time
from math import comb

import pytest

import lyubeznik.cli as cli
from lyubeznik import ConeLocalDims
from lyubeznik.cli import main


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


def test_oracle_mismatch_exits_two(monkeypatch, capsys):
    # force a wrong oracle answer to prove the cross-check wiring trips
    monkeypatch.setattr(cli, "cone_local_derham_dims",
                        lambda vec: ConeLocalDims((0,) * (vec.dim + 1)))
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


def test_unexpected_exceptions_exit_two(monkeypatch, capsys):
    def broken(vec):
        raise RuntimeError("broken\non two lines")

    monkeypatch.setattr(cli, "lyubeznik_table", broken)
    code, out, err = run(["compute", "P(2)"], capsys)
    assert_one_line_error(code, out, err, expected_code=2)
    assert err == "internal error: RuntimeError: broken on two lines\n"
