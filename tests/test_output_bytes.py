"""Byte identity of every output format against a dense reference.

The program stores only the first row and the corner of a table and
writes its documents straight from them.  The reference here takes the
Betti vector, the full (r+2) x (r+2) grid and the expression line from
``bench/checker.py``, which imports nothing from the program, and
serializes them the way the dense writers did: ``json.dumps(...,
indent=2)``, a per-cell text grid and ``csv.writer`` over a row-major
scan.  Both must agree byte for byte.
"""

import csv
import io
import json

import pytest

from corpus import CORPUS_SEED, CORPUS_SIZE, corpus
from lyubeznik import parse_variety, render
from lyubeznik.cli import cmd_betti, cmd_compute
from reference import checker, checker_tree

WORST_CASES = ("Gr(8,16)", "Ab(64)", "Hyp(65,10)", "CI(67; 2,3,4)")


def reference_text(expr, dim, betti_numbers, rows):
    lines = [
        f"expression: {expr}",
        f"dimension: {dim}",
        "betti: (" + ", ".join(str(v) for v in betti_numbers) + ")",
        "verified: yes",
        "",
    ]
    d = len(rows) - 1
    width = max(len(str(v)) for row in rows for v in row)
    width = max(width, len(str(d)))
    corner = "i\\j"
    label_width = max(len(corner), len(str(d)))
    header = " ".join(f"{j:>{width}}" for j in range(d + 1))
    lines.append(f"{corner:>{label_width}} | {header}")
    lines.append("-" * (label_width + 3 + len(header)))
    for i, row in enumerate(rows):
        cells = " ".join(f"{v:>{width}}" for v in row)
        lines.append(f"{i:>{label_width}} | {cells}")
    return "\n".join(lines) + "\n"


def reference_outputs(text):
    tree = checker_tree(parse_variety(text))
    dim, betti_numbers, rows = checker.table(tree)
    nonzero = checker.nonzero(rows)
    payload = {
        "expr": checker.render(tree),
        "dim": dim,
        "betti": betti_numbers,
        "table": rows,
        "nonzero": nonzero,
        "verified": True,
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "lambda"])
    writer.writerows(nonzero)
    return {
        "json": json.dumps(payload, indent=2) + "\n",
        "text": reference_text(payload["expr"], dim, betti_numbers, rows),
        "csv": buf.getvalue(),
    }


def computed(text, fmt):
    out = io.StringIO()
    assert cmd_compute(text, fmt, out=out) == 0
    return out.getvalue()


def assert_same_bytes(texts):
    for text in texts:
        for fmt, reference in reference_outputs(text).items():
            assert computed(text, fmt) == reference, (text, fmt)


def test_corpus_bytes():
    assert_same_bytes(render(expr) for expr in corpus())


def test_dim64_corpus_bytes():
    exprs = corpus(seed=CORPUS_SEED, size=CORPUS_SIZE, max_dim=64)
    assert_same_bytes(render(expr) for expr in exprs)


@pytest.mark.parametrize("text", WORST_CASES)
def test_worst_case_bytes(text):
    assert_same_bytes([text])


def test_betti_json_bytes():
    for expr in corpus(seed=CORPUS_SEED, size=CORPUS_SIZE, max_dim=64):
        tree = checker_tree(expr)
        dim, betti_numbers, _ = checker.table(tree)
        payload = {"expr": checker.render(tree), "dim": dim, "betti": betti_numbers}
        out = io.StringIO()
        assert cmd_betti(render(expr), "json", out=out) == 0
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
