"""Byte identity of every output format against a dense reference.

The program stores only the first row and the corner of a table and
writes its documents straight from them.  The reference here builds the
full (r+2) x (r+2) grid from the paper's formulas and serializes it the
way the dense writers did: ``json.dumps(..., indent=2)``, a per-cell text
grid and ``csv.writer`` over a row-major scan.  Both must agree byte for
byte, with verification on and off.
"""

import csv
import io
import json

import pytest

from corpus import CORPUS_SEED, CORPUS_SIZE, corpus
from lyubeznik import betti, parse_variety, render
from lyubeznik.cli import cmd_betti, cmd_compute

WORST_CASES = ("Gr(8,16)", "Ab(64)", "Hyp(65,10)", "CI(67; 2,3,4)")


def dense_rows(vec):
    """The table of the paper: first row from consecutive Betti differences,
    last column mirroring it, beta_0 in the corner, zero elsewhere."""
    r, b = vec.dim, vec.betti
    d = r + 1
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    rows[0][1] = b[0] - 1
    if r >= 2:
        rows[0][2] = b[1]
    for j in range(3, r + 1):
        rows[0][j] = b[j - 1] - b[j - 3]
    for ell in range(2, r + 1):
        rows[ell][d] = rows[0][r + 2 - ell]
    rows[d][d] = b[0]
    return rows


def reference_text(expr, dim, betti_numbers, rows, verified):
    lines = [
        f"expression: {expr}",
        f"dimension: {dim}",
        "betti: (" + ", ".join(str(v) for v in betti_numbers) + ")",
        f"verified: {'yes' if verified else 'skipped'}",
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


def reference_outputs(text, verified):
    expr = parse_variety(text)
    vec = betti(expr)
    rows = dense_rows(vec)
    nonzero = [[i, j, v] for i, row in enumerate(rows)
               for j, v in enumerate(row) if v]
    payload = {
        "expr": render(expr),
        "dim": vec.dim,
        "betti": list(vec.betti),
        "table": rows,
        "nonzero": nonzero,
        "verified": verified,
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "lambda"])
    writer.writerows(nonzero)
    return {
        "json": json.dumps(payload, indent=2) + "\n",
        "text": reference_text(render(expr), vec.dim, vec.betti, rows, verified),
        "csv": buf.getvalue(),
    }


def computed(text, fmt, verify):
    out = io.StringIO()
    assert cmd_compute(text, fmt, verify, out=out) == 0
    return out.getvalue()


def assert_same_bytes(texts):
    for text in texts:
        for verify in (True, False):
            expected = reference_outputs(text, verify)
            for fmt, reference in expected.items():
                assert computed(text, fmt, verify) == reference, (text, fmt, verify)


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
        vec = betti(expr)
        payload = {"expr": render(expr), "dim": vec.dim, "betti": list(vec.betti)}
        out = io.StringIO()
        assert cmd_betti(render(expr), "json", out=out) == 0
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
