"""Tests of the benchmark's independent checker.

    python3 -m unittest discover -s bench -p "test_*.py"

The checker must accept what the program prints and reject a corrupted
entry, a wrong corner and a truncated output, in every format.
"""

import io
import json
import sys
import unittest
from pathlib import Path

import checker
from workloads import Op

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from lyubeznik import cli  # noqa: E402

CURVE_X_LINE = ("x", [("Curve", 1), ("P", 1)])
TWO_PLANES = ("+", [("P", 2), ("P", 2)])
TREES = [
    CURVE_X_LINE,
    TWO_PLANES,
    ("Gr", 3, 7),
    ("Hyp", 5, 5),
    ("CI", 7, (2, 3, 2)),
    ("x", [("+", [("Ab", 4), ("Gr", 2, 4)]), ("Curve", 3), ("Hyp", 3, 4)]),
    ("+", [("P", 1), ("+", [("Curve", 2), ("CI", 4, (2, 2, 3))])]),
]


def program_output(op):
    out = io.StringIO()
    if op.command == "compute":
        cli.cmd_compute(op.text, op.fmt, out=out)
    elif op.command == "betti":
        cli.cmd_betti(op.text, out=out)
    else:
        cli.cmd_oracle(op.text, out=out)
    return out.getvalue()


def ops_for(tree):
    text = checker.render(tree)
    return [Op("compute", text, fmt, tree) for fmt in ("json", "text", "csv")] + [
        Op("betti", text, tree=tree), Op("oracle", text, tree=tree)]


class ClosedForms(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(checker.gaussian_binomial(4, 2), [1, 1, 2, 1, 1])
        self.assertEqual(checker.betti(("Hyp", 4, 5)), [1, 0, 1, 204, 1, 0, 1])
        self.assertEqual(checker.betti(("CI", 3, (4,))), [1, 0, 22, 0, 1])
        self.assertEqual(checker.betti(CURVE_X_LINE), [1, 2, 2, 2, 1])
        self.assertEqual(checker.components(("x", [TWO_PLANES, TWO_PLANES])), 4)

    def test_hypersurface_formula_agrees_with_series(self):
        for n in range(2, 30):
            for d in range(1, 8):
                self.assertEqual(checker.hypersurface_euler(n, d),
                                 checker.complete_intersection_euler(n, (d,)))

    def test_render_is_canonical(self):
        self.assertEqual(checker.render(("x", [TWO_PLANES, ("x", [("P", 1), ("P", 1)])])),
                         "(P(2) + P(2)) x (P(1) x P(1))")
        self.assertEqual(checker.render(("CI", 5, (2, 2))), "CI(5; 2,2)")


class AgainstProgram(unittest.TestCase):
    def assertRejected(self, op, out):
        with self.assertRaises(checker.CheckError):
            checker.check(op, out)

    def test_accepts_program_output(self):
        for tree in TREES:
            for op in ops_for(tree):
                checker.check(op, program_output(op))

    def test_rejects_corrupted_entry(self):
        tree = ("Gr", 3, 7)
        json_op, text_op, csv_op, betti_op, oracle_op = ops_for(tree)
        doc = json.loads(program_output(json_op))
        doc["table"][0][4] += 1
        self.assertRejected(json_op, json.dumps(doc, indent=2) + "\n")
        text = program_output(text_op).splitlines(keepends=True)
        row = text[7].split(" | ")
        cells = row[1].split()
        cells[4] = str(int(cells[4]) + 1)
        text[7] = row[0] + " | " + " ".join(cells) + "\n"
        self.assertRejected(text_op, "".join(text))
        lines = program_output(csv_op).splitlines(keepends=True)
        i, j, value = lines[1].strip().split(",")
        lines[1] = f"{i},{j},{int(value) + 1}\n"
        self.assertRejected(csv_op, "".join(lines))
        self.assertRejected(betti_op, program_output(betti_op).replace("(1, 0, 1,", "(1, 0, 2,"))
        self.assertRejected(oracle_op, program_output(oracle_op).replace("(0, 0,", "(0, 1,"))

    def test_rejects_wrong_corner(self):
        json_op, text_op, csv_op, _, _ = ops_for(TWO_PLANES)
        doc = json.loads(program_output(json_op))
        doc["table"][3][3] = 1
        doc["nonzero"][-1][2] = 1
        self.assertRejected(json_op, json.dumps(doc, indent=2) + "\n")
        text = program_output(text_op)
        self.assertTrue(text.endswith("3 | 0 0 0 2\n"))
        self.assertRejected(text_op, text[:-2] + "1\n")
        csv_out = program_output(csv_op)
        self.assertTrue(csv_out.endswith("3,3,2\n"))
        self.assertRejected(csv_op, csv_out[:-2] + "1\n")
        self.assertRejected(Op("graph", "graph.json", planted=3), "2\n")

    def test_rejects_truncated_output(self):
        for tree in (("Gr", 3, 7), TWO_PLANES):
            for op in ops_for(tree):
                out = program_output(op)
                self.assertRejected(op, out[:len(out) // 2])
                self.assertRejected(op, out[:-1])
                self.assertRejected(op, "".join(out.splitlines(keepends=True)[:-1]))
        self.assertRejected(Op("graph", "graph.json", planted=12), "1")


if __name__ == "__main__":
    unittest.main()
