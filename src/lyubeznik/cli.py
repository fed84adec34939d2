"""Command-line front end: parse expressions, compute, verify, serialize.

Subcommands:
    compute <expr>   Betti vector plus full table, cross-checked
    betti <expr>     Betti vector only
    oracle <expr>    exact-sequence dimensions at the cone vertex
    graph <file>     corner entry from a component-intersection JSON file

Exit codes: 0 success, 1 user error, 2 internal failure (the two routes
disagree, or an unexpected exception).
Output is deterministic: identical invocations produce identical bytes.
"""

import argparse
import json
import sys

from .betti import AdmissibilityError, InternalConsistencyError, betti
from .graph import ComponentGraph, GraphError, corner_from_graph
from .oracle import cone_local_derham_dims
from .parser import MAX_INT_DIGITS, ParseError, parse_variety
from .table import LyubeznikTable, lyubeznik_table
from .variety import SemanticError, dimension, render

_DEFAULT_MAX_DIM = 64
_PRINTABLE_BOUND = 10 ** MAX_INT_DIGITS


class _UserError(Exception):
    """A request the user can fix; reported on stderr with exit code 1."""


def _document_text(expr_text: str, vec, table: LyubeznikTable,
                   verified: bool) -> str:
    d = table.dim_a
    top = [str(v) for v in table.first_row]
    column = [str(v) for v in table.last_column()]
    width = max(len(str(d)), *map(len, top), *map(len, column))
    label = "i\\j"
    label_width = max(len(label), len(str(d)))
    header = " ".join(f"{j:>{width}}" for j in range(d + 1))
    lines = [
        f"expression: {expr_text}",
        f"dimension: {vec.dim}",
        f"betti: {vec}",
        f"verified: {'yes' if verified else 'skipped'}",
        "",
        f"{label:>{label_width}} | {header}",
        "-" * (label_width + 3 + len(header)),
        f"{0:>{label_width}} | " + " ".join(cell.rjust(width) for cell in top),
    ]
    # Rows 1..d hold d zeros and then their last-column cell.
    zeros = " ".join(["0".rjust(width)] * d)
    lines += [f"{i:>{label_width}} | {zeros} {cell:>{width}}"
              for i, cell in enumerate(column, 1)]
    return "\n".join(lines) + "\n"


# The JSON writers lay values out exactly as json.dumps(..., indent=2) does.
def _json_array(items, depth: int) -> str:
    """A list of already encoded ``items`` nested ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json_ints(values, depth: int) -> str:
    return _json_array([str(v) for v in values], depth)


def _json_object(fields) -> str:
    """The top-level object of (key, encoded value) pairs, plus a newline;
    the keys are plain ASCII."""
    return "{\n  " + ",\n  ".join(f'"{key}": {value}' for key, value in fields) + "\n}\n"


def _json_table(table: LyubeznikTable) -> str:
    # Rows 1..d hold d zeros and then their last-column cell, at depth 2.
    pad = "\n" + "  " * 3
    zeros = "[" + pad + ("," + pad).join(["0"] * table.dim_a) + "," + pad
    rows = [_json_ints(table.first_row, 2)]
    rows += [zeros + str(v) + "\n    ]" for v in table.last_column()]
    return _json_array(rows, 1)


# One (i, j, lambda) triple of the nonzero list, at depth 2.
_JSON_TRIPLE = "[\n      %d,\n      %d,\n      %d\n    ]"


def _document_json(expr_text: str, vec, table: LyubeznikTable,
                   verified: bool) -> str:
    return _json_object([
        ("expr", json.dumps(expr_text)),
        ("dim", str(vec.dim)),
        ("betti", _json_ints(vec.betti, 1)),
        ("table", _json_table(table)),
        ("nonzero", _json_array([_JSON_TRIPLE % e for e in table.nonzero()], 1)),
        ("verified", "true" if verified else "false"),
    ])


def _csv_text(header: str, rows) -> str:
    """``header`` (a line of its own) and one line per row of integers."""
    return header + "".join([",".join(map(str, row)) + "\n" for row in rows])


def _parse_bounded(expr_text: str, max_dim: int):
    """The parsed expression and its Betti vector.  A dimension above
    ``max_dim`` is refused before any Betti work, and a vector with an
    entry of more than MAX_INT_DIGITS digits once it is known."""
    expr = parse_variety(expr_text)
    r = dimension(expr)
    if r > max_dim:
        raise _UserError(
            f"dimension {r} exceeds the printable bound {max_dim}; "
            f"raise it with --max-dim")
    vec = betti(expr)
    if max(vec.betti) >= _PRINTABLE_BOUND:
        raise _UserError(
            f"a Betti number has more than {MAX_INT_DIGITS} digits, "
            f"the printable bound")
    return expr, vec


def cmd_compute(expr_text: str, fmt: str = "text", verify: bool = True,
                max_dim: int = _DEFAULT_MAX_DIM, out=None) -> int:
    """Parse, compute the table, optionally cross-check, and print."""
    out = out if out is not None else sys.stdout
    expr, vec = _parse_bounded(expr_text, max_dim)
    r = vec.dim
    table = lyubeznik_table(vec)
    verified = False
    if verify:
        dims = cone_local_derham_dims(vec)
        if dims != table.first_row[:r + 1]:
            raise InternalConsistencyError(
                f"oracle mismatch for {render(expr)}: exact-sequence dims "
                f"{dims} vs table first row {table.first_row[:r + 1]}")
        verified = True
    if fmt == "csv":
        out.write(_csv_text("i,j,lambda\n", table.nonzero()))
    elif fmt == "json":
        out.write(_document_json(render(expr), vec, table, verified))
    else:
        out.write(_document_text(render(expr), vec, table, verified))
    return 0


def cmd_betti(expr_text: str, fmt: str = "text", out=None,
              max_dim: int = _DEFAULT_MAX_DIM) -> int:
    """Parse and print the Betti vector."""
    out = out if out is not None else sys.stdout
    expr, vec = _parse_bounded(expr_text, max_dim)
    if fmt == "json":
        out.write(_json_object([("expr", json.dumps(render(expr))),
                                ("dim", str(vec.dim)),
                                ("betti", _json_ints(vec.betti, 1))]))
    elif fmt == "csv":
        out.write(_csv_text("j,beta\n", enumerate(vec)))
    else:
        out.write(f"expression: {render(expr)}\n"
                  f"dimension: {vec.dim}\n"
                  f"betti: {vec}\n")
    return 0


def cmd_oracle(expr_text: str, out=None, max_dim: int = _DEFAULT_MAX_DIM) -> int:
    """Parse and print the exact-sequence dimensions at the cone vertex."""
    out = out if out is not None else sys.stdout
    expr, vec = _parse_bounded(expr_text, max_dim)
    dims = cone_local_derham_dims(vec)
    out.write(f"expression: {render(expr)}\n"
              f"dimension: {vec.dim}\n"
              f"vertex local de Rham dims: {dims}\n")
    return 0


def cmd_graph(path: str, out=None) -> int:
    """Read a component-intersection JSON file and print the corner entry."""
    out = out if out is not None else sys.stdout
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise GraphError("JSON values nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise GraphError(str(exc)) from None
        except ValueError:  # int() refuses a literal this long
            raise GraphError(f"an integer in the file has more than "
                             f"{MAX_INT_DIGITS} digits") from None
    graph = ComponentGraph.from_json_dict(data)
    out.write(f"{corner_from_graph(graph)}\n")
    return 0


def _add_max_dim(command) -> None:
    command.add_argument("--max-dim", type=int, default=_DEFAULT_MAX_DIM,
                         metavar="N", help="largest accepted dimension "
                         f"(default {_DEFAULT_MAX_DIM})")


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyubeznik",
        description="Exact Lyubeznik tables for cones over nonsingular "
                    "projective varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="Betti vector plus full table, cross-checked")
    compute.add_argument("expr", help='variety expression, e.g. "Curve(1) x P(1)"')
    compute.add_argument("--format", choices=("text", "json", "csv"),
                         default="text")
    compute.add_argument("--no-verify", action="store_true",
                         help="skip the exact-sequence cross-check")
    _add_max_dim(compute)
    compute.set_defaults(handler=lambda a: cmd_compute(
        a.expr, a.format, not a.no_verify, a.max_dim))

    betti_cmd = sub.add_parser("betti", help="Betti vector only")
    betti_cmd.add_argument("expr")
    betti_cmd.add_argument("--format", choices=("text", "json", "csv"),
                           default="text")
    _add_max_dim(betti_cmd)
    betti_cmd.set_defaults(
        handler=lambda a: cmd_betti(a.expr, a.format, max_dim=a.max_dim))

    oracle_cmd = sub.add_parser(
        "oracle", help="exact-sequence dimensions at the cone vertex")
    oracle_cmd.add_argument("expr")
    _add_max_dim(oracle_cmd)
    oracle_cmd.set_defaults(handler=lambda a: cmd_oracle(a.expr, max_dim=a.max_dim))

    graph_cmd = sub.add_parser(
        "graph", help="corner entry from a component-intersection JSON file")
    graph_cmd.add_argument("file")
    graph_cmd.set_defaults(handler=lambda a: cmd_graph(a.file))

    return parser


def main(argv=None) -> int:
    try:
        args = _build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage mistake, which is a
        # user error: exit 1, keeping 2 for internal failures.
        return 1 if exc.code else 0
    try:
        return args.handler(args)
    except (ParseError, SemanticError, GraphError, _UserError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AdmissibilityError, InternalConsistencyError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: report it on one line, not a traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
