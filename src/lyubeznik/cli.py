"""Command-line front end: parse expressions, compute, verify, serialize.

Subcommands:
    compute <expr>   Betti vector plus full table, cross-checked
    betti <expr>     Betti vector only
    oracle <expr>    exact-sequence dimensions at the cone vertex
    graph <file>     corner entry from a component-intersection JSON file

Exit codes: 0 success, 1 user error (running out of memory included),
2 internal failure (an exact-sequence route disagrees with the printed
table, the Betti vector is not admissible, or an unexpected exception).
Output is deterministic: identical invocations produce identical bytes.
Every part of a document is built before its first write, so stdout stays
empty on exit 1 or 2 unless the write itself failed.  Text and JSON
documents share one string for the zeros of table rows 1..d and go out in
slices of about 1 MiB, so memory grows with the dimension r, not with the
document.
"""

import codecs
import io
import sys

from .betti import (AdmissibilityError, InternalConsistencyError, betti,
                    check_lefschetz_admissible)
from .graph import ComponentGraph, GraphError, corner_from_graph
from .oracle import cone_local_derham_dims, gysin_last_column
from .parser import ParseError, parse_variety
from .table import LyubeznikTable, lyubeznik_table
from .variety import SemanticError, dimension, render

_DEFAULT_MAX_DIM = 64
# Every integer the program prints has at most MAX_INT_DIGITS decimal
# digits, Python's default limit for int/str conversion since 3.10.7 (the
# package's floor); past it json's int() raises the ValueError graph reports.
MAX_INT_DIGITS = 4300
_PRINTABLE_BOUND = 10 ** MAX_INT_DIGITS
# graph refuses a longer component file before json holds it in memory.
_MAX_GRAPH_CHARS = 1 << 22
# Text and JSON documents are written in slices of about this many
# characters, so a raised --max-dim holds one slice, not the document.
_WRITE_BYTES = 1 << 20


class _UserError(Exception):
    """A request the user can fix; reported on stderr with exit code 1."""


def _opening_text(expr, vec, last: str) -> str:
    """The lines every text document opens with: the expression, its
    dimension and then the caller's ``last`` line."""
    return f"expression: {render(expr)}\ndimension: {vec.dim}\n{last}\n"


def _document_text(expr, vec, table: LyubeznikTable, verified: bool):
    """The parts of the text document, and the length of a table line."""
    d = table.dim_a
    top = [str(v) for v in table.first_row]
    corner = str(table.corner)
    indices = [str(j) for j in range(d + 1)]
    width = max(len(indices[-1]), *map(len, top), len(corner))
    label_width = max(len("i\\j"), len(indices[-1]))
    cells = [cell.rjust(width) for cell in top]
    opening = (_opening_text(expr, vec, f"betti: {vec}")
               + f"verified: {'yes' if verified else 'skipped'}\n\n")
    line = ("i\\j".rjust(label_width) + " | "
            + " ".join([j.rjust(width) for j in indices]) + "\n")
    # Rows 1..d are their label, one shared run of d zeros and their
    # last-column cell: every part but the opening is at most a line.
    rows = [" | " + " ".join(["0".rjust(width)] * d) + " "] * (3 * d)
    rows[::3] = [i.rjust(label_width) for i in indices[1:]]
    rows[2::3] = [cell + "\n" for cell in
                  LyubeznikTable._mirror(cells, corner.rjust(width))]
    return [
        opening,
        line,
        "-" * (len(line) - 1) + "\n",
        "0".rjust(label_width) + " | " + " ".join(cells) + "\n",
        *rows,
    ], len(line)


# The JSON writers lay values out exactly as json.dumps(..., indent=2) does.
def _json_array(items, depth: int) -> str:
    """A nonempty list of already encoded ``items`` nested ``depth`` levels
    deep.  No document has an empty array: the nonzero list always holds
    the corner, which is at least 1."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _opening_json(expr, vec) -> str:
    """The top-level object up to the Betti vector, without its closing.
    ``render`` writes only ASCII letters, digits, spaces and "(),;+", so
    quoting the expression needs no escapes."""
    return (f'{{\n  "expr": "{render(expr)}",\n  "dim": {vec.dim},\n  "betti": '
            + _json_array([str(v) for v in vec.betti], 1))


# One (i, j, lambda) triple of the nonzero list, at depth 2.
_JSON_TRIPLE = "[\n      %d,\n      %d,\n      %d\n    ]"


def _document_json(expr, vec, table: LyubeznikTable, verified: bool):
    """The parts of the JSON document, and the length of its longest table
    row after the first."""
    top = [str(v) for v in table.first_row]
    corner = str(table.corner)
    # Rows 1..d of the table are one shared run of d zeros, each closed by
    # its last-column cell.
    pad = "\n" + "  " * 3
    rows = [",\n    [" + pad + ("," + pad).join(["0"] * table.dim_a) + "," + pad] * (
        2 * table.dim_a)
    cells = [cell + "\n    ]" for cell in LyubeznikTable._mirror(top, corner)]
    rows[1::2] = cells
    return [
        _opening_json(expr, vec) + ',\n  "table": [\n    ' + _json_array(top, 2),
        *rows,
        '\n  ],\n  "nonzero": '
        + _json_array([_JSON_TRIPLE % e for e in table.nonzero()], 1)
        + f',\n  "verified": {"true" if verified else "false"}\n}}\n',
    ], len(rows[0]) + max(map(len, cells))


def _write_parts(out, parts, row: int) -> None:
    """Write the concatenated ``parts`` in slices of _WRITE_BYTES // ``row``
    parts, at least one.  No part but the first and the last is longer than
    ``row``, so a slice holds at most _WRITE_BYTES characters besides those
    two."""
    step = max(1, _WRITE_BYTES // row)
    for start in range(0, len(parts), step):
        out.write("".join(parts[start:start + step]))


def _csv_text(header: str, line: str, rows) -> str:
    """``header`` (a line of its own) and each row formatted with ``line``."""
    return header + "".join([line % row for row in rows])


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
        routes = cone_local_derham_dims(vec) + gysin_last_column(vec)
        printed = table.first_row[:r + 1] + table.last_column()
        if routes != printed:
            k = next(k for k, v in enumerate(routes) if v != printed[k])
            i, j = (0, k) if k <= r else (k - r, r + 1)
            raise InternalConsistencyError(
                f"oracle mismatch for {render(expr)}: lambda_({i},{j}) is "
                f"{routes[k]} by the exact sequences, {printed[k]} in the table")
        verified = True
    if fmt == "csv":
        out.write(_csv_text("i,j,lambda\n", "%d,%d,%d\n", table.nonzero()))
    else:
        writer = _document_json if fmt == "json" else _document_text
        _write_parts(out, *writer(expr, vec, table, verified))
    return 0


def cmd_betti(expr_text: str, fmt: str = "text", out=None,
              max_dim: int = _DEFAULT_MAX_DIM) -> int:
    """Parse, check admissibility and print the Betti vector."""
    out = out if out is not None else sys.stdout
    expr, vec = _parse_bounded(expr_text, max_dim)
    check_lefschetz_admissible(vec)
    if fmt == "json":
        out.write(_opening_json(expr, vec) + "\n}\n")
    elif fmt == "csv":
        out.write(_csv_text("j,beta\n", "%d,%d\n", enumerate(vec)))
    else:
        out.write(_opening_text(expr, vec, f"betti: {vec}"))
    return 0


def cmd_oracle(expr_text: str, out=None, max_dim: int = _DEFAULT_MAX_DIM) -> int:
    """Parse and print the exact-sequence dimensions at the cone vertex."""
    out = out if out is not None else sys.stdout
    expr, vec = _parse_bounded(expr_text, max_dim)
    check_lefschetz_admissible(vec)
    dims = cone_local_derham_dims(vec)
    out.write(_opening_text(expr, vec, f"vertex local de Rham dims: {dims}"))
    return 0


def cmd_graph(path: str, out=None) -> int:
    """Read a component-intersection JSON file and print the corner entry."""
    import json  # only this command reads JSON; the others start without it
    out = out if out is not None else sys.stdout
    # UTF-8 spends at most 4 bytes on a character.  The prefix is decoded
    # in one step, so a decoding error names its offset in the file, and
    # with text mode's newline translation, so JSON offsets count the
    # characters that text mode would read.
    limit = 4 * (_MAX_GRAPH_CHARS + 1)
    with open(path, "rb") as handle:
        data = handle.read(limit)
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(),
                                           translate=True)
    try:
        text = decoder.decode(data, final=len(data) < limit)
    except UnicodeDecodeError as exc:
        raise GraphError(str(exc)) from None
    if len(text) > _MAX_GRAPH_CHARS:
        raise GraphError(f"the file is longer than {_MAX_GRAPH_CHARS} characters")
    try:
        data = json.loads(text)
    except RecursionError:
        raise GraphError("JSON values nested too deeply") from None
    except json.JSONDecodeError as exc:
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


def _build_arg_parser():
    import argparse  # only main() parses arguments; cmd_* callers skip it
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
    # Every bound of the program assumes Python's default int/str limit, so
    # a lower one set by the user (PYTHONINTMAXSTRDIGITS, -X
    # int_max_str_digits) is raised for the run, and restored after it.
    limit = sys.get_int_max_str_digits()
    if 0 < limit < MAX_INT_DIGITS:
        sys.set_int_max_str_digits(MAX_INT_DIGITS)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
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
    except MemoryError:
        # A raised --max-dim admits vectors that need more memory than there
        # is: the size of the request, which the user sets, not a bug.
        print("error: out of memory for a variety this large; "
              "a lower --max-dim refuses it up front", file=sys.stderr)
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
