"""Spans around the program's public calls, recorded from outside.

``Tracer.install`` replaces each public function listed by ``layers`` by a
wrapper that records a span (name, operation id, parent span, start and
end in nanoseconds, a tag and a count) and ``uninstall`` puts the
originals back.  Spans stay in memory until the run ends.  Only the
calls the command line makes are wrapped, never the recursive calls
inside a module, so a chain of hundreds of terms gains one stack frame,
not hundreds.
"""

import importlib
import statistics
from time import perf_counter_ns

NAME, OP, PARENT, START, END, TAG, VALUE = range(7)


def program_modules():
    return {name: importlib.import_module(f"lyubeznik.{name}")
            for name in ("cli", "betti", "table", "graph")}


def _fmt_tag(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("fmt", "text")


def _max_bits(args, result):
    return max(b.bit_length() for b in result)


def _entries(args, result):
    # The (r+2) x (r+2) table of a Betti vector of length 2r+1.
    return ((len(args[0]) - 1) // 2 + 2) ** 2


def _chars(args, result):
    return len(args[0])


def _components(args, result):
    return len(result.components)


def layers(modules):
    """(owner, attribute, span name, tag hook, count hook) for every wrapped
    call.  ``modules`` maps short names to the imported program modules."""
    cli, betti, table, graph = (modules[k] for k in ("cli", "betti", "table", "graph"))
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "cmd_compute", "cli.cmd_compute", _fmt_tag, None),
        (cli, "cmd_betti", "cli.cmd_betti", None, None),
        (cli, "cmd_oracle", "cli.cmd_oracle", None, None),
        (cli, "cmd_graph", "cli.cmd_graph", None, None),
        (cli, "parse_variety", "parser.parse_variety", None, _chars),
        (cli, "dimension", "variety.dimension", None, None),
        (cli, "render", "variety.render", None, None),
        (cli, "betti", "betti.betti", None, _max_bits),
        (betti, "euler_char_ci", "betti.euler_char_ci", None, None),
        (cli, "lyubeznik_table", "table.lyubeznik_table", None, _entries),
        (table.LyubeznikTable, "nonzero", "table.nonzero", None, None),
        (cli, "cone_local_derham_dims", "oracle.cone_local_derham_dims", None, None),
        (graph.ComponentGraph, "from_json_dict", "graph.from_json_dict", None, _components),
        (cli, "corner_from_graph", "graph.corner_from_graph", None, None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._saved = []

    def _wrap(self, func, name, tag, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, 0, 0,
                    tag(args, kwargs) if tag else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if count:
                span[VALUE] = count(args, result)
            return result
        return traced

    def install(self, modules):
        for owner, attr, name, tag, count in layers(modules):
            raw = vars(owner)[attr]
            traced = self._wrap(getattr(owner, attr), name, tag, count)
            if isinstance(raw, classmethod):
                traced = staticmethod(traced)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def extend(self, spans, op):
        """Append spans recorded in another process as operation ``op``."""
        base = len(self.spans)
        for span in spans:
            span = list(span)
            span[OP] = op
            if span[PARENT] >= 0:
                span[PARENT] += base
            self.spans.append(span)


def self_times(spans):
    """Each span's duration minus the time covered by its child spans."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(idx)
    result = []
    for idx, span in enumerate(spans):
        covered, reach = 0, span[START]
        for child in sorted(children[idx], key=lambda c: spans[c][START]):
            start = max(spans[child][START], reach)
            end = min(spans[child][END], span[END])
            if end > start:
                covered += end - start
                reach = end
        result.append(span[END] - span[START] - covered)
    return result


# Per-layer metric: (span name, "total" or "self" time, tag it must carry).
TIMES = {
    "parser.parse_us": ("parser.parse_variety", "total", None),
    "variety.dimension_us": ("variety.dimension", "total", None),
    "variety.render_us": ("variety.render", "total", None),
    "betti.betti_us": ("betti.betti", "total", None),
    "betti.euler_char_ci_us": ("betti.euler_char_ci", "total", None),
    "table.table_us": ("table.lyubeznik_table", "total", None),
    "table.nonzero_us": ("table.nonzero", "total", None),
    "oracle.oracle_us": ("oracle.cone_local_derham_dims", "total", None),
    "cli.emit_json_us": ("cli.cmd_compute", "self", "json"),
    "cli.emit_text_us": ("cli.cmd_compute", "self", "text"),
    "cli.emit_csv_us": ("cli.cmd_compute", "self", "csv"),
    "cli.compute_us": ("cli.cmd_compute", "total", None),
    "cli.dispatch_us": ("cli.main", "self", None),
    "graph.load_us": ("graph.from_json_dict", "total", None),
    "graph.corner_us": ("graph.corner_from_graph", "total", None),
}

# Per-layer count, per pass: (span name, how the span counts combine).
COUNTS = {
    "parser.chars": ("parser.parse_variety", sum),
    "betti.max_bits": ("betti.betti", max),
    "table.entries": ("table.lyubeznik_table", sum),
    "graph.components": ("graph.from_json_dict", sum),
}


def layer_metrics(spans, pass_of_op):
    """Times: the median over operations of the time an operation spent in
    the layer (operations that never enter it are left out; 0 when none
    does).  Counts: per pass, taken from the first traced pass."""
    selfs = self_times(spans)
    metrics = {}
    for metric, (name, kind, tag) in TIMES.items():
        per_op = {}
        for span, own in zip(spans, selfs):
            if span[NAME] == name and (tag is None or span[TAG] == tag):
                took = own if kind == "self" else span[END] - span[START]
                per_op[span[OP]] = per_op.get(span[OP], 0) + took
        value = statistics.median(per_op.values()) / 1e3 if per_op else 0.0
        metrics[metric] = (value, "us")
    first_pass = min(pass_of_op.values())
    for metric, (name, combine) in COUNTS.items():
        values = [span[VALUE] for span in spans
                  if span[NAME] == name and pass_of_op[span[OP]] == first_pass]
        metrics[metric] = (combine(values) if values else 0, "count")
    return metrics
