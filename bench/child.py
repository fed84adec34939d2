"""Child processes of the benchmark; run with PYTHONPATH set to the checkout's src.

    python3 bench/child.py setup <workload>
        Prints the seconds from importing lyubeznik.cli to the end of one
        call of each kind the workload makes, on a fixed small input: the
        program's own set-up.  Nothing the program imports is imported
        before the clock starts.
    python3 bench/child.py trace <span file> <lyubeznik arguments...>
        Runs the command line as ``python -m lyubeznik`` does, with every
        layer wrapped, and writes the recorded spans to the span file.
"""

import sys
import time

WARMUP = {
    "corpus-dim64": [("compute", "Gr(2,4)", fmt) for fmt in ("json", "text", "csv")],
    "long-exprs": [("compute", "P(1) + P(1)", "csv"), ("betti", "P(1) + P(1)", "text"),
                   ("oracle", "P(1) + P(1)", "text")],
    "cli-oneshot": [],
}


def setup(workload):
    start = time.perf_counter()
    import io
    import lyubeznik.cli as cli
    for command, text, fmt in WARMUP[workload]:
        out = io.StringIO()
        if command == "compute":
            cli.cmd_compute(text, fmt, out=out)
        elif command == "betti":
            cli.cmd_betti(text, out=out)
        else:
            cli.cmd_oracle(text, out=out)
    print(repr(time.perf_counter() - start))
    return 0


def trace(span_file, argv):
    import json

    import tracing
    modules = tracing.program_modules()
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        return modules["cli"].main(argv)
    finally:
        tracer.uninstall()
        with open(span_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(trace(sys.argv[2], sys.argv[3:]))
