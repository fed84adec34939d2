"""End-to-end benchmark of the lyubeznik command line, stdlib only.

    python3 bench/run.py --workload corpus-dim64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``
(it need not be installed).  One process drives the workload as a closed
loop, one operation at a time: in-process through ``cli.cmd_*`` for
``corpus-dim64`` and ``long-exprs``, as ``python -m lyubeznik``
subprocesses for ``cli-oneshot``.

A run first makes one pass over the seeded operations and checks every
output with the independent checker (``checker.py``).  It then repeats
whole passes until ``--seconds`` have gone by; an output byte-identical
to the checked output of the same operation is accepted as it is, any
other output is checked again.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Results and spans are also written under
``bench/results``.
"""

import argparse
import array
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RESULTS = BENCH / "results"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
SETUP_SAMPLES = 11
STARTUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60


class OpFailed(Exception):
    """The program did not complete an operation."""


def load_program():
    """Import the package from this checkout's src, and nowhere else."""
    if not (SRC / "lyubeznik" / "cli.py").is_file():
        raise SystemExit(f"bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = tracing.program_modules()
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: lyubeznik imported from {modules['cli'].__file__}")
    return modules


def run_child(args):
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV,
                              capture_output=True, encoding="utf-8",
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise OpFailed(f"no exit within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise OpFailed(f"exit {proc.returncode}: {last[0]}")
    return proc


def measure_setup(workload):
    """Median over fresh interpreters of import plus warm-up, in seconds."""
    samples = [float(run_child([str(BENCH / "child.py"), "setup", workload]).stdout)
               for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples), samples


def _importtime_total(stderr):
    """Sum of the cumulative microseconds of the top-level imports."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit() \
                and not parts[2][1:].startswith(" "):
            total += int(parts[1])
    return total


def measure_startup():
    """``-X importtime`` total for lyubeznik.cli beyond a bare interpreter,
    and the wall time of that bare interpreter, both in ms."""
    cli_us, bare_us, bare_wall = [], [], []
    for _ in range(STARTUP_SAMPLES):
        cli_us.append(_importtime_total(
            run_child(["-X", "importtime", "-c", "import lyubeznik.cli"]).stderr))
        start = time.perf_counter()
        proc = run_child(["-X", "importtime", "-c", "pass"])
        bare_wall.append(time.perf_counter() - start)
        bare_us.append(_importtime_total(proc.stderr))
    return {
        "startup.import_ms": ((statistics.median(cli_us) - statistics.median(bare_us)) / 1e3, "ms"),
        "startup.interpreter_ms": (statistics.median(bare_wall) * 1e3, "ms"),
    }


class Executor:
    """Runs one operation and returns its standard output."""

    def __init__(self, workload, modules, workdir):
        self.cli = modules["cli"]
        self.oneshot = workload == "cli-oneshot"
        self.span_file = workdir / "spans.json"

    def __call__(self, op, traced=False):
        if self.oneshot:
            if traced:
                args = [str(BENCH / "child.py"), "trace", str(self.span_file)]
            else:
                args = ["-m", "lyubeznik"]
            return run_child(args + op.argv()).stdout
        out = io.StringIO()
        try:
            if op.command == "compute":
                self.cli.cmd_compute(op.text, op.fmt, out=out)
            elif op.command == "betti":
                self.cli.cmd_betti(op.text, out=out)
            else:
                self.cli.cmd_oracle(op.text, out=out)
        except Exception as exc:  # any escape from the program is a failed operation
            raise OpFailed(f"{type(exc).__name__}: {exc}") from exc
        return out.getvalue()

    def child_spans(self):
        with open(self.span_file, encoding="utf-8") as handle:
            return json.load(handle)


class Run:
    """Counts, latencies and check results of one run."""

    def __init__(self, ops, execute):
        self.ops = ops
        self.execute = execute
        self.expected = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.latencies_ns = [array.array("q") for _ in ops]
        self.pass_seconds = {"untraced": [], "traced": []}

    def _note(self, message):
        if len(self.problems) < 10:
            self.problems.append(message)
            print(f"bench: {message}", file=sys.stderr)

    def _check(self, idx, out):
        try:
            checker.check(self.ops[idx], out)
        except checker.CheckError as exc:
            self.wrong += 1
            self._note(f"wrong output for {self.ops[idx].argv()[:2]}: {exc}")
            return
        self.expected[idx] = out

    def check_pass(self):
        """One untimed pass that checks every output."""
        for idx, op in enumerate(self.ops):
            self.attempted += 1
            try:
                out = self.execute(op)
            except OpFailed as exc:
                self.failed += 1
                self._note(f"{op.argv()[:2]} failed: {exc}")
                continue
            self._check(idx, out)

    def timed_pass(self, tracer=None, pass_of_op=None):
        traced = tracer is not None
        start = time.perf_counter()
        for idx, op in enumerate(self.ops):
            self.attempted += 1
            if traced:
                tracer.op += 1
                pass_of_op[tracer.op] = len(self.pass_seconds["traced"])
            t0 = time.perf_counter_ns()
            try:
                out = self.execute(op, traced)
            except OpFailed:
                self.failed += 1
                continue
            if not traced:
                self.latencies_ns[idx].append(time.perf_counter_ns() - t0)
            elif self.execute.oneshot:
                tracer.extend(self.execute.child_spans(), tracer.op)
            if out != self.expected[idx]:
                self._check(idx, out)
        self.pass_seconds["traced" if traced else "untraced"].append(
            time.perf_counter() - start)


def end_to_end(run, setup_s, oneshot):
    """Timings use each operation's fastest time in the run: on a shared
    host the slower repetitions of the same call measure the other tenants'
    load, which moves by tens of percent from minute to minute."""
    who = resource.RUSAGE_CHILDREN if oneshot else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    best_ms = [min(samples) / 1e6 for samples in run.latencies_ns if samples]
    return {
        "throughput_ops_s": (len(best_ms) / sum(best_ms) * 1e3, "1/s"),
        "latency_p50_ms": (statistics.median(best_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(best_ms, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def raw_figures(run):
    """All samples taken as they came, for the result file."""
    lat_ms = [ns / 1e6 for samples in run.latencies_ns for ns in samples]
    return {"throughput_ops_s": len(lat_ms) / sum(run.pass_seconds["untraced"]),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "samples": len(lat_ms)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_program()
    setup_s, setup_samples = (None, []) if args.trace else measure_setup(args.workload)
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.make_pass(args.workload, args.seed, workdir)
        execute = Executor(args.workload, modules, workdir)
        run = Run(ops, execute)
        run.check_pass()
        tracer = tracing.Tracer() if args.trace else None
        pass_of_op = {}
        start = time.perf_counter()
        while True:
            run.timed_pass()
            if tracer is not None:
                if not execute.oneshot:
                    tracer.install(modules)
                try:
                    run.timed_pass(tracer, pass_of_op)
                finally:
                    tracer.uninstall()
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir)

    if tracer is None:
        metrics = end_to_end(run, setup_s, execute.oneshot)
    else:
        metrics = tracing.layer_metrics(tracer.spans, pass_of_op)
        metrics["cli.output_bytes"] = (
            sum(len(out.encode("utf-8")) for out in run.expected if out), "count")
        metrics.update(measure_startup())
        overhead = (statistics.median(run.pass_seconds["traced"])
                    / statistics.median(run.pass_seconds["untraced"]) - 1) * 100
        metrics["trace.overhead_pct"] = (overhead, "%")
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    details = {"result": result, "seconds": args.seconds, "raw": raw_figures(run),
               "pass_seconds": run.pass_seconds, "setup_samples_s": setup_samples,
               "ops_per_pass": len(ops), "problems": run.problems}
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    if tracer is not None:
        # A span's id is its index; "parent" is an id, or -1 for a root.
        spans = {"fields": ["name", "op", "parent", "start_ns", "end_ns", "tag", "value",
                            "self_ns"],
                 "spans": [span + [own] for span, own
                           in zip(tracer.spans, tracing.self_times(tracer.spans))]}
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
