"""The benchmark's per-layer spans wrap program functions by name, from
outside.  A rename, or a walk that stops calling a wrapped name, would
read 0 in a per-layer metric instead of failing; these checks fail here."""

import importlib.util
import io
import json
from pathlib import Path

_TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _load_tracing():
    # Loaded from its file, so that nothing is added to sys.path.
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_and_fires(tmp_path):
    tracing = _load_tracing()
    modules = tracing.program_modules()
    layers = tracing.layers(modules)
    for owner, attr, name, _, _ in layers:
        assert attr in vars(owner), name
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "components": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
        "intersections": [{"a": "A", "b": "B", "dim": 1}]}), encoding="utf-8")
    expr = "CI(5; 2,2) + Hyp(4,3)"
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        code = modules["cli"].cmd_compute(expr, "csv", out=io.StringIO())
        # Every subcommand and format that the workloads run, through main().
        codes = [modules["cli"].main(argv) for argv in (
            *(["compute", expr, "--format", fmt] for fmt in ("text", "json", "csv")),
            ["betti", expr], ["oracle", expr], ["graph", str(graph)])]
    finally:
        tracer.uninstall()
    assert code == 0 and codes == [0] * 6
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"betti.euler_char_ci", "betti.betti",
            "oracle.cone_local_derham_dims"} <= names
    assert {name for _, _, name, _, _ in layers} <= names
