"""The benchmark's per-layer spans wrap program functions by name, from
outside.  A rename, or a walk that stops calling a wrapped name, would
read 0 in a per-layer metric instead of failing; these checks fail here."""

import importlib.util
import io
from pathlib import Path

_TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _load_tracing():
    # Loaded from its file, so that nothing is added to sys.path.
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_and_fires():
    tracing = _load_tracing()
    modules = tracing.program_modules()
    for owner, attr, name, _, _ in tracing.layers(modules):
        assert attr in vars(owner), name
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        code = modules["cli"].cmd_compute("CI(5; 2,2) + Hyp(4,3)", "csv",
                                          out=io.StringIO())
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"betti.euler_char_ci", "betti.betti",
            "oracle.cone_local_derham_dims"} <= names
