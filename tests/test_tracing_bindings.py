"""perfbench's tracer finds every fvskit name it rebinds.

`perfbench/tracing.py` wraps functions by module attribute, so a name that
moves makes its per-layer figures read 0.  This reads the tracer's tables
without importing or changing it and resolves each entry in fvskit.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# The degree-3 leaf stopped calling is_forest when it began to reuse the
# reduction engine; the tracer still lists it.
KNOWN_MISSING = {("regular3", "is_forest")}


def _table(name: str) -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


def _resolves(path: str, attr: str) -> bool:
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"fvskit.{module}")
    if cls:
        owner = getattr(owner, cls, None)
    return callable(getattr(owner, attr, None))


def test_every_layer_resolves():
    layers = _table("_LAYERS")
    assert any(entry[1] == "matroid_parity" for entry in layers)
    for path, attr, *_ in layers:
        assert _resolves(path, attr), f"fvskit.{path}.{attr}"


def test_every_probe_resolves_but_the_known_missing_one():
    for path, attr, *_ in _table("_PROBES"):
        if (path, attr) in KNOWN_MISSING:
            continue
        assert _resolves(path, attr), f"fvskit.{path}.{attr}"
