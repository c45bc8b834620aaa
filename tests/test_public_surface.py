"""The top-level package exports exactly what README.md documents."""

import re
from pathlib import Path

import fvskit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_imports_and_is_documented():
    namespace: dict = {}
    exec("from fvskit import *", namespace)
    text = README.read_text()
    assert fvskit.__all__
    for name in fvskit.__all__:
        assert name in namespace, name
        assert re.search(rf"\b{re.escape(name)}\b", text), name
