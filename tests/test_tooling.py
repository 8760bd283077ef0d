"""The benchmark's tracer names package functions by string; a rename in
the package must fail here rather than silently drop a per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(spans):
    for mod_name, path, layer, _ in spans.TARGETS:
        owner = importlib.import_module(mod_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{mod_name}.{path} (layer {layer}) is gone"
        assert callable(owner), f"{mod_name}.{path} is not callable"


def test_every_traced_cache_reports_and_clears(spans):
    for mod_name, attr, label in spans.CACHES:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert fn is not None, f"{mod_name}.{attr} ({label}) is gone"
        assert callable(getattr(fn, "cache_info", None)), f"{label}: no cache_info"
        assert callable(getattr(fn, "cache_clear", None)), f"{label}: no cache_clear"
