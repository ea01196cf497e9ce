"""The benchmark's tracer patches functions by name; a rename in the library
would leave it tracing nothing.  Check that every name it lists still
resolves, loading `perfbench/spans.py` by path and nothing else of the
benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_library_functions():
    spans = _spans_module()
    for name in spans.SPANS:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"ensemble_metrics.{module}"), attr, None)
        assert inspect.isfunction(fn), f"{name} is not a function of ensemble_metrics.{module}"
    channels = importlib.import_module("ensemble_metrics.channels")
    for attr in spans.SCORE_NAMES:
        assert attr in vars(channels), f"{attr} is not a global of ensemble_metrics.channels"
