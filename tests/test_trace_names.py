"""The benchmark's tracer patches functions by name; a rename in the library
would leave it tracing nothing.  Check that every name it lists still
resolves, that every solver attribute it records exists, and that its count
of score evaluations agrees with the report, loading `perfbench/spans.py` by
path and nothing else of the benchmark."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import numpy as np

from ensemble_metrics.cli import main
from ensemble_metrics.ehs import ehs_distance, ehs_fidelity
from ensemble_metrics.kantorovich import transportation_lp
from ensemble_metrics.oracle import random_ensemble

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
DATA = Path(__file__).resolve().parent / "data"


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


def test_traced_attributes_exist_on_solver_results():
    # the tracer reads solver effort off the objects these functions return
    spans = _spans_module()
    a, b = random_ensemble(2, 3, seed=5), random_ensemble(2, 3, seed=6)
    results = {
        "kantorovich.transportation_lp": transportation_lp(a.probs, b.probs, 1.0 - np.eye(3)),
        "ehs.ehs_distance": ehs_distance(a, b),
        "ehs.ehs_fidelity": ehs_fidelity(a, b),
    }
    for name, result in results.items():
        attrs = spans._attrs(name, result)
        assert attrs, f"the tracer records nothing for {name}"


def test_traced_score_evaluations_equal_the_reported_count():
    # the per-layer count channels.score_evaluations reads the same searches
    # as the report's solver.evaluations, for either measure
    spans = _spans_module()
    for measure in ("dist", "fid"):
        argv = ["channel", str(DATA / "measz.json"), str(DATA / "measx.json"), "--compare",
                "worst", "--measure", measure, "--worst-restarts", "1", "--worst-steps", "3"]
        tracer = spans.Tracer()
        tracer.install()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
        finally:
            tracer.uninstall()
        reported = json.loads(out.getvalue())["solver"]["evaluations"]
        counted = spans.layer_metrics(tracer.spans, 1)["channels.score_evaluations"][0]
        assert reported > 0, measure
        assert counted == reported, measure
