"""The benchmark's tracer patches functions by name; a rename in the library
would leave it tracing nothing.  Check that every name it lists still
resolves, that every solver attribute it records exists, that its count of
score evaluations agrees with the report, and that one request of each
command feeds the layers it fed when this test was written, loading
`perfbench/spans.py` by path and nothing else of the benchmark."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import numpy as np
import pytest

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


def _traced(argv):
    """The report and the per-layer metrics of one request run under the
    tracer."""
    spans = _spans_module()
    argv = [str(DATA / tok) if tok.endswith(".json") else tok for tok in argv]
    tracer = spans.Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    return json.loads(out.getvalue()), spans.layer_metrics(tracer.spans, 1)


def test_traced_score_evaluations_equal_the_reported_count():
    # the per-layer count channels.score_evaluations reads the same searches
    # as the report's solver.evaluations, for either measure, and each
    # evaluation passes once through every traced layer under it
    layers = ("channels.score_evaluations", "ensembles.unify_support_calls",
              "kantorovich.coupling_lp_calls", "kantorovich.transportation_lp_calls")
    for measure in ("dist", "fid"):
        report, metrics = _traced(["channel", "measz.json", "measx.json", "--compare", "worst",
                                   "--measure", measure, "--worst-restarts", "1",
                                   "--worst-steps", "3"])
        reported = report["solver"]["evaluations"]
        assert reported > 0, measure
        for name in layers:
            assert metrics[name][0] == reported, (measure, name)


# Per-layer metrics that one request of each command feeds: a change that
# calls around a traced name fails here instead of zeroing a benchmark layer.
# Every command takes its ensemble measure through channels.measure, so one
# dist or fid request counts one score evaluation.
LAYER_CASES = [
    (["dist", "rand_a.json", "rand_b.json"],
     {"ensembles.make_ensemble_calls": 2, "ensembles.unify_support_calls": 1,
      "kantorovich.coupling_lp_calls": 1, "kantorovich.transportation_lp_calls": 1,
      "channels.score_evaluations": 1}, ()),
    (["fid", "bell.json", "prods.json", "--method", "ehs"],
     {"ensembles.unify_support_calls": 1, "kantorovich.coupling_lp_calls": 1,
      "kantorovich.transportation_lp_calls": 1, "channels.score_evaluations": 1},
     ("ehs.fidelity_sweeps",)),
    (["channel", "measz.json", "measx.json"], {"channels.make_measurement_calls": 2},
     ("channels.device_to_ensemble_ms",)),
    (["povm", "povmz.json", "povmx.json", "--measure", "fid"],
     {"kantorovich.coupling_lp_calls": 1}, ("channels.device_to_ensemble_ms",)),
]


@pytest.mark.parametrize("argv, counts, positive", LAYER_CASES, ids=[c[0][0] for c in LAYER_CASES])
def test_each_command_feeds_its_traced_layers(argv, counts, positive):
    _, metrics = _traced(argv)
    assert {name: metrics[name][0] for name in counts} == counts
    for name in positive:
        assert metrics[name][0] > 0, name
