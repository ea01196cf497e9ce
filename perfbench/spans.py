"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces each traced function in every loaded
``ensemble_metrics`` module that holds it by name, so calls through a
module's own global (``linalg.fidelity`` → ``mat_sqrt_psd``) and through
names imported elsewhere (``trace_distance`` in ``ensembles``,
``kantorovich``, ``ehs`` and ``channels``) are both seen.  ``uninstall``
puts the originals back.

A span is ``(name, start_ns, end_ns, parent, request, attrs)``; ``parent``
is the index of the enclosing span, -1 for a request's root.  Spans stay in
memory until the run writes them out.  Self time is a span's time minus the
time of its child spans, except that the ``linalg`` spans are inline: their
time stays in their caller's self time, so that, say, the pairwise trace
distances count toward the cost matrix of ``coupling_lp``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Traced functions, named ``<defining module>.<function>``; the span has the
# same name.
SPANS = (
    "cli.main", "cli.parse_ensemble", "cli.parse_measurement", "cli.parse_povm",
    "ensembles.make_ensemble", "ensembles.unify_support",
    "kantorovich.coupling_lp", "kantorovich.transportation_lp",
    "ehs.ehs_distance", "ehs.ehs_fidelity",
    "channels.dist_max", "channels.fid_min", "channels.make_measurement",
    "channels.apply_measurement", "channels.jamiolkowski_ensemble", "channels.povm_to_ensemble",
    "linalg.trace_distance", "linalg.fidelity", "linalg.mat_sqrt_psd",
)
# The ensemble measures that ``channels`` calls by these names are its score
# evaluations; they get an inline span of their own in ``channels`` only.
SCORE_NAMES = ("kantorovich_distance", "kantorovich_fidelity", "ehs_distance", "ehs_fidelity")
SCORE_SPAN = "channels.ensemble_measure"
INLINE = {"linalg.trace_distance", "linalg.fidelity", "linalg.mat_sqrt_psd", SCORE_SPAN}


def _attrs(name: str, result) -> dict | None:
    """Solver effort the returned object reports."""
    if name == "kantorovich.transportation_lp":
        return {"pivots": result.iterations}
    if name in ("ehs.ehs_distance", "ehs.ehs_fidelity"):
        return {"iterations": result.iterations, "converged": result.converged}
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                attrs = None if result is None else _attrs(name, result)
                spans[idx] = (name, start, end, parent, self.request, attrs)

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "ensemble_metrics" or key.startswith("ensemble_metrics.")
        ]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        originals = {}
        for name in SPANS:
            mod, attr = name.split(".")
            fn = getattr(by_name[mod], attr)
            originals[id(fn)] = self._wrap(name, fn)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if id(value) in originals:
                    self._patched.append((m, attr, value))
                    setattr(m, attr, originals[id(value)])
        channels = by_name["channels"]
        for attr in SCORE_NAMES:
            fn = getattr(channels, attr)
            self._patched.append((channels, attr, vars(channels)[attr]))
            setattr(channels, attr, self._wrap(SCORE_SPAN, fn))

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patched):
            setattr(m, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, request, attrs) in enumerate(self.spans):
                row = {"id": idx, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "request": request}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


# per-layer metric → the spans whose self time it sums
SELF_MS = {
    "cli.parse_ms": ("cli.parse_ensemble", "cli.parse_measurement", "cli.parse_povm"),
    "cli.report_ms": ("cli.main",),
    "ensembles.make_ensemble_ms": ("ensembles.make_ensemble",),
    "ensembles.unify_support_ms": ("ensembles.unify_support",),
    "linalg.trace_distance_ms": ("linalg.trace_distance",),
    "linalg.fidelity_ms": ("linalg.fidelity",),
    "kantorovich.cost_matrix_ms": ("kantorovich.coupling_lp",),
    "kantorovich.transportation_lp_ms": ("kantorovich.transportation_lp",),
    "ehs.ehs_distance_ms": ("ehs.ehs_distance",),
    "ehs.ehs_fidelity_ms": ("ehs.ehs_fidelity",),
    "channels.worst_case_ms": ("channels.dist_max", "channels.fid_min"),
    "channels.make_measurement_ms": ("channels.make_measurement",),
    "channels.apply_measurement_ms": ("channels.apply_measurement",),
    "channels.device_to_ensemble_ms": ("channels.jamiolkowski_ensemble", "channels.povm_to_ensemble"),
}
# per-layer count → the spans it counts
CALLS = {
    "ensembles.make_ensemble_calls": "ensembles.make_ensemble",
    "ensembles.unify_support_calls": "ensembles.unify_support",
    "linalg.trace_distance_calls": "linalg.trace_distance",
    "linalg.fidelity_calls": "linalg.fidelity",
    "linalg.mat_sqrt_psd_calls": "linalg.mat_sqrt_psd",
    "kantorovich.coupling_lp_calls": "kantorovich.coupling_lp",
    "kantorovich.transportation_lp_calls": "kantorovich.transportation_lp",
    "channels.score_evaluations": SCORE_SPAN,
    "channels.make_measurement_calls": "channels.make_measurement",
    "channels.apply_measurement_calls": "channels.apply_measurement",
}


def layer_metrics(spans, requests: int) -> dict[str, tuple[float, str]]:
    """Per-request means of the per-layer metrics: ``{name: (value, unit)}``."""
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    sums = defaultdict(int)
    for name, start, end, parent, _, attrs in spans:
        calls[name] += 1
        self_ns[name] += end - start
        if name not in INLINE:
            # charge the time to the nearest enclosing span that is not inline
            while parent >= 0 and spans[parent][0] in INLINE:
                parent = spans[parent][3]
            if parent >= 0:
                self_ns[spans[parent][0]] -= end - start
        if attrs:
            if "pivots" in attrs:
                sums["kantorovich.pivots"] += attrs["pivots"]
            elif name == "ehs.ehs_distance":
                sums["ehs.distance_iterations"] += attrs["iterations"]
                sums["ehs.distance_unconverged"] += not attrs["converged"]
            elif name == "ehs.ehs_fidelity":
                sums["ehs.fidelity_sweeps"] += attrs["iterations"]
    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = (sum(self_ns[n] for n in names) / 1e6 / requests, "ms")
    for metric, name in CALLS.items():
        out[metric] = (calls[name] / requests, "count")
    for metric in ("kantorovich.pivots", "ehs.distance_iterations",
                   "ehs.distance_unconverged", "ehs.fidelity_sweeps"):
        out[metric] = (sums[metric] / requests, "count")
    return out
