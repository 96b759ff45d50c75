"""Span tracer that wraps entrobound's layers from outside the package.

Each wrapped function records one span per call: its name, the span
that was open when it was called, the benchmark operation it belongs
to, its start and end times, and the time its child spans covered.
Spans stay in memory until the benchmark writes them out. Work counters
(replicates, draws, terms summed, scan steps, cache entries) are taken
at the same boundaries from each call's arguments and result.

Nothing under ``src/`` changes: ``install`` replaces each public function
in every ``entrobound`` module that holds a reference to it, so a call
through ``montecarlo.certify_moment`` is traced as well as one through
``certify.certify_moment``. ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

SPAN_DTYPE = np.dtype(
    [
        ("span", np.int64),
        ("name", np.int32),
        ("parent", np.int64),
        ("op", np.int32),
        ("start", np.float64),
        ("end", np.float64),
        ("child", np.float64),
        ("outer", np.bool_),
    ]
)


class Tracer:
    """In-memory span store for one benchmark process."""

    def __init__(self) -> None:
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[list] = []
        self._next = 0
        self.rows: list[tuple] = []  # one SPAN_DTYPE record per span
        self.counts: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def depth(self, name: str) -> int:
        return self._depth[self.name_id(name)]

    def take(self) -> tuple[np.ndarray, dict[str, int]]:
        """Return and clear the spans and counts recorded so far."""
        spans = np.array(self.rows, dtype=SPAN_DTYPE)
        counts = dict(self.counts)
        self.rows.clear()
        self.counts.clear()
        return spans, counts


def busy_seconds(tracer: Tracer, spans: np.ndarray, name: str) -> float:
    """Wall time inside ``name``, counting nested calls of itself once."""
    sel = spans[(spans["name"] == tracer.name_id(name)) & spans["outer"]]
    return float(np.sum(sel["end"] - sel["start"]))


def self_seconds(tracer: Tracer, spans: np.ndarray, name: str) -> float:
    """Wall time inside ``name`` that no child span covers."""
    sel = spans[spans["name"] == tracer.name_id(name)]
    return float(np.sum(sel["end"] - sel["start"] - sel["child"]))


def _span(tracer: Tracer, fn, name: str, count=None):
    nid = tracer.name_id(name)
    post, pre = count if count is not None else (None, None)
    depth, stack, rows, clock = tracer._depth, tracer._stack, tracer.rows, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = pre(args) if pre is not None else None
        depth[nid] += 1
        sid = tracer._next
        tracer._next = sid + 1
        # [span id, parent id, start, time covered by children]
        frame = [sid, stack[-1][0] if stack else -1, clock(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            if stack:
                stack[-1][3] += end - frame[2]
            rows.append((sid, nid, frame[1], tracer.op, frame[2], end, frame[3], depth[nid] == 1))
            depth[nid] -= 1
        if post is not None:
            post(tracer, args, kwargs, result, before)
        return result

    return wrapper


# -- work counters: post(tracer, args, kwargs, result, pre(args)) after a call
# returns; a call that raises counts no work.


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_replicates(tracer, args, kwargs, result, before):
    tracer.counts["montecarlo.replicates"] += int(_arg(args, kwargs, 2, "replicates"))


def _count_draws(tracer, args, kwargs, result, before):
    tracer.counts["distributions.draws"] += int(_arg(args, kwargs, 2, "count"))


def _cdf_size(args) -> int:
    cdf = args[0]._cdf
    return 0 if cdf is None else int(cdf.size)


def _count_cdf(tracer, args, kwargs, result, before):
    tracer.counts["distributions.cdf_entries"] += _cdf_size(args) - before


def _count_log_pmf(tracer, args, kwargs, result, before):
    tracer.counts["distributions.log_pmf_array.calls"] += 1
    tracer.counts["distributions.log_pmf_array.terms"] += result.size


def _count_chunk_sum(tracer, args, kwargs, result, before):
    start, stop = _arg(args, kwargs, 1, "start"), _arg(args, kwargs, 2, "stop")
    tracer.counts["summation.terms"] += max(0, int(stop) - int(start) + 1)


def _count_compensated(tracer, args, kwargs, result, before):
    tracer.counts["summation.terms"] += int(np.size(_arg(args, kwargs, 0, "values")))


def _count_scan(tracer, args, kwargs, result, before):
    tail = args[3] if len(args) > 3 else kwargs.get("tail")
    if tail is None:
        tail = args[0].tail_certificate()
    tracer.counts["certify.ratio.scan_steps"] += result.truncation_index - tail.k0


def _count_powerlaw(tracer, args, kwargs, result, before):
    tracer.counts["certify.powerlaw.terms"] += result.truncation_index


def _count_certification(tracer, args, kwargs, result, before):
    if tracer.depth("bounds.select_r") > 0:
        tracer.counts["bounds.select_r.certifications"] += 1


# module -> function name -> (span name, (post, pre) counters or None)
FUNCTIONS = {
    "entrobound.cli": {
        "main": ("cli.main", None),
        "parse_model_spec": ("cli.parse_model_spec", None),
    },
    "entrobound.montecarlo": {
        "sweep": ("montecarlo.sweep", None),
        "estimate_deviation_probability": ("montecarlo.estimate", None),
        "replicate_log_likelihood_means": ("montecarlo.replicate_means", (_count_replicates, None)),
        "_replicate_rng": ("montecarlo.seed", None),
        "reports_to_csv": ("montecarlo.report", None),
        "reports_to_json": ("montecarlo.report", None),
        "report_to_dict": ("montecarlo.report", None),
        "verify_bound": ("montecarlo.verify_bound", None),
    },
    "entrobound.certify": {
        "certify_moment": ("certify.certify_moment", (_count_certification, None)),
        "certify_moment_ratio": ("certify.ratio", (_count_scan, None)),
        "certify_moment_powerlaw": ("certify.powerlaw", (_count_powerlaw, None)),
        "power_sum_partial": ("certify.power_sum_partial", None),
        "entropy_interval": ("certify.entropy_interval", None),
    },
    "entrobound.bounds": {
        "bernstein_constants": ("bounds.constants", None),
        "deviation_bound": ("bounds.deviation_bound", None),
        "min_sample_size": ("bounds.inversions", None),
        "epsilon_for": ("bounds.inversions", None),
        "mgf_exact": ("bounds.mgf_exact", None),
        "select_r": ("bounds.select_r", None),
    },
    "entrobound.summation": {
        "indexed_chunk_sum": ("summation.indexed_chunk_sum", (_count_chunk_sum, None)),
        "compensated_sum": ("summation.compensated_sum", (_count_compensated, None)),
    },
}

# PmfModel methods; log_pmf_array is wrapped on every concrete family.
METHODS = {
    "draw": ("distributions.draw", (_count_draws, None)),
    "_extend_cdf": ("distributions.cdf_extend", (_count_cdf, _cdf_size)),
    "log_pmf_array": ("distributions.log_pmf_array", (_count_log_pmf, None)),
}


def install(tracer: Tracer):
    """Wrap every listed layer function; return a callable that undoes it."""
    from entrobound.distributions import PmfModel

    undo = []
    homes = {home: importlib.import_module(home) for home in FUNCTIONS}
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "entrobound" and m]
    for home, table in FUNCTIONS.items():
        for attr, (name, count) in table.items():
            original = getattr(homes[home], attr)
            wrapped = _span(tracer, original, name, count)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))
    classes = [PmfModel, *PmfModel.__subclasses__()]
    for cls in classes:
        for attr, (name, count) in METHODS.items():
            original = cls.__dict__.get(attr)
            if original is not None and not getattr(original, "__isabstractmethod__", False):
                setattr(cls, attr, _span(tracer, original, name, count))
                undo.append((cls, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
