"""Span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: ``install`` replaces
public functions and methods of the ``gustuq`` modules with timing
wrappers at every place they are bound (the defining module, every module
that imported the name, and the package namespace), and ``remove`` puts
the originals back.  Spans stay in memory; the caller writes them out
once at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from gustuq.kriging import _THETA_BOUNDS


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span, None at top level
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @property
    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def call(self, name, fn, args, kwargs, attrs=None):
        with self.stage(name) as span:
            result = fn(*args, **kwargs)
        if attrs is not None:
            span.attrs = attrs(_bind(fn, args, kwargs), result)
        return result

    @contextlib.contextmanager
    def stage(self, name):
        """Record a span around a block of code."""
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# ---------------------------------------------------------------------------
# what each span records beyond its time


def _points(arg):
    def attrs(a, result):
        return {"points": int(np.atleast_2d(np.asarray(a[arg])).shape[0])}
    return attrs


def _cloud(tag, n_arg):
    """Uniform cloud drawn by a sampling routine, keyed as (tag, seed, n)."""
    def attrs(a, result):
        return {"cloud": (tag, int(a["seed"]), int(a[n_arg])), "points": int(a[n_arg])}
    return attrs


def _predict_attrs(a, result):
    n_train, d = a["model"].train_points.shape
    points = int(np.atleast_2d(np.asarray(a["xi"])).shape[0])
    return {"points": points, "pairs": points * n_train, "d": d}


def _fit_attrs(a, model):
    theta = np.asarray(model.lengthscales)
    at_bound = bool(np.any(np.isclose(theta, _THETA_BOUNDS[0]) | np.isclose(theta, _THETA_BOUNDS[1])))
    return {"theta_at_bound": at_bound, "nugget_raised": model.nugget > a["nugget"]}


def _newmark_attrs(a, result):
    forcing = np.asarray(a["forcing"])
    columns = 1 if forcing.ndim == 1 else forcing.shape[1]
    return {"column_steps": columns * (forcing.shape[0] - 1)}


def _quantile_attrs(a, result):
    return {"elements": int(np.asarray(a["values"]).size)}


# (span name, module, attribute path, attrs function).  Class methods are
# patched on the class; module functions at every binding of the name.
WRAPS = (
    ("cli.main", "gustuq.cli", "main", None),
    ("harness.truth", "gustuq.harness", "run_ground_truth", None),
    ("harness.sweep", "gustuq.harness", "run_convergence", None),
    ("harness.write", "gustuq.harness", "write_convergence_csv", None),
    ("harness.write", "gustuq.harness", "write_convergence_json", None),
    ("gust.evaluate", "gustuq.gust", "GustOracle.evaluate", None),
    ("gust.evaluate_batch", "gustuq.gust", "GustOracle.evaluate_batch", _points("points")),
    ("gust.gradient", "gustuq.gust", "GustOracle.gradient", None),
    ("gust.newmark_response", "gustuq.gust", "newmark_response", _newmark_attrs),
    ("kriging.fit", "gustuq.kriging", "kriging_fit", _fit_attrs),
    ("kriging.predict", "gustuq.kriging", "kriging_predict", _predict_attrs),
    ("kriging.risk", "gustuq.kriging", "kriging_risk", _cloud("kriging-risk", "n_samples")),
    ("pce.fit_regression", "gustuq.pce", "fit_regression", None),
    ("pce.predict", "gustuq.pce", "PCESurrogate.predict", _points("xi")),
    ("pce.quantile", "gustuq.pce", "pce_quantile", _cloud("pce-quantile", "n_samples")),
    ("dimred.build", "gustuq.dimred", "udr_build", None),
    ("dimred.build", "gustuq.dimred", "gudr_build", None),
    ("dimred.eval", "gustuq.dimred", "UDRApprox.__call__", _points("xi")),
    ("dimred.quantile", "gustuq.dimred", "dr_quantile", _cloud("dr-quantile", "n_samples")),
    ("montecarlo.estimate", "gustuq.montecarlo", "mc_estimate", _cloud("mc", "n")),
    ("core.quantile", "gustuq.core", "nearest_rank_quantile", _quantile_attrs),
    ("core.latin_hypercube", "gustuq.core", "latin_hypercube", None),
    ("core.substream", "gustuq.core", "substream", None),
)

# GustOracle.evaluate routes through evaluate_batch; only top-level batch
# calls count as batched work.
_PASS_THROUGH_INSIDE = {"gust.evaluate_batch": "gust.evaluate"}


def _make_wrapper(tracer, name, fn, attrs):
    inside = _PASS_THROUGH_INSIDE.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if inside is not None and tracer.current == inside:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs, attrs)

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every entry of WRAPS; returns the undo list for :func:`remove`.

    Raises if a wrapped name no longer exists, so a renamed layer fails
    loudly instead of silently reporting zero.
    """
    undo = []
    try:
        for name, module_name, path, attrs in WRAPS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if attr not in vars(owner):
                raise RuntimeError(f"traced layer {name}: {module_name}.{path} is missing")
            original = vars(owner)[attr]
            wrapper = _make_wrapper(tracer, name, original, attrs)
            if owner_name:
                sites = [owner]
            else:
                sites = [m for m in list(sys.modules.values())
                         if getattr(m, "__dict__", {}).get(attr) is original]
            for site in sites:
                setattr(site, attr, wrapper)
                undo.append((site, attr, original))
    except BaseException:
        remove(undo)
        raise
    return undo


def remove(undo: list) -> None:
    for site, attr, original in reversed(undo):
        setattr(site, attr, original)
    undo.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _inside(spans, i, ancestor_name) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == ancestor_name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times over one traced pass (plus its set-up)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name, key=None):
        return sum(spans[i].attrs[key] if key else spans[i].duration for i in idx(name))

    def self_total(name):
        return sum(selfs[i] for i in idx(name))

    def ms_quantile(name, q):
        durations = [spans[i].duration for i in idx(name)]
        return 1e3 * float(np.quantile(durations, q)) if durations else 0.0

    m = {}
    pairs = total("kriging.predict", "pairs")
    m["kriging.predict.points"] = total("kriging.predict", "points")
    m["kriging.predict.pair_evals"] = pairs
    m["kriging.predict.s"] = total("kriging.predict")
    m["kriging.predict.ns_per_pair"] = 1e9 * m["kriging.predict.s"] / pairs if pairs else 0.0
    # d squared differences, their weighted sum and its exponential per
    # pair, as float64: computed from array sizes, not measured.
    m["kriging.predict.bytes_computed"] = sum(
        8 * spans[i].attrs["pairs"] * (spans[i].attrs["d"] + 2) for i in idx("kriging.predict"))
    m["kriging.risk.calls"] = len(idx("kriging.risk"))
    m["kriging.risk.self_s"] = self_total("kriging.risk")
    m["kriging.fit.calls"] = len(idx("kriging.fit"))
    m["kriging.fit.s"] = total("kriging.fit")
    m["kriging.fit.theta_at_bound"] = total("kriging.fit", "theta_at_bound")
    m["kriging.fit.nugget_raised"] = total("kriging.fit", "nugget_raised")

    m["pce.predict.points"] = total("pce.predict", "points")
    m["pce.predict.s"] = total("pce.predict")
    m["pce.quantile.calls"] = len(idx("pce.quantile"))
    m["pce.quantile.self_s"] = self_total("pce.quantile")
    m["pce.fit_regression.calls"] = len(idx("pce.fit_regression"))
    m["pce.fit_regression.s"] = total("pce.fit_regression")

    m["dimred.eval.points"] = total("dimred.eval", "points")
    m["dimred.eval.s"] = total("dimred.eval")
    m["dimred.quantile.calls"] = len(idx("dimred.quantile"))
    m["dimred.quantile.self_s"] = self_total("dimred.quantile")
    m["dimred.build.calls"] = len(idx("dimred.build"))
    m["dimred.build.self_s"] = self_total("dimred.build")
    m["dimred.build.oracle_calls"] = sum(
        1 for name in ("gust.evaluate", "gust.gradient") for i in idx(name)
        if _inside(spans, i, "dimred.build"))

    m["core.quantile.elements"] = total("core.quantile", "elements")
    m["core.quantile.s"] = total("core.quantile")
    m["core.latin_hypercube.calls"] = len(idx("core.latin_hypercube"))
    m["core.latin_hypercube.s"] = total("core.latin_hypercube")
    m["core.substream.calls"] = len(idx("core.substream"))

    m["gust.evaluate.calls"] = len(idx("gust.evaluate"))
    m["gust.evaluate.s"] = total("gust.evaluate")
    m["gust.evaluate.ms_p50"] = ms_quantile("gust.evaluate", 0.5)
    m["gust.evaluate.ms_p99"] = ms_quantile("gust.evaluate", 0.99)
    m["gust.gradient.calls"] = len(idx("gust.gradient"))
    m["gust.gradient.s"] = total("gust.gradient")
    m["gust.gradient.ms_p50"] = ms_quantile("gust.gradient", 0.5)
    batch_points = total("gust.evaluate_batch", "points")
    m["gust.evaluate_batch.calls"] = len(idx("gust.evaluate_batch"))
    m["gust.evaluate_batch.points"] = batch_points
    m["gust.evaluate_batch.self_s"] = self_total("gust.evaluate_batch")
    m["gust.evaluate_batch.us_per_point"] = (
        1e6 * total("gust.evaluate_batch") / batch_points if batch_points else 0.0)
    m["gust.newmark_response.calls"] = len(idx("gust.newmark_response"))
    m["gust.newmark_response.column_steps"] = total("gust.newmark_response", "column_steps")
    m["gust.newmark_response.s"] = total("gust.newmark_response")

    m["montecarlo.estimate.calls"] = len(idx("montecarlo.estimate"))
    m["montecarlo.estimate.points"] = total("montecarlo.estimate", "points")
    m["montecarlo.estimate.self_s"] = self_total("montecarlo.estimate")

    clouds = [spans[i].attrs["cloud"] for name in
              ("kriging.risk", "pce.quantile", "dimred.quantile", "montecarlo.estimate")
              for i in idx(name)]
    m["harness.sampling.clouds"] = len(clouds)
    m["harness.sampling.distinct_clouds"] = len(set(clouds))
    m["harness.truth.s"] = total("harness.truth")
    m["harness.sweep.s"] = total("harness.sweep")
    m["harness.write.s"] = total("harness.write")
    m["cli.main.s"] = total("cli.main")
    return m


def oracle_cost(spans: list[Span]) -> int:
    """Oracle work as the protocol counts budgets: points evaluated plus gradients."""
    return sum(1 if s.name in ("gust.evaluate", "gust.gradient")
               else s.attrs["points"] if s.name == "gust.evaluate_batch" else 0
               for s in spans)
