"""Spans around the layer entry points of oscdet, recorded from outside.

The package binds its functions with ``from .x import y``, so one function
object is reachable under several module attributes (``spectral.eigenvalues``,
``oscdet.eigenvalues``, ...).  ``Tracer.install`` replaces every attribute of
every loaded ``oscdet`` module that refers to a traced function, so calls made
inside the package are seen as well as calls made by the benchmark.

A span is ``[name, start, end, parent, run_id, info]``: ``parent`` is the index
of the enclosing span or -1, ``run_id`` the benchmark operation the span
belongs to, and ``info`` a small dict or None.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

# Layer entry points named by the per-layer metrics.  Public helpers that are
# not listed (``half_line_eigenvalues``, ``choose_box``, ...) fold into the
# span that calls them, so a layer's self time does not depend on how it
# splits its work internally.  ``special_functions`` is traced whole.
TRACED = {
    "special_functions": None,
    "potential": ("beta_coefficients",),
    "actions": ("adaptive_tail", "improper_action"),
    "mellin": ("enumerate_poles", "asymptotic_total"),
    "spectrum": ("eigenvalues", "bs_level"),
    "spectral": ("det_ratio", "det_ratio_skew", "shooting_det", "zeta_from_det",
                 "zeta_full", "zeta_skew"),
    "predictions": ("measure_point", "verify"),
    "cli": ("main",),
}


def _eigen_info(bound, result):
    tol = float(bound.arguments["tol"])
    spec, count = bound.arguments["spec"], bound.arguments["count"]
    return {"key": repr((spec, count, tol)), "n": result.params.n,
            "err_over_tol": max(e.err_est for e in result.entries) / tol}


def _point_info(bound, result):
    a = bound.arguments
    return {"key": repr((a["N"], a["g"], a["count"], a["tol"]))}


# extra facts read off the arguments and result of a few entry points
_INFO = {"spectrum.eigenvalues": _eigen_info,
         "predictions.measure_point": _point_info}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._paused = False

    @contextlib.contextmanager
    def operation(self, run_id: int):
        """Attribute the spans recorded inside the block to one operation."""
        self.run_id = run_id
        try:
            yield
        finally:
            self.run_id = -1

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block (the benchmark's own checks) record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, name):
        info = _INFO.get(name)
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run_id, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = info(bound, result)
            return result

        return traced

    def install(self):
        """Patch every oscdet module attribute bound to a traced function."""
        package = importlib.import_module("oscdet")
        modules = [package] + [importlib.import_module(f"oscdet.{m}") for m in TRACED]
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"oscdet.{layer}")
            if names is None:
                names = [n for n, obj in vars(module).items()
                         if inspect.isfunction(obj) and not n.startswith("_")
                         and obj.__module__ == module.__name__]
            for n in names:
                fn = getattr(module, n)
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{n}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(module, attr, wrappers[id(obj)])


def summarize(processes) -> tuple[dict, dict]:
    """Per-layer metrics, and self time per layer, from the spans of several
    interpreters.

    Self time is a span's duration minus the time its child spans cover.
    First-seen argument tuples are counted per interpreter, because the
    package's caches live that long: they give the cold eigen solves and the
    distinct measured points without touching the caches themselves.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    cold = mesh = distinct = shots_in_zeta = 0
    err_over_tol = 0.0
    for spans in processes:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _run, _info in spans:
            if parent >= 0:
                covered[parent] += end - start
        seen = set()
        in_zeta = [False] * len(spans)
        for i, (name, start, end, parent, _run, info) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i])
            if parent >= 0:
                in_zeta[i] = in_zeta[parent] or spans[parent][0] == "spectral.zeta_from_det"
            if name == "spectral.shooting_det" and in_zeta[i]:
                shots_in_zeta += 1
            if info and info["key"] not in seen:
                seen.add(info["key"])
                if name == "spectrum.eigenvalues":
                    cold += 1
                    mesh += info["n"]
                else:
                    distinct += 1
            if info and name == "spectrum.eigenvalues":
                err_over_tol = max(err_over_tol, info["err_over_tol"])

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    zeta_calls = c("spectral.zeta_from_det")
    out = {
        "spectrum.eigenvalues.calls": c("spectrum.eigenvalues"),
        "spectrum.eigenvalues.cold_calls": cold,
        "spectrum.eigenvalues.self_s": s("spectrum.eigenvalues"),
        "spectrum.mesh_points": mesh,
        "spectrum.err_over_tol_max": err_over_tol,
        "spectrum.bs_level.calls": c("spectrum.bs_level"),
        "spectrum.bs_level.self_s": s("spectrum.bs_level"),
        "spectral.det_ratio.self_s": s("spectral.det_ratio"),
        "spectral.det_ratio_skew.self_s": s("spectral.det_ratio_skew"),
        "spectral.shooting_det.calls": c("spectral.shooting_det"),
        "spectral.shooting_det.self_s": s("spectral.shooting_det"),
        "spectral.zeta_from_det.calls": zeta_calls,
        "spectral.zeta_from_det.self_s": s("spectral.zeta_from_det"),
        "spectral.zeta_from_det.shots_per_call": shots_in_zeta / zeta_calls if zeta_calls else 0.0,
        "spectral.zeta_full.self_s": s("spectral.zeta_full"),
        "spectral.zeta_skew.self_s": s("spectral.zeta_skew"),
        "actions.adaptive_tail.calls": c("actions.adaptive_tail"),
        "actions.adaptive_tail.self_s": s("actions.adaptive_tail"),
        "actions.improper_action.self_s": s("actions.improper_action"),
        "potential.beta_coefficients.calls": c("potential.beta_coefficients"),
        "potential.beta_coefficients.self_s": s("potential.beta_coefficients"),
        "special_functions.log_gamma.calls": c("special_functions.log_gamma"),
        "special_functions.digamma.calls": c("special_functions.digamma"),
        "special_functions.self_s": sum(v for k, v in self_s.items()
                                        if k.startswith("special_functions.")),
        "mellin.enumerate_poles.self_s": s("mellin.enumerate_poles"),
        "mellin.asymptotic_total.self_s": s("mellin.asymptotic_total"),
        "predictions.measure_point.calls": c("predictions.measure_point"),
        "predictions.measure_point.distinct": distinct,
        "predictions.measure_point.self_s": s("predictions.measure_point"),
        "predictions.verify.self_s": s("predictions.verify"),
        "cli.main.self_s": s("cli.main"),
    }
    layer_self = {}
    for name, value in self_s.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + value
    return out, layer_self
