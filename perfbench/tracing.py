"""In-memory span recorder for the traced benchmark run.

Wrappers are installed on the module attributes that callers look functions
up by at call time (``dopplerkb.fitter.jacobian``, ``dopplerkb.cli.read_spectrum``
and so on), so the program runs unchanged.  A span is a list
``[name, start, end, parent, info]``; its name is ``<layer>.<function>`` with
the layer named after the module.  Spans stay in memory until the run ends;
spans recorded in a child process are written to a JSON file and adopted by
the parent under the span that started the process.  ``time.perf_counter``
is CLOCK_MONOTONIC on Linux, so child and parent times share one time base.

Only the standard library is imported here, so a fresh interpreter can load
this module before it imports the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import time

LAYERS = ("bench", "cli", "config", "fileio", "simulator", "absorption",
          "lineshape", "fitter", "extrapolation", "boltzmann")


class Tracer:
    """Records nested spans of one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, info=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = info
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def wrap(self, fn, name: str, info=None):
        """Return ``fn`` recording one span per call; ``info(args, result)``
        adds counts to the span, and a raised exception marks it ``error``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, {"error": True})
                raise
            self.end(index, info(args, result) if info is not None else None)
            return result

        return traced

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, p, info in spans:
            self.spans.append([name, start, end, parent if p < 0 else p + offset, info])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _voigt_evals(args, result):
    import numpy as np

    return {"n": int(np.size(args[0]))}


def _fit_info(args, result):
    return {"n_iter": int(result.n_iter), "converged": bool(result.converged)}


def _dropped(args, result):
    return {"dropped": len(args[0]) - len(result)}


def _rejected(args, result):
    return {"rejected": len(result[1])}


# (module, attribute, span name, info hook).  Attributes a module does not
# have are skipped, so the table survives refactors of the program.
LIBRARY_TARGETS = (
    ("dopplerkb.simulator", "synth_series", "simulator.synth_series", None),
    ("dopplerkb.simulator", "synth_spectrum", "simulator.synth_spectrum", None),
    ("dopplerkb.simulator", "transmission", "absorption.transmission", None),
    ("dopplerkb.absorption", "voigt", "lineshape.voigt", _voigt_evals),
    ("dopplerkb.fitter", "fit_series", "fitter.fit_series", None),
    ("dopplerkb.fitter", "fit_spectrum", "fitter.fit_spectrum", _fit_info),
    ("dopplerkb.fitter", "initial_guess", "fitter.initial_guess", None),
    ("dopplerkb.fitter", "jacobian", "fitter.jacobian", None),
    ("dopplerkb.fitter", "model_transmission", "fitter.model_transmission", None),
    ("dopplerkb.extrapolation", "default_slope_threshold",
     "extrapolation.default_slope_threshold", None),
    ("dopplerkb.extrapolation", "points_from_fit_results",
     "extrapolation.points_from_fit_results", _dropped),
    ("dopplerkb.extrapolation", "filter_by_slope", "extrapolation.filter_by_slope", _rejected),
    ("dopplerkb.extrapolation", "zero_pressure_width", "extrapolation.zero_pressure_width", None),
    ("dopplerkb.boltzmann", "uncertainty_budget", "boltzmann.uncertainty_budget", None),
)

_INFO_BY_SPAN = {name: info for _, _, name, info in LIBRARY_TARGETS}


def cli_targets():
    """Every function ``dopplerkb.cli`` imported from another dopplerkb
    module, traced under that module's layer, plus the library targets."""
    cli = importlib.import_module("dopplerkb.cli")
    extra = []
    for attr, value in vars(cli).items():
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("dopplerkb.") \
                and module != "dopplerkb.cli":
            name = f"{module.rsplit('.', 1)[1]}.{attr}"
            extra.append(("dopplerkb.cli", attr, name, _INFO_BY_SPAN.get(name)))
    return LIBRARY_TARGETS + tuple(extra)


def install(tracer: Tracer, targets) -> list:
    """Replace each target attribute by a tracing wrapper; returns what
    ``uninstall`` needs to put the originals back."""
    saved = []
    for module_name, attr, name, info in targets:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, info))
    return saved


def uninstall(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float):
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def layer_metrics(spans, n_campaigns: int, wall_s: float) -> dict:
    """Per-layer metrics of a traced phase of ``n_campaigns`` campaigns that
    took ``wall_s`` seconds.  A layer the phase never entered reads 0."""
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += duration[i]
    self_time = [duration[i] - child_time[i] for i in range(n)]

    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durations(name):
        return [duration[i] for i in by_name.get(name, ())]

    def infos(name, key):
        return [spans[i][4][key] for i in by_name.get(name, ())
                if spans[i][4] and key in spans[i][4]]

    def layer_of(i):
        return spans[i][0].split(".", 1)[0]

    def outermost_total(layer):
        """Time inside ``layer``, counting nested spans of the layer once."""
        return sum(duration[i] for i in range(n) if layer_of(i) == layer
                   and (spans[i][3] < 0 or layer_of(spans[i][3]) != layer))

    per_campaign = 1.0 / max(n_campaigns, 1)
    fits = by_name.get("fitter.fit_spectrum", [])
    fits_done = [i for i in fits if not (spans[i][4] or {}).get("error")]
    n_fit = max(len(fits_done), 1)
    iterations = infos("fitter.fit_spectrum", "n_iter")
    transmissions = len(by_name.get("absorption.transmission", ()))
    evals = sum(infos("lineshape.voigt", "n"))
    voigt_s = sum(durations("lineshape.voigt"))

    def stage_s(stage):
        return _median(durations(f"cli.{stage}"))

    m = {
        "cli.simulate_s": stage_s("simulate"),
        "cli.fit_s": stage_s("fit"),
        "cli.series_s": stage_s("series"),
        "cli.kb_s": stage_s("kb"),
        "fileio.write_spectrum_ms": 1e3 * _median(durations("fileio.write_spectrum")),
        "fileio.read_spectrum_ms": 1e3 * _median(durations("fileio.read_spectrum")),
        "fileio.fit_records_ms": 1e3 * per_campaign * (
            sum(durations("fileio.write_fit_records")) + sum(durations("fileio.read_fit_records"))),
        "fileio.manifest_ms": 1e3 * _median(durations("fileio.write_manifest")),
        "simulator.synth_ms": 1e3 * _median(durations("simulator.synth_spectrum")),
        "simulator.spectra": float(len(by_name.get("simulator.synth_spectrum", ()))),
        "absorption.transmission_ms": 1e3 * _median(durations("absorption.transmission")),
        "absorption.profile_evals": evals / max(transmissions, 1),
        "lineshape.voigt_ns_per_eval": 1e9 * voigt_s / evals if evals else 0.0,
        "fitter.fit_ms_p50": 1e3 * _median([duration[i] for i in fits_done]),
        "fitter.fit_ms_p99": 1e3 * _percentile([duration[i] for i in fits_done], 99),
        "fitter.iterations_mean": sum(iterations) / max(len(iterations), 1),
        "fitter.iterations_p99": float(_percentile(iterations, 99)),
        "fitter.jacobian_calls_per_fit": len(by_name.get("fitter.jacobian", ())) / n_fit,
        "fitter.model_calls_per_fit": len(by_name.get("fitter.model_transmission", ())) / n_fit,
        "fitter.initial_guess_ms": 1e3 * _median(durations("fitter.initial_guess")),
        "fitter.jacobian_ms": 1e3 * _median(durations("fitter.jacobian")),
        "fitter.model_ms": 1e3 * _median(durations("fitter.model_transmission")),
        "fitter.self_ms": 1e3 * _median([self_time[i] for i in fits_done]),
        "fitter.converged_ratio": sum(infos("fitter.fit_spectrum", "converged")) / n_fit,
        "fitter.errors": float(len(fits) - len(fits_done)),
        "extrapolation.ms_per_campaign": 1e3 * per_campaign * outermost_total("extrapolation"),
        "extrapolation.slope_rejected":
            per_campaign * sum(infos("extrapolation.filter_by_slope", "rejected")),
        "extrapolation.unconverged_dropped":
            per_campaign * sum(infos("extrapolation.points_from_fit_results", "dropped")),
        "boltzmann.budget_us": 1e6 * _median(durations("boltzmann.uncertainty_budget")),
        "trace.self_coverage": sum(self_time) / wall_s if wall_s > 0 else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_campaign"] = 1e3 * per_campaign * sum(
            self_time[i] for i in range(n) if layer_of(i) == layer)
    return m
