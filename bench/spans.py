"""Spans around the public functions of the sparse_isac modules.

The benchmark, not the library, records them: `Tracer.install` replaces
each function in the SPANS table with a timing wrapper under every module
that imported it (so `analysis.synthesize` and `synth.synthesize` are the
same span), and `uninstall` puts the originals back.  Spans are kept in
memory as (name, start, end, parent) and summarised at the end; a span's
self time is its duration minus the time its child spans cover.

`scene` is pure scalar arithmetic and has no span; its cost falls into
the self time of `synth.synthesize`.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("alloc", "scene", "synth", "estimators", "analysis", "cli")

# Span name, and the end-to-end metric and workload an optimisation of it
# should move (written down before any optimisation is measured).
SPANS = (
    ("alloc.make_allocation", "units_per_s on sweep_desk and sweep_paper; not estimate_desk"),
    ("alloc.ResourceAllocation.constant", "units_per_s on sweep_desk and sweep_paper; not estimate_desk"),
    ("alloc.ResourceAllocation.mask", "units_per_s on sweep_desk and sweep_paper; not estimate_desk"),
    ("alloc.difference_set", "units_per_s on sweep_desk and sweep_paper; not estimate_desk"),
    ("alloc.hole_fill_curve", "units_per_s on cli_desk"),
    ("synth.synthesize", "units_per_s on sweep_paper; less on sweep_desk"),
    ("estimators.zero_fill_periodogram", "units_per_s on sweep_paper and estimate_desk"),
    ("estimators.build_virtual_signal", "units_per_s on sweep_paper and estimate_desk"),
    ("estimators.virtual_periodogram", "units_per_s on sweep_desk"),
    ("estimators.detect_peaks", "units_per_s on sweep_desk"),
    ("estimators.ml_single_target", "units_per_s and cpu_s_per_unit on estimate_desk only"),
    ("estimators.doppler_periodogram", "units_per_s and cpu_s_per_unit on estimate_desk only"),
    ("analysis.monte_carlo_sweep", "units_per_s on sweep_desk (self time is harness time)"),
    ("analysis.pslr", "units_per_s on sweep_desk"),
    ("analysis.two_target_demo", "units_per_s on cli_desk"),
    ("analysis.ambiguity_function", "units_per_s on cli_desk"),
    ("analysis.crlb_report", "units_per_s on cli_desk"),
    ("cli.main", "units_per_s on cli_desk only (parse, load, manifest)"),
    ("cli.validate_config", "units_per_s on cli_desk only"),
    ("cli.run_experiment", "units_per_s on cli_desk only (self time is CSV formatting and writing)"),
)

# Counters and ratios of the traced run: (metric, unit, better, what it shows).
COUNTERS = (
    ("synth.active_re_frac", "frac", "higher",
     "active REs / (M*N) over returned grids: the share of drawn noise that is kept"),
    ("estimators.detect_peaks.incomplete_per_unit", "count/unit", "lower",
     "PeakList.complete == False per unit"),
    ("estimators.ml_single_target.fresh_alloc_ms_p50", "ms", "lower",
     "median ML call on a freshly drawn allocation (steering cache miss) on estimate_desk"),
    ("estimators.ml_single_target.repeat_alloc_ms_p50", "ms", "lower",
     "median ML call on the repeated nested allocation (steering cache hit) on estimate_desk"),
    ("analysis.pslr.nonfinite_per_unit", "count/unit", "lower",
     "non-finite PSLR samples per unit"),
    ("analysis.monte_carlo_sweep.miss_rate", "frac", "lower",
     "misses / true targets across all methods; a pure speed-up must not move it"),
    ("cli.output_bytes_per_unit", "bytes/unit", "lower",
     "artifact bytes written per CLI run on cli_desk"),
    ("check.ref_max_rel_err", "frac", "lower",
     "largest difference from bench/reference.json, relative to each quantity's scale"),
    ("trace.overhead_frac", "frac", "lower",
     "(traced - untraced) / untraced median call time per unit, each scaled by its calibration"),
)

BLAS1_PREFIX = "blas1."


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, _ in SPANS:
        out.append((f"{name}.calls_per_unit", "calls/unit", "lower"))
        out.append((f"{name}.self_ms_per_unit", "ms/unit", "lower"))
    out.extend((name, unit, better) for name, unit, better, _ in COUNTERS)
    out.extend(
        (f"{BLAS1_PREFIX}{name}.self_ms_per_unit", "ms/unit", "lower") for name, _ in SPANS
    )
    return out


def _observe_synthesize(counters, grid):
    counters["active_re"] += int(grid.alloc.cardinalities().sum())
    counters["total_re"] += int(grid.samples.size)


def _observe_detect_peaks(counters, peaks):
    counters["incomplete_peaks"] += not peaks.complete


def _observe_pslr(counters, value):
    counters["nonfinite_pslr"] += not math.isfinite(value)


def _observe_sweep(counters, result):
    cfg = result.config
    per_point = cfg.n_trials * len(cfg.targets)
    for method in cfg.methods:
        counters["sweep_misses"] += round(float(result.miss_rate[method].sum()) * per_point)
        counters["sweep_truths"] += per_point * len(cfg.snr_db_axis)


OBSERVERS = {
    "synth.synthesize": _observe_synthesize,
    "estimators.detect_peaks": _observe_detect_peaks,
    "analysis.pslr": _observe_pslr,
    "analysis.monte_carlo_sweep": _observe_sweep,
}


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.labels: dict[int, str] = {}  # span index -> label given by the benchmark
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, label: str | None = None):
        idx = self._open(name)
        if label is not None:
            self.labels[idx] = label
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def install(self, package) -> list[tuple]:
        """Wrap every SPANS function; returns the patches for `uninstall`."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        patches = []
        for name, _ in SPANS:
            home_name, *path = name.split(".")
            home = importlib.import_module(f"{package.__name__}.{home_name}")
            if len(path) == 2:  # Class.method: patch the class once
                cls = getattr(home, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                patches.append((cls, path[1], raw))
                setattr(cls, path[1], new)
                continue
            orig = getattr(home, path[0])
            new = self.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, key, val))
                        setattr(mod, key, new)
        return patches

    @staticmethod
    def uninstall(patches: list[tuple]) -> None:
        for owner, key, val in reversed(patches):
            setattr(owner, key, val)

    def summary(self, durations_for: tuple[str, ...] = ()) -> dict:
        """Per-span call counts and self seconds, and counters.

        For the spans named in `durations_for`, also each call's duration,
        grouped by the label of the nearest labelled span it ran under.
        """
        n = len(self.spans)
        child = [0.0] * n
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        by_label: dict[str, dict[str, list[float]]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if name not in durations_for:
                continue
            up = self.spans[i][3]
            while up >= 0 and up not in self.labels:
                up = self.spans[up][3]
            if up >= 0:
                label = self.labels[up]
                by_label.setdefault(name, {}).setdefault(label, []).append(end - start)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "durations_by_label": by_label,
            "counters": dict(self.counters),
        }
