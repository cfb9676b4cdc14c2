"""Outside-in tracing of ergolab's modules for the per-layer metrics.

The tracer wraps public functions and measure methods from outside: it
replaces every binding of a wrapped function, in every `ergolab` module
namespace and in module-level tables such as `acceptance.CRITERIA`
(`from .x import y` makes `scenarios.block_entropy` a separate name from
`entropy.block_entropy`), so no file under `src/` changes. Spans are kept in memory as
(name, start, end, parent) and written out when the run ends. A layer's
self time is its span's duration minus the durations of its child spans;
in single-threaded code the children never overlap.

Counters are computed at the same boundaries, on a paused clock, so that
computing them is not charged to any span.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

ROOT_SPAN = "run"

MEASURE_CLASSES = ("Bernoulli", "Markov", "PeriodicOrbit", "Mixture", "Convolution", "ProductMeasure")
SAMPLED_KINDS = ("bernoulli", "markov", "periodic_orbit", "convolution")
ENUMERATED_KINDS = ("bernoulli", "markov", "periodic_orbit", "mixture", "convolution", "product")

# Module-level functions to wrap: (module, function, span name).
FUNCTIONS = (
    ("shifts", "is_shift_invariant", "shifts.is_shift_invariant"),
    ("shifts", "verify_extension", "shifts.verify_extension"),
    ("entropy", "block_entropy", "entropy.block_entropy"),
    ("entropy", "empirical_block_entropy", "entropy.empirical_block_entropy"),
    ("ergodicity", "birkhoff_report", "ergodicity.birkhoff_report"),
    ("circle", "sample_lebesgue_coding", "circle.sample_lebesgue_coding"),
    ("groups", "convolve", "groups.convolve"),
    ("groups", "automorphisms", "groups.automorphisms"),
    ("groups", "independence_check", "groups.independence_check"),
    ("skew", "skew_entropy", "skew.skew_entropy"),
    ("skew", "is_skew_invariant", "skew.is_skew_invariant"),
    ("skew", "haar_absorption_check", "skew.haar_absorption_check"),
    ("scenarios", "parse_config", "scenarios.parse_config"),
    ("scenarios", "write_reports", "scenarios.write_reports"),
    ("scenarios", "run_scenario", "scenarios.run_scenario"),
) + tuple(("acceptance", f"criterion_{n}", f"acceptance.criterion_{n}") for n in range(1, 10))

# Spans that start a new scope for `repeat_ratio`: one scenario or criterion.
SCOPE_SPANS = frozenset(
    ["scenarios.run_scenario"] + [f"acceptance.criterion_{n}" for n in range(1, 10)]
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


def _self_s(span: str, moves: str) -> LayerMetric:
    return LayerMetric(f"{span}.self_s", "s", "lower", moves)


# The per-layer metrics, in report order. A metric not reached on a workload
# reads 0 there; the prediction for every workload not named is "no change".
LAYER_METRICS = (
    *(
        _self_s(f"shifts.block_distribution.{kind}", "run_s on enumerate (most), then verify_exact")
        for kind in ENUMERATED_KINDS
    ),
    LayerMetric("shifts.block_distribution.states", "count", "lower",
                "run_s on enumerate (most), then verify_exact"),
    LayerMetric("shifts.block_distribution.peak_states", "count", "lower",
                "peak_rss_mb on enumerate; headroom under the 2^24 guard"),
    LayerMetric("shifts.block_distribution.max_denominator_bits", "bits", "lower",
                "run_s on enumerate (Fraction cost grows with denominator size)"),
    LayerMetric("shifts.block_distribution.repeat_ratio", "ratio", "lower",
                "run_s on enumerate and sample (re-enumerated (measure, length) pairs)"),
    _self_s("shifts.cylinder", "run_s on verify_exact and in the sample precheck"),
    LayerMetric("shifts.cylinder.calls", "count", "lower",
                "run_s on verify_exact and in the sample precheck"),
    _self_s("shifts.is_shift_invariant", "run_s on verify_exact and in the sample precheck"),
    _self_s("shifts.verify_extension", "run_s on verify_exact and in the sample precheck"),
    *(_self_s(f"shifts.sample.{kind}", "run_s on sample") for kind in SAMPLED_KINDS),
    LayerMetric("shifts.sample.symbols", "count", "lower", "run_s on sample"),
    _self_s("entropy.block_entropy", "run_s on enumerate and verify_exact"),
    LayerMetric("entropy.block_entropy.calls", "count", "lower", "run_s on enumerate and verify_exact"),
    _self_s("entropy.empirical_block_entropy", "run_s and peak_rss_mb on sample"),
    LayerMetric("entropy.empirical_block_entropy.windows", "count", "lower",
                "run_s and peak_rss_mb on sample"),
    _self_s("ergodicity.birkhoff_report", "run_s on sample"),
    LayerMetric("ergodicity.birkhoff_report.steps", "count", "lower", "run_s on sample"),
    _self_s("circle.sample_lebesgue_coding", "run_s on sample"),
    LayerMetric("circle.sample_lebesgue_coding.symbols", "count", "lower", "run_s on sample"),
    _self_s("groups.convolve", "run_s on verify_exact (regressions only, ~3% together)"),
    _self_s("groups.automorphisms", "run_s on verify_exact (regressions only, ~3% together)"),
    _self_s("groups.independence_check", "run_s on verify_exact (regressions only, ~3% together)"),
    _self_s("skew.skew_entropy", "run_s on verify_exact"),
    _self_s("skew.is_skew_invariant", "run_s on verify_exact"),
    _self_s("skew.haar_absorption_check", "run_s on verify_exact"),
    LayerMetric("scenarios.parse_config.s", "s", "lower",
                "setup_s on enumerate and sample (a few ms of it; the rest is import)"),
    LayerMetric("scenarios.write_reports.s", "s", "lower", "run_s on enumerate and sample"),
    _self_s("scenarios.run_scenario", "run_s on enumerate and sample"),
    *(
        LayerMetric(f"acceptance.criterion_{n}.s", "s", "lower",
                    "run_s and fail_ratio on verify_exact, through the budgets")
        for n in range(1, 10)
    ),
    LayerMetric("trace.overhead_s", "s", "lower",
                "none: traced run_s minus untraced run_s, the cost of tracing itself"),
    LayerMetric("src.lines", "lines", "lower", "none: size of src/, tracked, not gated"),
)

# Metrics that are a span's total duration rather than its self time.
_TOTAL_SPANS = {"scenarios.parse_config", "scenarios.write_reports"} | {
    f"acceptance.criterion_{n}" for n in range(1, 10)
}


@dataclass
class Tracer:
    """In-memory span recorder with a clock that stops while counters are computed."""

    spans: list = field(default_factory=list)  # (name, start, end, parent index)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _paused: float = 0.0
    _seen: set = field(default_factory=set)  # (measure, length) pairs in this scope

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def span(self, name: str, fn: Callable, args, kwargs, count: Optional[Callable] = None):
        """Call fn inside a span; `count(tracer, args, kwargs, result)` runs on the paused clock."""
        start = self.now()
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        if name in SCOPE_SPANS:
            self._seen = set()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, self.now(), parent)
        if count is not None:
            pause = time.perf_counter()
            count(self, args, kwargs, result)
            self._paused += time.perf_counter() - pause
        return result

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, count)

        return traced

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def layer_values(self) -> dict[str, float]:
        """Every per-layer metric this trace determines (not overhead or src lines)."""
        self_t, total_t = self.self_times(), self.total_times()
        values: dict[str, float] = {}
        for metric in LAYER_METRICS:
            name = metric.name
            if name.endswith(".self_s"):
                values[name] = self_t.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".s") and name[: -len(".s")] in _TOTAL_SPANS:
                values[name] = total_t.get(name[: -len(".s")], 0.0)
            elif name == "shifts.block_distribution.repeat_ratio":
                calls = self.counters.get("shifts.block_distribution.calls", 0)
                repeats = self.counters.get("shifts.block_distribution.repeats", 0)
                values[name] = repeats / calls if calls else 0.0
            elif name in ("trace.overhead_s", "src.lines"):
                continue
            else:
                values[name] = float(self.counters.get(name, 0))
        return values

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: index, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


# -- counters ------------------------------------------------------------------


def _count_block_distribution(tracer: Tracer, args, kwargs, dist) -> None:
    measure, length = args[0], (args[1] if len(args) > 1 else kwargs["length"])
    tracer.add("shifts.block_distribution.calls", 1)
    try:
        key = (measure, length)
        hash(key)
    except TypeError:
        key = (id(measure), length)
    if key in tracer._seen:
        tracer.add("shifts.block_distribution.repeats", 1)
    else:
        tracer._seen.add(key)
    tracer.add("shifts.block_distribution.states", len(dist))
    tracer.peak("shifts.block_distribution.peak_states", len(dist))
    if dist:
        bits = max(p.denominator for p in dist.values()).bit_length()
        tracer.peak("shifts.block_distribution.max_denominator_bits", bits)


def _count_call(counter: str) -> Callable:
    def count(tracer: Tracer, args, kwargs, result) -> None:
        tracer.add(counter, 1)

    return count


def _count_sample(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("shifts.sample.symbols", len(result))


def _count_windows(tracer: Tracer, args, kwargs, result) -> None:
    words, length = args[0], (args[1] if len(args) > 1 else kwargs["length"])
    windows = 0
    for word in words:
        n = len(word)
        top = min(n, length)
        windows += top * (n + 1) - top * (top + 1) // 2  # sum over ell of n - ell + 1
    tracer.add("entropy.empirical_block_entropy.windows", windows)


def _count_birkhoff(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("ergodicity.birkhoff_report.steps", result.n_steps * result.n_seeds)


def _count_lebesgue(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("circle.sample_lebesgue_coding.symbols", sum(len(w) for w in result))


_FUNCTION_COUNTERS = {
    "entropy.block_entropy": _count_call("entropy.block_entropy.calls"),
    "entropy.empirical_block_entropy": _count_windows,
    "ergodicity.birkhoff_report": _count_birkhoff,
    "circle.sample_lebesgue_coding": _count_lebesgue,
}


# -- installation ----------------------------------------------------------------


def _rebind(original: Callable, replacement: Callable) -> int:
    """Replace `original` in every ergolab module namespace and module-level dict."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ergolab" or mod_name.startswith("ergolab.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                replaced += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap ergolab's layers in the current process. Import every module first."""
    import importlib

    modules = {
        name: importlib.import_module(f"ergolab.{name}")
        for name in ("shifts", "entropy", "ergodicity", "circle", "groups", "skew", "scenarios", "acceptance", "cli")
    }
    for mod, func, span in FUNCTIONS:
        original = getattr(modules[mod], func)
        wrapped = tracer.wrap(span, original, _FUNCTION_COUNTERS.get(span))
        if _rebind(original, wrapped) == 0:
            raise RuntimeError(f"no binding of ergolab.{mod}.{func} to trace")
    shifts = modules["shifts"]
    for cls_name in MEASURE_CLASSES:
        cls = getattr(shifts, cls_name)
        own = vars(cls)
        setattr(
            cls,
            "block_distribution",
            tracer.wrap(f"shifts.block_distribution.{cls.kind}", own["block_distribution"],
                        _count_block_distribution),
        )
        setattr(cls, "cylinder", tracer.wrap("shifts.cylinder", own["cylinder"],
                                             _count_call("shifts.cylinder.calls")))
        if cls.kind in SAMPLED_KINDS:
            setattr(cls, "sample", tracer.wrap(f"shifts.sample.{cls.kind}", own["sample"], _count_sample))
