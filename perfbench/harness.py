"""Measurement primitives shared by every workload of the repository benchmark.

Only the host stamp imports ``repro``: the metric math (percentiles,
failure fractions, span self time, tracing overhead) is tested on its own by
``perfbench/test_perfbench.py``, and the instrumentation wraps whatever
classes a workload hands it.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# -- percentiles and counts ---------------------------------------------------------------

def nearest_rank(samples: Sequence[float], q: float) -> tuple[float, int]:
    """The nearest-rank ``q``-th percentile of ``samples`` and its 1-based rank."""
    if not samples:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("the percentile must lie in (0, 100]")
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) / 100.0 - 1e-9)))
    return ordered[rank - 1], rank


def has_tail(count: int, q: float) -> bool:
    """Whether ``TAIL_SAMPLES`` of ``count`` samples lie beyond the nearest-rank ``q``-th."""
    return count - math.ceil(q * count / 100.0 - 1e-9) >= TAIL_SAMPLES


def tail(samples: Sequence[float], cap: float = 99.0) -> tuple[float, float]:
    """The highest percentile (at most ``cap``) with ``TAIL_SAMPLES`` beyond it.

    Returns ``(value, percentile)``; ``(0.0, 0.0)`` when there are too few
    samples for any percentile to qualify.
    """
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return 0.0, 0.0
    q = min(cap, 100.0 * (n - TAIL_SAMPLES) / n)
    return nearest_rank(samples, q)[0], q


def median(samples: Sequence[float]) -> float:
    """The median of a non-empty sample (interpolated for even counts)."""
    return float(statistics.median(samples))


class Outcomes:
    """Operations attempted and failed, where a failure is a raise or a refused request.

    Thread-safe: the serve workload's reader and writer threads share one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0

    def record(self, *, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1

    def record_status(self, status: int) -> bool:
        """Count one HTTP response; anything but 2xx (429 included) fails."""
        ok = 200 <= status < 300
        self.record(ok=ok)
        return ok

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def overhead_frac(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Signed tracing overhead: traced median over untraced median, minus one.

    Deliberately not clamped at zero: a negative value says the overhead is
    below the run-to-run noise, which a clamp would hide.
    """
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


# -- spans --------------------------------------------------------------------------------

class SpanRecorder:
    """Benchmark-side spans kept in memory and written out when the run ends.

    Each span records its name, start, end, parent and the run id.  Nesting
    is per thread, so concurrent client threads build separate trees.  A
    disabled recorder times nothing and records nothing.
    """

    def __init__(self, run_id: str, *, enabled: bool = False) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end, "run": self.run_id}
                )


def instrument(recorder: SpanRecorder, owner: type, method: str, span_name: str) -> None:
    """Wrap ``owner.method`` so each call runs inside ``recorder.span(span_name)``.

    This is how the benchmark times calls the program makes into a layer's
    public functions without adding spans to the program itself.
    """
    original = getattr(owner, method)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(span_name):
            return original(*args, **kwargs)

    setattr(owner, method, wrapper)


def self_times(spans: Iterable[dict[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: the part of its name before the first dot."""
    return span_name.split(".", 1)[0]


def layer_self_seconds(spans: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Self time summed per layer."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals


def span_seconds(spans: Iterable[dict[str, Any]], name: str) -> float:
    """Total duration of every span called ``name`` (nested repeats included)."""
    return sum(span["end"] - span["start"] for span in spans if span["name"] == name)


# -- one measured run ---------------------------------------------------------------------

class Measurement:
    """What one measured run collects: latencies, outcomes, check verdicts and spans.

    With ``trace`` set, workloads trace every other operation (or round):
    per-layer numbers come from the traced ones, and the signed tracing
    overhead compares traced and untraced primary latencies of the same run.
    """

    def __init__(self, run_id: str, *, trace: bool) -> None:
        self.trace = trace
        self.recorder = SpanRecorder(run_id)
        self.outcomes = Outcomes()
        self.setup: list[float] = []
        self.primary: list[float] = []
        self.secondary: list[float] = []
        self._primary_by_trace: dict[bool, list[float]] = {True: [], False: []}
        self.check_passes: dict[str, int] = {}
        self.check_failures: list[dict[str, str]] = []

    def traced(self, index: int) -> bool:
        """Whether operation or round ``index`` is traced (odd ones, in a traced run)."""
        return self.trace and index % 2 == 1

    def add_primary(self, seconds: float, *, traced: bool) -> None:
        self.primary.append(seconds)
        self._primary_by_trace[traced].append(seconds)

    def check(self, name: str, check, *args) -> None:
        """Run one output check; any exception marks the run incorrect."""
        try:
            check(*args)
        except Exception as error:  # a crashing check is a failed check, not a crash
            self.check_failures.append({"check": name, "detail": f"{type(error).__name__}: {error}"})
        else:
            self.check_passes[name] = self.check_passes.get(name, 0) + 1

    @property
    def correct(self) -> bool:
        return not self.check_failures and bool(self.check_passes)

    def result(
        self,
        *,
        peak_rss: float,
        per_layer: dict[str, float],
        secondary: tuple[float, int] | None = None,
    ) -> dict[str, Any]:
        """The run's numbers: every end-to-end metric and this workload's per-layer ones.

        ``secondary`` is ``(value, samples)`` for a workload whose secondary
        latency is not the median of ``self.secondary``.
        """
        if secondary is None:
            secondary = (median(self.secondary), len(self.secondary))
        spans = self.recorder.spans
        layer_seconds = layer_self_seconds(spans)
        total = sum(layer_seconds.values())
        layers = {
            f"self.{layer}_frac": (seconds / total if total else 0.0)
            for layer, seconds in layer_seconds.items()
        }
        return {
            "spans": {"run": self.recorder.run_id, "spans": spans},
            "correct": self.correct,
            "attempted": self.outcomes.attempted,
            "failed": self.outcomes.failed,
            "checks": {"passed": self.check_passes, "failed": self.check_failures},
            "latencies": {"setup": self.setup, "primary": self.primary,
                          "secondary": self.secondary},
            "end_to_end": {
                "setup_s": median(self.setup),
                "primary_p50_s": median(self.primary),
                "secondary_s": secondary[0],
                "peak_rss_mb": peak_rss,
                "ok_frac": 1.0 - self.outcomes.error_frac,
            },
            "per_layer": {
                **per_layer,
                **layers,
                "bench.trace_overhead_frac": overhead_frac(
                    self._primary_by_trace[True], self._primary_by_trace[False]
                ),
                "bench.primary_samples": len(self.primary),
                "bench.secondary_samples": secondary[1],
            },
        }


def span_file(result_file: Path) -> Path:
    """Where a traced run's spans go, next to its result file."""
    return result_file.with_name(result_file.stem + ".spans.json")


# -- process and host ---------------------------------------------------------------------

def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Lifetime peak resident set size in MiB (of this process, or its waited children)."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def host_stamp() -> dict[str, Any]:
    """Same-code comparisons are only valid between results with equal stamps."""
    import numpy

    from repro.knowledge.parallel import default_jobs

    return {
        "cpu_count": os.cpu_count(),
        "jobs": default_jobs(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
