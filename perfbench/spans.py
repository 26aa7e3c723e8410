"""Outside-in layer tracing of an in-process `relaysim run`.

The tracer replaces names that one relaysim module imports from another
(and the names the CLI calls) with wrappers that record a span per call:
name, start, end and the span that was open when the call began. Spans
stay in memory until the run ends. A layer's self time is its spans'
durations minus the time covered by their child spans; calls never
overlap inside one process, so that is a plain subtraction. A parent's
self time also holds the wrapper's own cost for each child call, about
a microsecond; `trace.overhead_pct` reports the total cost of tracing.

A target that no longer exists, because a later change removed or
renamed it, is recorded in `Tracer.absent` and skipped: the layers that
remain are still measured, and the absent ones report zero work.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array


def _by_scheme(args, kwargs) -> str:
    scheme = args[0] if args else kwargs.get("scheme")
    return str(getattr(scheme, "value", scheme))


# (module, attribute, span name[, suffix]). The attribute is the name
# through which the caller looks the function up, so wrapping it
# intercepts every call made through that module. A suffix function
# appends "." and a part taken from the call's arguments to the name.
TARGETS = (
    ("relaysim.cli", "load_bundled", "scenario.parse"),
    ("relaysim.cli", "parse_scenario", "scenario.parse"),
    ("relaysim.cli", "run_sweep", "montecarlo"),
    ("relaysim.cli", "write_results_csv", "cli.write_csv"),
    ("relaysim.cli", "emit_plot", "plotting.emit"),
    ("relaysim.montecarlo", "ProcessPoolExecutor", "montecarlo.pool"),
    ("relaysim.montecarlo", "realization_for_trial", "channel.draw"),
    ("relaysim.montecarlo", "stacked_beamformers", "beamformers.weights", _by_scheme),
    ("relaysim.montecarlo", "stacked_power_factors", "beamformers.power"),
    ("relaysim.montecarlo", "stacked_scheme_capacity", "link.capacity"),
    ("relaysim.montecarlo", "stacked_upper_bound", "link.upper_bound"),
    ("relaysim.link", "stacked_effective_channel", "link.effective"),
    ("relaysim.link", "qr_stack", "linalg.qr"),
    ("relaysim.link", "stacked_snr", "link.snr"),
    ("relaysim.beamformers", "cholesky_stack", "linalg.cholesky"),
    ("relaysim.beamformers", "solve_cholesky_factored", "linalg.solve"),
)

SWEEP_SPAN = "montecarlo"


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        # One span per index: name id, start, end, parent index (-1: none).
        # Flat arrays hold no Python objects, so a long trace costs the
        # garbage collector nothing.
        self.names = []
        self._ids = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.absent = []  # "module.attribute" of targets that do not exist
        self._absent_spans = set()
        self._present_spans = set()
        self._open = []
        self._installed = []

    def install(self, targets=TARGETS) -> "Tracer":
        for module_name, attr, span, *suffix in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                self._absent_spans.add(span)
                continue
            self._present_spans.add(span)
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, *suffix))
        return self

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span, suffix=None):
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, clock, fixed = self._open, time.perf_counter, self._id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(self._id(f"{span}.{suffix(args, kwargs)}") if suffix else fixed)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def is_absent(self, span: str) -> bool:
        """True if no existing target records `span`."""

        def covers(names):
            return any(span == a or span.startswith(a + ".") for a in names)

        return covers(self._absent_spans) and not covers(self._present_spans)

    def totals(self) -> dict:
        """span name -> (self seconds, calls), summed over all spans."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = durations[:]
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                own[parent] -= duration
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for name_id, seconds in zip(self.name_ids, own):
            self_s[name_id] += seconds
            calls[name_id] += 1
        return {n: (self_s[i], calls[i]) for i, n in enumerate(self.names) if calls[i]}

    def sweep_seconds(self) -> float:
        """Duration of the last sweep span."""
        sweep = self._ids[SWEEP_SPAN]
        last = max(i for i, n in enumerate(self.name_ids) if n == sweep)
        return self.ends[last] - self.starts[last]

    def write_csv(self, path) -> None:
        with open(path, "w") as out:
            out.write("name,start_s,end_s,parent\n")
            for name_id, start, end, parent in zip(
                self.name_ids, self.starts, self.ends, self.parents
            ):
                out.write(f"{self.names[name_id]},{start!r},{end!r},{parent}\n")


# Per-layer metrics: name -> (span name, what to report). "chunk_ms" and
# "chunk_calls" are per 1024 trials of the sweep (self time in ms, call
# count); "run_ms" and "run_calls" are per `relaysim run`.
LAYER_METRICS = {
    "channel.draw_ms": ("channel.draw", "chunk_ms"),
    "channel.draw_calls": ("channel.draw", "chunk_calls"),
    "beamformers.weights.af_ms": ("beamformers.weights.af", "chunk_ms"),
    "beamformers.weights.mf_ms": ("beamformers.weights.mf", "chunk_ms"),
    "beamformers.weights.mf-rzf_ms": ("beamformers.weights.mf-rzf", "chunk_ms"),
    "linalg.cholesky_ms": ("linalg.cholesky", "chunk_ms"),
    "linalg.solve_ms": ("linalg.solve", "chunk_ms"),
    "linalg.solve_calls": ("linalg.solve", "chunk_calls"),
    "beamformers.power_ms": ("beamformers.power", "chunk_ms"),
    "link.effective_ms": ("link.effective", "chunk_ms"),
    "linalg.qr_ms": ("linalg.qr", "chunk_ms"),
    "link.snr_ms": ("link.snr", "chunk_ms"),
    "link.capacity_ms": ("link.capacity", "chunk_ms"),
    "link.upper_bound_ms": ("link.upper_bound", "chunk_ms"),
    "montecarlo.self_ms": (SWEEP_SPAN, "chunk_ms"),
    "montecarlo.pool_starts": ("montecarlo.pool", "run_calls"),
    "scenario.parse_ms": ("scenario.parse", "run_ms"),
    "cli.write_csv_ms": ("cli.write_csv", "run_ms"),
    "plotting.emit_ms": ("plotting.emit", "run_ms"),
}
TRIALS_PER_CHUNK = 1024


def layer_values(totals: dict, trials: int, points: int) -> dict:
    """LAYER_METRICS values of one traced run from `Tracer.totals()`."""
    chunks = points * trials / TRIALS_PER_CHUNK
    out = {}
    for metric, (span, kind) in LAYER_METRICS.items():
        self_s, calls = totals.get(span, (0.0, 0))
        out[metric] = {
            "chunk_ms": 1e3 * self_s / chunks,
            "chunk_calls": calls / chunks,
            "run_ms": 1e3 * self_s,
            "run_calls": calls,
        }[kind]
    return out


def unit_of(metric: str) -> str:
    return "count" if metric.endswith(("_calls", "_starts")) else "ms"
