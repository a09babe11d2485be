"""Spans around calls into the library's public functions, and self time.

The library records nothing itself, so the tracer wraps the public functions
listed in LAYERS from outside.  Modules import each other's functions with
`from .x import y`, so a wrapper is bound under every name, in every
`vicsek_sandpile` module, that refers to the original function; calls
between modules then pass through it too.  `uninstall` puts the originals
back.

A span holds its name, start, end, the index of the span it was called
from, and the index of the timed step (see measure.Clock) it ran in.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

PACKAGE = "vicsek_sandpile"

LAYERS = {
    "fractal_graph": ("build",),
    "sandpile": ("stabilize", "group_add"),
    "recurrence": ("sample_recurrent", "wilson_ust", "tree_to_config", "is_recurrent"),
    "chain": ("transition_matrix", "radius_pmf_table", "monte_carlo_stabilization"),
    "critical_group": ("reduced_laplacian", "smith_normal_form", "sink_hit_probability"),
    "identity": ("identity", "merge", "verify_identity"),
    "cli": ("main", "render_svg"),
}


def _stabilize_counts(result) -> dict:
    _, report = result
    return {"topplings": int(report.odometer.sum()), "sink_particles": report.sink_particles}


def _monte_carlo_counts(result) -> dict:
    return {"trials": result.trials}


# Work counts read from a layer's return value, outside its span.
COUNTERS = {
    "sandpile.stabilize": _stabilize_counts,
    "chain.monte_carlo_stabilization": _monte_carlo_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    step: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.step = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def set_step(self, step: int) -> None:
        self.step = step

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.step)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper under every name that refers to a listed function."""
        if self._bindings:
            for module, attr, _, wrapper in self._bindings:
                setattr(module, attr, wrapper)
            return
        modules = [
            m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for short, names in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            if home is None:
                continue
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def extend(self, dumped: list[dict], step: int) -> None:
        """Append spans recorded in another process, tagged with `step`."""
        offset = len(self.spans)
        for d in dumped:
            parent = None if d["parent"] is None else d["parent"] + offset
            self.spans.append(
                Span(d["name"], d["start"], d["end"], parent, step, d["counts"])
            )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans: list[Span], factor: float, keep) -> dict[str, dict]:
    """Per span name, over the spans `keep` accepts: calls, self seconds
    times `factor`, and the sums of the recorded counts.  Names and keys
    never recorded read as 0."""
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        if not keep(s):
            continue
        t = totals[s.name]
        t["calls"] += 1
        t["self_s"] += own * factor
        for key, value in s.counts.items():
            t[key] += value
    return totals
