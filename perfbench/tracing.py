"""Span tracing of nikulat's layers from outside the package.

A :class:`Tracer` replaces public functions of the layers (the modules
``intmat``, ``lattice``, ``isometry``, ``model``, ``exprs``, ``serialize``,
``audit`` and ``cli``) with wrappers that record one span per call, at every
module attribute that still holds the original function, so callers resolve
the wrapper whichever module they imported it from.  :meth:`Tracer.restore`
puts the originals back; nothing under ``src/`` is modified.

Spans are kept in flat arrays (name, start, end, parent span, run id) and are
only written out by :meth:`Tracer.write` when the run ends.  A layer's self
time is its span's duration minus the part covered by its child spans; the
program is single-threaded, so children never overlap and their coverage is
the sum of their durations.

``Isometry.apply_coords`` runs millions of times per audit, so it gets a
counter instead of a span: each call is charged to the innermost open span.
The enumerator is a generator: its span runs from its first resumption to
its exhaustion, and while it is suspended the consumer's calls are not its
children, so its self time includes the consumer's own time between items
(a list append in the workloads).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

perf = time.perf_counter

#: (layer, function, span name); every span name starts with its layer.
TARGETS = (
    ("intmat", "matvec", "intmat.matvec"),
    ("intmat", "smith_decomposition", "intmat.smith_decomposition"),
    ("lattice", "pair", "lattice.pair"),
    ("lattice", "divisibility", "lattice.divisibility"),
    ("lattice", "is_primitive", "lattice.is_primitive"),
    ("lattice", "saturate", "lattice.saturate"),
    ("lattice", "check_embedding", "lattice.check_embedding"),
    ("isometry", "orbit_explore", "isometry.orbit_explore"),
    ("isometry", "same_orbit_witness", "isometry.same_orbit_witness"),
    ("model", "build_model", "model.build_model"),
    ("model", "default_generators", "model.default_generators"),
    ("model", "classify_orbit", "model.classify_orbit"),
    ("model", "vector_profile", "model.vector_profile"),
    ("model", "classify_isotropic_type", "model.classify_isotropic_type"),
    ("model", "enumerate_with_square", "model.enumerate"),
    ("exprs", "parse_vector", "exprs.parse_vector"),
    ("serialize", "dumps", "serialize.dumps"),
    ("audit", "run_all", "audit.run_all"),
    ("cli", "main", "cli.main"),
)
LAYERS = ("intmat", "lattice", "isometry", "model", "exprs", "serialize", "audit", "cli")
GENERATORS = {"model.enumerate"}


def _orbit_result(orbit):
    return (len(orbit), bool(orbit.exhausted))


def _witness_result(word):
    return None if word is None else len(word)


#: span name -> summary of the return value kept for exact counts
OBSERVED = {
    "isometry.orbit_explore": _orbit_result,
    "isometry.same_orbit_witness": _witness_result,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.t0 = perf()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.applies = array("q")
        self.results: dict[int, object] = {}
        self.first_yield: dict[int, float] = {}
        self.yielded: dict[int, int] = {}
        self.stack: list[int] = []
        self.run_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.failed.append(0)
        self.applies.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf()
        self.stack.remove(i)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code; yields its index."""
        i = self._open(self._name_id(name))
        try:
            yield i
        finally:
            self._close(i)

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        observe = OBSERVED.get(name)
        tracer = self

        if name in GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                i = tracer._open(nid)
                count = 0
                try:
                    inner = fn(*args, **kwargs)
                    for item in inner:
                        if count == 0:
                            tracer.first_yield[i] = perf() - tracer.start[i]
                        count += 1
                        # suspended: calls the consumer makes are not ours
                        tracer.stack.remove(i)
                        try:
                            yield item
                        finally:
                            tracer.stack.append(i)
                except Exception:
                    tracer.failed[i] = 1
                    raise
                finally:
                    tracer.yielded[i] = count
                    tracer._close(i)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.failed[i] = 1
                raise
            finally:
                tracer._close(i)
            if observe is not None:
                tracer.results[i] = observe(result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every nikulat module attribute that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "nikulat" or n.startswith("nikulat.")]
        for layer, fname, span_name in TARGETS:
            original = getattr(sys.modules[f"nikulat.{layer}"], fname)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        isometry_cls = sys.modules["nikulat.isometry"].Isometry
        original_apply = isometry_cls.__dict__["apply_coords"]
        stack, applies = self.stack, self.applies

        def apply_coords(iso, x):
            if stack:
                applies[stack[-1]] += 1
            return original_apply(iso, x)

        self._patches.append((isometry_cls, "apply_coords", original_apply))
        isometry_cls.apply_coords = apply_coords

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- reading -----------------------------------------------------------

    def summarize(self, lo: int, hi: int, clock) -> dict[str, dict]:
        """Per span name over spans lo..hi-1: calls, seconds, self seconds,
        failures, apply_coords calls charged to it, and observed results.
        Durations are ``clock.seconds(start, end)``."""
        durations = [clock.seconds(self.start[i], self.end[i]) for i in range(lo, hi)]
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] += durations[i - lo]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            name = self.names[self.name_ix[i]]
            s = out.get(name)
            if s is None:
                s = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0,
                                 "applies": 0, "results": [], "first_s": 0.0, "yielded": 0}
            dur = durations[i - lo]
            s["calls"] += 1
            s["s"] += dur
            s["self_s"] += dur - child[i]
            s["errors"] += self.failed[i]
            s["applies"] += self.applies[i]
            if i in self.results:
                s["results"].append(self.results[i])
            if i in self.yielded:
                if i in self.first_yield:
                    s["first_s"] += clock.seconds(self.start[i], self.start[i] + self.first_yield[i])
                s["yielded"] += self.yielded[i]
        return out

    def uncovered_share(self, i: int, intervals, clock) -> float:
        """Share of the timed intervals inside span i that none of i's child
        spans covers, in ``clock.raw`` seconds."""
        timed = sum(clock.raw(t0, t1) for t0, t1 in intervals)
        covered = sum(
            clock.raw(self.start[j], self.end[j])
            for j in range(i + 1, len(self.start))
            if self.parent[j] == i
        )
        return (timed - covered) / timed

    def write(self, path: str) -> int:
        """Write all spans as gzip'd tab-separated lines; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\trun\n")
            t0, names = self.t0, self.names
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{names[self.name_ix[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.run[i]}\n"
                )
        return len(self.start)

