"""Per-layer tracing from outside the library.

`install_spans` rebinds the public functions of `tightrep` where one
module calls into another (and the constructors of the structure
classes) to wrappers that record spans.  Spans are aggregated in memory
per (name, parent) as calls, total time and self time (duration minus the
time covered by child spans).  Generator functions get one span per
`next()`, so a lazy stream is charged to whoever consumes it.

`install_op_counter` counts the hot structure primitives (meet, join,
leq, index, complement) without spans; it runs in a pass of its own
because a wrapper on 20M calls would swamp the span times.

Nothing under `src/` is edited: every rebinding happens at run time in
the process that imports this module.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from tightrep import (cli, enumeration, inverse_semigroups, lattices,
                      representations, structfile)


class SpanRecorder:
    def __init__(self):
        self.stack = []          # [name, start, time covered by children]
        self.agg = {}            # (name, parent) -> [calls, total_s, self_s]
        self.counts = Counter()

    def enter(self, name):
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self):
        end = perf_counter()
        name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += duration
        entry = self.agg.get((name, parent))
        if entry is None:
            entry = self.agg[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    def span(self, name, fn, on_result=None):
        """Wrap a plain function; on_result(args, result) may count."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def stream(self, name, fn, on_call=None):
        """Wrap a generator function: one span per next(), items counted."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if on_call is not None:
                on_call(args)
            self.enter(name)
            try:
                gen = fn(*args, **kwargs)
            finally:
                self.exit()
            return self._drain(name, gen)
        return wrapper

    def _drain(self, name, gen):
        try:
            while True:
                self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts[name + ".items"] += 1
                yield item
        finally:
            gen.close()

    def dump(self):
        return {
            "spans": [{"name": n, "parent": p, "calls": v[0],
                       "total_s": v[1], "self_s": v[2]}
                      for (n, p), v in sorted(self.agg.items(),
                                              key=lambda kv: -kv[1][2])],
            "counts": dict(self.counts),
        }


# name -> (defining module, modules that look the name up at call time).
# The defining module is listed too wherever it calls the name internally.
_BINDINGS = {
    "enumerate_semilattices": (enumeration, (enumeration, cli)),
    "canonical_meet_table": (enumeration, (enumeration,)),
    "enumerate_representations": (enumeration, (enumeration,)),
    "verify_theorems": (enumeration, (cli,)),
    "search_gap": (enumeration, (cli,)),
    "is_tight": (representations, (representations, enumeration)),
    "is_cover_to_join": (representations,
                         (representations, enumeration, inverse_semigroups)),
    "constrained_interval": (representations, (representations, enumeration)),
    "covers_of": (representations, (enumeration,)),
    "antichains": (representations, (representations, enumeration)),
    "tighten": (representations, (enumeration, cli)),
    "principal_ideal": (lattices, (lattices, representations, inverse_semigroups)),
    "ideal_generated_by": (lattices, (representations,)),
    "is_ideal": (lattices, (lattices, enumeration)),
    "is_generalized_boolean_inverse_semigroup": (inverse_semigroups,
                                                 (inverse_semigroups,)),
    "check_homomorphism_tightness": (inverse_semigroups, (inverse_semigroups,)),
    "tighten_homomorphism": (inverse_semigroups, (cli,)),
    "parse": (structfile, (cli,)),
    "render": (structfile, (cli,)),
    "render_block": (structfile, (cli,)),
}


def _original(name):
    return getattr(_BINDINGS[name][0], name)


def _rebind(name, wrapper):
    for module in _BINDINGS[name][1]:
        setattr(module, name, wrapper)


def install_spans(rec: SpanRecorder) -> None:
    """Wrap every traced function and constructor; counters go to rec.counts."""
    counts = rec.counts

    def verdict_counter(key):
        def on_result(args, verdict):
            counts[key + ".passed"] += verdict.ok
        return on_result

    def count_corner(args, tightening):
        counts["inverse_semigroups.tighten.corner_elements"] += len(tightening.corner)

    def count_parsed_bytes(args, result):
        counts["structfile.parse.bytes"] += len(args[0].encode("utf-8"))

    def count_candidates(args):
        semilattice, algebra = args
        counts["enumeration.representations.candidates"] += \
            len(algebra) ** (len(semilattice) - 1)

    plain = {
        "canonical_meet_table": ("enumeration.canonical", None),
        "verify_theorems": ("enumeration.driver", None),
        "is_cover_to_join": ("representations.is_cover_to_join",
                             verdict_counter("representations.is_cover_to_join")),
        "constrained_interval": ("representations.constrained_interval", None),
        "tighten": ("representations.tighten", None),
        "principal_ideal": ("lattices.ideal", None),
        "ideal_generated_by": ("lattices.ideal", None),
        "is_ideal": ("lattices.ideal", None),
        "is_generalized_boolean_inverse_semigroup": ("inverse_semigroups.gbis", None),
        "check_homomorphism_tightness": ("inverse_semigroups.check", None),
        "tighten_homomorphism": ("inverse_semigroups.tighten", count_corner),
        "parse": ("structfile.parse", count_parsed_bytes),
        "render": ("structfile.render", None),
        "render_block": ("structfile.render", None),
    }
    for fname, (span_name, on_result) in plain.items():
        _rebind(fname, rec.span(span_name, _original(fname), on_result))

    streams = {
        "enumerate_semilattices": ("enumeration.semilattices", None),
        "enumerate_representations": ("enumeration.representations", count_candidates),
        "search_gap": ("enumeration.driver", None),
        "covers_of": ("representations.covers_of", None),
    }
    for fname, (span_name, on_call) in streams.items():
        _rebind(fname, rec.stream(span_name, _original(fname), on_call))

    # is_tight: the reduced minimal scan and the oracle forms get separate spans.
    raw_is_tight = _original("is_tight")
    reduced_span = rec.span("representations.is_tight", raw_is_tight,
                            verdict_counter("representations.is_tight"))
    oracle_span = rec.span("representations.is_tight_oracle", raw_is_tight)

    @functools.wraps(raw_is_tight)
    def is_tight(rep, view=None, *, minimal_only=True, reduced=True):
        target = reduced_span if (minimal_only and reduced) else oracle_span
        return target(rep, view, minimal_only=minimal_only, reduced=reduced)
    _rebind("is_tight", is_tight)

    raw_antichains = _original("antichains")

    @functools.wraps(raw_antichains)
    def antichains(semilattice):
        counts["representations.antichains.calls"] += 1
        return raw_antichains(semilattice)
    _rebind("antichains", antichains)

    methods = [
        (representations.Representation, "__init__", "representations.construct"),
        (lattices.FiniteMeetSemilattice, "__init__", "lattices.semilattice_validate"),
        (lattices.FiniteGenBoolAlg, "__init__", "lattices.algebra_validate"),
        (inverse_semigroups.FiniteInverseSemigroup, "__init__",
         "inverse_semigroups.semigroup_validate"),
        (inverse_semigroups.ISHomomorphism, "__init__",
         "inverse_semigroups.hom_validate"),
        (inverse_semigroups.ISHomomorphism, "restriction", "inverse_semigroups.check"),
    ]
    for cls, attr, span_name in methods:
        setattr(cls, attr, rec.span(span_name, getattr(cls, attr)))


OP_NAMES = ("meet", "join", "leq", "index", "complement")
OP_CLASSES = (lattices.FiniteMeetSemilattice, lattices.FiniteGenBoolAlg,
              lattices.IdealView)


def install_op_counter(counts: Counter) -> None:
    """Count calls of the structure primitives on the lattice classes."""
    def counting(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            counts["lattices.op_calls"] += 1
            return fn(*args)
        return wrapper

    for cls in OP_CLASSES:
        for name in OP_NAMES:
            fn = cls.__dict__.get(name)
            if fn is not None:
                setattr(cls, name, counting(fn))
