"""Traced mode: spans around calls into the library's public functions.

`Tracer.install` replaces each traced function by a wrapper in every
`treefactorials` module that holds it, so calls through names other modules
imported (`flow.expand`, `adelic.factorials_weighting`, the library names in
`cli`) and calls inside a module are traced too; `AdelicSetSource` is traced
through its `__init__`.  Spans (name, start, end, parent) are kept in memory
and written out once, at the end of the pass.  Wrappers record only while an
op runs, so output checks outside the timed region leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from treefactorials import adelic, cli, engine, flow, realize, sequences, sources, trees

# (module, public name) pairs wrapped in traced mode; a span is named
# "<module>.<name>".
TRACED_FUNCTIONS = (
    (trees, "parse_tree_file"),
    (sources, "expand"),
    (sources, "parse_generator_spec"),
    (engine, "factorials_weighting"),
    (engine, "factorials_removed"),
    (engine, "factorials_greedy_oracle"),
    (engine, "factorials_minmax"),
    (sequences, "superadditivity_gap"),
    (sequences, "limit_estimate"),
    (adelic, "bhargava_factorials"),
    (adelic, "factorials_prime"),
    (flow, "effective_resistance"),
    (flow, "unit_current_flow"),
    (flow, "exact_escape_probability"),
    (flow, "random_walk_escape"),
    (flow, "branching_number_estimate"),
    (flow, "equidistribution_check"),
    (realize, "realize_lengths"),
    (realize, "verify_roundtrip"),
    (cli, "main"),
)
TRACED_INITS = ((sources, "AdelicSetSource"),)

# Per-layer time metric fed by each span's self time.
LAYER_OF_SPAN = {
    "trees.parse_tree_file": "trees.parse_s",
    "sources.expand": "sources.expand_s",
    "sources.parse_generator_spec": "sources.spec_parse_s",
    "sources.AdelicSetSource": "sources.source_init_s",
    "engine.factorials_weighting": "engine.weighting_s",
    "engine.factorials_removed": "engine.weighting_s",
    "engine.factorials_greedy_oracle": "engine.greedy_s",
    "engine.factorials_minmax": "engine.minmax_s",
    "sequences.superadditivity_gap": "sequences.superadditivity_s",
    "sequences.limit_estimate": "sequences.limit_estimate_s",
    "adelic.bhargava_factorials": "adelic.prime_discovery_s",
    "adelic.factorials_prime": "adelic.per_prime_s",
    "flow.effective_resistance": "flow.resistance_s",
    "flow.unit_current_flow": "flow.current_flow_s",
    "flow.exact_escape_probability": "flow.escape_s",
    "flow.random_walk_escape": "flow.escape_s",
    "flow.branching_number_estimate": "flow.branching_s",
    "flow.equidistribution_check": "flow.equidist_s",
    "realize.realize_lengths": "realize.roundtrip_s",
    "realize.verify_roundtrip": "realize.roundtrip_s",
    "cli.main": "cli.self_s",
    "op": "bench.self_s",
}
WEIGHTING_SPANS = ("engine.factorials_weighting", "engine.factorials_removed")
# Breakdowns of engine.weighting_s by the path the run took.
HEAP_POLICIES = (engine.SeededRandom, engine.OrderedTieBreak)

# Span record fields; a record is a list [name, start_ns, end_ns, parent, attrs].
NAME, START, END, PARENT, ATTRS = range(5)


def _weighting_attrs(signature):
    def attrs_of(args, kwargs) -> dict:
        """Which selection path and which arithmetic a weighting call takes."""
        bound = signature.bind(*args, **kwargs).arguments
        source = bound["source"]
        fraction = isinstance(source, sources.TreeSource) and source.length_scale() is None
        return {"heap": isinstance(bound.get("policy"), HEAP_POLICIES), "fraction": fraction}

    return attrs_of


def _weighting_counts(run) -> dict:
    return {"terms": len(run.sequence.values), "vertices": len(run.weights)}


def _expand_counts(tree) -> dict:
    return {"vertices": len(tree.parents)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.recording = False

    def _wrap(self, name, fn, attrs_of=None, counts_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            attrs = attrs_of(args, kwargs) if attrs_of else None
            record = [name, 0, 0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if counts_of is not None:
                record[ATTRS] = {**(record[ATTRS] or {}), **counts_of(result)}
            return result

        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper in all library modules."""
        library = [m for n, m in sys.modules.items() if n == "treefactorials" or n.startswith("treefactorials.")]
        for module, attr in TRACED_FUNCTIONS:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            if name in WEIGHTING_SPANS:
                attrs_of = _weighting_attrs(inspect.signature(original))
                wrapper = self._wrap(name, original, attrs_of, _weighting_counts)
            elif name == "sources.expand":
                wrapper = self._wrap(name, original, counts_of=_expand_counts)
            else:
                wrapper = self._wrap(name, original)
            for m in library:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        for module, attr in TRACED_INITS:
            cls = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(name, cls.__init__)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def op(self, call, name):
        """`call` wrapped in a root span named "op" that carries the op's
        name, recording while it runs."""
        root = self._wrap("op", call, attrs_of=lambda args, kwargs: {"op": name})

        def traced_op():
            self.recording = True
            try:
                return root()
            finally:
                self.recording = False

        return traced_op

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"], "spans": self.spans}, fh)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another inside it (one thread), so
    the covered time is the sum of their durations.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def nesting_error(spans) -> str | None:
    """None when every span lies inside its parent and siblings do not
    overlap, so self times add up to the root spans without double counting."""
    last_end: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            return f"span {i} ({s[NAME]}) ends before it starts"
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            if not (parent[START] <= s[START] and s[END] <= parent[END]):
                return f"span {i} ({s[NAME]}) leaves its parent {p} ({parent[NAME]})"
        if s[START] < last_end.get(p, s[START]):
            return f"span {i} ({s[NAME]}) overlaps an earlier sibling"
        last_end[p] = s[END]
    return None


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self times in seconds, plus the counts read from return
    values of weighting, expansion and per-prime calls."""
    out = {metric: 0.0 for metric in LAYER_OF_SPAN.values()}
    out.update({
        "engine.heap_path_s": 0.0,
        "engine.fraction_path_s": 0.0,
        "engine.weighting_terms": 0,
        "engine.weighted_vertices": 0,
        "sources.expand_calls": 0,
        "sources.expanded_vertices": 0,
        "adelic.primes": 0,
    })
    for s, own in zip(spans, self_times(spans)):
        name, attrs = s[NAME], s[ATTRS] or {}
        out[LAYER_OF_SPAN[name]] += own / 1e9
        if name in WEIGHTING_SPANS:
            if attrs.get("heap"):
                out["engine.heap_path_s"] += own / 1e9
            if attrs.get("fraction"):
                out["engine.fraction_path_s"] += own / 1e9
            out["engine.weighting_terms"] += attrs.get("terms", 0)
            out["engine.weighted_vertices"] += attrs.get("vertices", 0)
        elif name == "sources.expand":
            out["sources.expand_calls"] += 1
            out["sources.expanded_vertices"] += attrs.get("vertices", 0)
        elif name == "adelic.factorials_prime":
            out["adelic.primes"] += 1
    return out
