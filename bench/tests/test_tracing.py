"""Span nesting, self time and the live tracer."""

import contextlib
import io

import pytest

import tracing
from tracing import Tracer, layer_metrics, nesting_error, self_times
from treefactorials import adelic, cli, engine, sources


def span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


NESTED = [
    span("cli.main", 0, 100, -1),
    span("flow.effective_resistance", 10, 40, 0),
    span("sources.expand", 15, 25, 1),
    span("flow.unit_current_flow", 50, 90, 0),
    span("sources.expand", 55, 60, 3),
    span("sources.expand", 60, 70, 3),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(NESTED) == [30, 20, 10, 25, 5, 10]
    assert sum(self_times(NESTED)) == 100


def test_nested_spans_pass_the_nesting_check():
    assert nesting_error(NESTED) is None


def test_child_leaving_its_parent_is_reported():
    bad = NESTED[:2] + [span("sources.expand", 35, 45, 1)]
    assert "leaves its parent" in nesting_error(bad)


def test_overlapping_siblings_are_reported():
    bad = [span("op", 0, 100, -1), span("a", 10, 50, 0), span("b", 40, 60, 0)]
    assert "overlaps" in nesting_error(bad)


def test_layer_metrics_add_self_times_and_counts():
    spans = [
        span("op", 0, 1000, -1),
        span("adelic.bhargava_factorials", 0, 900, 0),
        span("adelic.factorials_prime", 100, 400, 1),
        span("sources.AdelicSetSource", 100, 300, 2),
        span("engine.factorials_weighting", 300, 400, 2,
             {"heap": True, "fraction": False, "terms": 5, "vertices": 9}),
    ]
    m = layer_metrics(spans)
    assert m["adelic.prime_discovery_s"] == pytest.approx(600e-9)
    assert m["adelic.per_prime_s"] == 0.0
    assert m["sources.source_init_s"] == pytest.approx(200e-9)
    assert m["engine.weighting_s"] == m["engine.heap_path_s"] == pytest.approx(100e-9)
    assert m["engine.fraction_path_s"] == 0.0
    assert (m["engine.weighting_terms"], m["engine.weighted_vertices"], m["adelic.primes"]) == (5, 9, 1)
    assert sum(v for k, v in m.items() if k.endswith("_s") and "path" not in k) == pytest.approx(1000e-9)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_tracer_wraps_names_other_modules_imported(tracer):
    tracer.op(lambda: adelic.bhargava_factorials([0, 1, 2, 5], 3), "adelic")()
    assert tracer.spans[0][4] == {"op": "adelic"}
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["op", "adelic.bhargava_factorials"]
    assert {"adelic.factorials_prime", "sources.AdelicSetSource", "engine.factorials_weighting"} <= set(names)
    assert nesting_error(tracer.spans) is None
    prime = names.index("adelic.factorials_prime")
    assert tracer.spans[prime + 1][3] == prime


def test_tracer_records_only_inside_ops(tracer):
    engine.factorials_weighting(sources.RegularSource(2), 8)
    assert tracer.spans == []


def test_uninstall_restores_every_name():
    originals = {(m.__name__, a): getattr(m, a) for m, a in tracing.TRACED_FUNCTIONS}
    init = sources.AdelicSetSource.__init__
    t = Tracer()
    t.install()
    assert adelic.factorials_weighting is not originals[("treefactorials.engine", "factorials_weighting")]
    t.uninstall()
    assert {(m.__name__, a): getattr(m, a) for m, a in tracing.TRACED_FUNCTIONS} == originals
    assert sources.AdelicSetSource.__init__ is init
    assert adelic.factorials_weighting is originals[("treefactorials.engine", "factorials_weighting")]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [
    ["flow", "--gen", "regular d=2", "--depth", "5"],
    ["adelic", "--set", "3,10,12,40", "--n", "3"],
    ["factorials", "--gen", "lambda base=(regular d=2) lambda=3/2", "--n", "20", "--csv"],
])
def test_stdout_is_byte_identical_when_traced(argv):
    plain = _cli(argv)
    t = Tracer()
    t.install()
    try:
        traced = t.op(lambda: _cli(argv), "cli")()
    finally:
        t.uninstall()
    assert traced == plain
    assert t.spans[1][0] == "cli.main"
