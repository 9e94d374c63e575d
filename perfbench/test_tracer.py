"""Tests of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import time
import types

import pytest

from tracer import Tracer


def _busy(seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _namespace():
    ns = types.SimpleNamespace()
    ns.inner = lambda: _busy(0.01)

    def outer():
        _busy(0.01)
        ns.inner()
        ns.inner()
        return "done"

    ns.outer = outer
    return ns


def test_nested_self_times_add_up_to_the_outer_span():
    tracer = Tracer()
    ns = _namespace()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    with tracer.span("root"):
        ns.outer()
    tracer.unwrap()
    selfs = tracer.self_times()
    spans = {name: [] for name in tracer.names}
    for nid, s, e in zip(tracer.name_id, tracer.start, tracer.end):
        spans[tracer.names[nid]].append(e - s)
    (outer,) = spans["outer"]
    assert len(spans["inner"]) == 2
    assert selfs["outer"] + selfs["inner"] == pytest.approx(outer, rel=1e-12, abs=1e-12)
    assert sum(selfs.values()) == pytest.approx(tracer.root_time(), rel=1e-12, abs=1e-12)
    assert selfs["inner"] >= 0.02 and selfs["outer"] >= 0.01


def test_wrapped_function_returns_exactly_what_the_original_does():
    tracer = Tracer()
    sentinel = object()
    ns = types.SimpleNamespace(f=lambda x, *, y=None: (sentinel, x, y))
    original = ns.f
    wrapped = tracer.wrap(ns, "f", "f", count=lambda counts, a, k, r: counts.update(calls=1))
    assert ns.f(3, y=4) == original(3, y=4)  # outside a span: passed straight through
    with tracer.span("root"):
        result = ns.f(3, y=4)
    assert result[0] is sentinel and result == original(3, y=4)
    assert tracer.counts["calls"] == 1
    assert wrapped.__name__ == original.__name__


def test_wrapped_exception_propagates_and_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    ns = types.SimpleNamespace(boom=boom)
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(KeyError):
        with tracer.span("root"):
            ns.boom()
    assert len(tracer.start) == 2 and all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert not tracer._stack


def test_unwrap_restores_the_original_attributes():
    class Thing:
        def method(self):
            return 1

        @classmethod
        def make(cls):
            return cls()

        @staticmethod
        def helper():
            return 2

    module = types.ModuleType("fake")
    module.function = lambda: 3
    before = {name: vars(Thing)[name] for name in ("method", "make", "helper")}
    before_fn = module.function

    tracer = Tracer()
    for name in before:
        tracer.wrap(Thing, name, name)
    tracer.wrap(module, "function", "function")
    assert all(vars(Thing)[name] is not raw for name, raw in before.items())
    assert isinstance(vars(Thing)["make"], classmethod)
    assert isinstance(vars(Thing)["helper"], staticmethod)
    with tracer.span("root"):
        assert (Thing().method(), type(Thing.make()), Thing.helper(), module.function()) == (
            1, Thing, 2, 3)
    tracer.unwrap()
    assert all(vars(Thing)[name] is raw for name, raw in before.items())
    assert module.function is before_fn


def test_layer_tracer_uninstall_restores_qdouble():
    import numpy.linalg
    import scipy.sparse.linalg

    from layers import LayerTracer, _qdouble_modules

    def snapshot():
        owners = list(_qdouble_modules()) + [numpy.linalg, scipy.sparse.linalg]
        for module in list(_qdouble_modules()):
            owners += [v for v in vars(module).values() if isinstance(v, type)]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    layer_tracer = LayerTracer(Tracer())
    layer_tracer.install()
    assert snapshot() != before
    layer_tracer.uninstall()
    assert snapshot() == before
