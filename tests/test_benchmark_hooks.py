"""The benchmark's traced run wraps package attributes by name; a rename in
the package must fail here rather than break `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports only; installs no wrapper
    return module


def test_every_wrapped_attribute_exists_on_its_owner(layers):
    named = [(owner, attr) for owner, attr, *_ in layers.EXPLICIT + layers.COUNTED]
    assert len(named) == len(layers.EXPLICIT) + len(layers.COUNTED) > 0
    for owner, attr in named:
        assert attr in vars(owner), (getattr(owner, "__name__", owner), attr)


def test_every_special_counter_names_a_traced_callable(layers):
    # a SPECIAL key is "<layer>.<qualified name>" of a public callable the
    # traced run wraps in that layer's module; a renamed callable would drop
    # its counter without a word
    traced = {f"{layer}.{qualname}"
              for layer, module in layers.MODULE_LAYERS
              for _, _, qualname in layers._public_callables(module)
              if qualname not in layers.FOLDED.get(layer, ())}
    assert layers.SPECIAL
    for name in layers.SPECIAL:
        assert name in traced, name
