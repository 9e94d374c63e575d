"""The benchmark's traced run wraps package attributes by name; a rename in
the package must fail here rather than break `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_wrapped_attribute_exists_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # imports only; installs no wrapper
    named = [(owner, attr) for owner, attr, *_ in layers.EXPLICIT + layers.COUNTED]
    assert len(named) == len(layers.EXPLICIT) + len(layers.COUNTED) > 0
    for owner, attr in named:
        assert attr in vars(owner), (getattr(owner, "__name__", owner), attr)
