"""The package's public surface and the routes its programs take.

Every exported name resolves, and the CLI tasks that count, read sparse
states or compose terms build no vector of the full space: with the dense
engine patched to raise, they still exit 0.  Eventual constancy reads the
term algebra alone: with every sparse state refused, it still runs.
"""

import importlib

import pytest

import qdouble
from qdouble.cli import EXIT_OK, main
from qdouble.lattice import Region
from qdouble.operators import HilbertSpace, Operator
from qdouble.sparse import SparseState
from qdouble.states import eventual_constancy_check

MODULES = ("groups", "lattice", "operators", "sparse", "spectral", "states", "verify", "cli")


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = qdouble if module is None else importlib.import_module(f"qdouble.{module}")
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == [], (mod.__name__, missing)
    assert len(set(mod.__all__)) == len(mod.__all__)


# every entry point of the dense engine: a call to any of them builds or
# reads a vector of the full space
DENSE_ENGINE = [(HilbertSpace, name) for name in
                ("apply_terms", "shift_perm", "form_values", "digit_array", "random_vectors")]
DENSE_ENGINE += [(Operator, "to_dense")]

RUNS = [(task, group, "free:3x3") for group in ("Z2", "Z3")
        for task in ("verify", "sectors", "excite", "braid")] + [("verify", "Z2", "torus:3x3")]


@pytest.fixture
def no_dense_engine(monkeypatch):
    for owner, name in DENSE_ENGINE:
        def refuse(*args, _name=f"{owner.__name__}.{name}", **kwargs):
            raise AssertionError(f"{_name} was called")
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("task, group, region", RUNS, ids=[" ".join(r) for r in RUNS])
def test_cli_tasks_build_no_dense_vector(no_dense_engine, capsys, task, group, region):
    code = main([task, "--group", group, "--region", region, "--json"])
    out, err = capsys.readouterr()
    assert code == EXIT_OK, err
    assert out.startswith("{")


@pytest.mark.parametrize("group, small, large", [("Z3", 4, 5), ("Z2", 6, 7)])
def test_eventual_constancy_builds_no_sparse_state(monkeypatch, group, small, large):
    def refuse(*args, **kwargs):
        raise AssertionError("SparseState was built")
    monkeypatch.setattr(SparseState, "__init__", refuse)
    g = qdouble.parse_group_spec(group)
    deviation = eventual_constancy_check(g, Region.free(small, small), Region.free(large, large),
                                         (1, 1), 1, g.size - 1)
    assert deviation == 0.0
