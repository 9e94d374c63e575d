"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from qdouble.groups import parse_group_spec
from qdouble.lattice import parse_region_spec
from qdouble.operators import QuantumDouble


@pytest.fixture(scope="session")
def z2_boundary_eigh():
    """Full spectrum of the fully charged boundary Hamiltonian, Z2 free 3x3:
    the dense oracle for its kernel (an eigh with vectors, about 9 s)."""
    model = QuantumDouble(parse_group_spec("Z2"), parse_region_spec("free:3x3"))
    h = model.hamiltonian(boundary="eps_mu").to_dense(max_dim=4096)
    vals, vecs = np.linalg.eigh(h)
    return model, vals, vecs
