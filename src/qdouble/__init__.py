"""Kitaev quantum double models for finite abelian groups on finite 2D lattices.

The package builds the full Hilbert space of group-valued edge configurations
on small planar or toric lattices, realizes the star, plaquette, and ribbon
operators exactly, and ships a verification battery that certifies the
operator algebra, the spectral structure, and the ground-state functionals
numerically.
"""

from .groups import Character, Group, GroupElement, Phase, make_group, parse_group_spec
from .lattice import (
    Region,
    Ribbon,
    RibbonError,
    Site,
    Triangle,
    crossing_pair,
    parse_region_spec,
    ribbon_between,
    ribbon_to_boundary,
)
from .operators import DimensionCapError, HilbertSpace, QuantumDouble
from .sparse import SparseState
from .spectral import (
    EigenBasis,
    ground_dimension_count,
    ground_space,
    sector_counts,
    spectrum_counts,
    spectrum_lowest,
)
from .states import (
    StateFunctional,
    eventual_constancy_check,
    frustration_free_state,
    detector_energy_residual,
    sector_weights,
    single_excitation_state,
    spanning_matrix,
)
from .verify import CheckError, CheckResult, VerificationReport, check_ids, run_check, run_suite

__all__ = [
    "Group",
    "GroupElement",
    "Character",
    "Phase",
    "make_group",
    "parse_group_spec",
    "Region",
    "Ribbon",
    "RibbonError",
    "Site",
    "Triangle",
    "crossing_pair",
    "parse_region_spec",
    "ribbon_between",
    "ribbon_to_boundary",
    "HilbertSpace",
    "QuantumDouble",
    "DimensionCapError",
    "SparseState",
    "EigenBasis",
    "ground_dimension_count",
    "ground_space",
    "sector_counts",
    "spectrum_counts",
    "spectrum_lowest",
    "StateFunctional",
    "eventual_constancy_check",
    "frustration_free_state",
    "detector_energy_residual",
    "sector_weights",
    "single_excitation_state",
    "spanning_matrix",
    "CheckError",
    "CheckResult",
    "VerificationReport",
    "check_ids",
    "run_check",
    "run_suite",
]

__version__ = "0.1.0"
