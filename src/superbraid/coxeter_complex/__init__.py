"""Chain complexes of finite-type Artin groups with matrix coefficients."""

from .complexes import (
    DEFAULT_CONVENTION,
    BoundaryConvention,
    BoundaryError,
    ChainComplex,
    build_complex,
)
from .groups import CosetRep, CoxeterSpec, min_coset_reps
from .systems import (
    LocalSystem,
    RelationError,
    companion_t_matrix,
    t_local_system,
    trivial_system,
)

__all__ = [
    "BoundaryConvention",
    "BoundaryError",
    "ChainComplex",
    "CosetRep",
    "CoxeterSpec",
    "DEFAULT_CONVENTION",
    "LocalSystem",
    "RelationError",
    "build_complex",
    "companion_t_matrix",
    "min_coset_reps",
    "t_local_system",
    "trivial_system",
]
