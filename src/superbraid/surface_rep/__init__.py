"""Homology of superelliptic covers of the disk and the braid action on it."""

from .basis import (
    IntersectionForm,
    SurfaceBasis,
    betti1,
    boundary_components,
    genus,
)
from .twists import (
    CONSTRUCTIONS,
    ORDERS,
    RelationError,
    SurfaceRep,
    build_rep,
    convention_audit,
    root_check,
    transvection,
    twist_matrix,
)

__all__ = [
    "CONSTRUCTIONS",
    "IntersectionForm",
    "ORDERS",
    "RelationError",
    "SurfaceBasis",
    "SurfaceRep",
    "betti1",
    "boundary_components",
    "build_rep",
    "convention_audit",
    "genus",
    "root_check",
    "transvection",
    "twist_matrix",
]
