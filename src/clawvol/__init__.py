"""Exact lattice volumes and degrees for claw-tree group-based models.

The package builds the 0/1 model polytopes for the groups Z2, Z2xZ2, and
Z3 on an n-claw tree, and computes their normalized lattice volume three
ways: closed-form formulas, arithmetic assembly from cut-piece volumes, and
brute-force exact geometry (vertex enumeration plus placing
triangulation).  The first two share the Z2xZ2 alternating sum.
"""

from .clawpoly import (
    MINUS,
    PLUS,
    OddSubsetCut,
    ambient,
    ambient_dim,
    lattice,
    model_lattice_index,
    vertices,
)
from .cuts import (
    CutSpec,
    LEMMA_IDS,
    LemmaClaim,
    assemble,
    check_lemma,
    cut_piece,
    lemma_claims,
    piece_volume,
    run_lemma,
)
from .formulas import FormulaError, cut_formula, degree, degree_table
from .geometry import (
    GeometryError,
    HPolytope,
    HalfSpace,
    LatticeBasis,
    RankDeficientError,
    UnboundedError,
    VPolytope,
    affine_dim,
    lattice_index,
    vertex_enumeration,
)
from .groups import (
    GROUPS,
    Group,
    Z2,
    Z2xZ2,
    Z3,
    group_by_name,
    zero_sum_tuples,
)
from .verify import METHODS, degree_by_method, verify_degree
from .volume import (
    Triangulation,
    lattice_volume,
    triangulate,
)

__version__ = "0.1.0"

__all__ = [
    "MINUS", "PLUS", "OddSubsetCut", "ambient", "ambient_dim", "lattice",
    "model_lattice_index", "vertices",
    "CutSpec", "LEMMA_IDS", "LemmaClaim", "assemble", "check_lemma",
    "cut_piece", "lemma_claims", "piece_volume", "run_lemma",
    "FormulaError", "cut_formula", "degree", "degree_table",
    "GeometryError", "HPolytope", "HalfSpace",
    "LatticeBasis", "RankDeficientError", "UnboundedError", "VPolytope",
    "affine_dim", "lattice_index", "vertex_enumeration",
    "GROUPS", "Group", "Z2", "Z2xZ2", "Z3", "group_by_name",
    "zero_sum_tuples",
    "METHODS", "degree_by_method", "verify_degree",
    "Triangulation", "lattice_volume", "triangulate",
    "__version__",
]
