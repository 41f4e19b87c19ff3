"""Geometry engine for orthosecting tetrahedra.

Constructs, solves for, and verifies pairs of tetrahedra whose
non-corresponding edges intersect orthogonally, including the common
sphere of intersection points, pedal-chain completion and reconstruction,
conjugate partners, and the isogonally self-conjugate curve traced by
projected solution vertices.
"""

__version__ = "0.1.0"

from .errors import (
    CurvePointError,
    DegenerateError,
    GeometryError,
    NotOrthologicError,
    NotOrthosectingError,
    ReconstructionError,
    SceneError,
    SimsonDegenerateError,
)
from .geom_core import (
    Circle3D,
    Line,
    LineClosest,
    Plane,
    SphereOrPlane,
    Tolerance,
    circle_through,
    closest_points,
    sphere_through,
)
from .orthology import (
    EDGE_PAIRINGS,
    OrthologyReport,
    Tetrahedron,
    edge_orthogonality_residuals,
    orthology_centers,
    pair_tolerance,
)
from .pedal import (
    PedalChain,
    SphericalChain,
    chain_from_pair,
    chain_sphere_residual,
    complete_chain,
    isogonal_conjugate,
    reconstruct_tetrahedron,
    spherical_chain,
)
from .solver import (
    SolutionBranch,
    SolverConfig,
    SolveResult,
    solve,
    solve_detailed,
    solve_from_curve_point,
    trace_family,
)
from .analysis import (
    CurveTrace,
    SequenceRun,
    SphereReport,
    conjugate,
    iterate_sequence,
    trace_curve,
    verify_sphere,
)
from .scene import Report, Scene, load_scene, save_scene
