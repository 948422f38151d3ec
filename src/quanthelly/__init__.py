"""Inscribed-ellipsoid machinery and colorful quantitative Helly pipelines."""

__version__ = "0.1.0"

from .errors import QuantHellyError
from .geometry import (AffineMap, Ellipsoid, HPolytope,
                       ellipsoid_height, ellipsoid_in_polytope,
                       ellipsoid_volume, intersect, is_bounded, min_semiaxis,
                       support_value, transform_ellipsoid, transform_polytope,
                       unit_ball_volume)
from .solvers import SolverSettings, SolveOutcome, lowest_ellipsoid, mvie
from .john import (CriticalCertificate, JohnDecomposition, contact_points,
                   critical_subfamily, inscribed_ball_in_ellipsoid,
                   john_decomposition, normalize_to_john_position)
from .helly import (ColorClasses, ColorfulSelection, PipelineReport,
                    colell_pipeline, colorful_helly_witness,
                    colorful_selections, contains_translate,
                    minkowski_difference, saxuso_scenario, theorem1_pipeline,
                    verify_colorful_hypothesis)
from .instances import (GeneratorSpec, InstanceFile, emit_instance,
                        emit_report, generate, parse_instance)

__all__ = [
    "QuantHellyError", "AffineMap", "Ellipsoid", "HPolytope",
    "ellipsoid_height", "ellipsoid_in_polytope", "ellipsoid_volume",
    "intersect", "is_bounded", "min_semiaxis",
    "support_value", "transform_ellipsoid", "transform_polytope",
    "unit_ball_volume", "SolverSettings", "SolveOutcome", "lowest_ellipsoid",
    "mvie", "CriticalCertificate",
    "JohnDecomposition", "contact_points", "critical_subfamily",
    "inscribed_ball_in_ellipsoid", "john_decomposition",
    "normalize_to_john_position", "ColorClasses", "ColorfulSelection",
    "PipelineReport", "colell_pipeline", "colorful_helly_witness",
    "colorful_selections", "contains_translate", "minkowski_difference",
    "saxuso_scenario", "theorem1_pipeline", "verify_colorful_hypothesis",
    "GeneratorSpec", "InstanceFile", "emit_instance", "emit_report",
    "generate", "parse_instance",
]
