"""Sign changes of functions orthogonal to Chebyshev systems, on
intervals, circles, convex curves, and polygonal lines.

The central construction: given an order-n Chebyshev system and a target
number of points, build a function orthogonal to the whole system that
changes sign exactly there, as an annihilator times a one-signed step
weight read off the null space of a moment matrix.  Everything else in
the package is either a verifier for the matching lower bounds on sign
changes and extrema, or a discrete or geometric specialization of them:
convex curves in R^d, vertex masses on polygons, curvature extrema of
ovals, and side-length comparisons of polygons with parallel sides.
"""

from .funcspace import (
    CIRCLE,
    DEFAULT_GRID_N,
    DEFAULT_TOL_REL,
    Domain,
    Func1D,
    INTERVAL,
    SignChangeReport,
    TWO_PI,
    circle,
    count_extrema,
    count_sign_changes,
    derived_rng,
    integrate,
    integrate_with_breaks,
    interval,
    sample,
    segment_rule,
)
from .exceptions import NotChebyshevError
from .chebsys import (
    COUNTEREXAMPLE,
    ChebSystem,
    ChebVerdict,
    NO_VIOLATION,
    dimension_estimate,
    polynomial_system,
    power_system,
    spread_points,
    trig_system,
    verify_chebyshev,
)
from .annihilator import (
    RootPrescription,
    default_annihilator,
    general_annihilator,
    poly_annihilator,
    trig_annihilator,
)
from .orthosynth import (
    StepWeight,
    SynthResult,
    ZeroBoundReport,
    m_of,
    moment_matrix,
    moments_on_edges,
    null_direction,
    synth_orthogonal,
    synth_weight,
    theorem1_check,
)
from .curves import (
    ConvexityReport,
    CurveRd,
    CurveSynthResult,
    Hyperplane,
    IntersectionCount,
    Prop1RelativeReport,
    Prop1Report,
    Theorem4Report,
    affine_image,
    arc_speed,
    center_of_mass,
    construct_orthogonal_on_curve,
    convexity_check,
    curve_points,
    exp_graph,
    hyperplane_intersections,
    hyperplane_through,
    moment_curve,
    monomial_multi_indices,
    polynomial_on_curve,
    power_curve,
    proposition1_check,
    proposition1_relative,
    restrict_polynomials,
    sine_graph,
    smoothed_polygon,
    theorem4_check,
    theorem5_verify,
    trig_curve,
)
from .discrete import (
    AleksandrovReport,
    MassVector,
    PolyConvexityReport,
    PolyLine,
    Prop2Report,
    aleksandrov_check,
    aleksandrov_pair,
    construct_masses,
    cyclic_sign_changes,
    edge_normals_and_lengths,
    format_polyline,
    hyperplane_crossings,
    parse_polyline,
    polygon_from_normals,
    polyline_convexity_check,
    proposition2_check,
    proposition2_pair,
    random_convex_polygon,
    theorem6_check,
    vandermonde_moment_matrix,
)
from .fourvertex import (
    BlaschkeReport,
    FourVertexReport,
    OvalSupport,
    blaschke_ratio_check,
    four_vertex_check,
    radius_of_curvature,
    random_oval,
    verify_R_orthogonality,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
