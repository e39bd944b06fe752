"""Two-phase look-ahead path-following guidance for planar vehicles.

Far from the path, the vehicle flies a constant-command arc onto a circle
tangent to the path start ("initiation circle") and follows it around; close
to the path, a corrector-aided look-ahead law with online-tuned blending
gains tracks the curve.  A baseline constant look-ahead controller and a
benchmark harness are included for comparison studies.
"""

from .geom import Pose, Vec2, line_intersection, signed_angle, wrap_angle
from .guidance import (
    CorrectorGeometry,
    GuidanceGains,
    baseline_step,
    blended_command,
    corrector_geometry,
    eta,
    latax_l1,
)
from .metrics import RunRecord, RunSummary, improvements, summarize
from .midcourse import (
    ContactSolution,
    InfeasibleGeometryError,
    InitiationCircle,
    brute_force_extremum,
    candidate_circles,
    circle_follow_command,
    contact_solutions,
    midcourse_command,
    select_circle,
)
from .optimizer import OptimizerSettings, adaptive_interval, optimize_gains, rollout_cost
from .path import (
    LookaheadResult,
    PathPoint,
    ReferencePath,
    curvature_radius,
    make_circle_path,
    make_line_path,
    make_polyline_path,
    make_sinusoid_path,
)
from .supervisor import Mission, MissionConfig, classify_phase, run_mission
from .vehicle import VehicleState, step

__version__ = "0.1.0"
