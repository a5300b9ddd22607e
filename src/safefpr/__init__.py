"""Minimum safe camera frame-processing rates from ego/actor kinematics.

The library answers, per camera and per instant: how slowly may this
camera's frames be processed while the vehicle can still brake out of every
potential collision? It ships the per-actor tolerable-latency search, FOV
geometry, a brute-force validation oracle, a closed-loop scenario engine
with nine built-in scenario families, and a budgeted rate scheduler.
"""

from .geometry import (
    DEFAULT_CAMERA_RIG,
    CameraConfig,
    in_fov,
)
from .model import (
    ConstraintCheck,
    FprReport,
    aggregate_actor_latency,
    braking_decel,
    braking_profile,
    camera_fpr,
    constraints_met,
    estimate_compute_ops,
    evaluate_scene,
    probe_time_update,
    reaction_time,
    tolerable_latency,
)
from .oracle import (
    OracleVerdict,
    collision_check,
    feasible_latency_scan,
    oracle_best_latency,
    scenario_mrf,
)
from .predictor import PredictorConfig, predict_trajectories
from .report import (
    analyze_trace,
    fraction_of_provisioned,
    required_fpr_cell,
    sweep_grid,
    write_sweep_csv,
)
from .scenarios import (
    ScenarioScript,
    generate_scenario,
    list_families,
    load_script,
    save_script,
)
from .scheduler import (
    ActorRank,
    AlarmEvent,
    Allocation,
    Budget,
    allocate,
    rank_actors,
    safety_check,
)
from .engine import RunResult, run_scenario
from .trace import (
    ScenarioTrace,
    TickRecord,
    TraceFormatError,
    ground_truth_trajectory,
    load_trace,
    save_trace,
)
from .types import (
    INFEASIBLE,
    MPH_TO_MPS,
    BrakingProfile,
    KinematicState,
    LatencyEstimate,
    ModelParams,
    Trajectory,
)

__version__ = "0.1.0"
