import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefpr import (
    DEFAULT_CAMERA_RIG,
    CameraConfig,
    KinematicState,
    in_fov,
)
from safefpr.geometry import DEG, _bearing, fov_mask
from safefpr.types import normalize_angle, normalize_angles

from conftest import state_rows

FRONT_120 = CameraConfig("front", 0.0, 120 * DEG)


def test_in_fov_dead_ahead():
    assert in_fov(KinematicState(0, 0, 0), KinematicState(10, 0, 0), FRONT_120)


def test_in_fov_dead_behind():
    assert not in_fov(KinematicState(0, 0, 0), KinematicState(-10, 0, 0), FRONT_120)


def test_fov_boundary_closed():
    ego = KinematicState(0, 0, 0)
    inside = KinematicState(math.cos(59.9999 * DEG), math.sin(59.9999 * DEG), 0)
    outside = KinematicState(math.cos(60.0001 * DEG), math.sin(60.0001 * DEG), 0)
    assert in_fov(ego, inside, FRONT_120)
    assert not in_fov(ego, outside, FRONT_120)


def test_coincident_actor_in_every_camera():
    ego = KinematicState(1.0, 2.0, 5.0, heading=0.7)
    twin = KinematicState(1.0, 2.0, 3.0)
    for cam in DEFAULT_CAMERA_RIG:
        assert in_fov(ego, twin, cam)


def test_heading_relative_membership():
    # ego facing +y: an actor at +y is dead ahead
    ego = KinematicState(0, 0, 0, heading=math.pi / 2)
    assert in_fov(ego, KinematicState(0, 10, 0), FRONT_120)
    assert not in_fov(ego, KinematicState(0, -10, 0), FRONT_120)


@given(
    cam_az=st.floats(-math.pi, math.pi),
    cam_fov=st.floats(0.1, 2 * math.pi),
    bearing=st.floats(-math.pi, math.pi),
    r=st.floats(0.5, 200.0),
    shift_x=st.floats(-100, 100),
    shift_y=st.floats(-100, 100),
    rot=st.floats(-math.pi, math.pi),
)
@settings(max_examples=300)
def test_membership_invariant_under_rigid_motion(cam_az, cam_fov, bearing, r, shift_x, shift_y, rot):
    cam = CameraConfig("c", cam_az, cam_fov)
    ego = KinematicState(0, 0, 0, heading=0.3)
    actor = KinematicState(r * math.cos(bearing), r * math.sin(bearing), 0)
    base = in_fov(ego, actor, cam)

    def moved(s: KinematicState) -> KinematicState:
        x = s.x * math.cos(rot) - s.y * math.sin(rot) + shift_x
        y = s.x * math.sin(rot) + s.y * math.cos(rot) + shift_y
        return KinematicState(x, y, s.v, s.a, s.heading + rot)

    # skip float-razor-edge bearings where rotation arithmetic flips the result
    rel = abs(
        (bearing - 0.3 - cam_az + math.pi) % (2 * math.pi) - math.pi
    )
    if abs(rel - cam_fov / 2) < 1e-9:
        return
    assert in_fov(moved(ego), moved(actor), cam) == base


@given(bearing=st.floats(-math.pi, math.pi), r=st.floats(0.1, 500.0))
@settings(max_examples=200)
def test_full_circle_camera_sees_everything(bearing, r):
    cam = CameraConfig("omni", 0.0, 2 * math.pi)
    ego = KinematicState(0, 0, 0, heading=1.1)
    actor = KinematicState(r * math.cos(bearing), r * math.sin(bearing), 0)
    assert in_fov(ego, actor, cam)


def test_default_rig_has_no_blind_wedge():
    # a ring of points around the ego, one every half degree
    ring = []
    for i in range(720):
        theta = -math.pi + (i + 0.5) * 2.0 * math.pi / 720
        ring.append((math.cos(theta), math.sin(theta)))
    mask = fov_mask(state_rows([KinematicState(0, 0, 0)]), np.array([ring]), DEFAULT_CAMERA_RIG)
    assert mask.shape == (len(DEFAULT_CAMERA_RIG), 1, 720)
    assert mask.any(axis=0).all()


def test_rear_camera_wraparound():
    # the rear wedge straddles the +pi/-pi seam
    rear = DEFAULT_CAMERA_RIG[-1]
    ego = KinematicState(0, 0, 0)
    assert in_fov(ego, KinematicState(-10, 0, 0), rear)
    assert in_fov(ego, KinematicState(-10, 5, 0), rear)
    assert in_fov(ego, KinematicState(-10, -5, 0), rear)
    assert not in_fov(ego, KinematicState(10, 0, 0), rear)


def test_bearing_to_quadrants():
    ego = KinematicState(0, 0, 0)
    assert _bearing(ego, 1.0, 1.0) == pytest.approx(math.pi / 4)
    assert _bearing(ego, -1.0, 0.0) == pytest.approx(math.pi)


def test_camera_validation():
    with pytest.raises(ValueError):
        CameraConfig("bad", 0.0, 0.0)
    with pytest.raises(ValueError, match="azimuth"):
        CameraConfig("bad", math.nan, 1.0)


def test_camera_id_must_be_a_string():
    with pytest.raises(ValueError, match="camera_id must be a string, got 5"):
        CameraConfig(5, 0.0, 1.0)


def test_normalize_angles_equals_normalize_angle():
    rng = np.random.default_rng(7)
    edges = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi,
             math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0), 1e6, -1e6]
    theta = np.concatenate([rng.uniform(-20.0, 20.0, 5000), edges])
    got = normalize_angles(theta).tolist()
    want = [normalize_angle(v) for v in theta.tolist()]
    assert [(g, math.copysign(1.0, g)) for g in got] == [(w, math.copysign(1.0, w)) for w in want]


def test_fov_mask_matches_in_fov():
    # random egos and actors, some coinciding with their ego, against every
    # camera of the rig plus a full-circle one and a slit on the +pi seam
    rng = np.random.default_rng(11)
    cams = (*DEFAULT_CAMERA_RIG, CameraConfig("omni", 0.4, 2 * math.pi),
            CameraConfig("slit", math.pi, 0.02))

    def matches(egos, positions, actors):
        mask = fov_mask(
            state_rows(egos), np.array(positions, dtype=float).reshape(len(egos), actors, 2), cams
        )
        assert mask.shape == (len(cams), len(egos), actors)
        for c, cam in enumerate(cams):
            for i, ego in enumerate(egos):
                for j, (x, y) in enumerate(positions[i]):
                    assert mask[c, i, j] == in_fov(ego, KinematicState(x, y, 0.0), cam), (c, i, j)
        return mask

    egos = [KinematicState(*rng.uniform(-5.0, 5.0, 2), 0.0, heading=rng.uniform(-7.0, 7.0))
            for _ in range(30)]
    positions = [
        [(ego.x, ego.y) if k == 3 else tuple(rng.uniform(-40.0, 40.0, 2)) for k in range(8)]
        for ego in egos
    ]
    mask = matches(egos, positions, 8)
    assert mask[:, :, 3].all() and mask[-2].all()
    # actors level with the ego on one axis only
    level = [
        [(ego.x, ego.y + d) for d in (3.0, -25.0, 1e-9, -1e-9)]
        + [(ego.x + d, ego.y) for d in (3.0, -25.0, 1e-9, -1e-9)]
        for ego in egos
    ]
    assert not matches(egos, level, 8).all(axis=0).any()
    # signed zeros coincide with each other; actors on the +-pi seam of
    # each heading, given in and outside (-pi, pi]
    zeros = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    headings = (0.0, math.pi, -math.pi, 3 * math.pi, 2 * math.pi, -7.0, 7.0)
    seam_egos = [KinematicState(x, y, 0.0, heading=h) for x, y in zeros for h in headings]
    seam = zeros + [(-10.0, 0.0), (-10.0, -0.0), (10.0, 0.0), (10.0, -0.0)]
    mask = matches(seam_egos, [seam] * len(seam_egos), 8)
    assert mask[:, :, :4].all()
    # behind a heading-0 ego at bearing pi and -pi, ahead of a heading-pi one
    assert mask[-1, 0, 4:6].all() and mask[-1, 1, 6:].all()
    # actors on a wedge edge of front_narrow (the first two) and front_wide,
    # inside by the bearing math.atan2 gives, outside by np.arctan2's
    edge = [(-17.295480884469512, -14.869288351815825, -2.9550808178633767),
            (-10.98425143537213, 20.8631027666786, 2.5790108107497742),
            (8.145875820685198, -16.990751824320345, -2.170937285440203)]
    edge_egos = [KinematicState(0.0, 0.0, 0.0, heading=h) for _, _, h in edge]
    mask = matches(edge_egos, [[(x, y)] for x, y, _ in edge], 1)
    assert mask[0, :2].all() and mask[1, 2].all()
    # ticks without actors
    assert not matches(egos, [[] for _ in egos], 0).size
