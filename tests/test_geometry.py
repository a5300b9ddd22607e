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
    mask = fov_mask([KinematicState(0, 0, 0)], [ring], DEFAULT_CAMERA_RIG)
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
    egos = [KinematicState(*rng.uniform(-5.0, 5.0, 2), 0.0, heading=rng.uniform(-7.0, 7.0))
            for _ in range(30)]
    positions = [
        [(ego.x, ego.y) if k == 3 else tuple(rng.uniform(-40.0, 40.0, 2)) for k in range(8)]
        for ego in egos
    ]
    mask = fov_mask(egos, positions, cams)
    assert mask.shape == (len(cams), len(egos), 8)
    for c, cam in enumerate(cams):
        for i, ego in enumerate(egos):
            for j, (x, y) in enumerate(positions[i]):
                assert mask[c, i, j] == in_fov(ego, KinematicState(x, y, 0.0), cam), (c, i, j)
    assert mask[:, :, 3].all() and mask[-2].all()
