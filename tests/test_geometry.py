import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefpr import (
    DEFAULT_CAMERA_RIG,
    CameraConfig,
    KinematicState,
    in_fov,
    separation,
)
from safefpr.geometry import DEG, _bearing, fov_members

FRONT_120 = CameraConfig("front", 0.0, 120 * DEG)


def test_separation_straight_ahead():
    assert separation(KinematicState(0, 0, 0), KinematicState(30, 0, 0)) == 30.0


def test_separation_3_4_5():
    assert separation(KinematicState(0, 0, 0), KinematicState(3, 4, 0)) == pytest.approx(5.0)


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


def test_fov_members_matches_in_fov():
    ego = KinematicState(1.0, -2.0, 5.0, heading=0.7)
    actors = {
        f"a{i}": KinematicState(1.0 + 9.0 * math.cos(0.4 * i), -2.0 + 9.0 * math.sin(0.4 * i), 0.0)
        for i in range(16)
    }
    actors["twin"] = KinematicState(1.0, -2.0, 3.0)
    cams = (*DEFAULT_CAMERA_RIG, CameraConfig("all_round", 0.3, 2.0 * math.pi))
    got = fov_members(ego, {aid: (st.x, st.y) for aid, st in actors.items()}, cams)
    assert list(got) == [cam.camera_id for cam in cams]
    for cam in cams:
        assert got[cam.camera_id] == {aid for aid, st in actors.items() if in_fov(ego, st, cam)}
    assert all("twin" in members for members in got.values())
    assert got["all_round"] == set(actors)


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
    ring = {}
    for i in range(720):
        theta = -math.pi + (i + 0.5) * 2.0 * math.pi / 720
        ring[f"p{i}"] = (math.cos(theta), math.sin(theta))
    members = fov_members(KinematicState(0, 0, 0), ring, DEFAULT_CAMERA_RIG)
    assert set().union(*members.values()) == set(ring)


def test_rear_camera_wraparound():
    # the rear wedge straddles the +pi/-pi seam
    rear = DEFAULT_CAMERA_RIG[-1]
    ego = KinematicState(0, 0, 0)
    assert in_fov(ego, KinematicState(-10, 0, 0), rear)
    assert in_fov(ego, KinematicState(-10, 5, 0), rear)
    assert in_fov(ego, KinematicState(-10, -5, 0), rear)
    assert not in_fov(ego, KinematicState(10, 0, 0), rear)


@given(
    ax=st.floats(-100, 100), ay=st.floats(-100, 100),
    bx=st.floats(-100, 100), by=st.floats(-100, 100),
    cx=st.floats(-100, 100), cy=st.floats(-100, 100),
)
@settings(max_examples=200)
def test_separation_symmetric_and_triangle(ax, ay, bx, by, cx, cy):
    a, b, c = (KinematicState(ax, ay, 0), KinematicState(bx, by, 0), KinematicState(cx, cy, 0))
    assert separation(a, b) == separation(b, a)
    assert separation(a, c) <= separation(a, b) + separation(b, c) + 1e-9


def test_bearing_to_quadrants():
    ego = KinematicState(0, 0, 0)
    assert _bearing(ego, 1.0, 1.0) == pytest.approx(math.pi / 4)
    assert _bearing(ego, -1.0, 0.0) == pytest.approx(math.pi)


def test_camera_validation():
    with pytest.raises(ValueError):
        CameraConfig("bad", 0.0, 0.0)
    with pytest.raises(ValueError, match="azimuth"):
        CameraConfig("bad", math.nan, 1.0)
