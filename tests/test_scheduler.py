import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefpr import (
    Budget,
    LatencyEstimate,
    ModelParams,
    allocate,
    rank_actors,
    safety_check,
)
from safefpr.scheduler import SEVERITY_DEFICIT, SEVERITY_INFEASIBLE
from safefpr.types import INFEASIBLE

PARAMS = ModelParams()


class TestSafetyCheck:
    def test_all_above(self):
        assert safety_check({"f": 7, "l": 2, "r": 2}, {"f": 10, "l": 5, "r": 5}) is None

    def test_one_below(self):
        alarm = safety_check({"f": 7, "l": 2, "r": 2}, {"f": 5, "l": 5, "r": 5})
        assert alarm is not None
        assert alarm.cameras_below == (("f", 7, 5),)
        assert alarm.severity == SEVERITY_DEFICIT

    def test_equal_rates_pass(self):
        req = {"f": 7.0, "l": 2.0}
        assert safety_check(req, dict(req)) is None

    def test_infeasible_flag_escalates(self):
        alarm = safety_check({"f": 30.0}, {"f": 10.0}, infeasible_cameras={"f"})
        assert alarm.severity == SEVERITY_INFEASIBLE

    def test_key_mismatch(self):
        with pytest.raises(ValueError):
            safety_check({"f": 1.0}, {"g": 1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rates_rejected(self, bad):
        # a NaN requirement compares false against every rate, so no alarm would fire
        with pytest.raises(ValueError, match=r"required\['l'\] must be finite"):
            safety_check({"f": 1.0, "l": bad}, {"f": 1.0, "l": 1.0})
        with pytest.raises(ValueError, match=r"operating\['l'\] must be finite"):
            safety_check({"f": 1.0, "l": 1.0}, {"f": 1.0, "l": bad})


class TestAllocate:
    def test_abundant_proportional_with_caps(self):
        # verified with an independent reference: raise all cameras
        # proportionally to requirements until the budget is spent or all
        # hit the cap; here everything caps out within the budget
        alloc = allocate({"f": 10.0, "l": 5.0, "r": 5.0}, Budget(90.0), PARAMS)
        assert alloc.alarm is None
        assert alloc.per_camera_fps == pytest.approx({"f": 30.0, "l": 30.0, "r": 30.0})

    def test_abundant_mid_fill(self):
        # slack 24 over requirements totalling 12, split 2:1, no cap reached
        alloc = allocate({"f": 8.0, "l": 4.0}, Budget(36.0), PARAMS)
        assert alloc.alarm is None
        assert sum(alloc.per_camera_fps.values()) == pytest.approx(36.0)
        assert alloc.per_camera_fps["f"] == pytest.approx(24.0)
        assert alloc.per_camera_fps["l"] == pytest.approx(12.0)

    def test_tiny_requirements_all_cap(self):
        alloc = allocate({"f": 1.0, "l": 1.0, "r": 1.0}, Budget(90.0), PARAMS)
        assert all(v == pytest.approx(30.0) for v in alloc.per_camera_fps.values())

    def test_deficit_floors_then_priority(self):
        alloc = allocate({"f": 20.0, "l": 20.0, "r": 20.0}, Budget(30.0), PARAMS)
        assert alloc.alarm is not None
        assert alloc.alarm.severity == SEVERITY_DEFICIT
        fps = alloc.per_camera_fps
        assert sum(fps.values()) == pytest.approx(30.0)
        assert min(fps.values()) >= 1.0  # floor honored
        # ties broken by id: f is filled first, then l, r floor-bound
        assert fps["f"] == pytest.approx(20.0)
        assert fps["l"] == pytest.approx(9.0)
        assert fps["r"] == pytest.approx(1.0)

    def test_deficit_alarm_lists_starved_cameras(self):
        alloc = allocate({"f": 25.0, "l": 10.0}, Budget(20.0), PARAMS)
        starved = {c for c, _, _ in alloc.alarm.cameras_below}
        assert starved
        for cam, req, got in alloc.alarm.cameras_below:
            assert got < req

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            allocate({}, Budget(10.0), PARAMS)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_requirement_rejected(self, bad):
        # a NaN requirement would be allocated as 0 fps with no alarm
        with pytest.raises(ValueError, match=r"required\['a'\] must be finite"):
            allocate({"a": bad, "b": 5.0}, Budget(20.0), PARAMS)

    @pytest.mark.parametrize("total", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_budget_rejects_non_finite_and_non_positive(self, total):
        # a NaN budget would allocate NaN rates, so no camera processes a frame
        with pytest.raises(ValueError, match="total_fps"):
            Budget(total)

    @given(
        reqs=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=8),
        budget=st.floats(0.5, 200.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_conservation_and_bounds(self, reqs, budget):
        required = {f"c{i}": r for i, r in enumerate(reqs)}
        alloc = allocate(required, Budget(budget), PARAMS)
        fps = alloc.per_camera_fps
        floor, cap = PARAMS.fpr_bounds()
        assert sum(fps.values()) <= budget + 1e-6
        for v in fps.values():
            assert v <= cap + 1e-9
        if budget >= len(reqs) * floor:
            for v in fps.values():
                assert v >= floor - 1e-9

    @given(
        reqs=st.lists(st.floats(1.0, 30.0), min_size=1, max_size=6),
        slack=st.floats(0.0, 100.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_no_alarm_and_requirement_met_when_budget_suffices(self, reqs, slack):
        required = {f"c{i}": r for i, r in enumerate(reqs)}
        budget = sum(max(1.0, r) for r in reqs) + slack
        alloc = allocate(required, Budget(budget), PARAMS)
        assert alloc.alarm is None
        for cam, r in required.items():
            assert alloc.per_camera_fps[cam] >= r - 1e-9
        assert safety_check(required, alloc.per_camera_fps) is None

    @given(
        reqs=st.lists(st.floats(1.0, 10.0), min_size=2, max_size=5),
        factor=st.floats(0.5, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_consistency_below_caps(self, reqs, factor):
        # scaling requirements and budget together scales the allocation,
        # as long as nothing hits the rate cap
        required = {f"c{i}": r for i, r in enumerate(reqs)}
        scaled = {c: r * factor for c, r in required.items()}
        floor, cap = PARAMS.fpr_bounds()
        if min(scaled.values()) < floor + 1e-6:
            return  # an absolute floor breaks linearity by design
        budget = sum(reqs) * 1.2
        a = allocate(required, Budget(budget), PARAMS)
        b = allocate(scaled, Budget(budget * factor), PARAMS)
        if all(v * factor < cap - 1e-6 for v in a.per_camera_fps.values()) and all(
            v < cap - 1e-6 for v in b.per_camera_fps.values()
        ):
            for cam in required:
                assert b.per_camera_fps[cam] == pytest.approx(
                    a.per_camera_fps[cam] * factor, rel=1e-6
                )


def _reference_waterfill(required, budget, floor, cap, step=1e-3):
    """Epsilon-stepping water-filler used only as a test oracle.

    Pours the slack in small rounds, each split proportionally to the
    (floored) requirements of the cameras still below the cap.
    """
    want = {c: max(floor, min(cap, r)) for c, r in required.items()}
    if sum(want.values()) > budget:
        return None  # deficit regime; handled by a different rule
    alloc = dict(want)
    left = budget - sum(alloc.values())
    while left > 1e-9:
        active = [c for c in alloc if alloc[c] < cap - 1e-12]
        if not active:
            break
        total_w = sum(want[c] for c in active)
        spent = 0.0
        for c in active:
            inc = min(step * want[c] / total_w, cap - alloc[c], left - spent)
            alloc[c] += inc
            spent += inc
        if spent <= 1e-15:
            break
        left -= spent
    return alloc


class TestReferenceAgreement:
    @given(
        reqs=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6),
        slack=st.floats(0.0, 120.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_allocator_matches_epsilon_stepping_reference(self, reqs, slack):
        required = {f"c{i}": r for i, r in enumerate(reqs)}
        floor, cap = PARAMS.fpr_bounds()
        budget = sum(max(floor, r) for r in reqs) + slack
        ref = _reference_waterfill(required, budget, floor, cap)
        if ref is None:
            return
        alloc = allocate(required, Budget(budget), PARAMS)
        for cam in required:
            assert alloc.per_camera_fps[cam] == pytest.approx(ref[cam], abs=5e-3)


class TestRankActors:
    def test_inverse_latency(self):
        ranks = rank_actors(
            {"a": LatencyEstimate(0.2), "b": LatencyEstimate(1.0)}, PARAMS
        )
        assert [(r.actor_id, r.importance) for r in ranks] == [("a", 5.0), ("b", 1.0)]

    def test_ties_break_by_id(self):
        ranks = rank_actors(
            {"z": LatencyEstimate(0.5), "a": LatencyEstimate(0.5), "m": LatencyEstimate(0.5)},
            PARAMS,
        )
        assert [r.actor_id for r in ranks] == ["a", "m", "z"]

    def test_infeasible_first(self):
        ranks = rank_actors({"a": INFEASIBLE, "b": LatencyEstimate(0.05)}, PARAMS)
        assert ranks[0].actor_id == "a"
        assert ranks[0].unbounded
        assert ranks[0].importance == pytest.approx(30.0)
        assert ranks[1].importance == pytest.approx(20.0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_bad_latency_rejected(self, bad):
        # 0.0 would divide by zero, and a NaN importance sorts arbitrarily
        with pytest.raises(ValueError, match=r"latencies\['b'\] must be"):
            rank_actors({"a": LatencyEstimate(0.2), "b": LatencyEstimate(bad)}, PARAMS)
