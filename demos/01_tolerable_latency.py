"""How long may one camera frame take before a lead vehicle becomes unsafe?

Walks the core per-actor question end to end: braking profile, the two
safety constraints, and the descending latency search, for an ego closing
on a stopped vehicle.
"""

from safefpr import (
    KinematicState,
    ModelParams,
    Trajectory,
    braking_decel,
    braking_profile,
    constraints_met,
    oracle_best_latency,
    tolerable_latency,
)

params = ModelParams()

# ego at 25 mph; a stalled car sits 30 m ahead
ego = KinematicState(x=0.0, y=0.0, v=11.18, a=0.0)
stalled = KinematicState(x=30.0, y=0.0, v=0.0)
trajectory = Trajectory.from_states(((0.0, stalled), (40.0, stalled)))

print("Ego: 11.18 m/s (25 mph), stalled car 30 m ahead")
print(f"Hard-braking deceleration: {braking_decel(ego.a, params):.2f} m/s^2")

# what the maneuver looks like if one frame takes 0.5 s
latency = 0.5
profile = braking_profile(ego, latency, latency, probe_time=5.0, params=params)
print(f"\nWith a {latency:.2f} s frame time:")
print(f"  travel before braking: {profile.reaction_distance:.2f} m")
print(f"  travel while braking:  {profile.braking_distance:.2f} m")
print(f"  total {profile.total_distance:.2f} m against an allowed "
      f"{params.distance_margin * 30:.1f} m")

check = constraints_met(ego, trajectory, latency, latency, 5.0, params)
print(f"  constraints met: {check.met} "
      f"(distance slack {check.distance_gap:.2f} m, speed excess {check.speed_gap:.2f} m/s)")

# the search itself: largest grid latency that stays safe
estimate = tolerable_latency(ego, trajectory, l0=0.5, params=params)
print(f"\nTolerable latency: {estimate.latency:.3f} s "
      f"-> required rate {1 / estimate.latency:.1f} frames/s")
print(f"Constraints verified at probe time {estimate.probe_time:.2f} s")

verdict = oracle_best_latency(ego, trajectory, l0=0.5, params=params)
print(f"Exhaustive-scan oracle agrees: best latency {verdict.best_latency:.3f} s")

# the same question at 40 mph has no safe answer: stopping alone needs 32.6 m
fast = KinematicState(x=0.0, y=0.0, v=17.88, a=0.0)
estimate = tolerable_latency(fast, trajectory, l0=0.5, params=params)
print(f"\nAt 17.88 m/s (40 mph) the same gap is unavoidable: "
      f"infeasible={estimate.infeasible}")
