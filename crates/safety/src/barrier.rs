//! The safety function `h(x, u)` of eq. (1).
//!
//! Following the ShieldNN controller shield the paper adopts (Section IV-B),
//! the barrier is evaluated on the vehicle's state relative to a fixed point
//! in the plane (the obstacle): the relative **distance** and **orientation
//! angle**. Our instantiation adds the usual braking-distance margin so the
//! safe set also accounts for speed:
//!
//! ```text
//! h(x) = d  -  r_safe  -  towardness(theta) * v^2 / (2 a_brake)
//! ```
//!
//! where `d` is the surface distance to the obstacle, `r_safe` a static
//! clearance, `towardness` weights the kinetic term by how directly the
//! vehicle is heading at the obstacle (`cos theta`, clamped at zero), and
//! `a_brake` the maximum braking deceleration. `h >= 0` defines the safe set
//! (`S = 1` in the paper).

use crate::error::SafetyError;
use seo_platform::units::Seconds;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::World;

/// Barrier over (distance, bearing, speed) relative to the nearest obstacle.
///
/// # Example
///
/// ```
/// use seo_safety::barrier::DistanceBarrier;
/// use seo_sim::sensing::RelativeObservation;
///
/// let barrier = DistanceBarrier::default();
/// // Far away and slow: safe.
/// let obs = RelativeObservation { distance: 50.0, bearing: 0.0, speed: 5.0 };
/// assert!(barrier.value(&obs) > 0.0);
/// // On top of the obstacle: unsafe.
/// let obs = RelativeObservation { distance: 0.5, bearing: 0.0, speed: 5.0 };
/// assert!(barrier.value(&obs) < 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBarrier {
    /// Static clearance that must always be kept to the obstacle surface,
    /// meters.
    pub safe_radius: f64,
    /// Maximum braking deceleration used for the kinetic margin, m/s^2.
    pub max_braking: f64,
    /// Scale on the kinetic margin (1 = full stopping distance).
    pub kinetic_gain: f64,
}

impl Default for DistanceBarrier {
    /// 1.2 m static clearance, 8 m/s^2 braking, full kinetic margin.
    ///
    /// The clearance is sized to the evaluation road (8 m wide, obstacles
    /// up to 2 m off-center with 1 m radius): a safe corridor of at least
    /// one vehicle width must exist on one side of every obstacle.
    fn default() -> Self {
        Self {
            safe_radius: 1.2,
            max_braking: 8.0,
            kinetic_gain: 1.0,
        }
    }
}

impl DistanceBarrier {
    /// Validates the parameterization.
    ///
    /// # Errors
    ///
    /// Returns [`SafetyError::InvalidConfig`] for non-positive clearance or
    /// braking, or a negative kinetic gain.
    pub fn validate(&self) -> Result<(), SafetyError> {
        if !(self.safe_radius.is_finite() && self.safe_radius > 0.0) {
            return Err(SafetyError::InvalidConfig {
                field: "safe_radius",
                constraint: "be finite and positive",
            });
        }
        if !(self.max_braking.is_finite() && self.max_braking > 0.0) {
            return Err(SafetyError::InvalidConfig {
                field: "max_braking",
                constraint: "be finite and positive",
            });
        }
        if !(self.kinetic_gain.is_finite() && self.kinetic_gain >= 0.0) {
            return Err(SafetyError::InvalidConfig {
                field: "kinetic_gain",
                constraint: "be finite and non-negative",
            });
        }
        Ok(())
    }

    /// Evaluates `h` on a safety-state observation.
    ///
    /// Returns `f64::INFINITY` when no obstacle is in the world — there is
    /// nothing to be unsafe against.
    #[must_use]
    pub fn value(&self, observation: &RelativeObservation) -> f64 {
        if !observation.distance.is_finite() {
            return f64::INFINITY;
        }
        let towardness = observation.bearing.cos().max(0.0);
        let kinetic =
            self.kinetic_gain * towardness * observation.speed.powi(2) / (2.0 * self.max_braking);
        observation.distance - self.safe_radius - kinetic
    }

    /// Evaluates `h` directly against a world and vehicle state
    /// (ground-truth observation, as the paper does with CARLA state).
    #[must_use]
    pub fn value_in_world(&self, world: &World, state: &VehicleState) -> f64 {
        self.value(&RelativeObservation::observe(world, state))
    }

    /// The binary safety state `S` of eq. (1): `true` iff `h >= 0`.
    #[must_use]
    pub fn is_safe(&self, observation: &RelativeObservation) -> bool {
        self.value(observation) >= 0.0
    }

    /// Minimum distance at which a vehicle at `speed` heading straight at
    /// the obstacle is still safe (the `h = 0` contour at bearing 0).
    #[must_use]
    pub fn critical_distance(&self, speed: f64) -> f64 {
        self.safe_radius + self.kinetic_gain * speed.powi(2) / (2.0 * self.max_braking)
    }

    /// Whether a closed-form lower bound proves, without a rollout, that
    /// `h` stays non-negative now and at every state of `rollout` from
    /// `state` in the static `world`, given the current nearest surface
    /// distance `distance`. The no-rollout pass of both Ψ
    /// ([`crate::filter::SafetyFilter`]) and φ
    /// ([`crate::interval::SafeIntervalEvaluator::safe_interval`]).
    ///
    /// Over the rollout the vehicle travels at most `v̄·T`, where `T` is the
    /// rolled-out time and `v̄` the speed bound that the model's
    /// acceleration and `max_speed` clamps imply
    /// ([`BicycleModel::speed_bound`]); the kinetic term is at most
    /// `gain·v̄²/(2·a_brake)` because `towardness <= 1`. So every `h` along
    /// the rollout is at least `distance − r_safe − v̄·T −
    /// gain·v̄²/(2·a_brake)`; since `v̄` covers the current speed too, the
    /// bound also holds for `h` now. It proves safety when it exceeds a
    /// rounding margin of `1e-9` per rolled-out step, relative to the sum
    /// of the coordinates, radii, reach and kinetic term involved.
    pub(crate) fn provably_safe(
        &self,
        rollout: &FrozenRollout<'_>,
        world: &World,
        state: &VehicleState,
        distance: f64,
    ) -> bool {
        let FrozenRollout {
            model,
            control,
            dt,
            steps,
        } = *rollout;
        let speed = model.speed_bound(state.speed, control, dt, steps);
        let reach = speed * steps as f64 * dt.as_secs();
        let kinetic = self.kinetic_gain * speed.powi(2) / (2.0 * self.max_braking);
        if kinetic < 0.0 {
            // A negative gain or braking breaks the bound. (Any NaN on the
            // way fails the final comparison instead.)
            return false;
        }
        let extent: f64 = world
            .obstacles()
            .iter()
            .map(|o| o.x.abs() + o.y.abs() + o.radius)
            .sum();
        let scale = 1.0 + state.x.abs() + state.y.abs() + extent + reach + kinetic;
        let margin = 1e-9 * (steps as f64 + 1.0) * scale;
        distance - self.safe_radius - reach - kinetic > margin
    }
}

/// A frozen-control rollout: `steps` substeps of `dt` under `model` with
/// `control` held, as [`BicycleModel::rollout`] integrates it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrozenRollout<'a> {
    pub(crate) model: &'a BicycleModel,
    pub(crate) control: Control,
    pub(crate) dt: Seconds,
    pub(crate) steps: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_sim::world::{Obstacle, Road};
    use std::f64::consts::PI;

    fn obs(distance: f64, bearing: f64, speed: f64) -> RelativeObservation {
        RelativeObservation {
            distance,
            bearing,
            speed,
        }
    }

    #[test]
    fn far_is_safe_near_is_unsafe() {
        let b = DistanceBarrier::default();
        assert!(b.is_safe(&obs(50.0, 0.0, 10.0)));
        assert!(!b.is_safe(&obs(1.0, 0.0, 10.0)));
    }

    #[test]
    fn heading_away_removes_kinetic_margin() {
        let b = DistanceBarrier::default();
        // 5 m away at high speed: unsafe head-on, safe heading away.
        let head_on = obs(5.0, 0.0, 12.0);
        let away = obs(5.0, PI, 12.0);
        assert!(b.value(&head_on) < b.value(&away));
        assert!(!b.is_safe(&head_on));
        assert!(b.is_safe(&away));
    }

    #[test]
    fn faster_is_less_safe_head_on() {
        let b = DistanceBarrier::default();
        assert!(b.value(&obs(10.0, 0.0, 4.0)) > b.value(&obs(10.0, 0.0, 12.0)));
    }

    #[test]
    fn no_obstacle_is_infinitely_safe() {
        let b = DistanceBarrier::default();
        assert_eq!(b.value(&obs(f64::INFINITY, 0.0, 10.0)), f64::INFINITY);
        assert!(b.is_safe(&obs(f64::INFINITY, 0.0, 10.0)));
        let empty = World::empty();
        assert_eq!(
            b.value_in_world(&empty, &VehicleState::route_start()),
            f64::INFINITY
        );
    }

    #[test]
    fn critical_distance_matches_zero_contour() {
        let b = DistanceBarrier::default();
        let speed = 10.0;
        let d = b.critical_distance(speed);
        assert!((b.value(&obs(d, 0.0, speed))).abs() < 1e-12);
        assert!(b.is_safe(&obs(d + 0.01, 0.0, speed)));
        assert!(!b.is_safe(&obs(d - 0.01, 0.0, speed)));
    }

    #[test]
    fn value_in_world_uses_nearest_obstacle() {
        let world = World::new(
            Road::default(),
            vec![Obstacle::new(50.0, 0.0, 1.0), Obstacle::new(20.0, 0.0, 1.0)],
        );
        let b = DistanceBarrier::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 5.0);
        // Distance to nearest surface = 19.
        let expected = b.value(&obs(19.0, 0.0, 5.0));
        assert!((b.value_in_world(&world, &state) - expected).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(DistanceBarrier::default().validate().is_ok());
        assert!(DistanceBarrier {
            safe_radius: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DistanceBarrier {
            max_braking: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DistanceBarrier {
            kinetic_gain: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DistanceBarrier {
            kinetic_gain: 0.0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn zero_kinetic_gain_reduces_to_pure_distance() {
        let b = DistanceBarrier {
            kinetic_gain: 0.0,
            ..Default::default()
        };
        assert_eq!(b.value(&obs(5.0, 0.0, 100.0)), 5.0 - b.safe_radius);
        assert_eq!(b.critical_distance(100.0), b.safe_radius);
    }
}
