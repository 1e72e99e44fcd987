//! Kinematic bicycle vehicle model.
//!
//! The paper's safety analysis (Section III-B) only requires the vehicle's
//! dynamics to exhibit uniform continuity so that the progression of state
//! under a *frozen* control can be integrated forward in time. A kinematic
//! bicycle model satisfies that and is the standard low-fidelity stand-in for
//! CARLA's vehicle physics.

use crate::error::SimError;
use seo_platform::units::Seconds;
use std::fmt;

/// Normalizes an angle into `(-pi, pi]`.
///
/// An angle already in range is returned as is: `fmod` by `2pi` is the
/// identity on `|theta| < 2pi`, so the fast path gives the same bits as the
/// reduction (NaN fails both comparisons and takes the reduction).
#[must_use]
pub fn wrap_angle(theta: f64) -> f64 {
    if theta > -std::f64::consts::PI && theta <= std::f64::consts::PI {
        return theta;
    }
    let mut a = theta % std::f64::consts::TAU;
    if a <= -std::f64::consts::PI {
        a += std::f64::consts::TAU;
    } else if a > std::f64::consts::PI {
        a -= std::f64::consts::TAU;
    }
    a
}

/// Planar pose and speed of the vehicle.
///
/// The road runs along +x; `y` is the lateral offset from the centerline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleState {
    /// Longitudinal position along the road, meters.
    pub x: f64,
    /// Lateral position (0 = centerline), meters.
    pub y: f64,
    /// Heading angle, radians (0 = along +x).
    pub heading: f64,
    /// Forward speed, m/s (non-negative).
    pub speed: f64,
}

impl VehicleState {
    /// Creates a state at the given pose.
    #[must_use]
    pub fn new(x: f64, y: f64, heading: f64, speed: f64) -> Self {
        Self {
            x,
            y,
            heading,
            speed,
        }
    }

    /// The paper's starting condition: at the route origin, on the
    /// centerline, already rolling at a modest speed.
    #[must_use]
    pub fn route_start() -> Self {
        Self {
            x: 0.0,
            y: 0.0,
            heading: 0.0,
            speed: 5.0,
        }
    }

    /// Euclidean distance to a point.
    #[must_use]
    pub fn distance_to(&self, px: f64, py: f64) -> f64 {
        ((self.x - px).powi(2) + (self.y - py).powi(2)).sqrt()
    }

    /// Bearing of a point relative to the vehicle heading, in `(-pi, pi]`.
    /// Zero means dead ahead; positive means to the left.
    #[must_use]
    pub fn bearing_to(&self, px: f64, py: f64) -> f64 {
        wrap_angle((py - self.y).atan2(px - self.x) - self.heading)
    }
}

impl fmt::Display for VehicleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.2} m, {:.2} m) heading {:.1} deg @ {:.2} m/s",
            self.x,
            self.y,
            self.heading.to_degrees(),
            self.speed
        )
    }
}

/// A raw control action `u = (steering, throttle)`.
///
/// Matches the paper's RL agent output: steering angle command in `[-1, 1]`
/// (scaled by the vehicle's maximum steering angle) and throttle in
/// `[-1, 1]` (negative values brake).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Control {
    /// Normalized steering command in `[-1, 1]`.
    pub steering: f64,
    /// Normalized throttle command in `[-1, 1]`.
    pub throttle: f64,
}

impl Control {
    /// Creates a control action, clamping both channels to `[-1, 1]`.
    #[must_use]
    pub fn new(steering: f64, throttle: f64) -> Self {
        Self {
            steering: steering.clamp(-1.0, 1.0),
            throttle: throttle.clamp(-1.0, 1.0),
        }
    }

    /// A coasting action (no steering, no throttle).
    #[must_use]
    pub fn coast() -> Self {
        Self::default()
    }
}

impl fmt::Display for Control {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steer {:+.2}, throttle {:+.2}",
            self.steering, self.throttle
        )
    }
}

/// Kinematic bicycle dynamics `x_dot = f(x, u)`.
///
/// # Example
///
/// ```
/// use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
/// use seo_platform::units::Seconds;
///
/// let model = BicycleModel::default();
/// let mut state = VehicleState::route_start();
/// state = model.step(state, Control::new(0.0, 1.0), Seconds::from_millis(20.0));
/// assert!(state.x > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BicycleModel {
    /// Distance between axles, meters.
    pub wheelbase: f64,
    /// Maximum steering angle magnitude, radians.
    pub max_steering_angle: f64,
    /// Maximum forward acceleration at full throttle, m/s^2.
    pub max_acceleration: f64,
    /// Maximum braking deceleration at full reverse throttle, m/s^2.
    pub max_braking: f64,
    /// Maximum forward speed, m/s.
    pub max_speed: f64,
    /// Linear drag coefficient, 1/s (models rolling resistance).
    pub drag: f64,
}

impl Default for BicycleModel {
    /// A compact passenger-car parameterization: 2.7 m wheelbase, 35 degrees
    /// max steering, 4 m/s^2 acceleration, 8 m/s^2 braking, 15 m/s top speed.
    fn default() -> Self {
        Self {
            wheelbase: 2.7,
            max_steering_angle: 35.0_f64.to_radians(),
            max_acceleration: 4.0,
            max_braking: 8.0,
            max_speed: 15.0,
            drag: 0.05,
        }
    }
}

impl BicycleModel {
    /// Validates the parameterization.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any physical parameter is
    /// non-positive or non-finite (drag may be zero).
    pub fn validate(&self) -> Result<(), SimError> {
        let positive: [(&'static str, f64); 5] = [
            ("wheelbase", self.wheelbase),
            ("max_steering_angle", self.max_steering_angle),
            ("max_acceleration", self.max_acceleration),
            ("max_braking", self.max_braking),
            ("max_speed", self.max_speed),
        ];
        for (field, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::InvalidConfig {
                    field,
                    constraint: "be finite and positive",
                });
            }
        }
        if !(self.drag.is_finite() && self.drag >= 0.0) {
            return Err(SimError::InvalidConfig {
                field: "drag",
                constraint: "be finite and non-negative",
            });
        }
        Ok(())
    }

    /// Continuous-time derivative of the state under control `u`.
    ///
    /// Returns `(x_dot, y_dot, heading_dot, speed_dot)`.
    #[must_use]
    pub fn derivative(&self, state: VehicleState, control: Control) -> (f64, f64, f64, f64) {
        let (accel, tan_steer) = self.frozen(control);
        let x_dot = state.speed * state.heading.cos();
        let y_dot = state.speed * state.heading.sin();
        let heading_dot = state.speed * tan_steer / self.wheelbase;
        let speed_dot = accel - self.drag * state.speed;
        (x_dot, y_dot, heading_dot, speed_dot)
    }

    /// The state-independent part of the dynamics under `control`: the
    /// commanded acceleration (m/s^2, negative when braking) and the
    /// tangent of the steering angle. A frozen-control rollout computes it
    /// once.
    fn frozen(&self, control: Control) -> (f64, f64) {
        let steer = control.steering.clamp(-1.0, 1.0) * self.max_steering_angle;
        let throttle = control.throttle.clamp(-1.0, 1.0);
        let accel = if throttle >= 0.0 {
            throttle * self.max_acceleration
        } else {
            throttle * self.max_braking
        };
        (accel, steer.tan())
    }

    /// An upper bound, up to rounding, on the speed over a [`Self::rollout`]
    /// of `steps` substeps of `dt` from `speed` under `control`, the start
    /// included: `max(speed, min(speed + max(accel, 0) * steps * dt,
    /// max_speed))`. Drag only slows a non-negative speed, so it is left
    /// out. Returns infinity (no bound) for a negative or NaN speed or a
    /// negative drag.
    #[must_use]
    pub fn speed_bound(&self, speed: f64, control: Control, dt: Seconds, steps: usize) -> f64 {
        if !(speed >= 0.0 && self.drag >= 0.0) {
            return f64::INFINITY;
        }
        let (accel, _) = self.frozen(control);
        let gained = speed + accel.max(0.0) * steps as f64 * dt.as_secs();
        gained.min(self.max_speed).max(speed)
    }

    /// Integrates the dynamics forward by `dt` (semi-implicit Euler, which is
    /// stable at the 1–25 ms steps SEO uses).
    ///
    /// Speed is clamped to `[0, max_speed]`; heading is wrapped to
    /// `(-pi, pi]`.
    #[must_use]
    pub fn step(&self, state: VehicleState, control: Control, dt: Seconds) -> VehicleState {
        let (accel, tan_steer) = self.frozen(control);
        self.advance(state, accel, tan_steer, dt.as_secs())
    }

    /// One semi-implicit Euler step from the parts [`Self::frozen`] returns.
    fn advance(&self, state: VehicleState, accel: f64, tan_steer: f64, dt: f64) -> VehicleState {
        let speed_dot = accel - self.drag * state.speed;
        let new_speed = (state.speed + speed_dot * dt).clamp(0.0, self.max_speed);
        // Integrate pose with the updated speed (semi-implicit).
        let heading_dot = new_speed * tan_steer / self.wheelbase;
        let new_heading = wrap_angle(state.heading + heading_dot * dt);
        let avg_heading = wrap_angle(state.heading + 0.5 * heading_dot * dt);
        VehicleState {
            x: state.x + new_speed * avg_heading.cos() * dt,
            y: state.y + new_speed * avg_heading.sin() * dt,
            heading: new_heading,
            speed: new_speed,
        }
    }

    /// Substeps [`Self::rollout`] takes to cover `horizon` at `dt`.
    #[must_use]
    pub fn rollout_steps(dt: Seconds, horizon: Seconds) -> usize {
        (horizon.as_secs() / dt.as_secs()).ceil().max(0.0) as usize
    }

    /// Integrates the dynamics over `horizon` with fixed substeps of
    /// `dt`, yielding every intermediate state to `visit`. Used by the
    /// safe-interval characterization to find when a barrier crosses zero.
    pub fn rollout<F>(
        &self,
        mut state: VehicleState,
        control: Control,
        dt: Seconds,
        horizon: Seconds,
        mut visit: F,
    ) where
        F: FnMut(Seconds, VehicleState) -> bool,
    {
        // The control is frozen, so its acceleration and steering tangent
        // are too.
        let (accel, tan_steer) = self.frozen(control);
        for k in 1..=Self::rollout_steps(dt, horizon) {
            state = self.advance(state, accel, tan_steer, dt.as_secs());
            if !visit(Seconds::new(k as f64 * dt.as_secs()), state) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    const DT: Seconds = Seconds::new(0.02);

    /// `wrap_angle` without the in-range fast path.
    fn wrap_angle_reference(theta: f64) -> f64 {
        let mut a = theta % TAU;
        if a <= -PI {
            a += TAU;
        } else if a > PI {
            a -= TAU;
        }
        a
    }

    /// `BicycleModel::step` with nothing hoisted or shared.
    fn step_reference(
        model: &BicycleModel,
        state: VehicleState,
        control: Control,
        dt: Seconds,
    ) -> VehicleState {
        let dt = dt.as_secs();
        let throttle = control.throttle.clamp(-1.0, 1.0);
        let accel = if throttle >= 0.0 {
            throttle * model.max_acceleration
        } else {
            throttle * model.max_braking
        };
        let speed_dot = accel - model.drag * state.speed;
        let new_speed = (state.speed + speed_dot * dt).clamp(0.0, model.max_speed);
        let steer = control.steering.clamp(-1.0, 1.0) * model.max_steering_angle;
        let heading_dot = new_speed * steer.tan() / model.wheelbase;
        let new_heading = wrap_angle_reference(state.heading + heading_dot * dt);
        let avg_heading = wrap_angle_reference(state.heading + 0.5 * heading_dot * dt);
        VehicleState {
            x: state.x + new_speed * avg_heading.cos() * dt,
            y: state.y + new_speed * avg_heading.sin() * dt,
            heading: new_heading,
            speed: new_speed,
        }
    }

    fn bits(s: VehicleState) -> [u64; 4] {
        [
            s.x.to_bits(),
            s.y.to_bits(),
            s.heading.to_bits(),
            s.speed.to_bits(),
        ]
    }

    #[test]
    fn wrap_angle_fast_path_is_bit_exact() {
        let mut edges = vec![
            PI,
            -PI,
            PI.next_up(),
            PI.next_down(),
            (-PI).next_up(),
            (-PI).next_down(),
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            TAU,
            -TAU,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ];
        for k in -12..=12 {
            let m = f64::from(k) * TAU;
            edges.extend([m, m.next_up(), m.next_down(), m + PI, m - PI]);
        }
        let mut rng = StdRng::seed_from_u64(0x3a);
        for _ in 0..20_000 {
            let scale = [1.0, 4.0, 10.0, 1e6][rng.gen_range(0..4usize)];
            edges.push(rng.gen_range(-scale..scale));
        }
        for theta in edges {
            assert_eq!(
                wrap_angle(theta).to_bits(),
                wrap_angle_reference(theta).to_bits(),
                "wrap_angle({theta:e})"
            );
        }
    }

    #[test]
    fn step_and_rollout_match_the_unhoisted_form() {
        let mut rng = StdRng::seed_from_u64(0x57e9);
        for _ in 0..2_000 {
            let model = BicycleModel {
                max_speed: rng.gen_range(5.0..30.0),
                drag: rng.gen_range(0.0..0.2),
                ..BicycleModel::default()
            };
            let state = VehicleState::new(
                rng.gen_range(-50.0..150.0),
                rng.gen_range(-6.0..6.0),
                rng.gen_range(-4.0..4.0),
                rng.gen_range(0.0..20.0),
            );
            let control = Control::new(rng.gen_range(-1.2..1.2), rng.gen_range(-1.2..1.2));
            let dt = Seconds::from_millis(rng.gen_range(1.0..25.0));
            assert_eq!(
                bits(model.step(state, control, dt)),
                bits(step_reference(&model, state, control, dt))
            );
            let mut expected = state;
            model.rollout(state, control, dt, Seconds::new(0.3), |_, s| {
                expected = step_reference(&model, expected, control, dt);
                assert_eq!(bits(s), bits(expected));
                true
            });
        }
    }

    #[test]
    fn speed_bound_covers_every_rollout_speed() {
        let mut rng = StdRng::seed_from_u64(0x5bd);
        for _ in 0..2_000 {
            let model = BicycleModel {
                max_speed: rng.gen_range(5.0..30.0),
                drag: rng.gen_range(0.0..0.2),
                ..BicycleModel::default()
            };
            let state = VehicleState::new(0.0, 0.0, 0.0, rng.gen_range(0.0..35.0));
            let control = Control::new(0.0, rng.gen_range(-1.0..=1.0));
            let horizon = Seconds::new(0.6);
            let steps = BicycleModel::rollout_steps(DT, horizon);
            let bound = model.speed_bound(state.speed, control, DT, steps);
            assert!(bound >= state.speed);
            model.rollout(state, control, DT, horizon, |_, s| {
                assert!(s.speed <= bound * (1.0 + 1e-12), "{} > {bound}", s.speed);
                true
            });
        }
        let model = BicycleModel::default();
        assert_eq!(
            model.speed_bound(-1.0, Control::coast(), DT, 30),
            f64::INFINITY
        );
        let draggy = BicycleModel {
            drag: -0.1,
            ..model
        };
        assert_eq!(
            draggy.speed_bound(5.0, Control::coast(), DT, 30),
            f64::INFINITY
        );
    }

    #[test]
    fn wrap_angle_stays_in_range() {
        for k in -10..=10 {
            let a = wrap_angle(0.3 + f64::from(k) * std::f64::consts::TAU);
            assert!((a - 0.3).abs() < 1e-9, "wrap failed for k={k}: {a}");
        }
        assert!((wrap_angle(PI + 0.1) - (-PI + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn straight_line_motion() {
        let model = BicycleModel::default();
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        for _ in 0..50 {
            s = model.step(s, Control::new(0.0, 0.0), DT);
        }
        assert!(s.x > 9.0, "should travel forward: {s}");
        assert!(s.y.abs() < 1e-9, "no lateral drift: {s}");
        assert!(s.speed < 10.0, "drag slows the vehicle");
    }

    #[test]
    fn throttle_accelerates_brake_decelerates() {
        let model = BicycleModel::default();
        let s0 = VehicleState::new(0.0, 0.0, 0.0, 5.0);
        let accel = model.step(s0, Control::new(0.0, 1.0), DT);
        assert!(accel.speed > s0.speed);
        let brake = model.step(s0, Control::new(0.0, -1.0), DT);
        assert!(brake.speed < s0.speed);
    }

    #[test]
    fn speed_never_negative_and_never_exceeds_max() {
        let model = BicycleModel::default();
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 0.5);
        for _ in 0..500 {
            s = model.step(s, Control::new(0.0, -1.0), DT);
            assert!(s.speed >= 0.0);
        }
        assert_eq!(s.speed, 0.0);
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 0.0);
        for _ in 0..5000 {
            s = model.step(s, Control::new(0.0, 1.0), DT);
        }
        assert!(s.speed <= model.max_speed + 1e-9);
    }

    #[test]
    fn left_steer_turns_left() {
        let model = BicycleModel::default();
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 8.0);
        for _ in 0..25 {
            s = model.step(s, Control::new(1.0, 0.0), DT);
        }
        assert!(s.heading > 0.05, "heading should increase: {s}");
        assert!(s.y > 0.0, "vehicle should drift left: {s}");
    }

    #[test]
    fn stationary_vehicle_does_not_turn() {
        let model = BicycleModel::default();
        let s = VehicleState::new(1.0, 2.0, 0.5, 0.0);
        let next = model.step(s, Control::new(1.0, 0.0), DT);
        assert_eq!(next.heading, s.heading);
        assert_eq!(next.x, s.x);
        assert_eq!(next.y, s.y);
    }

    #[test]
    fn control_clamps_inputs() {
        let c = Control::new(5.0, -3.0);
        assert_eq!(c.steering, 1.0);
        assert_eq!(c.throttle, -1.0);
    }

    #[test]
    fn bearing_and_distance() {
        let s = VehicleState::new(0.0, 0.0, 0.0, 1.0);
        assert!((s.distance_to(3.0, 4.0) - 5.0).abs() < 1e-12);
        assert!((s.bearing_to(0.0, 5.0) - FRAC_PI_2).abs() < 1e-12);
        assert!((s.bearing_to(5.0, 0.0)).abs() < 1e-12);
        // Heading rotates the bearing frame.
        let s = VehicleState::new(0.0, 0.0, FRAC_PI_2, 1.0);
        assert!((s.bearing_to(0.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn rollout_visits_states_and_can_stop_early() {
        let model = BicycleModel::default();
        let s = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let mut count = 0;
        model.rollout(s, Control::coast(), DT, Seconds::new(0.2), |_, _| {
            count += 1;
            true
        });
        assert_eq!(count, 10);
        let mut count = 0;
        model.rollout(s, Control::coast(), DT, Seconds::new(0.2), |_, _| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut m = BicycleModel::default();
        assert!(m.validate().is_ok());
        m.wheelbase = 0.0;
        assert!(m.validate().is_err());
        let m = BicycleModel {
            drag: -0.1,
            ..Default::default()
        };
        assert!(m.validate().is_err());
        let m = BicycleModel {
            max_speed: f64::NAN,
            ..Default::default()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn displays_are_informative() {
        let s = VehicleState::route_start().to_string();
        assert!(s.contains("m/s"));
        assert!(Control::new(0.5, 0.1).to_string().contains("steer"));
    }
}
