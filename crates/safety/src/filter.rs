//! The safety filter Ψ of eq. (2) — a controller shield.
//!
//! Raw control predictions are confined within the boundaries of the safety
//! function while accounting for the dynamics of motion: if the proposed
//! control keeps `h >= 0` over a short look-ahead of the frozen-control
//! dynamics, it passes through untouched (`S = 1` branch). Otherwise
//! `ψ(x; U)` picks, from a finite admissible control set `U`, the correction
//! that maximizes the worst-case barrier value, tie-breaking toward the
//! original control (the ShieldNN behaviour of minimally modifying steering).

use crate::barrier::{DistanceBarrier, FrozenRollout};
use seo_platform::units::Seconds;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::World;

/// What the filter did with the raw control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterDecision {
    /// The control was already safe and passed through.
    Passed,
    /// The control was replaced by a corrective action; the original is
    /// kept for diagnostics.
    Corrected {
        /// The raw control that was rejected.
        original: Control,
    },
}

impl FilterDecision {
    /// Whether the filter intervened.
    #[must_use]
    pub fn is_correction(&self) -> bool {
        matches!(self, Self::Corrected { .. })
    }
}

/// Steering candidates per side in the admissible set `U`.
const STEERING_CANDIDATES: i32 = 4;

/// `|U|`: a steering sweep of `2 * STEERING_CANDIDATES + 1` angles at three
/// throttles.
const ADMISSIBLE: usize = 3 * (2 * STEERING_CANDIDATES as usize + 1);

/// A controller shield enforcing `h >= 0` via look-ahead and a finite
/// admissible set.
///
/// # Exact fast paths
///
/// [`Self::filter`] returns exactly what the plain definition would (a
/// full look-ahead of the raw control, then a scan of all of `U` for the
/// best score), bit for bit, while doing less of that work:
///
/// * **No-rollout pass.** Over the look-ahead the vehicle travels at most
///   `v̄·T`, where `T` is the rolled-out time and `v̄` the speed bound that
///   the model's acceleration and `max_speed` clamps imply
///   ([`BicycleModel::speed_bound`]); the kinetic term is at most
///   `gain·v̄²/(2·a_brake)` because `towardness <= 1`. So every `h` along the
///   rollout is at least `d0 − r_safe − v̄·T − gain·v̄²/(2·a_brake)`, with
///   `d0` the current nearest surface distance; since `v̄` covers the
///   current speed too, the bound also holds for `h` now. When it exceeds a
///   rounding margin (`1e-9` per rolled-out step, relative to the sum of the
///   coordinates, radii, reach and kinetic term involved), the look-ahead
///   cannot dip below zero and the control passes without a rollout. Only
///   `Passed` is decided this way; [`Self::worst_case_barrier`] always
///   rolls out. The same bound lets
///   [`SafeIntervalEvaluator::safe_interval`](crate::interval::SafeIntervalEvaluator::safe_interval)
///   skip rollouts that cannot reach the barrier.
/// * **Best-first corrective search.** A safe candidate scores
///   `100 + proximity` (at least 97.5 for controls in `[-1, 1]`), while an
///   unsafe one scores its negative (or NaN) worst-case barrier, so a safe
///   candidate with a non-negative score outscores every unsafe one. The
///   scan keeps the first of equal maxima. Visiting those candidates in
///   descending `100 + proximity` order (the rounded score the scan
///   compares), original index first on ties, the first one whose
///   look-ahead stays non-negative is therefore the scan's winner, and the
///   remaining rollouts are skipped. If none is safe, the scan itself
///   decides, reusing the worst cases already rolled out: the maximum
///   score, first on ties, full brake if nothing beats negative infinity.
/// * The current barrier value `h0`, the start of every look-ahead, is
///   computed once per call.
///
/// The golden Ψ test (`tests/golden_psi.rs`) pins the per-step output of
/// high-correction episodes, and this module's property tests compare
/// each fast path with the plain definition.
///
/// # Example
///
/// ```
/// use seo_safety::filter::SafetyFilter;
/// use seo_sim::prelude::*;
///
/// let filter = SafetyFilter::default();
/// let world = World::new(Road::default(), vec![Obstacle::new(12.0, 0.0, 1.0)]);
/// // Charging head-on at the obstacle gets corrected.
/// let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
/// let (_safe, decision) = filter.filter(&world, &state, Control::new(0.0, 1.0));
/// assert!(decision.is_correction());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyFilter {
    barrier: DistanceBarrier,
    model: BicycleModel,
    /// How far ahead the frozen-control dynamics are checked.
    lookahead: Seconds,
    /// Integration step for the look-ahead.
    step: Seconds,
}

impl Default for SafetyFilter {
    /// Default barrier/bicycle, 600 ms look-ahead at 20 ms steps, 4
    /// steering candidates per side.
    fn default() -> Self {
        Self {
            barrier: DistanceBarrier::default(),
            model: BicycleModel::default(),
            lookahead: Seconds::from_millis(600.0),
            step: Seconds::from_millis(20.0),
        }
    }
}

impl SafetyFilter {
    /// Creates a filter with an explicit barrier and dynamics model.
    #[must_use]
    pub fn new(barrier: DistanceBarrier, model: BicycleModel) -> Self {
        Self {
            barrier,
            model,
            ..Self::default()
        }
    }

    /// The barrier being enforced.
    #[must_use]
    pub fn barrier(&self) -> &DistanceBarrier {
        &self.barrier
    }

    /// Returns a copy with a different look-ahead (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is non-positive.
    #[must_use]
    pub fn with_lookahead(mut self, lookahead: Seconds) -> Self {
        assert!(lookahead.as_secs() > 0.0, "lookahead must be positive");
        self.lookahead = lookahead;
        self
    }

    /// Worst-case barrier value over the look-ahead under frozen `control`.
    #[must_use]
    pub fn worst_case_barrier(&self, world: &World, state: &VehicleState, control: Control) -> f64 {
        self.worst_from(
            self.barrier.value_in_world(world, state),
            world,
            state,
            control,
        )
    }

    /// [`Self::worst_case_barrier`] given the current barrier value `h0`.
    fn worst_from(&self, h0: f64, world: &World, state: &VehicleState, control: Control) -> f64 {
        let mut worst = h0;
        self.model
            .rollout(*state, control, self.step, self.lookahead, |_, s| {
                let h = self.barrier.value_in_world(world, &s);
                if h < worst {
                    worst = h;
                }
                worst >= 0.0 // keep rolling only while still safe (early exit)
            });
        worst
    }

    /// Whether the closed-form lower bound on `h` over the look-ahead
    /// (`DistanceBarrier::provably_safe`) proves that `control` keeps
    /// `h >= 0`, given the current observation `now`.
    fn provably_safe(
        &self,
        world: &World,
        state: &VehicleState,
        now: &RelativeObservation,
        control: Control,
    ) -> bool {
        let rollout = FrozenRollout {
            model: &self.model,
            control,
            dt: self.step,
            steps: BicycleModel::rollout_steps(self.step, self.lookahead),
        };
        self.barrier
            .provably_safe(&rollout, world, state, now.distance)
    }

    /// Ψ(x, u): returns the filtered control `u'` and what happened.
    ///
    /// Matches eq. (2): `u` when the look-ahead stays safe, otherwise the
    /// best corrective action from the admissible set.
    #[must_use]
    pub fn filter(
        &self,
        world: &World,
        state: &VehicleState,
        control: Control,
    ) -> (Control, FilterDecision) {
        let now = RelativeObservation::observe(world, state);
        let h0 = self.barrier.value(&now);
        if self.provably_safe(world, state, &now, control)
            || self.worst_from(h0, world, state, control) >= 0.0
        {
            return (control, FilterDecision::Passed);
        }
        let corrected = self.corrective_action(h0, world, state, control);
        (corrected, FilterDecision::Corrected { original: control })
    }

    /// ψ(x; U): the corrective behaviour — pick from the admissible set the
    /// action with the best worst-case barrier, tie-breaking toward the
    /// original control (ShieldNN-style minimal correction: among *safe*
    /// candidates, prefer the one closest to the original control, which
    /// keeps making progress; if none is safe, fall back to the least-unsafe
    /// one). Searches best-first (see the type-level docs) over fixed-size
    /// stack arrays, so the corrective path stays allocation-free inside
    /// the control loop.
    fn corrective_action(
        &self,
        h0: f64,
        world: &World,
        state: &VehicleState,
        original: Control,
    ) -> Control {
        let candidates: [Control; ADMISSIBLE] =
            std::array::from_fn(|i| Self::candidate(original, i));
        let safe_score = |c: &Control| {
            let proximity = -((c.steering - original.steering).abs()
                + 0.25 * (c.throttle - original.throttle).abs());
            100.0 + proximity
        };
        // Candidates whose safe score outranks every unsafe score, best
        // first, original index first on ties.
        let mut order = [(0.0, 0); ADMISSIBLE];
        let mut ranked = 0;
        for (i, c) in candidates.iter().enumerate() {
            let score = safe_score(c);
            if score >= 0.0 {
                order[ranked] = (score, i);
                ranked += 1;
            }
        }
        let order = &mut order[..ranked];
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut worst = [None; ADMISSIBLE];
        for &(_, i) in order.iter() {
            let w = self.worst_from(h0, world, state, candidates[i]);
            if w >= 0.0 {
                return candidates[i];
            }
            worst[i] = Some(w);
        }
        // No ranked candidate is safe: the plain scan, reusing the worst
        // cases already rolled out.
        let mut best = Control::new(0.0, -1.0); // full brake fallback
        let mut best_score = f64::NEG_INFINITY;
        for (c, known) in candidates.iter().zip(worst) {
            let w = known.unwrap_or_else(|| self.worst_from(h0, world, state, *c));
            let score = if w >= 0.0 { safe_score(c) } else { w };
            if score > best_score {
                best_score = score;
                best = *c;
            }
        }
        best
    }

    /// The `i`-th control of the admissible set `U`: a steering sweep from
    /// full right to full left, each angle at the original throttle, at half
    /// throttle, and under full braking. The single source of candidates
    /// for both the allocation-free corrective search and the materialized
    /// [`Self::admissible_set`].
    fn candidate(original: Control, i: usize) -> Control {
        let k = STEERING_CANDIDATES;
        let steering = f64::from(i as i32 / 3 - k) / f64::from(k);
        let throttle = [original.throttle, original.throttle * 0.5, -1.0][i % 3];
        Control::new(steering, throttle)
    }

    /// The finite admissible set `U`, materialized for inspection
    /// (the private `corrective_action` step builds the same set on the
    /// stack).
    #[must_use]
    pub fn admissible_set(&self, original: Control) -> Vec<Control> {
        (0..ADMISSIBLE)
            .map(|i| Self::candidate(original, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seo_sim::episode::{Episode, EpisodeConfig, EpisodeStatus};
    use seo_sim::scenario::ScenarioConfig;
    use seo_sim::world::{Obstacle, Road};

    fn obstacle_world(x: f64) -> World {
        World::new(Road::new(1000.0, 40.0), vec![Obstacle::new(x, 0.0, 1.0)])
    }

    /// Ψ by its plain definition: a full look-ahead of the raw control,
    /// then an exhaustive scan of `U` for the best score.
    fn filter_reference(
        filter: &SafetyFilter,
        world: &World,
        state: &VehicleState,
        control: Control,
    ) -> (Control, FilterDecision) {
        if filter.worst_case_barrier(world, state, control) >= 0.0 {
            return (control, FilterDecision::Passed);
        }
        let mut best = Control::new(0.0, -1.0);
        let mut best_score = f64::NEG_INFINITY;
        for candidate in filter.admissible_set(control) {
            let worst = filter.worst_case_barrier(world, state, candidate);
            let proximity = -((candidate.steering - control.steering).abs()
                + 0.25 * (candidate.throttle - control.throttle).abs());
            let score = if worst >= 0.0 {
                100.0 + proximity
            } else {
                worst
            };
            if score > best_score {
                best_score = score;
                best = candidate;
            }
        }
        (best, FilterDecision::Corrected { original: control })
    }

    /// A filter with randomly perturbed barrier, dynamics and look-ahead.
    fn random_filter(rng: &mut StdRng) -> SafetyFilter {
        let barrier = DistanceBarrier {
            safe_radius: rng.gen_range(0.5..2.0),
            max_braking: rng.gen_range(4.0..10.0),
            kinetic_gain: rng.gen_range(0.0..1.5),
        };
        let model = BicycleModel {
            max_acceleration: rng.gen_range(1.0..6.0),
            max_speed: rng.gen_range(8.0..20.0),
            drag: rng.gen_range(0.0..0.1),
            ..BicycleModel::default()
        };
        SafetyFilter::new(barrier, model)
            .with_lookahead(Seconds::from_millis(rng.gen_range(100.0..900.0)))
    }

    /// A road stretch with up to six obstacles, some of them duplicated so
    /// that nearest-obstacle ties occur.
    fn random_world(rng: &mut StdRng) -> World {
        let n = rng.gen_range(0..7usize);
        let mut obstacles: Vec<Obstacle> = (0..n)
            .map(|_| {
                Obstacle::new(
                    rng.gen_range(0.0..40.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(0.3..1.5),
                )
            })
            .collect();
        if n > 1 && rng.gen_bool(0.3) {
            obstacles[1] = obstacles[0];
        }
        World::new(Road::new(100.0, 10.0), obstacles)
    }

    fn random_state(rng: &mut StdRng) -> VehicleState {
        VehicleState::new(
            rng.gen_range(-5.0..35.0),
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(0.0..15.0),
        )
    }

    fn random_control(rng: &mut StdRng) -> Control {
        match rng.gen_range(0..20u8) {
            // Controls on the candidate grid make exact score ties likely.
            0..=5 => Control::new(
                f64::from(rng.gen_range(-4..=4i32)) / 4.0,
                f64::from(rng.gen_range(-2..=2i32)) / 2.0,
            ),
            // Unclamped or NaN fields (the fields are public) push safe
            // candidates' scores below zero or to NaN, where the scan, not
            // the best-first order, decides.
            6 => Control {
                steering: rng.gen_range(-600.0..600.0),
                throttle: rng.gen_range(-1.0..=1.0),
            },
            7 => Control {
                steering: rng.gen_range(-1.0..=1.0),
                throttle: f64::NAN,
            },
            _ => Control::new(rng.gen_range(-1.0..=1.0), rng.gen_range(-1.0..=1.0)),
        }
    }

    fn bits(c: Control) -> (u64, u64) {
        (c.steering.to_bits(), c.throttle.to_bits())
    }

    fn decision_bits(d: FilterDecision) -> Option<(u64, u64)> {
        match d {
            FilterDecision::Passed => None,
            FilterDecision::Corrected { original } => Some(bits(original)),
        }
    }

    #[test]
    fn fast_paths_match_the_plain_definition() {
        let mut rng = StdRng::seed_from_u64(0xf1173);
        let (mut corrected, mut passed) = (0, 0);
        for i in 0..6_000 {
            let filter = if i % 2 == 0 {
                SafetyFilter::default()
            } else {
                random_filter(&mut rng)
            };
            let world = random_world(&mut rng);
            let state = random_state(&mut rng);
            let control = random_control(&mut rng);
            let (got, got_decision) = filter.filter(&world, &state, control);
            let (want, want_decision) = filter_reference(&filter, &world, &state, control);
            assert_eq!(bits(got), bits(want), "{world} {state} {control}");
            assert_eq!(decision_bits(got_decision), decision_bits(want_decision));
            if got_decision.is_correction() {
                corrected += 1;
            } else {
                passed += 1;
            }
        }
        // Both branches are exercised in earnest.
        assert!(
            corrected > 1_000 && passed > 1_000,
            "{corrected} / {passed}"
        );
    }

    #[test]
    fn best_first_search_matches_the_exhaustive_scan_when_nothing_is_safe() {
        // Already inside the clearance: every candidate's look-ahead is
        // unsafe, so the least-unsafe fallback decides.
        let mut rng = StdRng::seed_from_u64(0xbad);
        let filter = SafetyFilter::default();
        for _ in 0..2_000 {
            let world = World::new(
                Road::default(),
                vec![Obstacle::new(
                    rng.gen_range(1.5..2.1),
                    rng.gen_range(-0.5..0.5),
                    1.0,
                )],
            );
            let state =
                VehicleState::new(0.0, 0.0, rng.gen_range(-0.5..0.5), rng.gen_range(0.0..15.0));
            let control = random_control(&mut rng);
            let (got, decision) = filter.filter(&world, &state, control);
            assert!(decision.is_correction());
            let (want, _) = filter_reference(&filter, &world, &state, control);
            assert_eq!(bits(got), bits(want));
        }
    }

    #[test]
    fn no_rollout_pass_is_sound() {
        // Whenever the closed-form bound says "pass", the full look-ahead's
        // worst case is non-negative. States are drawn so that many
        // bounds land just above zero.
        let mut rng = StdRng::seed_from_u64(0x50d);
        let mut proved = 0;
        for i in 0..40_000 {
            let filter = if i % 2 == 0 {
                SafetyFilter::default()
            } else {
                random_filter(&mut rng)
            };
            let world = random_world(&mut rng);
            let state = random_state(&mut rng);
            let control = random_control(&mut rng);
            let now = RelativeObservation::observe(&world, &state);
            if filter.provably_safe(&world, &state, &now, control) {
                proved += 1;
                let worst = filter.worst_case_barrier(&world, &state, control);
                assert!(worst >= 0.0, "{world} {state} {control}: worst {worst}");
            }
        }
        assert!(proved > 5_000, "only {proved} states proved safe");
    }

    #[test]
    fn no_rollout_pass_declines_broken_bounds() {
        let state = VehicleState::new(0.0, 0.0, 0.0, 5.0);
        let world = obstacle_world(500.0);
        let now = RelativeObservation::observe(&world, &state);
        let control = Control::new(0.0, 1.0);
        let check = |filter: SafetyFilter| filter.provably_safe(&world, &state, &now, control);
        assert!(check(SafetyFilter::default()));
        // A negative braking deceleration turns the kinetic term into a
        // bonus the bound cannot count on.
        let barrier = DistanceBarrier {
            max_braking: -8.0,
            ..DistanceBarrier::default()
        };
        assert!(!check(SafetyFilter::new(barrier, BicycleModel::default())));
        // Negative drag lets the speed grow past the acceleration bound.
        let model = BicycleModel {
            drag: -1.0,
            ..BicycleModel::default()
        };
        assert!(!check(SafetyFilter::new(DistanceBarrier::default(), model)));
        // Non-finite obstacle data leave the decision to the rollout.
        let mut far = obstacle_world(500.0);
        far.refill(
            Road::default(),
            [Obstacle {
                x: 500.0,
                y: 0.0,
                radius: f64::NAN,
            }]
            .into_iter(),
        );
        assert!(!SafetyFilter::default().provably_safe(&far, &state, &now, control));
    }

    #[test]
    fn empty_world_always_passes() {
        let filter = SafetyFilter::default();
        let (u, d) = filter.filter(
            &World::empty(),
            &VehicleState::new(0.0, 0.0, 0.0, 15.0),
            Control::new(1.0, 1.0),
        );
        assert_eq!(u, Control::new(1.0, 1.0));
        assert!(!d.is_correction());
    }

    #[test]
    fn distant_obstacle_passes() {
        let filter = SafetyFilter::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 8.0);
        let (_, d) = filter.filter(&obstacle_world(80.0), &state, Control::new(0.0, 0.5));
        assert!(!d.is_correction());
    }

    #[test]
    fn imminent_collision_is_corrected() {
        let filter = SafetyFilter::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let raw = Control::new(0.0, 1.0);
        let (safe, d) = filter.filter(&obstacle_world(12.0), &state, raw);
        assert!(d.is_correction());
        assert_ne!(safe, raw);
        match d {
            FilterDecision::Corrected { original } => assert_eq!(original, raw),
            FilterDecision::Passed => panic!("expected correction"),
        }
    }

    #[test]
    fn correction_improves_worst_case_barrier() {
        let filter = SafetyFilter::default();
        let world = obstacle_world(12.0);
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let raw = Control::new(0.0, 1.0);
        let (safe, _) = filter.filter(&world, &state, raw);
        let before = filter.worst_case_barrier(&world, &state, raw);
        let after = filter.worst_case_barrier(&world, &state, safe);
        assert!(
            after > before,
            "correction should improve safety: {before} -> {after}"
        );
    }

    #[test]
    fn filtered_driving_avoids_collisions() {
        // A deliberately reckless agent (full throttle, no steering) with
        // the shield in the loop must not collide on paper scenarios.
        let filter = SafetyFilter::default();
        for seed in 0..5u64 {
            let world = ScenarioConfig::new(4).with_seed(seed).generate();
            let mut ep = Episode::new(world, EpisodeConfig::default().with_max_steps(2000));
            while ep.status() == EpisodeStatus::Running {
                let raw = Control::new(0.0, 1.0);
                let (safe, _) = filter.filter(ep.world(), &ep.state(), raw);
                ep.step(safe);
            }
            assert_ne!(
                ep.status(),
                EpisodeStatus::Collided,
                "shielded agent collided (seed {seed}) at {}",
                ep.state()
            );
        }
    }

    #[test]
    fn worst_case_barrier_decreases_with_approach() {
        let filter = SafetyFilter::default();
        let far = filter.worst_case_barrier(
            &obstacle_world(60.0),
            &VehicleState::new(0.0, 0.0, 0.0, 10.0),
            Control::coast(),
        );
        let near = filter.worst_case_barrier(
            &obstacle_world(20.0),
            &VehicleState::new(0.0, 0.0, 0.0, 10.0),
            Control::coast(),
        );
        assert!(near < far);
    }

    #[test]
    fn admissible_set_includes_full_brake() {
        let filter = SafetyFilter::default();
        let set = filter.admissible_set(Control::new(0.3, 0.8));
        assert!(set.iter().any(|c| c.throttle == -1.0));
        assert!(set.iter().any(|c| c.steering == 1.0));
        assert!(set.iter().any(|c| c.steering == -1.0));
        // The scan order the tie-break depends on: steering from full right
        // to full left, each at the original, half and braking throttle.
        let mut expected = Vec::new();
        for i in -STEERING_CANDIDATES..=STEERING_CANDIDATES {
            let steering = f64::from(i) / f64::from(STEERING_CANDIDATES);
            for throttle in [0.8, 0.4, -1.0] {
                expected.push(Control::new(steering, throttle));
            }
        }
        assert_eq!(set, expected);
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_panics() {
        let _ = SafetyFilter::default().with_lookahead(Seconds::ZERO);
    }
}
