//! Sensing: ray-cast range scans and safety-state observations.
//!
//! Two kinds of observations feed the SEO pipeline:
//!
//! * [`RelativeObservation`] — the precise (distance, relative orientation)
//!   state estimate `x` that the critical subset Λ″ provides to the safety
//!   filter. The paper retrieves this directly from CARLA "for simplicity";
//!   we retrieve it from the simulator ground truth, optionally with noise.
//! * [`RangeScanner`] — a LiDAR-like 1-D range scan over a forward field of
//!   view, used as the input `y_i` to the Λ′ detector models.

use crate::vehicle::VehicleState;
use crate::world::{nearest_surface, World};
use rand::Rng;

/// Precise safety-state estimate: distance and relative orientation to the
/// nearest obstacle (the `x` consumed by the safety filter Ψ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeObservation {
    /// Surface distance to the nearest obstacle, meters
    /// (`f64::INFINITY` when the world has no obstacles).
    pub distance: f64,
    /// Bearing of the obstacle center relative to the heading, radians in
    /// `(-pi, pi]`; zero when no obstacle exists.
    pub bearing: f64,
    /// Vehicle forward speed, m/s.
    pub speed: f64,
}

impl RelativeObservation {
    /// Ground-truth observation of the nearest obstacle.
    #[must_use]
    pub fn observe(world: &World, vehicle: &VehicleState) -> Self {
        match world.nearest_obstacle_with_distance(vehicle) {
            Some((o, distance)) => Self {
                distance,
                bearing: vehicle.bearing_to(o.x, o.y),
                speed: vehicle.speed,
            },
            None => Self {
                distance: f64::INFINITY,
                bearing: 0.0,
                speed: vehicle.speed,
            },
        }
    }

    /// Ground-truth observation of the nearest obstacle **ahead** of the
    /// vehicle (within ±90 degrees of the heading). Driving controllers use
    /// this: an obstacle just passed should no longer steer the vehicle,
    /// even while it is still the closest one overall.
    #[must_use]
    pub fn observe_ahead(world: &World, vehicle: &VehicleState) -> Self {
        let ahead = nearest_surface(
            world
                .obstacles()
                .iter()
                .filter(|o| vehicle.bearing_to(o.x, o.y).abs() < std::f64::consts::FRAC_PI_2),
            vehicle,
        );
        match ahead {
            Some((o, distance)) => Self {
                distance,
                bearing: vehicle.bearing_to(o.x, o.y),
                speed: vehicle.speed,
            },
            None => Self {
                distance: f64::INFINITY,
                bearing: 0.0,
                speed: vehicle.speed,
            },
        }
    }

    /// Observation corrupted with zero-mean Gaussian noise of the given
    /// standard deviations (meters, radians). Distances never go negative.
    #[must_use]
    pub fn observe_noisy<R: Rng>(
        world: &World,
        vehicle: &VehicleState,
        distance_sigma: f64,
        bearing_sigma: f64,
        rng: &mut R,
    ) -> Self {
        let clean = Self::observe(world, vehicle);
        if !clean.distance.is_finite() {
            return clean;
        }
        Self {
            distance: (clean.distance + gaussian(rng) * distance_sigma).max(0.0),
            bearing: clean.bearing + gaussian(rng) * bearing_sigma,
            speed: clean.speed,
        }
    }

    /// Whether any obstacle is visible at all.
    #[must_use]
    pub fn has_obstacle(&self) -> bool {
        self.distance.is_finite()
    }
}

/// Samples a standard normal variate via Box–Muller (keeps the dependency
/// surface to plain `rand`).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A forward-facing 1-D range scanner (LiDAR/radar-like).
///
/// # Example
///
/// ```
/// use seo_sim::prelude::*;
/// use seo_sim::sensing::RangeScanner;
///
/// let world = World::new(Road::default(), vec![Obstacle::new(20.0, 0.0, 1.0)]);
/// let scanner = RangeScanner::new(17, 90.0_f64.to_radians(), 50.0);
/// let scan = scanner.scan(&world, &VehicleState::route_start());
/// // The central ray hits the obstacle surface 19 m ahead.
/// assert!((scan[8] - 19.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeScanner {
    n_rays: usize,
    field_of_view: f64,
    max_range: f64,
}

impl RangeScanner {
    /// Creates a scanner with `n_rays` rays spread over `field_of_view`
    /// radians, saturating at `max_range` meters.
    ///
    /// # Panics
    ///
    /// Panics if `n_rays == 0` (a configuration bug).
    #[must_use]
    pub fn new(n_rays: usize, field_of_view: f64, max_range: f64) -> Self {
        assert!(n_rays > 0, "scanner needs at least one ray");
        Self {
            n_rays,
            field_of_view: field_of_view.abs(),
            max_range: max_range.max(0.0),
        }
    }

    /// Number of rays per scan.
    #[must_use]
    pub fn n_rays(&self) -> usize {
        self.n_rays
    }

    /// Saturation range, meters.
    #[must_use]
    pub fn max_range(&self) -> f64 {
        self.max_range
    }

    /// Casts all rays and returns the hit distance per ray (saturated at
    /// `max_range` when nothing is hit).
    ///
    /// Allocates the scan; detector hot paths use [`Self::scan_into`] with a
    /// reused buffer instead.
    #[must_use]
    pub fn scan(&self, world: &World, vehicle: &VehicleState) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_rays);
        self.scan_into(world, vehicle, &mut out);
        out
    }

    /// Casts all rays into a caller-provided buffer (cleared first) —
    /// allocation-free once the buffer has reached `n_rays` capacity.
    pub fn scan_into(&self, world: &World, vehicle: &VehicleState, out: &mut Vec<f64>) {
        out.clear();
        for i in 0..self.n_rays {
            let frac = if self.n_rays == 1 {
                0.5
            } else {
                i as f64 / (self.n_rays - 1) as f64
            };
            let angle = vehicle.heading + (frac - 0.5) * self.field_of_view;
            out.push(self.cast_ray(world, vehicle.x, vehicle.y, angle));
        }
    }

    /// Normalized scan in `[0, 1]` (1 = free space at max range), the form
    /// consumed by the neural models.
    #[must_use]
    pub fn scan_normalized(&self, world: &World, vehicle: &VehicleState) -> Vec<f64> {
        if self.max_range == 0.0 {
            return vec![0.0; self.n_rays];
        }
        self.scan(world, vehicle)
            .into_iter()
            .map(|d| d / self.max_range)
            .collect()
    }

    /// Distance along a single ray to the nearest obstacle surface.
    fn cast_ray(&self, world: &World, ox: f64, oy: f64, angle: f64) -> f64 {
        let (dx, dy) = (angle.cos(), angle.sin());
        let mut best = self.max_range;
        for obstacle in world.obstacles() {
            // Solve |o + t*d - c|^2 = r^2 for t >= 0.
            let cx = obstacle.x - ox;
            let cy = obstacle.y - oy;
            let proj = cx * dx + cy * dy;
            if proj < 0.0 {
                continue; // behind the ray origin
            }
            let closest_sq = (cx * cx + cy * cy) - proj * proj;
            let r_sq = obstacle.radius * obstacle.radius;
            if closest_sq > r_sq {
                continue; // ray misses the circle
            }
            let t = proj - (r_sq - closest_sq).sqrt();
            if t >= 0.0 && t < best {
                best = t;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Obstacle, Road};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn world_one_obstacle() -> World {
        World::new(Road::default(), vec![Obstacle::new(20.0, 0.0, 1.0)])
    }

    /// `observe_ahead` as `min_by` over recomputed distances.
    fn observe_ahead_reference(world: &World, vehicle: &VehicleState) -> RelativeObservation {
        let ahead = world
            .obstacles()
            .iter()
            .filter(|o| vehicle.bearing_to(o.x, o.y).abs() < std::f64::consts::FRAC_PI_2)
            .min_by(|a, b| {
                let da = a.surface_distance(vehicle.x, vehicle.y);
                let db = b.surface_distance(vehicle.x, vehicle.y);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            });
        match ahead {
            Some(o) => RelativeObservation {
                distance: o.surface_distance(vehicle.x, vehicle.y),
                bearing: vehicle.bearing_to(o.x, o.y),
                speed: vehicle.speed,
            },
            None => RelativeObservation {
                distance: f64::INFINITY,
                bearing: 0.0,
                speed: vehicle.speed,
            },
        }
    }

    #[test]
    fn observations_match_the_recomputing_reference() {
        let bits =
            |o: RelativeObservation| [o.distance.to_bits(), o.bearing.to_bits(), o.speed.to_bits()];
        let mut rng = StdRng::seed_from_u64(0x0b5);
        for _ in 0..5_000 {
            let n = rng.gen_range(0..6usize);
            let obstacles = (0..n)
                .map(|_| {
                    Obstacle::new(
                        f64::from(rng.gen_range(0..6i32)) * 3.0,
                        f64::from(rng.gen_range(-2..=2i32)),
                        f64::from(rng.gen_range(0..3i32)) * 0.5,
                    )
                })
                .collect();
            let world = World::new(Road::default(), obstacles);
            let v = VehicleState::new(
                f64::from(rng.gen_range(-2..12i32)),
                f64::from(rng.gen_range(-2..=2i32)),
                rng.gen_range(-3.2..3.2),
                5.0,
            );
            assert_eq!(
                bits(RelativeObservation::observe_ahead(&world, &v)),
                bits(observe_ahead_reference(&world, &v))
            );
            let nearest = world.nearest_obstacle(&v);
            let want = RelativeObservation {
                distance: nearest.map_or(f64::INFINITY, |o| o.surface_distance(v.x, v.y)),
                bearing: nearest.map_or(0.0, |o| v.bearing_to(o.x, o.y)),
                speed: v.speed,
            };
            assert_eq!(bits(RelativeObservation::observe(&world, &v)), bits(want));
        }
    }

    #[test]
    fn observe_reports_surface_distance_and_bearing() {
        let w = world_one_obstacle();
        let v = VehicleState::new(10.0, 0.0, 0.0, 6.0);
        let obs = RelativeObservation::observe(&w, &v);
        assert!((obs.distance - 9.0).abs() < 1e-12);
        assert!(obs.bearing.abs() < 1e-12);
        assert_eq!(obs.speed, 6.0);
        assert!(obs.has_obstacle());
    }

    #[test]
    fn observe_empty_world() {
        let obs = RelativeObservation::observe(&World::empty(), &VehicleState::route_start());
        assert!(!obs.has_obstacle());
        assert_eq!(obs.bearing, 0.0);
    }

    #[test]
    fn noisy_observation_stays_nonnegative() {
        let w = world_one_obstacle();
        let v = VehicleState::new(19.5, 0.0, 0.0, 5.0); // distance ~0, noise could go negative
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let obs = RelativeObservation::observe_noisy(&w, &v, 2.0, 0.1, &mut rng);
            assert!(obs.distance >= 0.0);
        }
    }

    #[test]
    fn noisy_observation_of_empty_world_is_clean() {
        let mut rng = StdRng::seed_from_u64(1);
        let obs = RelativeObservation::observe_noisy(
            &World::empty(),
            &VehicleState::route_start(),
            1.0,
            1.0,
            &mut rng,
        );
        assert!(!obs.has_obstacle());
    }

    #[test]
    fn central_ray_hits_head_on_obstacle() {
        let w = world_one_obstacle();
        let scanner = RangeScanner::new(9, 60.0_f64.to_radians(), 50.0);
        let scan = scanner.scan(&w, &VehicleState::route_start());
        // Central ray travels 20 - 1 = 19 m to the surface.
        assert!((scan[4] - 19.0).abs() < 1e-9, "central ray: {}", scan[4]);
        // Extreme rays miss and saturate.
        assert_eq!(scan[0], 50.0);
        assert_eq!(scan[8], 50.0);
    }

    #[test]
    fn obstacle_behind_is_invisible() {
        let w = World::new(Road::default(), vec![Obstacle::new(5.0, 0.0, 1.0)]);
        let v = VehicleState::new(10.0, 0.0, 0.0, 5.0); // obstacle behind
        let scanner = RangeScanner::new(5, 90.0_f64.to_radians(), 50.0);
        assert!(scanner.scan(&w, &v).iter().all(|&d| d == 50.0));
    }

    #[test]
    fn normalized_scan_in_unit_range() {
        let w = world_one_obstacle();
        let scanner = RangeScanner::new(32, 120.0_f64.to_radians(), 40.0);
        let scan = scanner.scan_normalized(&w, &VehicleState::route_start());
        assert_eq!(scan.len(), 32);
        assert!(scan.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(
            scan.iter().any(|&v| v < 1.0),
            "some ray should see the obstacle"
        );
    }

    #[test]
    fn nearest_of_two_obstacles_wins_on_shared_ray() {
        let w = World::new(
            Road::default(),
            vec![Obstacle::new(30.0, 0.0, 1.0), Obstacle::new(15.0, 0.0, 1.0)],
        );
        let scanner = RangeScanner::new(1, 0.0, 100.0);
        let scan = scanner.scan(&w, &VehicleState::route_start());
        assert!((scan[0] - 14.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one ray")]
    fn zero_rays_panics() {
        let _ = RangeScanner::new(0, 1.0, 1.0);
    }

    #[test]
    fn single_ray_points_forward() {
        let w = world_one_obstacle();
        let scanner = RangeScanner::new(1, 2.0, 50.0);
        let scan = scanner.scan(&w, &VehicleState::route_start());
        assert!((scan[0] - 19.0).abs() < 1e-9);
    }
}
