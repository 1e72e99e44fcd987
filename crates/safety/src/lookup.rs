//! The low-cost proxy lookup table T(x, u) of Section IV-C.
//!
//! "Through enough evaluations of the safety expiration function, a low-cost
//! proxy lookup table T(x, u) is constructed to enable real-time sampling of
//! Δmax values at runtime." The table is gridded over the paper's state
//! features — distance to obstacle, relative orientation angle — plus speed,
//! and stores the φ evaluation at each grid point. Runtime queries use
//! nearest-lower-cell lookup, which is conservative in distance (a query
//! between grid points returns the Δmax of the *closer* distance row).

use crate::error::SafetyError;
use crate::interval::SafeIntervalEvaluator;
use seo_platform::units::Seconds;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::Control;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A uniform grid axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Axis {
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
    /// Number of grid points (>= 2).
    pub points: usize,
}

impl Axis {
    /// Creates an axis.
    ///
    /// # Errors
    ///
    /// Returns [`SafetyError::InvalidConfig`] if `min >= max`, either bound
    /// is non-finite, or `points < 2`.
    pub fn new(min: f64, max: f64, points: usize) -> Result<Self, SafetyError> {
        if !(min.is_finite() && max.is_finite() && min < max) {
            return Err(SafetyError::InvalidConfig {
                field: "axis bounds",
                constraint: "satisfy min < max and be finite",
            });
        }
        if points < 2 {
            return Err(SafetyError::InvalidConfig {
                field: "axis points",
                constraint: "be at least 2",
            });
        }
        Ok(Self { min, max, points })
    }

    /// The grid value at index `i` (clamped to the axis).
    #[must_use]
    pub fn value(&self, i: usize) -> f64 {
        let i = i.min(self.points - 1);
        self.min + (self.max - self.min) * i as f64 / (self.points - 1) as f64
    }

    /// Index of the grid point at or below `v` (clamped into range).
    #[must_use]
    pub fn floor_index(&self, v: f64) -> usize {
        if !v.is_finite() {
            return if v > 0.0 { self.points - 1 } else { 0 };
        }
        let t = (v - self.min) / (self.max - self.min) * (self.points - 1) as f64;
        (t.floor().max(0.0) as usize).min(self.points - 1)
    }
}

/// Offline-built table mapping (distance, bearing, speed) to Δmax.
///
/// # Example
///
/// ```
/// use seo_safety::lookup::{Axis, DeadlineTable};
/// use seo_safety::interval::SafeIntervalEvaluator;
/// use seo_sim::sensing::RelativeObservation;
/// use seo_sim::vehicle::Control;
///
/// let table = DeadlineTable::build(
///     &SafeIntervalEvaluator::default(),
///     Axis::new(0.0, 60.0, 13)?,
///     Axis::new(-3.2, 3.2, 9)?,
///     Axis::new(0.0, 15.0, 6)?,
///     Control::new(0.0, 0.5),
/// );
/// let obs = RelativeObservation { distance: 50.0, bearing: 0.0, speed: 5.0 };
/// assert!(table.query(&obs).as_secs() > 0.0);
/// # Ok::<(), seo_safety::SafetyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineTable {
    distance: Axis,
    bearing: Axis,
    speed: Axis,
    /// Row-major `[distance][bearing][speed]` Δmax values, seconds.
    values: Vec<Seconds>,
    /// The control assumption baked into the table.
    control: Control,
    horizon: Seconds,
}

impl DeadlineTable {
    /// Builds the table by evaluating φ at every grid point with the
    /// canonical relative-scene kernel
    /// ([`SafeIntervalEvaluator::safe_interval_relative`]).
    #[must_use]
    pub fn build(
        evaluator: &SafeIntervalEvaluator,
        distance: Axis,
        bearing: Axis,
        speed: Axis,
        control: Control,
    ) -> Self {
        let mut values = Vec::with_capacity(distance.points * bearing.points * speed.points);
        for di in 0..distance.points {
            for bi in 0..bearing.points {
                for si in 0..speed.points {
                    let obs = RelativeObservation {
                        distance: distance.value(di),
                        bearing: bearing.value(bi),
                        speed: speed.value(si),
                    };
                    values.push(evaluator.safe_interval_relative(&obs, control));
                }
            }
        }
        Self {
            distance,
            bearing,
            speed,
            values,
            control,
            horizon: evaluator.horizon(),
        }
    }

    /// Builds a table with the paper-scale default axes: distance 0–60 m in
    /// 2.5 m cells, bearing ±π in ~0.4 rad cells, speed 0–15 m/s in 1.5 m/s
    /// cells.
    #[must_use]
    pub fn build_default(evaluator: &SafeIntervalEvaluator) -> Self {
        let distance = Axis::new(0.0, 60.0, 25).expect("static axis is valid");
        let bearing =
            Axis::new(-std::f64::consts::PI, std::f64::consts::PI, 17).expect("static axis");
        let speed = Axis::new(0.0, 15.0, 11).expect("static axis");
        Self::build(evaluator, distance, bearing, speed, Control::new(0.0, 0.5))
    }

    /// The [`Self::build_default`] table for `evaluator`, built once per
    /// process and shared.
    ///
    /// The table depends only on the evaluator, so every runtime, engine
    /// and daemon lease with the same evaluator samples the same `Arc`.
    /// The memo is keyed on the evaluator's parameters compared bit for
    /// bit (`0.0` and `-0.0` never alias, NaN matches only itself) and
    /// holds one table per distinct evaluator for the life of the process.
    /// A table is built while the memo's lock is held, so concurrent first
    /// callers wait for one build instead of each running their own.
    #[must_use]
    pub fn shared(evaluator: &SafeIntervalEvaluator) -> Arc<Self> {
        type Memo = Vec<([u64; 12], Arc<DeadlineTable>)>;
        static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
        let key = evaluator.parameter_bits();
        // A build that panicked left the memo as it was (the push below
        // never ran), so a poisoned memo is still valid.
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, table)) = memo.iter().find(|(k, _)| *k == key) {
            return Arc::clone(table);
        }
        let table = Arc::new(Self::build_default(evaluator));
        memo.push((key, Arc::clone(&table)));
        table
    }

    /// Number of stored grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty (never true for built tables).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The horizon (Δmax cap) the table was built with.
    #[must_use]
    pub fn horizon(&self) -> Seconds {
        self.horizon
    }

    /// The stored Δmax values, row-major `[distance][bearing][speed]`.
    #[must_use]
    pub fn values(&self) -> &[Seconds] {
        &self.values
    }

    /// T(x, u): O(1) Δmax lookup for an observation.
    ///
    /// Out-of-range queries clamp to the grid; an infinite distance (no
    /// obstacle) returns the horizon directly.
    #[must_use]
    pub fn query(&self, observation: &RelativeObservation) -> Seconds {
        if !observation.distance.is_finite() {
            return self.horizon;
        }
        let di = self.distance.floor_index(observation.distance);
        // Bearing is safest near ±π and most dangerous at 0; nearest index
        // keeps the cell's sign symmetry, floor is fine for the monotone
        // distance axis.
        let bi = self.bearing.floor_index(observation.bearing);
        // Conservative in speed: faster is less safe, so round *up*.
        let si_floor = self.speed.floor_index(observation.speed);
        let si = if self.speed.value(si_floor) < observation.speed {
            (si_floor + 1).min(self.speed.points - 1)
        } else {
            si_floor
        };
        self.values[(di * self.bearing.points + bi) * self.speed.points + si]
    }
}

impl fmt::Display for DeadlineTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadline table {}x{}x{} ({} cells, horizon {})",
            self.distance.points,
            self.bearing.points,
            self.speed.points,
            self.len(),
            self.horizon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> DeadlineTable {
        DeadlineTable::build(
            &SafeIntervalEvaluator::default(),
            Axis::new(0.0, 60.0, 13).expect("valid"),
            Axis::new(-3.2, 3.2, 9).expect("valid"),
            Axis::new(0.0, 15.0, 6).expect("valid"),
            Control::new(0.0, 0.5),
        )
    }

    #[test]
    fn axis_validation() {
        assert!(Axis::new(0.0, 1.0, 2).is_ok());
        assert!(Axis::new(1.0, 0.0, 2).is_err());
        assert!(Axis::new(0.0, 1.0, 1).is_err());
        assert!(Axis::new(f64::NAN, 1.0, 2).is_err());
    }

    #[test]
    fn axis_value_and_floor_index() {
        let a = Axis::new(0.0, 10.0, 6).expect("valid"); // 0, 2, 4, 6, 8, 10
        assert_eq!(a.value(0), 0.0);
        assert_eq!(a.value(3), 6.0);
        assert_eq!(a.value(99), 10.0, "clamped");
        assert_eq!(a.floor_index(4.9), 2);
        assert_eq!(a.floor_index(-5.0), 0);
        assert_eq!(a.floor_index(50.0), 5);
        assert_eq!(a.floor_index(f64::INFINITY), 5);
        assert_eq!(a.floor_index(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn table_size_matches_axes() {
        let t = small_table();
        assert_eq!(t.len(), 13 * 9 * 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn infinite_distance_returns_horizon() {
        let t = small_table();
        let obs = RelativeObservation {
            distance: f64::INFINITY,
            bearing: 0.0,
            speed: 10.0,
        };
        assert_eq!(t.query(&obs), t.horizon());
    }

    #[test]
    fn near_head_on_is_shorter_than_far() {
        let t = small_table();
        let near = t.query(&RelativeObservation {
            distance: 6.0,
            bearing: 0.0,
            speed: 12.0,
        });
        let far = t.query(&RelativeObservation {
            distance: 55.0,
            bearing: 0.0,
            speed: 12.0,
        });
        assert!(near <= far, "near {near} should be <= far {far}");
        assert_eq!(far, t.horizon(), "far away should hit the cap");
    }

    #[test]
    fn query_approximates_direct_evaluation() {
        let evaluator = SafeIntervalEvaluator::default();
        let t = DeadlineTable::build_default(&evaluator);
        // Compare on a spread of states; table is conservative-ish, so
        // allow a tolerance of one cell's worth of distance (2.5 m at
        // 12 m/s ~ 0.21 s) plus the integration step.
        for (d, b, v) in [(20.0, 0.0, 12.0), (35.0, 0.4, 8.0), (10.0, -0.2, 5.0)] {
            let obs = RelativeObservation {
                distance: d,
                bearing: b,
                speed: v,
            };
            let exact = evaluator.safe_interval_relative(&obs, Control::new(0.0, 0.5));
            let approx = t.query(&obs);
            assert!(
                (approx.as_secs() - exact.as_secs()).abs() <= 0.3,
                "query {approx} too far from exact {exact} at d={d}, b={b}, v={v}"
            );
        }
    }

    #[test]
    fn conservative_in_distance() {
        // A query strictly between two distance grid points must not return
        // more than the value at the *upper* grid point (floor on a
        // monotone-increasing axis is conservative).
        let evaluator = SafeIntervalEvaluator::default().with_horizon(Seconds::new(2.0));
        let t = DeadlineTable::build(
            &evaluator,
            Axis::new(0.0, 60.0, 25).expect("valid"),
            Axis::new(-3.2, 3.2, 9).expect("valid"),
            Axis::new(0.0, 15.0, 6).expect("valid"),
            Control::new(0.0, 0.5),
        );
        for d in [7.3, 13.9, 21.4, 30.1] {
            let query = t.query(&RelativeObservation {
                distance: d,
                bearing: 0.0,
                speed: 12.0,
            });
            let upper = evaluator.safe_interval_relative(
                &RelativeObservation {
                    distance: d + 2.5,
                    bearing: 0.0,
                    speed: 12.0,
                },
                Control::new(0.0, 0.5),
            );
            assert!(
                query.as_secs() <= upper.as_secs() + 1e-9,
                "not conservative at d={d}: {query} > {upper}"
            );
        }
    }

    #[test]
    fn shared_tables_are_memoized_per_evaluator() {
        let evaluator = SafeIntervalEvaluator::default().with_horizon(Seconds::from_millis(60.0));
        let table = DeadlineTable::shared(&evaluator);
        assert!(Arc::ptr_eq(&table, &DeadlineTable::shared(&evaluator)));
        assert_eq!(*table, DeadlineTable::build_default(&evaluator));
        let kappa = evaluator.with_conservatism(12.0);
        assert!(!Arc::ptr_eq(&table, &DeadlineTable::shared(&kappa)));
        // Keys compare bits: a zero and a negative-zero gain compute the
        // same table but never alias.
        let with_gain = |kinetic_gain| {
            let barrier = crate::barrier::DistanceBarrier {
                kinetic_gain,
                ..Default::default()
            };
            SafeIntervalEvaluator::new(
                barrier,
                seo_sim::vehicle::BicycleModel::default(),
                Seconds::from_millis(5.0),
                Seconds::from_millis(60.0),
            )
        };
        let zero = DeadlineTable::shared(&with_gain(0.0));
        let negative_zero = DeadlineTable::shared(&with_gain(-0.0));
        assert!(!Arc::ptr_eq(&zero, &negative_zero));
        assert_eq!(zero, negative_zero);
    }

    #[test]
    fn racing_first_callers_share_one_build() {
        // A horizon no other test uses, so this is the key's first use.
        let evaluator = SafeIntervalEvaluator::default().with_horizon(Seconds::from_millis(73.1));
        let barrier = std::sync::Barrier::new(8);
        let tables: Vec<Arc<DeadlineTable>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        DeadlineTable::shared(&evaluator)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for table in &tables[1..] {
            assert!(Arc::ptr_eq(table, &tables[0]));
        }
    }

    #[test]
    fn clone_roundtrip() {
        let t = small_table();
        let back = t.clone();
        assert_eq!(back, t);
    }

    #[test]
    fn display_reports_shape() {
        let t = small_table();
        assert!(t.to_string().contains("13x9x6"));
    }
}
