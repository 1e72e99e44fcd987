//! Scenario specs and the default worker count shared by every sweep.
//!
//! Every paper table and figure is produced by pushing many
//! scenario × seed configurations through the same closed control loop. A
//! [`ScenarioSpec`] names one of them: which world to generate and which
//! seed drives the episode. Each episode's entire stochastic stream derives
//! from its spec's seed and worlds are generated per spec, so an episode is
//! a pure function of its spec — the property that lets every engine split
//! a sweep any way it likes and still merge to the serial bytes. The
//! in-process parallel engine is [`crate::lease::run_leased`];
//! [`default_threads`] sizes it when no worker count is given.
//!
//! # Example
//!
//! ```
//! use seo_core::batch::ScenarioSpec;
//! use seo_core::prelude::*;
//!
//! let config = SeoConfig::paper_defaults();
//! let models = ModelSet::paper_setup(config.tau)?;
//! let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?;
//! let specs = ScenarioSpec::grid(&[0], 2, 2023); // two obstacle-free cells
//! let reports: Vec<EpisodeReport> = specs
//!     .iter()
//!     .map(|spec| runtime.run_episode(&spec.world(), spec.seed))
//!     .collect();
//! // An episode is a pure function of its spec.
//! assert_eq!(reports[1], runtime.run_episode(&specs[1].world(), specs[1].seed));
//! # Ok::<(), seo_core::SeoError>(())
//! ```

use seo_sim::scenario::ScenarioConfig;
use seo_sim::world::World;
use std::fmt;

/// One cell of a sweep: which world to generate and which seed drives the
/// episode's stochastic machinery (wireless channel, server latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioSpec {
    /// Obstacles on the route (the paper sweeps {0, 2, 4}).
    pub n_obstacles: usize,
    /// Seed for both scenario generation and the episode RNG.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Creates a spec.
    #[must_use]
    pub fn new(n_obstacles: usize, seed: u64) -> Self {
        Self { n_obstacles, seed }
    }

    /// The paper's evaluation grid: for each obstacle count, `runs` seeds
    /// starting at `base_seed` (run `k` uses `base_seed + k`).
    #[must_use]
    pub fn grid(obstacle_counts: &[usize], runs: usize, base_seed: u64) -> Vec<Self> {
        let mut specs = Vec::with_capacity(obstacle_counts.len() * runs);
        for &n in obstacle_counts {
            for k in 0..runs as u64 {
                specs.push(Self::new(n, base_seed.wrapping_add(k)));
            }
        }
        specs
    }

    /// Generates the world for this spec (deterministic in the seed).
    #[must_use]
    pub fn world(&self) -> World {
        ScenarioConfig::new(self.n_obstacles)
            .with_seed(self.seed)
            .generate()
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} obstacle(s), seed {}", self.n_obstacles, self.seed)
    }
}

/// The worker count used when none is given explicitly: the `SEO_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism. Every sweep entry point
/// ([`crate::experiment::ExperimentConfig::run_auto`], the `sweep`
/// harness, the bench binaries) resolves its pool through here so one knob
/// governs them all.
#[must_use]
pub fn default_threads() -> usize {
    threads_override(std::env::var("SEO_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Interprets an `SEO_THREADS`-style override: `Some(n)` for a positive
/// integer value, `None` (fall back to available parallelism) for absent,
/// unparsable, or zero values.
fn threads_override(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_counts_by_seeds() {
        let specs = ScenarioSpec::grid(&[0, 2, 4], 2, 100);
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0], ScenarioSpec::new(0, 100));
        assert_eq!(specs[1], ScenarioSpec::new(0, 101));
        assert_eq!(specs[4], ScenarioSpec::new(4, 100));
        assert_eq!(specs[0].to_string(), "0 obstacle(s), seed 100");
    }

    #[test]
    fn reports_come_back_in_spec_order() {
        use crate::lease::run_leased;
        use crate::prelude::*;
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau).expect("valid");
        let runtime =
            RuntimeLoop::new(config, models, OptimizerKind::ModelGating).expect("valid runtime");
        let specs = ScenarioSpec::grid(&[0, 4], 4, 7);
        let reports = run_leased(specs.len(), 4, |lease| {
            Ok::<_, ()>(
                lease
                    .indices()
                    .map(|i| runtime.run_episode(&specs[i].world(), specs[i].seed))
                    .collect::<Vec<_>>(),
            )
        })
        .expect("episodes do not fail");
        assert_eq!(reports.len(), specs.len());
        // Reports for the same spec must match a direct run regardless of
        // which worker produced them.
        for (spec, report) in specs.iter().zip(&reports) {
            let direct = runtime.run_episode(&spec.world(), spec.seed);
            assert_eq!(*report, direct, "out-of-order report for {spec}");
        }
    }

    #[test]
    fn seo_threads_override_parsing() {
        // Pure-function test: mutating the process environment would race
        // with every other test that sizes a pool.
        assert_eq!(threads_override(Some("3")), Some(3));
        assert_eq!(threads_override(Some(" 8 ")), Some(8));
        assert_eq!(threads_override(Some("0")), None);
        assert_eq!(threads_override(Some("not a number")), None);
        assert_eq!(threads_override(None), None);
        assert!(default_threads() >= 1);
    }
}
