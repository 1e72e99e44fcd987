//! Golden Ψ decisions: an absolute anchor for the safety filter.
//!
//! Every other bit-identity check compares the system with itself, so a
//! change that moves every engine the same way passes them. This test pins
//! the shield's per-step output on a handful of high-correction
//! 4-obstacle episodes to committed bytes: the step count, the correction
//! count, the terminal status and an FNV-1a digest of the bits of every
//! filtered control. The episodes include a Ψ-deadlocked potential-field
//! run that corrects on nearly every one of its 3000 steps, the case any
//! Ψ fast path is most likely to change.
//!
//! The replay drives exactly the control path of Algorithm 1 (observe the
//! nearest obstacle ahead, act, filter, step); each episode's step and
//! correction counts are also checked against `CellConfig::run_spec`, so
//! the replay cannot drift from the runtime it stands for.
//!
//! A change that intentionally alters the shield's decisions re-blesses
//! the file with `SEO_BLESS=1 cargo test -p seo-integration --test
//! golden_psi` and says why in CHANGES.md. Any other diff is a bug.

use seo_core::prelude::*;
use seo_nn::kernel::ScalarKernel;
use seo_nn::policy::PolicyFeatures;
use seo_nn::InferenceScratch;
use seo_safety::filter::SafetyFilter;
use seo_sim::episode::{Episode, EpisodeConfig, EpisodeStatus};
use seo_sim::sensing::RelativeObservation;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/psi_decisions.ndjson"
);

/// `(controller, seed)` of the pinned episodes, all at 4 obstacles: the
/// most-corrected episodes of scenario seeds 2023..2143 per controller.
/// Seed 2078 under the potential-field agent dead-locks against Ψ and
/// runs to the 3000-step cap.
const EPISODES: [(&str, u64); 7] = [
    ("potential-field", 2078),
    ("potential-field", 2142),
    ("potential-field", 2083),
    ("potential-field", 2041),
    ("neural:0", 2069),
    ("neural:0", 2092),
    ("neural:0", 2065),
];

const OBSTACLES: usize = 4;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One episode's Ψ trace summary.
struct Trace {
    steps: usize,
    corrections: usize,
    status: EpisodeStatus,
    control_fnv: u64,
}

/// Replays the control path of one filtered episode at the paper's τ.
fn replay(cell: &CellConfig, spec: ScenarioSpec) -> Trace {
    let controller = cell.controller.build();
    let filter = SafetyFilter::default();
    let world = spec.world();
    let mut episode = Episode::borrowed(
        &world,
        EpisodeConfig::default().with_dt(cell.seo_config().tau),
    );
    let road = episode.world().road();
    let mut nn = InferenceScratch::default();
    let mut fnv = Fnv::new();
    let mut corrections = 0;
    while episode.status() == EpisodeStatus::Running {
        let state = episode.state();
        let ahead = RelativeObservation::observe_ahead(episode.world(), &state);
        let features = PolicyFeatures::from_observation(&state, &ahead, road.length, road.width);
        let raw = controller.act_scratch_with::<ScalarKernel>(&features, &mut nn);
        let (control, decision) = filter.filter(episode.world(), &state, raw);
        if decision.is_correction() {
            corrections += 1;
        }
        fnv.write(&control.steering.to_bits().to_le_bytes());
        fnv.write(&control.throttle.to_bits().to_le_bytes());
        episode.step(control);
    }
    Trace {
        steps: episode.steps(),
        corrections,
        status: episode.status(),
        control_fnv: fnv.0,
    }
}

/// The `shield-dense` benchmark cell (the paper preset) with `controller`.
fn cell(controller: &str) -> CellConfig {
    CellConfig {
        tau_ms: 20.0,
        gating_level: 0.5,
        control_mode: ControlMode::Filtered,
        optimizer: OptimizerKind::Offloading,
        controller: ControllerKind::parse(controller).expect("known controller"),
        channel: ChannelKind::Clean,
        traffic: TrafficKind::Static,
    }
}

fn render() -> String {
    let mut out = String::new();
    let mut scratch = EpisodeScratch::default();
    for controller in ["potential-field", "neural:0"] {
        let cell = cell(controller);
        let runtime = cell.runtime(KernelBackend::Scalar).expect("valid cell");
        for &(name, seed) in EPISODES.iter().filter(|(name, _)| *name == controller) {
            let spec = ScenarioSpec::new(OBSTACLES, seed);
            let trace = replay(&cell, spec);
            let report = cell.run_spec(&runtime, spec, &mut scratch);
            assert_eq!(
                (report.steps, report.corrections, report.status),
                (trace.steps, trace.corrections, trace.status),
                "{name} seed {seed}: the Ψ replay diverged from run_spec"
            );
            out.push_str(&format!(
                "{{\"controller\":\"{name}\",\"obstacles\":{OBSTACLES},\"seed\":{seed},\
                 \"steps\":{},\"corrections\":{},\"status\":\"{:?}\",\
                 \"control_fnv\":\"{:016x}\"}}\n",
                trace.steps, trace.corrections, trace.status, trace.control_fnv
            ));
        }
    }
    out
}

#[test]
fn psi_decisions_match_the_golden_bytes() {
    let actual = render();
    if std::env::var_os("SEO_BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("committed golden");
    assert_eq!(
        actual, expected,
        "Ψ decisions changed; re-bless only for an intended semantic change"
    );
}

#[test]
fn golden_covers_a_deadlocked_episode() {
    let expected = std::fs::read_to_string(GOLDEN).expect("committed golden");
    assert_eq!(expected.lines().count(), EPISODES.len());
    assert!(
        expected
            .lines()
            .any(|l| l.contains("\"steps\":3000") && l.contains("TimedOut")),
        "the golden must pin a Ψ-deadlocked 3000-step episode"
    );
}
